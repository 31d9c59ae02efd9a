"""Core value type: composition algebra, membership, text and JSON forms."""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathmonoid
from pathmonoid import (
    MonoidSet,
    PartialInjection,
    Word,
    canonical_delta,
    classify,
    closure,
    compose,
    domain_intervals,
    elements_with_domain,
    element_from_json_dict,
    element_to_json_dict,
    empty_map,
    enumerate_iend,
    enumerate_paut,
    eval_word,
    exhaustive_min_size,
    expand_word,
    factor_iend,
    format_element,
    format_symbol,
    format_word,
    identity,
    image_intervals,
    inverse,
    is_generating,
    is_iend,
    is_irredundant,
    is_paut,
    l_related,
    maximal_intervals,
    oracle_classifications,
    parse_element,
    parse_word,
    paut_monoid,
    restrict,
    verify_rank,
)
from pathmonoid.genwords import alpha, tau
from pathmonoid.path_core import _domain_intervals, _text_key

from conftest import (
    _runs,
    all_partial_injections,
    edge_oracle_is_iend,
    partial_injections,
    reference_domain_intervals,
)

try:  # Python 3.11+
    from re import _compiler as sre_compile, _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_compile
    import sre_parse


class TestConstruction:
    def test_pairs_sorted_by_domain(self):
        a = PartialInjection(5, [(4, 1), (1, 3), (2, 4)])
        assert a.pairs == ((1, 3), (2, 4), (4, 1))

    def test_lookup(self):
        a = PartialInjection(5, [(1, 3), (2, 4)])
        assert a[1] == 3
        assert a.get(5) is None
        assert 2 in a and 3 not in a
        with pytest.raises(KeyError):
            a[3]

    def test_immutable(self):
        a = identity(3)
        with pytest.raises(AttributeError, match="immutable"):
            a.n = 4
        assert a.n == 3

    @pytest.mark.parametrize(
        "copy_of",
        [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=["copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize(
        "value",
        [
            identity(3),
            empty_map(5),
            parse_element("n=24;1>24,2>23,3>22,7>9,8>10,20>1"),
            paut_monoid(3),
            Word(6, (tau(), alpha(2))),
            verify_rank("paut", 3),
        ],
        ids=["identity3", "empty5", "n24", "paut3", "word", "witness"],
    )
    def test_copies_and_pickles_equal_their_original(self, value, copy_of):
        # Each copy of an element passes the checked constructor, and an
        # element's hash is read off its image tuple.
        twin = copy_of(value)
        assert twin == value and hash(twin) == hash(value)
        if isinstance(value, PartialInjection):
            assert hash(twin) == hash(value.img)

    def test_equal_only_to_elements(self):
        assert (identity(3) == "x") is False
        assert identity(3) != "n=3;1>1,2>2,3>3"

    def test_domain_and_image(self):
        a = PartialInjection(5, [(1, 3), (4, 2)])
        assert a.domain() == (1, 4)
        assert a.image() == (2, 3)  # ascending, not domain order

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PartialInjection(3, [(1, 4)])
        with pytest.raises(ValueError):
            PartialInjection(3, [(0, 1)])
        with pytest.raises(ValueError):
            PartialInjection(0, [])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PartialInjection(3, [(1, 2), (1, 3)])
        with pytest.raises(ValueError):
            PartialInjection(3, [(1, 2), (3, 2)])

    @pytest.mark.parametrize(
        "n, pairs",
        [
            (3, [(1, 0)]), (3, [(-1, 1)]), (3, [(1.0, 2)]), (3, [("1", 2)]), (2.0, []), (-1, []),
            (3, [(True, 2)]), (3, [(1, True)]), (True, []), (3, [(1, 2), ("3", 1)]),
        ],
    )
    def test_rejects_bad_vertices_and_n(self, n, pairs):
        with pytest.raises(ValueError):
            PartialInjection(n, pairs)

    def test_one_pass_matches_the_two_pass_reference(self):
        # The constructor fills ``img`` in its validating loop; the reference
        # checks every pair first and fills ``img`` in a second loop.
        rng = random.Random(45)
        outcomes = set()
        for _ in range(5000):
            n = rng.randint(1, 6)
            vertices = [*range(n + 2), True, 1.0]
            pairs = [
                (rng.choice(vertices), rng.choice(vertices)) if rng.random() < 0.05
                else (rng.randint(1, n), rng.randint(1, n))
                for _ in range(rng.randint(0, n + 1))
            ]
            got, expected = _outcome(PartialInjection, n, pairs), _outcome(_two_pass_image, n, pairs)
            assert got == expected, (n, pairs)
            outcomes.add(got.split()[0] if isinstance(got, str) else "built")
        assert outcomes == {"built", "vertices", "pair", "duplicate"}


def _two_pass_image(n, pairs):
    """The image tuple of the pairs by the two-loop rule: every pair is
    checked against the sets of defined and of image vertices, then ``img``
    is filled."""
    defined, seen_images = set(), set()
    for x, y in pairs:
        if type(x) is not int or type(y) is not int:
            raise ValueError(f"vertices must be integers, got ({x!r}, {y!r})")
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValueError(f"pair ({x}, {y}) out of range for n={n}")
        if x in defined:
            raise ValueError(f"duplicate domain vertex {x}")
        if y in seen_images:
            raise ValueError(f"duplicate image vertex {y} (map not injective)")
        defined.add(x)
        seen_images.add(y)
    img = [0] * (n + 1)
    for x, y in pairs:
        img[x] = y
    return tuple(img)


def _outcome(build, n, pairs):
    """The image tuple ``build`` gives, or the message of its ValueError."""
    try:
        built = build(n, pairs)
    except ValueError as exc:
        return str(exc)
    return getattr(built, "img", built)


class TestAlgebra:
    def test_compose_right_action(self):
        # x(ab) = (xa)b: apply a first, then b.
        a = PartialInjection(3, [(1, 2)])
        b = PartialInjection(3, [(2, 3)])
        assert compose(a, b) == PartialInjection(3, [(1, 3)])
        assert compose(b, a) == empty_map(3)

    def test_compose_rejects_mixed_n(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))

    def test_identity_and_empty(self):
        e = identity(4)
        z = empty_map(4)
        a = PartialInjection(4, [(2, 3), (3, 2)])
        assert compose(e, a) == a == compose(a, e)
        assert compose(z, a) == z == compose(a, z)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_matches_the_checked_constructor(self, n):
        assert identity(n).img == PartialInjection(n, [(x, x) for x in range(1, n + 1)]).img

    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_identity_rejects_a_bad_n(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            identity(n)

    def test_mul_operator_matches_compose(self):
        a = PartialInjection(4, [(1, 2), (2, 1)])
        b = PartialInjection(4, [(2, 4)])
        assert a * b == compose(a, b)

    def test_inverse_swaps_pairs(self):
        a = PartialInjection(5, [(1, 3), (2, 4)])
        assert inverse(a) == PartialInjection(5, [(3, 1), (4, 2)])

    def test_restrict(self):
        a = PartialInjection(5, [(1, 3), (2, 4), (5, 5)])
        assert restrict(a, [2, 5, 4]) == PartialInjection(5, [(2, 4), (5, 5)])

    def test_restrict_matches_the_checked_constructor(self):
        # ``restrict`` filters the image tuple; the checked constructor,
        # given the kept pairs, builds the same element.
        rng = random.Random(47)
        for a in all_partial_injections(4):
            keep = rng.sample(range(-1, 7), rng.randint(0, 8))
            got = restrict(a, keep)
            expected = PartialInjection(a.n, [(x, y) for x, y in a.pairs if x in keep])
            assert (got.n, got.img, hash(got)) == (expected.n, expected.img, hash(expected)), (a, keep)

    @pytest.mark.parametrize("vertex", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_restrict_refuses_a_vertex_that_is_not_an_int(self, vertex):
        # True and 1.0 compare equal to 1, so they would keep vertex 1.
        a = identity(3)
        with pytest.raises(ValueError, match="vertices must be integers"):
            restrict(a, {vertex})
        with pytest.raises(ValueError, match="vertices must be integers"):
            restrict(a, [1, vertex])

    @settings(max_examples=200)
    @given(partial_injections(), partial_injections(), partial_injections())
    def test_associativity(self, a, b, c):
        n = max(a.n, b.n, c.n)
        a, b, c = (PartialInjection(n, x.pairs) for x in (a, b, c))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @settings(max_examples=200)
    @given(partial_injections())
    def test_inverse_involution_and_regularity(self, a):
        assert inverse(inverse(a)) == a
        assert compose(compose(a, inverse(a)), a) == a


class TestIntervals:
    def test_maximal_intervals(self):
        assert maximal_intervals([1, 2, 4, 6, 7, 8]) == ((1, 2), (4, 4), (6, 8))
        assert maximal_intervals([]) == ()

    @pytest.mark.parametrize("points", [[True, 2], [1.5]], ids=["bool", "float"])
    def test_maximal_intervals_refuse_a_vertex_that_is_not_an_int(self, points):
        with pytest.raises(ValueError, match="vertices must be integers"):
            maximal_intervals(points)

    def test_domain_and_image_intervals(self):
        a = PartialInjection(6, [(1, 5), (2, 6), (4, 2)])
        assert domain_intervals(a) == ((1, 2), (4, 4))
        assert image_intervals(a) == ((2, 2), (5, 6))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_domain_and_image_intervals_match_runs(self, n):
        def ends(runs):
            return tuple((run[0], run[-1]) for run in runs)

        for a in all_partial_injections(n):
            assert domain_intervals(a) == ends(_runs(a.domain()))
            assert image_intervals(a) == ends(_runs(a.image()))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_domain_intervals_of_members_match_the_enumerate_rule(self, n):
        for a in enumerate_iend(n):
            for img in (a.img, inverse(a).img):
                assert _domain_intervals(img) == reference_domain_intervals(img), a

    @pytest.mark.parametrize("n", (300, 1000))
    @pytest.mark.parametrize("seed", range(5))
    def test_domain_intervals_of_seeded_images_match_the_enumerate_rule(self, n, seed):
        # Image tuples of partial injections, from nearly empty to full.
        rng = random.Random(f"{n}-{seed}")
        for density in (0.02, 0.3, 0.7, 0.98, 1.0):
            domain = [x for x in range(1, n + 1) if rng.random() < density]
            img = [0] * (n + 1)
            for x, y in zip(domain, rng.sample(range(1, n + 1), len(domain))):
                img[x] = y
            img = tuple(img)
            assert _domain_intervals(img) == reference_domain_intervals(img), density

    @given(st.lists(st.integers(min_value=-20, max_value=20)))
    def test_maximal_intervals_match_runs(self, points):
        assert maximal_intervals(points) == tuple((r[0], r[-1]) for r in _runs(set(points)))


class TestMembership:
    def test_blockwise_examples(self):
        # Monotone onto an interval per block: a member.
        assert is_iend(PartialInjection(5, [(1, 3), (2, 2), (4, 5)]))
        # Domain block {1,2} torn apart in the image: not a member.
        assert not is_iend(PartialInjection(5, [(1, 1), (2, 4)]))

    def test_paut_needs_maximal_image_intervals(self):
        # Blocks {1,2} and {4} land on {1,2} and {3}: {1,2} is not maximal
        # inside the image {1,2,3}, so this is iend but not paut.
        a = PartialInjection(4, [(1, 1), (2, 2), (4, 3)])
        assert is_iend(a)
        assert not is_paut(a)

    def test_full_reversal_is_paut(self):
        tau = PartialInjection(4, [(x, 5 - x) for x in range(1, 5)])
        assert is_paut(tau)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_edge_oracle(self, n):
        for a in all_partial_injections(n):
            assert is_iend(a) == edge_oracle_is_iend(a)
            assert is_paut(a) == (edge_oracle_is_iend(a) and edge_oracle_is_iend(inverse(a)))


class TestTextAndJson:
    def test_format(self):
        assert format_element(PartialInjection(5, [(2, 4), (1, 3)])) == "n=5;1>3,2>4"
        assert format_element(empty_map(5)) == "n=5;"

    def test_parse(self):
        assert parse_element("n=5;1>3,2>4") == PartialInjection(5, [(1, 3), (2, 4)])
        assert parse_element("n=5;") == empty_map(5)

    def test_repr_reads_back_through_parse_element(self):
        a = PartialInjection(5, [(1, 3), (2, 4)])
        assert repr(a) == "parse_element('n=5;1>3,2>4')"
        assert eval(repr(a), {"parse_element": parse_element}) == a

    @pytest.mark.parametrize(
        "bad",
        [
            "", "n=5", "5;1>3", "n=5;1>3,", "n=5;1>6", "n=5;0>1", "n=5;1>2,1>3", "n=x;1>2",
            "n=5;1>2,3>2", "n=0;", "n=5;-1>2", "n=5;1>a",
            # Fullwidth and Arabic-Indic digits: only ASCII digits are read.
            "n=\uff13;1>1", "n=3;1>\u0661",
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_element(bad)

    @pytest.mark.parametrize("bad", [b"n=3;", None, 3], ids=["bytes", "none", "int"])
    def test_parse_refuses_a_non_str(self, bad):
        with pytest.raises(ValueError, match="element text must be a str"):
            parse_element(bad)

    def test_json_forms(self):
        a = PartialInjection(5, [(1, 3), (2, 4)])
        obj = element_to_json_dict(a)
        assert obj == {"n": 5, "pairs": [[1, 3], [2, 4]]}
        assert element_from_json_dict(obj) == a

    @pytest.mark.parametrize(
        "bad",
        [
            {}, {"n": 5}, {"pairs": []}, {"n": "five", "pairs": []}, {"n": 3, "pairs": [[1]]},
            {"n": 3, "pairs": [[1, 4]]},
            {"n": 3, "pairs": [[1, 2], [1, 3]]},
            {"n": 3, "pairs": [[1, 2], [3, 2]]},
            {"n": 3, "pairs": [["x", 2]]},
            {"n": float("inf"), "pairs": []},
            {"n": 3.9, "pairs": [[1.5, 1.2]]}, {"n": 3.0, "pairs": []}, {"n": 3, "pairs": [[1.0, 2]]},
            {"n": "3", "pairs": []}, {"n": 3, "pairs": [["1", 2]]},
            {"n": True, "pairs": []}, {"n": 3, "pairs": [[True, 2]]},
        ],
    )
    def test_json_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            element_from_json_dict(bad)

    @settings(max_examples=200)
    @given(partial_injections())
    def test_round_trips(self, a):
        assert parse_element(format_element(a)) == a
        assert element_from_json_dict(element_to_json_dict(a)) == a


class TestTextKey:
    """``_text_key`` orders elements exactly as their text does."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_orders_both_families_as_their_text(self, n):
        for elements in (enumerate_paut(n), enumerate_iend(n)):
            random.Random(n).shuffle(elements)
            assert sorted(elements, key=_text_key) == sorted(elements, key=format_element)

    def test_orders_random_injections_at_n_9_as_their_text(self):
        rng = random.Random(9)
        points = range(1, 10)
        elements = []
        for _ in range(20_000):
            dom = rng.sample(points, rng.randint(0, 9))
            elements.append(PartialInjection(9, zip(dom, rng.sample(points, len(dom)))))
        assert sorted(elements, key=_text_key) == sorted(elements, key=format_element)

    def test_from_n_10_the_key_is_the_text(self):
        # The byte order would put 1>1 before 10>1.
        texts = ["n=10;1>1", "n=10;10>1", "n=10;2>1"]
        ordered = sorted(map(parse_element, texts), key=_text_key)
        assert list(map(format_element, ordered)) == ["n=10;10>1", "n=10;1>1", "n=10;2>1"]


def _one_character_nodes(subpattern):
    """Every node of a parsed regular expression that matches one character."""
    for op, av in subpattern:
        if op in (sre_parse.LITERAL, sre_parse.NOT_LITERAL, sre_parse.ANY, sre_parse.IN):
            yield op, av
            continue
        # Groups, repeats, branches and assertions hold their subpatterns in av.
        for part in av if isinstance(av, (tuple, list)) else ():
            for sub in part if isinstance(part, list) else [part]:
                if isinstance(sub, sre_parse.SubPattern):
                    yield from _one_character_nodes(sub)


@pytest.mark.parametrize(
    "call",
    [
        lambda: classify(["x"], "L"),
        lambda: oracle_classifications(["x"]),
        lambda: l_related("x", "y"),
        lambda: closure(["x"], 3),
        lambda: factor_iend("n=3;"),
        lambda: is_paut("n=3;"),
        lambda: is_iend("n=3;"),
        lambda: format_element("x"),
        lambda: compose(identity(3), "x"),
        lambda: restrict("x", [1]),
        lambda: element_to_json_dict("x"),
        lambda: inverse("x"),
        lambda: domain_intervals("x"),
        lambda: image_intervals("x"),
    ],
    ids=[
        "classify", "oracle", "l_related", "closure", "factor_iend", "is_paut", "is_iend",
        "format_element", "compose", "restrict", "to_json", "inverse", "domain_intervals",
        "image_intervals",
    ],
)
def test_functions_that_take_elements_refuse_other_objects(call):
    # Each read ``n`` or ``img`` of a str and raised AttributeError.
    with pytest.raises(ValueError, match="an element must be a PartialInjection, got str"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: classify(None, "L"), "elements must be an iterable, got NoneType"),
        (lambda: oracle_classifications(None), "elements must be an iterable, got NoneType"),
        (lambda: closure(None, 3), "elements must be an iterable, got NoneType"),
        (lambda: is_generating([], 3), "the target must be a MonoidSet, got int"),
        (lambda: is_generating(None, paut_monoid(2)), "elements must be an iterable, got NoneType"),
        (lambda: is_irredundant(None, paut_monoid(2)), "elements must be an iterable, got NoneType"),
        (lambda: is_irredundant(3, "x"), "the target must be a MonoidSet, got str"),
        (lambda: maximal_intervals(None), "vertices must be an iterable, got NoneType"),
        (lambda: restrict(identity(3), None), "vertices must be an iterable, got NoneType"),
        (lambda: elements_with_domain(3, None, "paut"), "vertices must be an iterable, got NoneType"),
    ],
    ids=[
        "classify", "oracle", "closure", "is_generating", "is_generating-gens", "is_irredundant",
        "is_irredundant-target", "maximal_intervals", "restrict", "elements_with_domain",
    ],
)
def test_functions_that_take_collections_refuse_other_objects(call, message):
    # Each iterated None (TypeError) or read ``_layers`` of an int (AttributeError).
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: eval_word("x"), "a word must be a Word, got str"),
        (lambda: expand_word("x"), "a word must be a Word, got str"),
        (lambda: format_word("x"), "a word must be a Word, got str"),
        (lambda: format_symbol("x"), "a letter must be a Symbol, got 'x'"),
        (lambda: canonical_delta("x"), "an element must be a PartialInjection, got str"),
        (lambda: exhaustive_min_size("x", 1), "the target must be a MonoidSet, got str"),
    ],
    ids=["eval_word", "expand_word", "format_word", "format_symbol", "canonical_delta", "exhaustive_min_size"],
)
def test_functions_that_take_words_letters_or_targets_refuse_other_objects(call, message):
    # Each read an attribute of the str and raised AttributeError.
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PartialInjection(3, None), "pairs must be an iterable, got NoneType"),
        (lambda: PartialInjection(3, [1]), "a pair must be two vertices, got 1"),
        (lambda: PartialInjection(3, [(1, 2, 3)]), "a pair must be two vertices, got (1, 2, 3)"),
        (lambda: Word(3, None), "letters must be an iterable, got NoneType"),
        (lambda: Word(None, None), "n must be a positive integer, got None"),
        (lambda: MonoidSet(3, None), "elements must be an iterable, got NoneType"),
        (lambda: MonoidSet(3, frozenset([1])), "an element must be a PartialInjection, got int"),
        (lambda: MonoidSet("x", paut_monoid(3).elements), "n must be a positive integer, got 'x'"),
        (lambda: MonoidSet(None, None), "n must be a positive integer, got None"),
    ],
    ids=[
        "element-None", "element-int-pair", "element-triple", "word-None",
        "word-n", "monoid-None", "monoid-int-member", "monoid-n", "monoid-n-first",
    ],
)
def test_constructors_refuse_other_objects(call, message):
    # Each raised TypeError or AttributeError, or read a str n as a
    # mismatch ("element on n=3 does not match the monoid's n=x").
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# The classes of ``pathmonoid.__all__`` whose constructors check their
# arguments; the other classes are records and exceptions.
CHECKED_CONSTRUCTORS = {"PartialInjection", "Word", "MonoidSet"}

# One valid value for every keyword-only parameter in ``pathmonoid.__all__``.
VALID_KEYWORDS = {}


def _valid_arguments():
    """One valid positional argument list for every function and checked
    constructor of ``pathmonoid.__all__``."""
    a, word = parse_element("n=3;1>1,2>2"), parse_word("tau", 3)
    letter, target = word.letters[0], paut_monoid(3)
    return {
        "PartialInjection": (3, [(1, 1)]), "Word": (3, (letter,)),
        "MonoidSet": (3, target.elements),
        "compose": (a, a), "inverse": (a,), "identity": (3,), "empty_map": (3,),
        "restrict": (a, {1}), "maximal_intervals": ({1, 2},), "domain_intervals": (a,),
        "image_intervals": (a,), "is_iend": (a,), "is_paut": (a,), "format_element": (a,),
        "parse_element": ("n=3;",), "element_to_json_dict": (a,),
        "element_from_json_dict": ({"n": 3, "pairs": []},), "type_sequence": (a, (1, 2)),
        "l_related": (a, a), "r_related": (a, a), "h_related": (a, a), "j_related": (a, a),
        "classify": ([a], "L"), "oracle_classifications": ([identity(2)],),
        "mask_profile": (3, 1), "count_paut": (3,), "count_iend": (3,), "count_by_mask": (3,),
        "elements_with_domain": (3, {1}, "paut"), "enumerate_paut": (3,), "enumerate_iend": (3,),
        "make_generator": (letter, 3), "legal_symbols": (3,), "alphabet_paut": (3,),
        "alphabet_iend": (3,), "eval_word": (word,), "expand_symbol": (letter, 3),
        "expand_word": (word,), "format_symbol": (letter,), "parse_symbol": ("tau",),
        "format_word": (word,), "parse_word": ("tau", 3), "factor_paut": (a,),
        "factor_iend": (a,), "canonical_delta": (a,), "closure": ([a], 3),
        "is_generating": ([a], target), "is_irredundant": ([a], target),
        "exhaustive_min_size": (target, 1), "rank_formula": ("paut", 3),
        "lower_bound_witnesses": (3,), "paut_monoid": (3,), "iend_monoid": (3,),
        "verify_rank": ("paut", 3),
    }


def test_every_public_function_refuses_a_wrong_type_with_value_error():
    # Each function and checked constructor of the public API, with "x" and
    # with None in each positional or keyword-only slot (the others valid),
    # answers ValueError or a result; any other exception is an unchecked
    # argument.
    valid = _valid_arguments()
    functions = [
        name
        for name in pathmonoid.__all__
        if inspect.isfunction(getattr(pathmonoid, name)) or name in CHECKED_CONSTRUCTORS
    ]
    assert sorted(valid) == sorted(functions)
    keyword_only = {}
    for name in functions:
        parameters = inspect.signature(getattr(pathmonoid, name)).parameters.values()
        names = sorted(p.name for p in parameters if p.kind is p.KEYWORD_ONLY)
        if names:
            keyword_only[name] = names
    assert keyword_only == {name: sorted(kw) for name, kw in VALID_KEYWORDS.items()}
    other = []
    for name in functions:
        function = getattr(pathmonoid, name)
        keywords = VALID_KEYWORDS.get(name, {})
        for slot in [*range(len(valid[name])), *keywords]:
            for wrong in ("x", None):
                args, kwargs = list(valid[name]), dict(keywords)
                if isinstance(slot, int):
                    args[slot] = wrong
                else:
                    kwargs[slot] = wrong
                try:
                    result = function(*args, **kwargs)
                    if inspect.isgenerator(result):
                        list(result)
                except ValueError:
                    pass
                except Exception as exc:
                    other.append(f"{name} {slot!r} {wrong!r}: {type(exc).__name__}")
    assert other == []


def test_every_cache_is_bounded():
    # A functools cache with no maxsize grows with every request that a
    # long-lived process serves.
    unbounded = []
    for info in pkgutil.iter_modules(pathmonoid.__path__):
        module = importlib.import_module(f"pathmonoid.{info.name}")
        owners = [module, *(v for v in vars(module).values() if isinstance(v, type))]
        for owner in owners:
            for name, value in vars(owner).items():
                value = getattr(value, "__func__", value)
                parameters = getattr(value, "cache_parameters", None)
                if parameters is not None and parameters()["maxsize"] is None:
                    unbounded.append(f"{module.__name__}.{name}")
    assert unbounded == []


def test_every_private_function_is_named_in_the_package():
    # A module-level function that is not public and that no other code in
    # the package names is read by tests alone: one more spelling of a fact
    # for tests and docs to keep in step.  Names match bare, across modules.
    defined, named = [], set()
    for path in sorted(Path(pathmonoid.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(stmt))
            names = {node.id for node in nodes if isinstance(node, ast.Name)}
            names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            if isinstance(stmt, ast.FunctionDef):
                defined.append((path.stem, stmt.name))
                names.discard(stmt.name)
            named |= names
    unread = [
        f"{module}.{name}"
        for module, name in defined
        if name not in named and name not in pathmonoid.__all__
    ]
    assert unread == []


def test_families_are_told_apart_in_the_table_only():
    # ``census._FAMILIES`` holds every fact in which PAut and IEnd differ;
    # a comparison with a family's name, or a tuple, list or set of names,
    # anywhere else is one more per-family ladder to keep in step with it.
    def names_a_family(node):
        return isinstance(node, ast.Constant) and node.value in ("paut", "iend")

    offenders = []
    for path in sorted(Path(pathmonoid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                compares = any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)
                listed = compares and any(map(names_a_family, [node.left, *node.comparators]))
            else:
                listed = isinstance(node, (ast.Tuple, ast.List, ast.Set)) and any(map(names_a_family, node.elts))
            if listed:
                offenders.append(f"{path.stem}:{node.lineno}")
    assert offenders == []


def test_patterns_read_ascii_digits_only():
    # Every text form is written in ASCII digits; a pattern with a ``\d``,
    # ``.`` or negated class somewhere also reads "３" or "١" there.
    offenders = []
    for info in pkgutil.iter_modules(pathmonoid.__path__):
        module = importlib.import_module(f"pathmonoid.{info.name}")
        for name, pattern in vars(module).items():
            if not isinstance(pattern, re.Pattern):
                continue
            tree = sre_parse.parse(pattern.pattern, pattern.flags)
            for node in _one_character_nodes(tree):
                one = sre_compile.compile(sre_parse.SubPattern(tree.state, [node]), pattern.flags)
                if any(one.fullmatch(digit) for digit in "\uff13\u0663\u0969"):
                    offenders.append(f"{module.__name__}.{name}")
                    break
    assert offenders == []


def test_byte_images_are_built_and_multiplied_in_one_place():
    # ``path_core``'s byte kernel is the one home of byte images: a
    # ``bytes(...)`` call or a ``translate`` in any other module would be a
    # second spelling of their format or of the n <= 255 rule.
    offenders = []
    for path in sorted(Path(pathmonoid.__file__).parent.glob("*.py")):
        if path.stem == "path_core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            makes_bytes = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "bytes"
            )
            translates = isinstance(node, ast.Attribute) and node.attr == "translate"
            if makes_bytes or translates:
                offenders.append(f"{path.stem}:{node.lineno}")
    assert offenders == []


def test_only_the_byte_kernel_reads_a_rank_by_counting_zeros():
    # ``path_core`` reads the rank of an image tuple, a byte image or a
    # translation table as its count of 0 entries; a ``.count(0)`` in any
    # other module is a second spelling of that rule, with its own offset.
    offenders = []
    for path in sorted(Path(pathmonoid.__file__).parent.glob("*.py")):
        if path.stem == "path_core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "count"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
            ):
                offenders.append(f"{path.stem}:{node.lineno}")
    assert offenders == []


def _package_imports(module: str) -> set[str]:
    """The modules of the package that ``module`` imports, at any depth."""
    path = Path(pathmonoid.__file__).parent / f"{module}.py"
    imported: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:  # a relative import
            imported.update([node.module] if node.module else [alias.name for alias in node.names])
    return imported


def test_the_import_graph_keeps_each_layer_in_its_home():
    # ``path_core`` is the base the other modules build on; ``greens`` reads
    # the byte kernel from it alone, so ``rankcheck`` may import ``greens``;
    # and ``census``'s family table holds no factorizer.
    assert _package_imports("path_core") == set()
    assert _package_imports("greens") == {"path_core"}
    assert "factorize" not in _package_imports("census")


# ``path_core._trusted`` is the one maker of elements: it alone sets their
# slots, and the checked constructor returns through it.
SLOT_SETTERS = {"_set_n", "_set_img"}


def _name_used(node: ast.AST) -> str | None:
    """The name a node reads or imports: a loaded name, an attribute or an
    imported alias."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_each_element_form_has_one_maker():
    # A slot set outside ``_trusted`` is a second element maker; a
    # ``MonoidSet`` in ``greens`` is a second check and conversion of the
    # oracle's members, which reads its own byte images.
    offenders = []
    for path in sorted(Path(pathmonoid.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            maker = (path.stem, getattr(stmt, "name", None)) == ("path_core", "_trusted")
            for node in ast.walk(stmt):
                name = _name_used(node)
                if (name in SLOT_SETTERS and not maker) or (name == "MonoidSet" and path.stem == "greens"):
                    offenders.append(f"{path.stem}:{node.lineno}:{name}")
    assert offenders == []


def _is_format_element(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "format_element") or (
        isinstance(node, ast.Attribute) and node.attr == "format_element"
    )


def test_text_order_is_decided_by_one_key():
    # ``path_core._text_key`` is the one rule for text order: a sort or a
    # ``min`` by ``format_element`` builds a text per element to compare.
    offenders = []
    for path in sorted(Path(pathmonoid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            keyed = any(kw.arg == "key" and _is_format_element(kw.value) for kw in node.keywords)
            mapped = (
                isinstance(node.func, ast.Name)
                and node.func.id in ("min", "max", "sorted")
                and any(
                    isinstance(arg, ast.Call)
                    and isinstance(arg.func, ast.Name)
                    and arg.func.id == "map"
                    and arg.args
                    and _is_format_element(arg.args[0])
                    for arg in node.args
                )
            )
            if keyed or mapped:
                offenders.append(f"{path.stem}:{node.lineno}")
    assert offenders == []


def test_only_cli_main_decides_an_exit_code():
    # A subcommand returns one ``Rendering`` whose ``ok`` carries its
    # verdict; ``main`` alone turns that and every exception into an exit
    # code, so no other function reads an ``EXIT_*`` name.
    path = Path(pathmonoid.__file__).parent / "cli.py"
    offenders = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(func, ast.FunctionDef) or func.name == "main":
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id.startswith("EXIT_"):
                offenders.append(f"{func.name}:{node.lineno} reads {node.id}")
            returns_tuple = isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)
            if func.name.startswith("_cmd_") and returns_tuple:
                offenders.append(f"{func.name}:{node.lineno} returns a tuple")
    assert offenders == []
