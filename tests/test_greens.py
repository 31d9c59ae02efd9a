"""Green's relations: structural predicates against the Cayley-graph oracle,
and the oracle against the ideal tables of ``conftest``."""

from __future__ import annotations

import random
from collections import Counter
from functools import partial

import pytest

from pathmonoid import (
    GreensClassification,
    PartialInjection,
    classify,
    closure,
    enumerate_iend,
    enumerate_paut,
    format_element,
    h_related,
    identity,
    image_intervals,
    inverse,
    is_iend,
    j_related,
    l_related,
    oracle_classifications,
    parse_element,
    r_related,
    type_sequence,
)
from pathmonoid import greens, path_core, rankcheck
from pathmonoid.greens import canonical_type
from pathmonoid.path_core import _by_rank, _img_bytes, _text_key, _trusted
from pathmonoid.rankcheck import MonoidSet
from pathmonoid.selftest import check_greens

from conftest import (
    _naive_types,
    naive_type_sequences,
    reference_h_related,
    reference_j_related,
    reference_ideal_partitions,
    reference_l_related,
    reference_r_related,
)


def _ideal(family: str, n: int, k: int) -> list[PartialInjection]:
    """The ideal {a : rank a <= k} of PAut(P_n) or IEnd(P_n)."""
    m = enumerate_paut(n) if family == "paut" else enumerate_iend(n)
    return [a for a in m if len(a) <= k]


# Closed sets with no identity, by name: the empty set, one idempotent, a
# semilattice of partial identities and the ideals below the top rank.
CLOSED_WITHOUT_IDENTITY = {
    "empty": lambda: [],
    "one-idempotent": lambda: [parse_element("n=3;1>1")],
    "partial-identities": lambda: [
        parse_element(t) for t in ("n=3;", "n=3;1>1", "n=3;2>2", "n=3;1>1,2>2")
    ],
    **{
        f"{family}{n}-rank<={k}": partial(_ideal, family, n, k)
        for family in ("paut", "iend")
        for n in (3, 4, 5)
        for k in range(n)
    },
}

REFERENCES = (
    (l_related, reference_l_related),
    (r_related, reference_r_related),
    (h_related, reference_h_related),
    (j_related, reference_j_related),
)


class TestTypeSequence:
    def test_example(self):
        a = parse_element("n=5;1>2,2>3,4>4")
        # Image interval (2,4): blocks {1,2} -> {2,3} and {4} -> {4},
        # ordered by image position.
        assert type_sequence(a, (2, 4)) == (2, 1)

    def test_requires_maximal_image_interval(self):
        a = parse_element("n=5;1>2,2>3,4>4")
        with pytest.raises(ValueError):
            type_sequence(a, (2, 3))

    @pytest.mark.parametrize("vertex", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_refuses_a_vertex_that_is_not_an_int(self, vertex):
        # (True, 3) and (1.0, 3) compare equal to the image interval (1, 3).
        with pytest.raises(ValueError):
            type_sequence(identity(3), (vertex, 3))

    def test_canonical_type_reversal_normalized(self):
        assert canonical_type((2, 1)) == (1, 2) == canonical_type((1, 2))

    def test_similar_type_examples(self):
        a = parse_element("n=5;1>2,2>3,4>4")
        b = parse_element("n=5;2>2,4>4,5>3")  # blocks {2} and {4,5} -> types (1,2)
        assert j_related(a, b)
        c = parse_element("n=5;1>2,2>3,4>5")
        assert not j_related(a, c)

    @pytest.mark.parametrize("n", (6, 7))
    def test_block_ends_match_the_per_interval_rule(self, n):
        # The keys split each preimage run where two consecutive preimages
        # are not adjacent; the reference finds the domain runs mapping into
        # each interval and sorts them by image.  At n = 7 this is the only
        # check of J on IEnd: the oracle's cross-check stops at n = 6.
        elements = enumerate_iend(n)
        naive_classes: dict[frozenset, set[PartialInjection]] = {}
        for a in elements:
            mapping = dict(a.pairs)
            naive = naive_type_sequences(mapping)
            assert {j: type_sequence(a, j) for j in image_intervals(a)} == naive, a
            naive_classes.setdefault(frozenset(_naive_types(mapping).items()), set()).add(a)
        expected = frozenset(map(frozenset, naive_classes.values()))
        assert classify(elements, "J").as_sets() == expected


class TestPairwisePredicates:
    def test_r_related_example(self):
        a = PartialInjection(3, [(1, 1), (3, 2)])
        b = PartialInjection(3, [(1, 2), (3, 1)])
        assert r_related(a, b)

    def test_l_related_needs_equal_image(self):
        a = PartialInjection(3, [(1, 1)])
        b = PartialInjection(3, [(1, 2)])
        assert not l_related(a, b)
        c = PartialInjection(3, [(3, 1)])
        assert l_related(a, c)

    def test_h_is_l_and_r(self):
        for m in (enumerate_paut(3), enumerate_iend(3)):
            for a in m:
                for b in m:
                    assert h_related(a, b) == (l_related(a, b) and r_related(a, b))

    @pytest.mark.parametrize("family", ("paut", "iend"))
    def test_predicates_match_pairwise_references(self, family):
        m = enumerate_paut(4) if family == "paut" else enumerate_iend(4)
        for a in m:
            for b in m:
                for predicate, reference in REFERENCES:
                    assert predicate(a, b) == reference(a, b), (predicate.__name__, a, b)

    def test_predicates_are_symmetric_on_members(self):
        m = enumerate_iend(3)
        for a in m:
            for b in m:
                assert l_related(a, b) == l_related(b, a)
                assert r_related(a, b) == r_related(b, a)
                assert j_related(a, b) == j_related(b, a)

    def test_r_of_inverses_is_l(self):
        m = enumerate_paut(4)
        for a in m:
            for b in m:
                assert l_related(a, b) == r_related(inverse(a), inverse(b))

    def test_rejects_non_members(self):
        bad = PartialInjection(4, [(1, 1), (2, 4)])
        good = PartialInjection(4, [(1, 1)])
        with pytest.raises(ValueError):
            l_related(bad, good)
        with pytest.raises(ValueError):
            r_related(good, PartialInjection(5, [(1, 1)]))
        for predicate, _ in REFERENCES:
            with pytest.raises(ValueError):
                predicate(good, bad)
            with pytest.raises(ValueError):
                predicate(good, PartialInjection(5, [(1, 1)]))


class TestClassify:
    def test_returns_sorted_partition(self):
        part = classify(enumerate_paut(3), "J")
        assert isinstance(part, GreensClassification)
        flattened = [a for cls in part.classes for a in cls]
        assert len(flattened) == len(enumerate_paut(3))
        for cls in part.classes:
            texts = [format_element(a) for a in cls]
            assert texts == sorted(texts)
        firsts = [format_element(cls[0]) for cls in part.classes]
        assert firsts == sorted(firsts)

    def test_input_order_does_not_leak(self):
        # The goldens feed enumeration order only.
        m = sorted(enumerate_iend(5), key=format_element)
        shuffled = list(m)
        random.Random(5).shuffle(shuffled)
        oracle, oracle_shuffled = oracle_classifications(m), oracle_classifications(shuffled)
        for relation in ("L", "R", "H", "J"):
            classes = classify(m, relation).classes
            assert classify(shuffled, relation).classes == classes, relation
            assert oracle_shuffled[relation].classes == oracle[relation].classes == classes, relation

    def test_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            classify(enumerate_paut(3), "D")

    def test_rejects_an_unhashable_relation(self):
        with pytest.raises(ValueError, match="unknown relation"):
            classify(enumerate_paut(3), ["L"])

    @pytest.mark.parametrize("relation", ("L", "R", "H", "J"))
    def test_rejects_non_members(self, relation):
        with pytest.raises(ValueError):
            classify([PartialInjection(4, [(1, 1), (2, 4)])], relation)
        with pytest.raises(ValueError):
            classify([PartialInjection(4, [(1, 1)]), PartialInjection(5, [(1, 1)])], relation)

    @pytest.mark.parametrize("relation", ("L", "R", "H", "J"))
    def test_checks_membership_once_per_element(self, relation, monkeypatch):
        m = enumerate_iend(5)
        checked: Counter = Counter()

        def counting_is_iend(a):
            checked[a] += 1
            return is_iend(a)

        monkeypatch.setattr(greens, "is_iend", counting_is_iend)
        classify(m, relation)
        assert sum(checked.values()) == len(checked) == len(m) == 458

    @pytest.mark.parametrize("relation", ("L", "R", "H", "J"))
    def test_builds_no_element(self, relation, monkeypatch):
        # Every element is built through ``path_core._trusted``, which sets
        # its image tuple through ``_set_img``; the keys read the image
        # tuples of the elements and of their inverses.
        m = enumerate_iend(5)
        inits = []
        set_img = path_core._set_img

        def counting(a, img):
            inits.append(img)
            set_img(a, img)

        monkeypatch.setattr(path_core, "_set_img", counting)
        classify(m, relation)
        assert inits == []

    def test_empty_input(self):
        assert classify([], "H").classes == ()

    def test_known_class_counts_small(self):
        m = enumerate_iend(3)
        assert len(classify(m, "L").classes) == 10
        assert len(classify(m, "R").classes) == 9
        assert len(classify(m, "J").classes) == 6

    def test_class_count(self):
        part = classify(enumerate_iend(3), "R")
        assert part.class_count == len(part.classes) == 9

    @pytest.mark.parametrize("relation", ("L", "R", "H", "J"))
    @pytest.mark.parametrize("n", (7, 8))
    def test_paut_matches_inverse_monoid_partitions(self, n, relation):
        # PAut(P_n) is an inverse monoid, so a L b iff im a = im b, a R b iff
        # dom a = dom b, and H is both (Howie 1995, ch. 5); J is the
        # partition by the multiset of image-interval sizes, as in test_06.
        keys = {
            "L": lambda a: a.image(),
            "R": lambda a: a.domain(),
            "H": lambda a: (a.image(), a.domain()),
            "J": lambda a: frozenset(
                Counter(hi - lo + 1 for lo, hi in image_intervals(a)).items()
            ),
        }
        m = enumerate_paut(n)
        blocks: dict = {}
        for a in m:
            blocks.setdefault(keys[relation](a), set()).add(a)
        expected = frozenset(frozenset(block) for block in blocks.values())
        assert classify(m, relation).as_sets() == expected


class TestJKeyPerRClass:
    """R ⊆ J, so the J key is read off the R key, once per distinct R key."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("family", ("paut", "iend"))
    def test_j_key_is_the_multiset_of_naive_types(self, family, n):
        m = enumerate_paut(n) if family == "paut" else enumerate_iend(n)
        for a in m:
            expected = tuple(sorted(_naive_types(dict(a.pairs)).elements()))
            assert greens._j_key(a.img) == expected, a

    def test_block_ends_are_read_once_per_run_of_each_r_key(self, monkeypatch):
        m = enumerate_iend(7)
        r_keys = {greens._r_key(a.img) for a in m}
        assert (len(r_keys), len(m)) == (601, 10_450)
        runs = []
        split_blocks = greens.split_blocks
        monkeypatch.setattr(greens, "split_blocks", lambda run: runs.append(run) or split_blocks(run))
        greens._types.cache_clear()
        classify(m, "J")
        assert sorted(runs) == sorted(run for key in r_keys for run in key)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("family", ("paut", "iend"))
    def test_every_r_class_lies_in_one_j_class(self, family, n):
        m = enumerate_paut(n) if family == "paut" else enumerate_iend(n)
        j_class = {a: i for i, cls in enumerate(classify(m, "J").classes) for a in cls}
        for cls in classify(m, "R").classes:
            assert len({j_class[a] for a in cls}) == 1, cls


class TestOracle:
    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    @pytest.mark.parametrize("family", ("paut", "iend"))
    def test_predicates_match_ideals(self, n, family):
        assert check_greens(family, n) is None

    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("family", ("paut", "iend"))
    def test_oracle_matches_pairwise_references(self, n, family):
        m = enumerate_paut(n) if family == "paut" else enumerate_iend(n)
        oracle = oracle_classifications(m)
        for (_, reference), relation in zip(REFERENCES, ("L", "R", "H", "J")):
            expected = frozenset(frozenset(b for b in m if reference(a, b)) for a in m)
            assert oracle[relation].as_sets() == expected, relation

    def test_oracle_sorts_once(self, monkeypatch):
        # One sort of the deduplicated elements serves L, R, H and J.
        m = enumerate_iend(4)
        calls = []

        def counting_key(a):
            calls.append(a)
            return _text_key(a)

        monkeypatch.setattr(greens, "_text_key", counting_key)
        oracle_classifications(m)
        assert len(calls) == len(m) == 105

    def test_oracle_rejects_non_closed_input(self):
        # {id restricted to {1}} alone is closed; adding a non-composable
        # partner whose products escape the set is not.
        m = [PartialInjection(3, [(1, 2), (2, 3)]), PartialInjection(3, [(1, 1)])]
        with pytest.raises(ValueError, match="input set is not closed under composition"):
            oracle_classifications(m)

    def test_oracle_rejects_a_set_left_only_by_a_later_row(self):
        # The one product outside the set is y·x = n=3;3>2, with y = n=3;3>1
        # after x = n=3;1>2 in text order, so every row before y's stays in.
        m = [parse_element(t) for t in ("n=3;", "n=3;1>2", "n=3;3>1")]
        with pytest.raises(ValueError, match="input set is not closed under composition"):
            oracle_classifications(m)

    def test_oracle_partitions_match_the_two_sweep_rule_on_iend6(self):
        m = enumerate_iend(6)
        oracle = oracle_classifications(m)
        assert list(oracle) == ["L", "R", "H", "J"]
        reference = reference_ideal_partitions(m)
        for relation, partition in oracle.items():
            assert partition.classes == reference[relation], relation

    def test_a_generating_set_short_of_a_letter_is_seen(self, monkeypatch):
        # The graphs over fewer letters reach less, so some class splits.
        m = enumerate_iend(4)
        pick = greens._pick_generators
        monkeypatch.setattr(greens, "_pick_generators", lambda *args: pick(*args)[:-1])
        oracle = oracle_classifications(m)
        reference = reference_ideal_partitions(m)
        assert [r for r in oracle if oracle[r].classes != reference[r]] != []

    @pytest.mark.parametrize("family", ("paut", "iend"))
    def test_the_picked_letters_generate_the_input(self, family):
        m = enumerate_paut(5) if family == "paut" else enumerate_iend(5)
        elements = sorted(m, key=_text_key)
        imgs = [_img_bytes(a.img) for a in elements]
        letters = [_trusted(tuple(y)) for y in greens._pick_generators(imgs, _by_rank(imgs, 5))]
        assert set(letters) <= set(m)
        assert closure(letters, 5).elements == frozenset(m)

    @pytest.mark.parametrize("family, n, picked", [("paut", 5, 7), ("iend", 5, 12)])
    def test_each_picked_letter_is_made_a_table_once(self, monkeypatch, family, n, picked):
        # The pick saturates once per letter added; each letter's
        # translation table is built when the letter is picked, not again
        # in every later round (28 tables for 7 letters on PAut(P_5)).
        m = enumerate_paut(n) if family == "paut" else enumerate_iend(n)
        imgs = [_img_bytes(a.img) for a in sorted(m, key=_text_key)]
        tables = []
        table = path_core._table
        monkeypatch.setattr(greens, "_table", lambda y: tables.append(y) or table(y))
        letters = greens._pick_generators(imgs, _by_rank(imgs, n))
        assert len(letters) == picked
        assert tables == letters

    def test_checks_and_converts_each_member_once(self, monkeypatch):
        # The pick reads the oracle's own byte images and rank layers: no
        # MonoidSet is built, and each distinct member becomes a byte image
        # once, plus the identity once to adjoin it.
        m = enumerate_iend(5)
        built, converted = [], []
        post_init, img_bytes = MonoidSet.__post_init__, path_core._img_bytes
        monkeypatch.setattr(
            MonoidSet, "__post_init__", lambda self: built.append(self) or post_init(self)
        )
        for module in (path_core, greens, rankcheck):
            monkeypatch.setattr(
                module, "_img_bytes", lambda img: converted.append(tuple(img)) or img_bytes(img)
            )
        oracle_classifications(m)
        assert built == []
        assert len(converted) == len(set(m)) + 1 == 459
        assert set(converted) == {a.img for a in m}

    @pytest.mark.parametrize("name", CLOSED_WITHOUT_IDENTITY)
    def test_a_closed_set_without_the_identity_is_classified(self, name):
        # The ideals are M¹a, aM¹ and M¹aM¹, so the input need not hold the
        # identity; the oracle adjoins it and leaves it out of the classes.
        m = CLOSED_WITHOUT_IDENTITY[name]()
        random.Random(len(m)).shuffle(m)
        oracle = oracle_classifications(m)
        assert {r: p.classes for r, p in oracle.items()} == reference_ideal_partitions(m)

    def test_oracle_rejects_a_permutation_without_the_identity(self):
        # {tau} is closed once the identity is adjoined, but tau·tau = id.
        with pytest.raises(ValueError, match="input set is not closed under composition"):
            oracle_classifications([parse_element("n=3;1>3,2>2,3>1")])

    def test_oracle_rejects_mixed_n(self):
        with pytest.raises(ValueError, match="elements live on different paths"):
            oracle_classifications([identity(3), identity(4)])

    @pytest.mark.parametrize("ns", [(3, 4), (9, 10)], ids=["3-4", "9-10"])
    @pytest.mark.parametrize("partition", [oracle_classifications, partial(classify, relation="H")],
                             ids=["oracle", "classify"])
    def test_mixed_n_is_refused_before_the_sort(self, partition, ns):
        # The text-order key is bytes below n = 10 and text from n = 10 on,
        # so sorting first would raise TypeError across that edge.
        with pytest.raises(ValueError, match="elements live on different paths"):
            partition([identity(ns[0]), identity(ns[1])])


class TestIdealTables:
    """The oracle's classes against those of the two-sweep ideal tables."""

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    @pytest.mark.parametrize("family", ("paut", "iend"))
    @pytest.mark.parametrize("order", ("text", "shuffled"))
    def test_tables_match_the_two_sweep_rule(self, order, family, n):
        m = enumerate_paut(n) if family == "paut" else enumerate_iend(n)
        if order == "shuffled":
            random.Random(n).shuffle(m)
        oracle = oracle_classifications(m)
        assert {r: p.classes for r, p in oracle.items()} == reference_ideal_partitions(m)
