"""Factorization into generator words: round-trips over whole monoids."""

from __future__ import annotations

import ast
import hashlib
import random
import tracemalloc
from pathlib import Path

import pytest

from pathmonoid import (
    PartialInjection,
    Word,
    canonical_delta,
    compose,
    domain_intervals,
    enumerate_iend,
    enumerate_paut,
    eval_word,
    expand_word,
    factor_iend,
    factor_paut,
    format_element,
    format_word,
    identity,
    inverse,
    is_paut,
    make_generator,
    maximal_intervals,
    parse_element,
)
from pathmonoid import factorize, genwords, path_core, selftest
from pathmonoid.factorize import word_length_bound
from pathmonoid.genwords import Symbol, alpha, beta, canonical_eps_star, eps_star, tau
from pathmonoid.selftest import check_round_trip

from test_golden import WORDS_FILE, WORDS_N, factor_words

# The n = 24 partial automorphism of the golden cases: 4 domain blocks,
# some reversed.
N24_PAUT = "n=24;2>21,3>20,4>19,5>18,8>3,9>4,10>5,14>12,15>11,16>10,17>9,20>24,21>23"
# An n = 8 member of IEnd outside PAut, with one cut: the images of 4..5
# start right after those of 1..2.
IEND_N8 = "n=8;1>3,2>4,4>5,5>6,7>1"


class TestSmallCases:
    def test_identity_factors_to_empty_word(self):
        assert factor_paut(identity(4)).letters == ()
        assert factor_iend(identity(4)).letters == ()

    def test_full_reversal_factors_to_tau(self):
        rev = make_generator(tau(), 3)
        assert factor_paut(rev).letters == (tau(),)

    def test_rejects_non_members(self):
        not_iend = PartialInjection(4, [(1, 1), (2, 4)])
        with pytest.raises(ValueError):
            factor_paut(not_iend)
        with pytest.raises(ValueError):
            factor_iend(not_iend)
        iend_only = PartialInjection(4, [(1, 1), (2, 2), (4, 3)])
        with pytest.raises(ValueError):
            factor_paut(iend_only)
        assert eval_word(expand_word(factor_iend(iend_only))) == iend_only

    def test_each_letter_is_built_once(self, monkeypatch):
        # Factor and eval share the one checked image cache, so each
        # distinct (letter, n) is built once across both steps.
        built = []
        build = genwords._generator_image

        def counting(kind, i, j, n):
            built.append((kind, i, j, n))
            return build(kind, i, j, n)

        monkeypatch.setattr(genwords, "_generator_image", counting)
        # The IEnd member's b letter shares the one cache too.
        for factor, element in ((factor_paut, "n=9;1>9,3>3,4>4,7>6,8>7"), (factor_iend, IEND_N8)):
            genwords._image.cache_clear()
            built.clear()
            a = parse_element(element)
            word = factor(a)
            base = expand_word(word)
            assert eval_word(base) == a
            letters = {(*sym, a.n) for sym in word.letters + base.letters}
            assert len(built) == len(set(built)) == len(letters) < len(word) + len(base)
            assert set(built) == letters

    def test_step_bound_is_enforced(self, monkeypatch):
        a = parse_element("n=5;1>3,3>5,5>1")
        monkeypatch.setattr(factorize, "word_length_bound", lambda n: 1)
        with pytest.raises(RuntimeError, match="step bound of 1 letters"):
            factor_paut(a)

    @pytest.mark.parametrize(
        ("corrupt", "packed"),
        [
            # The first pack spends seven reversals on a·delta, the second
            # starts at the eighth.
            pytest.param(1, lambda a: compose(a, canonical_delta(a)), id="first-pack"),
            pytest.param(8, canonical_delta, id="second-pack"),
        ],
    )
    def test_a_wrong_reversal_raises(self, monkeypatch, corrupt, packed):
        a = parse_element(N24_PAUT)
        calls = []

        def corrupted(i, j, n):
            # One reversal stops a point short of the block's far end.
            calls.append((i, j))
            return canonical_eps_star(i, j - 1 if len(calls) == corrupt else j, n)

        monkeypatch.setattr(factorize, "canonical_eps_star", corrupted)
        with pytest.raises(RuntimeError, match=f"did not pack {format_element(packed(a))}$"):
            factor_paut(a)

    def test_a_wrong_merging_letter_raises(self, monkeypatch):
        # The one cut of IEND_N8 is at packed image 5; b(6) leaves a gap.
        a = parse_element(IEND_N8)
        monkeypatch.setattr(factorize, "beta", lambda i: beta(i + 1))
        packed = compose(a, canonical_delta(a))
        with pytest.raises(RuntimeError, match=f"did not reach {format_element(packed)}$"):
            factor_iend(a)


class TestImageTuples:
    def test_factor_builds_no_element(self, monkeypatch):
        # Every element is built through ``path_core._trusted``, which sets
        # its image tuple through ``_set_img``; the factorizer works on image
        # tuples and builds one only for an error message.
        inits = []
        set_img = path_core._set_img

        def counting(a, img):
            inits.append(img)
            set_img(a, img)

        monkeypatch.setattr(path_core, "_set_img", counting)
        elements = [parse_element(text) for text in (N24_PAUT, IEND_N8, "n=1;", "n=5;1>3,3>5,5>1")]
        assert len(inits) == len(elements)
        inits.clear()
        words = [factorize._factor(a) for a in elements]
        assert inits == []
        assert [eval_word(word) for word in words] == elements

    # The calls that would build or rescan an element beside the image tuples.
    ELEMENT_CALLS = {"domain_intervals", "image_intervals", "compose", "inverse", "identity"}

    def test_factor_and_pack_call_no_element_function(self):
        tree = ast.parse(Path(factorize.__file__).read_text(encoding="utf-8"))
        bodies = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
        offenders = []
        for name in ("_factor", "_pack"):
            for node in ast.walk(bodies[name]):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in self.ELEMENT_CALLS:
                        offenders.append(f"{name}:{node.lineno} {called}")
        assert offenders == []


class TestImageCache:
    def test_a_cached_image_skips_no_check(self, monkeypatch):
        assert callable(genwords._image.cache_clear)
        # True equals 1 and hashes as 1: only a typed cache keeps these
        # two entries from answering for a bool index or n.
        make_generator(alpha(1), 5)
        make_generator(alpha(1), 1)
        for bad in (
            lambda: make_generator(Symbol("a", True), 5),
            lambda: make_generator(alpha(1), True),
            lambda: eval_word(genwords._trusted_word(5, (Symbol("a", True),))),
            lambda: Word(5, (Symbol("a", True),)),
            lambda: make_generator(Symbol("a", [1]), 5),
        ):
            with pytest.raises(ValueError):
                bad()
        # A factor walk checks each letter it emits: es(i, i+1) is illegal.
        monkeypatch.setattr(factorize, "canonical_eps_star", lambda i, j, n: eps_star(i, i + 1))
        with pytest.raises(ValueError, match="out of range"):
            factor_paut(parse_element(N24_PAUT))


class TestMemory:
    def test_generator_images_share_their_vertices(self):
        # Every a(i) image held by the process's image cache refers to the
        # one identity tuple's ints: about 8 MB at n = 1000, where a fresh
        # int per entry took about 31 MB.
        a = parse_element("n=1000;1>1000")
        genwords._image.cache_clear()
        tracemalloc.start()
        try:
            factor_paut(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000

    def test_letter_tables_fit_their_entries(self):
        # At n = 255 the letter cache holds each a(i) with its translation
        # table: 253 entries, each a pair (56 bytes), an image tuple (2,088)
        # and a table (289), about 0.62 MB.  A table held as a tuple of ints
        # would take 1,799 bytes more per entry, about 1.07 MB in all.
        a = parse_element("n=255;1>255")
        genwords._image.cache_clear()
        tracemalloc.start()
        try:
            factor_paut(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 900_000


def _random_member(rng: random.Random, n: int, family: str) -> PartialInjection:
    """A random element of PAut(P_n), or of IEnd(P_n) with some block images
    touching: the domain blocks placed in shuffled order and orientation."""
    domain = [x for x in range(1, n + 1) if rng.random() < 0.7]
    blocks = [list(range(lo, hi + 1)) for lo, hi in maximal_intervals(domain)]
    rng.shuffle(blocks)
    gaps = [1 if family == "paut" else rng.randint(0, 1) for _ in blocks]
    spare = [0] * (len(blocks) + 1)
    for _ in range(n - len(domain) - sum(gaps[:-1])):
        spare[rng.randrange(len(spare))] += 1
    pairs, top = [], spare[0]
    for block, gap, extra in zip(blocks, gaps, spare[1:]):
        if rng.random() < 0.5:
            block.reverse()
        pairs += [(x, top + k) for k, x in enumerate(block, 1)]
        top += len(block) + gap + extra
    return PartialInjection(n, pairs)


def _round_trip_fault(n: int) -> str | None:
    """The first of four seeded members of each family at n whose word
    raises or does not evaluate back, named with what went wrong."""
    rng = random.Random(n)
    for family, factor in (("paut", factor_paut), ("iend", factor_iend)):
        for _ in range(4):
            a = _random_member(rng, n, family)
            try:
                word = factor(a)
            except (RuntimeError, ValueError) as exc:
                return f"{format_element(a)}: {exc}"
            if not eval_word(word) == a == eval_word(expand_word(word)):
                return f"{format_element(a)}: {format_word(word)}"
    return None


class TestWalkRoutes:
    """The factorizer walks byte images at n <= 255 and image tuples above."""

    @pytest.mark.parametrize("n", (255, 256))
    def test_seeded_members_round_trip(self, n):
        assert _round_trip_fault(n) is None

    def test_a_planted_wrong_table_entry_is_found(self, plant_table):
        # The first letter of the first seeded member's word.
        sym = factor_paut(_random_member(random.Random(255), 255, "paut")).letters[0]
        plant_table(sym, 255)
        assert _round_trip_fault(255) is not None

    @pytest.mark.parametrize("n", (24, 255))
    def test_both_routes_write_the_same_words(self, monkeypatch, n):
        rng = random.Random(n)
        members = [_random_member(rng, n, family) for family in ("paut", "iend") for _ in range(4)]
        words = [factor_iend(a) for a in members]
        # The tuple route at n <= 255: ``_carried`` alone decides the route,
        # so carrying image tuples wherever it is read also makes each
        # letter's image tuple its factor.
        for module in (path_core, factorize, genwords):
            monkeypatch.setattr(module, "_carried", tuple)
        genwords._image.cache_clear()
        try:
            assert [factor_iend(a) for a in members] == words
            assert [eval_word(word) for word in words] == members
        finally:
            genwords._image.cache_clear()


class TestWordLength:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_word_is_within_the_bound(self, n):
        letters = set()
        for factor, elements in ((factor_paut, enumerate_paut(n)), (factor_iend, enumerate_iend(n))):
            for a in elements:
                word = factor(a)
                assert len(word) <= word_length_bound(n), a
                letters.update(word.letters)
        # Every letter but the merging b(i) is its own inverse, so a pack
        # read backwards spells the inverse of what it packs.
        for sym in letters - {beta(i) for i in range(n)}:
            g = make_generator(sym, n)
            assert inverse(g) == g, sym

    @pytest.mark.parametrize("n", range(1, 7))
    def test_each_deleted_vertex_costs_one_letter(self, n):
        # The word opens with a(i) for each i outside Dom a, in descending i,
        # and has at most n - s + 4r - c letters: s = |Dom a|, r its blocks,
        # c its b letters (the bound that ``word_length_bound`` proves).
        for factor, elements in ((factor_paut, enumerate_paut(n)), (factor_iend, enumerate_iend(n))):
            for a in elements:
                word = factor(a).letters
                deleted = [alpha(i) for i in range(n, 0, -1) if i not in a]
                assert list(word[: len(deleted)]) == deleted, a
                s, r = len(a), len(domain_intervals(a))
                c = sum(sym.kind == "b" for sym in word)
                assert len(word) <= n - s + 4 * r - c, a

    @pytest.mark.parametrize("n", (24, 100, 400))
    def test_random_words_are_within_the_bound(self, n):
        rng = random.Random(n)
        pauts = [_random_member(rng, n, "paut") for _ in range(10)]
        iends = [_random_member(rng, n, "iend") for _ in range(10)]
        assert all(map(is_paut, pauts)) and not all(map(is_paut, iends))
        for factor, elements in ((factor_paut, pauts), (factor_iend, iends)):
            for a in elements:
                word = factor(a)
                assert len(word) <= word_length_bound(n), a
                assert eval_word(word) == a


class TestCanonicalDelta:
    def test_example(self):
        # Image {2,3,6} packs to an order-preserving automorphism image.
        b = PartialInjection(6, [(1, 2), (2, 3), (4, 6)])
        delta = canonical_delta(b)
        assert delta == PartialInjection(6, [(2, 1), (3, 2), (6, 4)])

    def test_packing_leaves_single_gaps(self):
        b = PartialInjection(7, [(1, 1), (3, 4), (5, 7)])
        delta = canonical_delta(b)
        assert delta == PartialInjection(7, [(1, 1), (4, 3), (7, 5)])


class TestRoundTrips:
    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_paut(self, n):
        assert check_round_trip("paut", n) is None

    @pytest.mark.parametrize("n", (3, 4))
    def test_iend(self, n):
        assert check_round_trip("iend", n) is None

    @pytest.mark.parametrize("n", (1, 2))
    def test_tiny_n_without_expansion(self, n):
        # No alphabets below n=3; the raw word must still evaluate back.
        for a in enumerate_paut(n):
            assert eval_word(factor_paut(a)) == a
        for a in enumerate_iend(n):
            assert eval_word(factor_iend(a)) == a

    def test_check_names_a_word_above_the_step_bound(self, monkeypatch):
        monkeypatch.setattr(selftest, "factor_iend", lambda a: Word(a.n, (tau(),) * 37))
        fault = check_round_trip("paut", 3)
        assert fault.startswith("paut element n=3;") and fault.endswith(
            "has 37 letters, above the bound of 10"
        )

    def test_check_names_a_letter_outside_the_alphabet(self, monkeypatch):
        # b(2) is a letter of B(3), not of A(3).
        monkeypatch.setattr(selftest, "factor_iend", lambda a: Word(a.n, (beta(2),)))
        fault = check_round_trip("paut", 3)
        assert fault.startswith("paut element n=3;") and fault.endswith(
            "word 'b2' expands to a word that uses b2, outside the alphabet"
        )

    def test_words_match_the_golden_list(self):
        # Pins every word, not only its value: a rewrite of the factorization
        # that changes a single letter shows here.
        assert factor_words(WORDS_N) == WORDS_FILE.read_text()

    @pytest.mark.parametrize(
        "factor, enumerate_family, digest",
        [
            (factor_paut, enumerate_paut, "0edfb35559d6980c1ccd0c646ec25516b1e1c9124730aaf2f852a8c3469c7d5e"),
            (factor_iend, enumerate_iend, "e334ea4084fc5b63d05c081943f4f83bfbab50046ad024fefd33447980b65450"),
        ],
        ids=["paut", "iend"],
    )
    def test_n7_words_match_their_hash(self, factor, enumerate_family, digest):
        # Pins every word of both families at n = 7, PAut's included, which
        # the golden list (IEnd at n = 5) does not reach.
        text = "".join(format_word(factor(a)) + "\n" for a in enumerate_family(7))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_words_use_only_legal_letters(self):
        # Factor and expand build their words without checks; rebuilding
        # through the checking constructor re-checks every letter.
        for factor, elements in ((factor_paut, enumerate_paut(5)), (factor_iend, enumerate_iend(5))):
            for a in elements:
                word = factor(a)
                assert Word(word.n, word.letters) == word, a
                base = expand_word(word)
                assert Word(base.n, base.letters) == base, a
