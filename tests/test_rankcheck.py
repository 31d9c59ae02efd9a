"""Closure, generating sets, exhaustive minimality, rank formulas, witnesses."""

from __future__ import annotations

import random
import re
from functools import partial
from itertools import combinations, takewhile
from math import comb

import pytest
from conftest import (
    corank_one_non_automorphisms_have_end_deleted_image,
    end_deleted_domain_elements_are_automorphisms,
    is_closed,
    reference_closure,
    reference_exhaustive_min_size,
)

from pathmonoid import (
    MonoidSet,
    format_element,
    PartialInjection,
    ResourceRefused,
    closure,
    count_iend,
    count_paut,
    enumerate_iend,
    enumerate_paut,
    exhaustive_min_size,
    identity,
    iend_monoid,
    is_generating,
    is_irredundant,
    lower_bound_witnesses,
    paut_monoid,
    rank_formula,
    verify_rank,
)
from pathmonoid import path_core, rankcheck
from pathmonoid.genwords import alpha, make_generator, tau
from pathmonoid.path_core import _img_bytes
from pathmonoid.rankcheck import (
    RankWitness,
    alphabet_elements,
    point_deleted_class,
    subset_search_scope,
)


class TestMonoidSet:
    def test_requires_identity(self):
        with pytest.raises(ValueError):
            MonoidSet(3, frozenset({make_generator(tau(), 3)}))

    def test_requires_consistent_n(self):
        with pytest.raises(ValueError):
            MonoidSet(3, frozenset({identity(3), identity(4)}))

    @pytest.mark.parametrize("collection", [list, tuple, set, iter], ids=["list", "tuple", "set", "iterator"])
    def test_stores_its_elements_as_a_frozenset(self, collection):
        # A list used to be kept as it was: hash() raised TypeError and the
        # monoid compared unequal to the same members in a frozenset.
        members = paut_monoid(2).elements
        m = MonoidSet(2, collection(members))
        assert type(m.elements) is frozenset
        assert m == MonoidSet(2, members) == paut_monoid(2)
        assert hash(m) == hash(paut_monoid(2))

    def test_container_protocol(self):
        m = paut_monoid(2)
        assert len(m) == 7
        assert identity(2) in m
        assert set(m) == set(enumerate_paut(2))

    def test_is_closed(self):
        assert is_closed(paut_monoid(3))
        not_closed = MonoidSet(3, frozenset({identity(3), PartialInjection(3, [(1, 2), (2, 3)])}))
        assert not is_closed(not_closed)


class TestClosure:
    def test_reversal_alone(self):
        for n in (2, 4):
            got = closure([make_generator(tau(), n)], n)
            assert got.elements == frozenset({identity(n), make_generator(tau(), n)})

    def test_empty_generators(self):
        assert closure([], 3).elements == frozenset({identity(3)})

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_paut_alphabet_generates(self, n):
        got = closure(alphabet_elements("paut", n), n)
        assert got.elements == frozenset(enumerate_paut(n))

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_iend_alphabet_generates(self, n):
        got = closure(alphabet_elements("iend", n), n)
        assert got.elements == frozenset(enumerate_iend(n))

    def test_idempotent(self):
        first = closure(alphabet_elements("paut", 4), 4)
        assert closure(first.elements, 4).elements == first.elements

    def test_rejects_mixed_n(self):
        with pytest.raises(ValueError):
            closure([identity(4)], 3)

    @pytest.mark.parametrize("gens, n", [([], 3.0), ([identity(3)], "3")], ids=["float", "str"])
    def test_rejects_an_n_that_is_not_an_int(self, gens, n):
        # The byte images would otherwise raise TypeError from range or bytes.
        with pytest.raises(ValueError, match="n must be a positive integer"):
            closure(gens, n)

    def test_saturates_through_the_byte_kernel(self, monkeypatch):
        # ``closure`` used to call its own imported binding of ``_saturate``,
        # which a patch of ``path_core._saturate`` did not reach.
        def failing(tables, n):
            raise RuntimeError("saturated")

        monkeypatch.setattr(path_core, "_saturate", failing)
        with pytest.raises(RuntimeError, match="saturated"):
            closure(alphabet_elements("paut", 4), 4)


def _record_layers(monkeypatch) -> list[int]:
    """Patch ``path_core._saturate`` to record the rank of every layer its
    callers draw; returns the list it appends to."""
    drawn: list[int] = []
    saturate = path_core._saturate

    def recording(tables, n):
        for r, layer in saturate(tables, n):
            drawn.append(r)
            yield r, layer

    monkeypatch.setattr(path_core, "_saturate", recording)
    return drawn


class TestIsGenerating:
    def test_examples(self):
        assert is_generating(alphabet_elements("paut", 4), paut_monoid(4))
        assert not is_generating([make_generator(tau(), 3)], paut_monoid(3))

    def test_rejects_a_generator_on_another_n(self):
        with pytest.raises(ValueError, match="generator on n=4 does not match n=3"):
            is_generating([identity(4)], paut_monoid(3))

    def test_stops_at_a_product_outside_a_non_closed_target(self, monkeypatch):
        # a(1)² = the identity on {2, 3} is not in the target, so the
        # comparison stops at the rank-2 layer that holds it.
        fold = make_generator(alpha(1), 3)
        target = MonoidSet(3, frozenset({identity(3), fold}))
        assert not is_closed(target)
        drawn = _record_layers(monkeypatch)
        assert is_generating([fold], target) is False
        assert drawn == [3, 2]

    def test_non_members_cannot_generate(self, monkeypatch):
        # A generator outside the target can never produce exactly it.
        beta_letter = alphabet_elements("iend", 4)[-1]
        assert not is_generating([beta_letter], paut_monoid(4))
        # With a generating set beside it, the b-letter is the non-member of
        # the rank-3 layer, where the comparison stops.
        letters = alphabet_elements("paut", 4) + [beta_letter]
        drawn = _record_layers(monkeypatch)
        assert is_generating(letters, paut_monoid(4)) is False
        assert drawn == [4, 3]

    @pytest.mark.parametrize("family", ("paut", "iend"))
    @pytest.mark.parametrize("n", range(3, 9))
    def test_single_letter_drops_fail_within_the_top_two_layers(self, monkeypatch, family, n):
        # Every letter of A(n) and B(n) has rank n or n-1.
        letters = alphabet_elements(family, n)
        target = paut_monoid(n) if family == "paut" else iend_monoid(n)
        drawn = _record_layers(monkeypatch)
        for k in range(len(letters)):
            drawn.clear()
            assert not is_generating(letters[:k] + letters[k + 1 :], target), k
            assert min(drawn) >= n - 1, k

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_paut_alphabet_irredundant(self, n):
        letters = alphabet_elements("paut", n)
        target = paut_monoid(n)
        assert is_irredundant(letters, target)
        for k in range(len(letters)):
            assert not is_generating(letters[:k] + letters[k + 1 :], target)

    @pytest.mark.parametrize("n", (4, 5))
    def test_iend_alphabet_irredundant(self, n):
        assert is_irredundant(alphabet_elements("iend", n), iend_monoid(n))


MONOIDS = {"paut": paut_monoid, "iend": iend_monoid}
FAMILY_CASES = [(family, n) for family in MONOIDS for n in (3, 4, 5)]


def _saturation_cases(family, n):
    """Generator lists for one target: the alphabet and its variants, and
    seeded random subsets of the target, some with the alphabet added."""
    target = MONOIDS[family](n)
    letters = alphabet_elements(family, n)
    pool = sorted(target, key=format_element)
    rng = random.Random(f"{family}{n}")
    # Elements of rank n and n-1, the two layers the alphabets live in.
    top = [a for a in pool if len(a) == n]
    corank_one = [a for a in pool if len(a) == n - 1]
    # Outside the target: a b-letter for PAut, a non-monotone map for IEnd.
    outsider = (
        alphabet_elements("iend", n)[-1]
        if family == "paut"
        else PartialInjection(n, [(1, 1), (2, 3)])
    )
    cases = [
        [],
        [identity(n)],
        letters,
        letters + letters[:1],
        letters[::-1] + letters,
        [g for g in letters if len(g) != n],
        [g for g in letters if len(g) != n - 1],
        letters + [outsider],
        [outsider],
        top + corank_one,
    ]
    for k in range(len(letters)):
        cases.append(letters[:k] + letters[k + 1 :])
    for size in (1, 2, 3, 4, 6):
        for _ in range(2):
            cases.append(rng.sample(pool, size))
            cases.append(letters + rng.sample(pool, size))
    return target, cases


class TestAgainstReferenceClosure:
    """The rank-layered saturation against a plain breadth-first search."""

    @pytest.mark.parametrize("family,n", FAMILY_CASES)
    def test_closure_and_is_generating(self, family, n):
        target, cases = _saturation_cases(family, n)
        outcomes = set()
        for gens in cases:
            expected = reference_closure(gens, n)
            assert closure(gens, n).elements == expected, gens
            generates = expected == target.elements
            assert is_generating(gens, target) is generates, gens
            outcomes.add(generates)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("family,n", FAMILY_CASES)
    def test_layers_are_the_closure_by_rank(self, family, n):
        # Each layer comes out once, from rank n down, and holds each member
        # of that rank once.
        for gens in _saturation_cases(family, n)[1]:
            layers = list(path_core._saturate(rankcheck._letter_tables(gens, n), n))
            assert [r for r, _ in layers] == list(range(n, -1, -1)), gens
            expected = reference_closure(gens, n)
            for r, layer in layers:
                assert len(set(layer)) == len(layer), gens
                assert set(layer) == {_img_bytes(a.img) for a in expected if len(a) == r}, gens

    @pytest.mark.parametrize("family,n", [(family, n) for family in MONOIDS for n in (1, 2)])
    def test_closure_and_is_generating_tiny_n(self, family, n):
        # No alphabets below n = 3; every set of at most three members.
        target = MONOIDS[family](n)
        pool = sorted(target, key=format_element)
        outcomes = set()
        for size in range(4):
            for gens in combinations(pool, size):
                gens = list(gens)
                expected = reference_closure(gens, n)
                assert closure(gens, n).elements == expected, gens
                generates = expected == target.elements
                assert is_generating(gens, target) is generates, gens
                outcomes.add(generates)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("family,n", FAMILY_CASES)
    def test_is_irredundant(self, family, n):
        target, cases = _saturation_cases(family, n)
        outcomes = set()
        for gens in cases:
            expected = reference_closure(gens, n) == target.elements and all(
                reference_closure(gens[:k] + gens[k + 1 :], n) != target.elements
                for k in range(len(gens))
            )
            assert is_irredundant(gens, target) is expected, gens
            outcomes.add(expected)
        assert outcomes == {True, False}


def _forced_by_full_domain_scan(target):
    """The reference: a full-domain member other than the identity is
    forced when it and the identity are the only full-domain members."""
    n = target.n
    full_domain = {a for a in target.elements if len(a) == n}
    return list(full_domain - {identity(n)}) if len(full_domain) == 2 else []


class TestExhaustiveMinSize:
    def test_no_single_element_generates_paut_p2(self):
        assert exhaustive_min_size(paut_monoid(2), 1) is True

    def test_rank_of_paut_p3_is_three(self):
        target = paut_monoid(3)
        assert exhaustive_min_size(target, 2) is True
        assert exhaustive_min_size(target, 3) is False

    def test_rank_of_iend_p3_is_four(self):
        target = iend_monoid(3)
        assert exhaustive_min_size(target, 3) is True
        assert exhaustive_min_size(target, 4) is False

    def test_pruning_scope(self):
        # The full reversal is forced, so only C(|M|-1, k-1) subsets remain.
        assert subset_search_scope(paut_monoid(3), 2) == 21
        assert subset_search_scope(iend_monoid(3), 3) == 300

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setattr(rankcheck, "MAX_SUBSETS", 1000)
        with pytest.raises(ResourceRefused, match="31375 candidate 3-subsets"):
            exhaustive_min_size(paut_monoid(5), 3)

    def test_budget_counts_the_searched_scope(self, monkeypatch):
        # C(105, 3) = 187,460 subsets of IEnd(P_4), but only C(104, 2) are tested.
        target = iend_monoid(4)
        assert subset_search_scope(target, 3) == 5356
        monkeypatch.setattr(rankcheck, "MAX_SUBSETS", 5356)
        assert exhaustive_min_size(target, 3) is True
        monkeypatch.setattr(rankcheck, "MAX_SUBSETS", 5355)
        with pytest.raises(ResourceRefused, match="5356 candidate"):
            exhaustive_min_size(target, 3)

    def test_k_below_the_forced_generators(self):
        # The reversal is forced in PAut(P_3), so no 0-subset is a candidate.
        assert subset_search_scope(paut_monoid(3), 0) == 0
        assert exhaustive_min_size(paut_monoid(3), 0) is True

    def test_nothing_forced_when_the_reversal_is_the_identity(self):
        assert rankcheck._forced_generators(paut_monoid(1)) == []
        assert subset_search_scope(paut_monoid(1), 1) == 2

    def test_nothing_forced_without_the_reversal(self):
        assert rankcheck._forced_generators(closure([make_generator(alpha(1), 4)], 4)) == []

    def test_a_unit_other_than_the_reversal_is_forced(self):
        # The transposition g of 1 and 2 on P_3 generates {1, g}: g is in
        # every generating set, so no 0-subset and one 1-subset are candidates.
        g = PartialInjection(3, [(1, 2), (2, 1), (3, 3)])
        target = closure([g], 3)
        assert target.elements == {identity(3), g}
        assert rankcheck._forced_generators(target) == [g] == _forced_by_full_domain_scan(target)
        assert [subset_search_scope(target, k) for k in (0, 1, 2)] == [0, 1, 1]
        assert exhaustive_min_size(target, 0) is True
        assert exhaustive_min_size(target, 1) is False

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            exhaustive_min_size(paut_monoid(2), -1)

    def test_rejects_k_above_the_monoid_size(self):
        # The 7-element PAut(P_2) generates itself, so no k > 7 can say
        # "rank > k"; there is no 8-subset to test.
        target = paut_monoid(2)
        assert exhaustive_min_size(target, 7) is False
        with pytest.raises(ValueError, match="between 0 and 7, got 8"):
            exhaustive_min_size(target, 8)

    @pytest.mark.parametrize("k", [True, 1.5, "2", None], ids=["bool", "float", "str", "none"])
    def test_rejects_a_non_integer_k(self, k):
        # True used to stand for k = 1 and answer True; the others raised
        # TypeError.
        with pytest.raises(ValueError, match="subset size must be an integer"):
            exhaustive_min_size(paut_monoid(3), k)

    @pytest.mark.parametrize("k", [True, -1, 99, "x"], ids=["bool", "negative", "above-the-size", "str"])
    def test_scope_refuses_the_k_the_search_refuses(self, k):
        # The scope used to answer 1 for True and 0 for -1 or 99, and to
        # raise TypeError for "x".
        target = paut_monoid(3)
        for search in (subset_search_scope, exhaustive_min_size):
            with pytest.raises(ValueError, match=f"between 0 and {len(target)}, got {k!r}$"):
                search(target, k)

    def test_scope_refuses_the_target_the_search_refuses(self):
        # The scope used to raise AttributeError.
        for search in (subset_search_scope, exhaustive_min_size):
            with pytest.raises(ValueError, match="the target must be a MonoidSet, got str"):
                search("x", 1)

    @pytest.mark.parametrize("family", MONOIDS)
    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    def test_forced_generators_of_the_families(self, family, n):
        target = MONOIDS[family](n)
        assert rankcheck._forced_generators(target) == _forced_by_full_domain_scan(target)

    @pytest.mark.parametrize("family,n", FAMILY_CASES)
    def test_forced_generators_of_closures(self, family, n):
        for gens in _saturation_cases(family, n)[1]:
            target = closure(gens, n)
            expected = _forced_by_full_domain_scan(target)
            assert rankcheck._forced_generators(target) == expected, target

    def test_repeated_searches_reread_no_member(self):
        class CountingSet(frozenset):
            passes = 0

            def __iter__(self):
                CountingSet.passes += 1
                return super().__iter__()

        target = MonoidSet(3, CountingSet(paut_monoid(3).elements))
        assert subset_search_scope(target, 2) == 21
        CountingSet.passes = 0
        for k in range(4):
            subset_search_scope(target, k)
        assert CountingSet.passes == 0
        # Each search makes one pass over the members, which it sorts by rank.
        assert exhaustive_min_size(target, 0) is True
        assert CountingSet.passes == 1
        assert exhaustive_min_size(target, 2) is True
        assert CountingSet.passes == 2

    def test_trivial_monoid_has_rank_zero(self):
        trivial = MonoidSet(3, frozenset({identity(3)}))
        assert exhaustive_min_size(trivial, 0) is False


def _seeded_closure(family, n, size):
    """The closure of ``size`` members of the family at n, drawn by seed."""
    pool = sorted(MONOIDS[family](n), key=format_element)
    return closure(random.Random(f"{family}{n}").sample(pool, size), n)


def _ideal(family, n, r):
    """The members of rank at most r of the family at n, and the identity."""
    members = MONOIDS[family](n).elements
    return MonoidSet(n, frozenset(a for a in members if len(a) <= r) | {identity(n)})


class TestLayers:
    """``MonoidSet._layers`` is one tuple: the members' byte images by rank."""

    @staticmethod
    def assert_members_by_rank(target):
        layers = target._layers
        assert isinstance(layers, tuple) and len(layers) == target.n + 1
        for r, layer in enumerate(layers):
            assert isinstance(layer, frozenset), r
            assert layer == {_img_bytes(a.img) for a in target if len(a) == r}, r

    @pytest.mark.parametrize("family,n", [(family, n) for family in MONOIDS for n in range(1, 7)])
    def test_family_layers(self, family, n):
        self.assert_members_by_rank(MONOIDS[family](n))

    @pytest.mark.parametrize(
        "family,n,r", [(family, n, r) for family in MONOIDS for n in (3, 4) for r in range(n)]
    )
    def test_ideal_layers(self, family, n, r):
        self.assert_members_by_rank(_ideal(family, n, r))


SEARCH_TARGETS = {
    **{
        f"{f}{n}": partial(MONOIDS[f], n)
        for f, top in (("paut", 5), ("iend", 4))
        for n in range(1, top + 1)
    },
    **{
        f"closure-{f}{n}-{size}": partial(_seeded_closure, f, n, size)
        for f in MONOIDS
        for n in (3, 4)
        for size in (1, 2, 3)
    },
    **{f"ideal-{f}{n}-r{r}": partial(_ideal, f, n, r) for f in MONOIDS for n in (3, 4) for r in range(n)},
}
SEARCH_SCOPE = 40_000


class TestGroupedSearch:
    """The search drops a set at the first layer that its later members can
    no longer fix; the reference tests every candidate alone."""

    @pytest.mark.parametrize("case", SEARCH_TARGETS)
    def test_matches_every_candidate_tested_alone(self, case):
        target = SEARCH_TARGETS[case]()
        # Every k from 0 up to the first whose scope is too large.
        ks = list(
            takewhile(
                lambda k: subset_search_scope(target, k) <= SEARCH_SCOPE, range(len(target) + 1)
            )
        )
        assert len(ks) >= 2
        expected = [reference_exhaustive_min_size(target, k) for k in ks]
        assert [exhaustive_min_size(target, k) for k in ks] == expected

    @pytest.mark.parametrize("family,n", [("paut", 5), ("iend", 4)])
    def test_one_saturation_per_set_of_high_letters(self, monkeypatch, family, n):
        # Below the rank every set of high letters, those of rank >= n-1,
        # fails in the top two layers, so no lower member is ever tried.
        # Layer n is short until the reversal is chosen, and the identity,
        # which lies in every closure, is never a candidate, so the sets
        # tested are the empty set and the reversal with at most k-1 other
        # high letters.
        target = MONOIDS[family](n)
        k = rank_formula(family, n) - 1
        high = sum(len(a) >= n - 1 for a in target) - 1  # all but the reversal
        calls = []
        first_difference = rankcheck._first_difference
        monkeypatch.setattr(
            rankcheck, "_first_difference", lambda *args: calls.append(1) or first_difference(*args)
        )
        assert exhaustive_min_size(target, k) is True
        assert len(calls) == 1 + sum(comb(high - 1, j) for j in range(k))
        assert len(calls) < subset_search_scope(target, k)

    def test_an_ideal_is_pruned_below_its_top_layers(self, monkeypatch):
        # The rank-<=2 ideal of PAut(P_4), with the identity: layer 3 is empty,
        # so a check of the top two layers alone would saturate every one of
        # its 24,804 candidates.
        target = _ideal("paut", 4, 2)
        assert reference_exhaustive_min_size(target, 3) is True
        calls = []
        first_difference = rankcheck._first_difference
        monkeypatch.setattr(
            rankcheck, "_first_difference", lambda *args: calls.append(1) or first_difference(*args)
        )
        assert exhaustive_min_size(target, 3) is True
        assert len(calls) < 10_000

    @pytest.mark.parametrize(
        "family,n,scope", [("paut", 5, 2_604_125), ("iend", 4, 182_104)], ids=["paut5", "iend4"]
    )
    def test_a_generating_set_of_rank_size_is_found(self, family, n, scope):
        target = MONOIDS[family](n)
        k = rank_formula(family, n)
        assert subset_search_scope(target, k) == scope
        assert exhaustive_min_size(target, k) is False


def _counting(monkeypatch, name) -> list:
    """Patch ``rankcheck.<name>``, a function of one argument, to record each
    argument it is called with; returns the list it appends to."""
    calls: list = []
    function = getattr(rankcheck, name)
    monkeypatch.setattr(rankcheck, name, lambda arg: calls.append(arg) or function(arg))
    return calls


class TestOneConversionPerCall:
    """Letters become translation tables once per public call, at the edge
    (``rankcheck._letter_tables``), however many saturations read them."""

    def test_is_irredundant_converts_each_letter_once(self, monkeypatch):
        letters, target = alphabet_elements("iend", 6), iend_monoid(6)
        tables = _counting(monkeypatch, "_table")
        assert is_irredundant(letters, target)
        assert len(tables) == len(letters) == 7

    def test_verify_rank_converts_each_letter_once(self, monkeypatch):
        tables = _counting(monkeypatch, "_table")
        assert verify_rank("iend", 6).ok
        assert len(tables) == rank_formula("iend", 6) == 7

    def test_exhaustive_search_converts_each_member_at_most_once(self, monkeypatch):
        target = iend_monoid(4)
        target._layers  # the monoid's own record, built before the search
        converted = _counting(monkeypatch, "_img_bytes")
        assert exhaustive_min_size(target, 3) is True
        images = [tuple(img) for img in converted]
        assert len(images) == len(set(images)) <= len(target)
        assert set(images) <= {a.img for a in target}

    @pytest.mark.parametrize(
        "family,n,calls", [("paut", 5, 51), ("iend", 4, 572)], ids=["paut5", "iend4"]
    )
    def test_candidates_are_tested_in_the_order_of_the_members(self, monkeypatch, family, n, calls):
        # The saturations until a generating set of rank size is found: the
        # count pins the order in which the candidates are tested, falling
        # rank and ``target.elements`` order within a rank, whatever
        # PYTHONHASHSEED is.
        target = MONOIDS[family](n)
        first_difference = rankcheck._first_difference
        counted = []

        def counting(*args):
            counted.append(1)
            return first_difference(*args)

        monkeypatch.setattr(rankcheck, "_first_difference", counting)
        assert exhaustive_min_size(target, rank_formula(family, n)) is False
        assert len(counted) == calls


class TestRankFormula:
    def test_published_values(self):
        assert [rank_formula("paut", n) for n in range(1, 9)] == [2, 2, 3, 3, 4, 5, 6, 7]
        assert [rank_formula("iend", n) for n in range(1, 9)] == [2, 2, 4, 4, 6, 7, 9, 10]

    def test_examples(self):
        assert rank_formula("paut", 5) == 4
        assert rank_formula("iend", 6) == 7
        assert rank_formula("iend", 1) == 2

    def test_matches_alphabet_sizes(self):
        for n in range(3, 13):
            assert len(alphabet_elements("paut", n)) == rank_formula("paut", n)
            assert len(alphabet_elements("iend", n)) == rank_formula("iend", n)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rank_formula("paut", 0)
        with pytest.raises(ValueError):
            rank_formula("pend", 3)

    def test_alphabet_elements_rejects_unknown_family(self):
        # An unhashable name gets the same error as any other unknown one.
        for name in ("foo", None, ["paut"]):
            with pytest.raises(ValueError, match=re.escape(f"unknown family {name!r}")):
                alphabet_elements(name, 4)

    @pytest.mark.parametrize("entry", [rank_formula, verify_rank], ids=["rank_formula", "verify_rank"])
    def test_family_entries_reject_unknown_family(self, entry):
        for name in ("foo", None, ["paut"]):
            with pytest.raises(ValueError, match=re.escape(f"unknown family {name!r}")):
                entry(name, 4)


class TestWitnesses:
    def test_point_deleted_class_size(self):
        # |A_i| = 16 for the inner classes at n >= 6.
        assert len(point_deleted_class(6, 3)) == 16
        assert len(point_deleted_class(8, 3)) == 16
        assert len(point_deleted_class(8, 4)) == 16

    def test_point_deleted_class_rejects_bad_vertex(self):
        with pytest.raises(ValueError, match="vertex 0 out of range for n=4"):
            point_deleted_class(4, 0)
        # No bool, float or str stands in for the vertex 1.
        for i in (True, 1.0, "1"):
            with pytest.raises(ValueError, match=re.escape(f"vertex {i!r} out of range for n=4")):
                point_deleted_class(4, i)
        # n is checked first, and blamed for itself.
        for n in ("4", 0, True):
            with pytest.raises(ValueError, match=re.escape(f"n must be a positive integer, got {n!r}")):
                point_deleted_class(n, 1)

    def test_point_deleted_class_mirror(self):
        # A_i and A_{n+1-i} are the same class.
        assert set(point_deleted_class(6, 2)) == set(point_deleted_class(6, 5))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_all_witnesses_hold(self, n):
        report = lower_bound_witnesses(n)
        assert all(report.values()), report

    def test_witnesses_hold_at_their_bound(self):
        assert rankcheck.MAX_WITNESS_N == 255
        report = lower_bound_witnesses(255)
        assert all(report.values()), report

    def test_one_past_the_bound_is_refused_before_any_alphabet(self, monkeypatch):
        def alphabet(*args):
            raise RuntimeError("alphabet built before the witness bound was checked")

        monkeypatch.setattr(rankcheck, "alphabet_elements", alphabet)
        for n in (256, 10**8):
            with pytest.raises(ResourceRefused, match=f"witness checks at n={n} are above the bound of 255$"):
                lower_bound_witnesses(n)

    def test_each_class_check_can_fail(self, monkeypatch):
        # n = 7: A_1..A_4 are checked for a letter, A_3 also for two letters
        # and for 16 members.  Each patch breaks exactly one check.
        n = 7
        letters = alphabet_elements("paut", n)
        a3 = set(point_deleted_class(n, 3))

        def failing(key):
            report = lower_bound_witnesses(n)
            assert [k for k, ok in report.items() if not ok] == [key]

        def a1_without_letters(m, i):
            members = point_deleted_class(m, i)
            return [a for a in members if a not in letters] if i == 1 else members

        monkeypatch.setattr(rankcheck, "point_deleted_class", a1_without_letters)
        failing("alphabet_meets_point_deleted_classes")

        def a3_with_identity(m, i):
            members = point_deleted_class(m, i)
            return members + [identity(m)] if i == 3 else members

        monkeypatch.setattr(rankcheck, "point_deleted_class", a3_with_identity)
        failing("inner_class_size_sixteen")

        monkeypatch.undo()
        one_a3_letter = [a for a in letters if a not in a3] + [next(a for a in letters if a in a3)]
        monkeypatch.setattr(
            rankcheck,
            "alphabet_elements",
            lambda family, m: one_a3_letter if family == "paut" else alphabet_elements(family, m),
        )
        failing("inner_classes_have_two_letters")

    def test_witness_report_keys_are_stable(self):
        assert list(lower_bound_witnesses(4)) == [
            "reversal_in_alphabet",
            "alphabet_meets_point_deleted_classes",
            "inner_classes_have_two_letters",
            "inner_class_size_sixteen",
            "enough_letters_outside_automorphisms",
        ]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_end_deleted_domain_forces_automorphism(self, n):
        assert end_deleted_domain_elements_are_automorphisms(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_corank_one_non_automorphism_images(self, n):
        assert corank_one_non_automorphisms_have_end_deleted_image(n)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            lower_bound_witnesses(2)

    @pytest.mark.parametrize("n", ["5", 5.0], ids=["str", "float"])
    def test_rejects_a_non_integer_n(self, n):
        with pytest.raises(ValueError, match=re.escape(f"got n={n!r}")):
            lower_bound_witnesses(n)


class TestVerifyRank:
    def test_exhaustive_paut_p3(self):
        witness = verify_rank("paut", 3)
        assert witness.ok
        assert witness.formula_value == 3
        assert witness.exhaustive_lower_bound == 3
        assert witness.subsets_searched == 21

    def test_exhaustive_iend_p3(self):
        witness = verify_rank("iend", 3)
        assert witness.ok
        assert witness.formula_value == 4
        assert witness.exhaustive_lower_bound == 4
        assert witness.subsets_searched == 300

    @pytest.mark.parametrize(
        "family, n, bound, searched",
        [
            pytest.param(family, n, bound, searched, id=f"{family}-{n}")
            for family, n, bound, searched in [
                ("paut", 3, 3, 21),
                ("paut", 4, 3, 70),
                ("paut", 5, 4, 31375),
                ("paut", 6, None, None),  # C(934, 3) = 135,360,884 subsets
                ("paut", 7, None, None),
                ("iend", 3, 4, 300),
                ("iend", 4, 4, 5356),
                ("iend", 5, None, None),  # C(457, 4) = 1,793,647,310 subsets
                ("iend", 6, None, None),
                ("iend", 7, None, None),
                ("iend", 8, None, None),
            ]
        ],
    )
    def test_searches_exactly_where_the_first_search_fits(self, monkeypatch, family, n, bound, searched):
        # The walk runs when subset_search_scope(target, formula - 1) is
        # within MAX_SUBSETS; above it, no search may start.
        if bound is None:
            def search(*args):
                raise AssertionError("a subset search started above the budget")

            monkeypatch.setattr(rankcheck, "exhaustive_min_size", search)
        witness = verify_rank(family, n)
        assert witness.ok
        assert witness.generating_set_size == rank_formula(family, n)
        assert (witness.exhaustive_lower_bound, witness.subsets_searched) == (bound, searched)

    def test_the_budget_itself_fits(self, monkeypatch):
        # IEnd(P_4)'s first search has 5,356 candidates: at that budget it
        # runs, one below it does not.
        monkeypatch.setattr(rankcheck, "MAX_SUBSETS", 5356)
        assert verify_rank("iend", 4).subsets_searched == 5356
        monkeypatch.setattr(rankcheck, "MAX_SUBSETS", 5355)
        assert verify_rank("iend", 4).subsets_searched is None

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            verify_rank("paut", 2)

    @pytest.mark.parametrize("n", ["5", 5.0], ids=["str", "float"])
    def test_rejects_a_non_integer_n(self, n):
        with pytest.raises(ValueError, match=re.escape(f"got n={n!r}")):
            verify_rank("paut", n)

    @pytest.mark.parametrize("family", ["paut", "iend"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_first_search_is_sized_by_the_closed_form(self, family, n):
        # The first search, of k = formula - 1 with the reversal forced,
        # has C(count - 1, formula - 2) candidates.
        count = (count_paut if family == "paut" else count_iend)(n)
        formula = rank_formula(family, n)
        target = MONOIDS[family](n)
        assert comb(count - 1, formula - 2) == subset_search_scope(target, formula - 1)

    def test_walk_steps_down_past_a_generating_size(self, monkeypatch):
        # With a formula one too high, 3-subsets of PAut(P_4) generate, so
        # the walk goes on to k = 2, where none does.
        formula = rank_formula
        monkeypatch.setattr(rankcheck, "rank_formula", lambda family, n: formula(family, n) + 1)
        witness = verify_rank("paut", 4)
        assert witness.exhaustive_lower_bound == 3
        assert witness.subsets_searched == comb(70, 2) + comb(70, 1) == 2485
        assert not witness.ok

    def test_passing_run_has_no_counterexample(self):
        assert verify_rank("iend", 4).counterexample is None

    def test_counterexample_names_the_first_redundant_letter(self, monkeypatch):
        shipped = alphabet_elements("paut", 5)
        monkeypatch.setattr(
            rankcheck, "alphabet_elements", lambda family, n: shipped + shipped[1:2]
        )
        witness = verify_rank("paut", 5)
        assert witness.generates and not witness.irredundant and not witness.ok
        assert witness.counterexample == (
            f"letter 2 of 5, {format_element(shipped[1])}, is redundant"
        )

    @pytest.mark.parametrize("family", ["paut", "iend"])
    def test_counterexample_names_the_first_missed_member(self, monkeypatch, family):
        letters = alphabet_elements(family, 5)[:-1]
        monkeypatch.setattr(rankcheck, "alphabet_elements", lambda family, n: letters)
        witness = verify_rank(family, 5)
        assert not witness.generates and not witness.ok
        target = MONOIDS[family](5).elements
        missed = min(map(format_element, target - reference_closure(letters, 5)))
        assert witness.counterexample == f"{missed} is not generated"

    def test_counterexample_names_a_product_outside_the_monoid(self, monkeypatch):
        # B(4) generates all of IEnd(P_4), which contains PAut(P_4).
        letters = alphabet_elements("iend", 4)
        monkeypatch.setattr(rankcheck, "alphabet_elements", lambda family, n: letters)
        witness = verify_rank("paut", 4)
        stray = min(
            map(format_element, reference_closure(letters, 4) - paut_monoid(4).elements)
        )
        assert witness.counterexample == f"{stray} is generated but lies outside the monoid"

    def test_ok_detects_failures(self):
        witness = RankWitness(
            n=4,
            family="paut",
            formula_value=3,
            generating_set_size=3,
            generates=True,
            irredundant=True,
            witnesses=(("reversal_in_alphabet", False),),
            exhaustive_lower_bound=None,
            subsets_searched=None,
            counterexample=None,
        )
        assert not witness.ok
        witness = RankWitness(
            n=4,
            family="paut",
            formula_value=3,
            generating_set_size=3,
            generates=True,
            irredundant=True,
            witnesses=(),
            exhaustive_lower_bound=2,
            subsets_searched=10,
            counterexample=None,
        )
        assert not witness.ok
