"""End-to-end acceptance suite.

Each test checks one headline guarantee of the package and emits exactly one
``PASS [k] ...`` / ``FAIL [k] ...`` line (visible with ``pytest -s``; under
plain ``pytest -v`` the per-test PASSED/FAILED status carries the same
information).  The checks are exact unless a runtime budget is stated.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from typing import Iterator

from pathmonoid import (
    alphabet_iend,
    alphabet_paut,
    classify,
    closure,
    count_iend,
    count_paut,
    elements_with_domain,
    enumerate_iend,
    enumerate_paut,
    exhaustive_min_size,
    iend_monoid,
    image_intervals,
    inverse,
    is_iend,
    is_irredundant,
    is_paut,
    mask_profile,
    paut_monoid,
    rank_formula,
    verify_rank,
)
from pathmonoid.census import iend_contribution, mask_from_set, paut_contribution
from pathmonoid.rankcheck import alphabet_elements, lower_bound_witnesses
from pathmonoid.selftest import (
    check_counts,
    check_expansions,
    check_greens,
    check_round_trip,
)

from conftest import (
    all_partial_injections,
    corank_one_non_automorphisms_have_end_deleted_image,
    edge_oracle_is_iend,
    end_deleted_domain_elements_are_automorphisms,
    reference_is_iend,
    reference_is_paut,
)

_DESCRIPTIONS = {
    1: "closed-form counts equal the mask sums and enumeration sizes for n = 1..8",
    2: "per-mask counts equal the closed-form mask contributions for n = 1..6",
    3: "the alphabets generate the full monoids by closure",
    4: "every element factors into a word that round-trips exactly",
    5: "every legal generator symbol expands to alphabet letters exactly",
    6: "structural Green's predicates match the ideal-based oracle",
    7: "minimal generating sets have exactly the stated sizes",
    8: "membership predicates agree with the edge oracle and the block rule on all of I_n",
}


@contextmanager
def criterion(k: int) -> Iterator[None]:
    try:
        yield
    except BaseException:
        print(f"FAIL [{k}] {_DESCRIPTIONS[k]}")
        raise
    print(f"PASS [{k}] {_DESCRIPTIONS[k]}")


def test_01_closed_form_counts_match_enumeration():
    with criterion(1):
        start = time.monotonic()
        for n in range(1, 9):
            assert check_counts(n) is None
        # Anchor values from the reference listings of the small monoids.
        assert count_paut(1) == 2
        assert count_paut(2) == 7 == count_iend(2)
        assert time.monotonic() - start < 60.0


def test_02_per_mask_counts_match_closed_form():
    with criterion(2):
        for n in range(1, 7):
            for s in range(n + 1):
                for domain in map(frozenset, combinations(range(1, n + 1), s)):
                    profile = mask_profile(n, mask_from_set(n, domain))
                    paut = elements_with_domain(n, domain, "paut")
                    iend = elements_with_domain(n, domain, "iend")
                    assert len(paut) == paut_contribution(profile)
                    assert len(iend) == iend_contribution(profile)


def test_03_alphabets_generate_full_monoids():
    with criterion(3):
        start = time.monotonic()
        for n in range(3, 7):
            generated = closure(alphabet_elements("paut", n), n)
            assert set(generated) == set(enumerate_paut(n))
        for n in range(3, 6):
            generated = closure(alphabet_elements("iend", n), n)
            assert set(generated) == set(enumerate_iend(n))
        assert time.monotonic() - start < 60.0


def test_04_factorization_round_trip():
    with criterion(4):
        for n in range(3, 7):
            assert check_round_trip("paut", n) is None
        for n in range(3, 6):
            assert check_round_trip("iend", n) is None


def test_05_generator_expansion_identities():
    with criterion(5):
        for n in range(3, 11):
            assert check_expansions(n) is None


def test_06_greens_predicates_match_ideal_oracle():
    with criterion(6):
        for n in range(3, 6):
            assert check_greens("iend", n) is None
        for n in range(3, 7):
            assert check_greens("paut", n) is None
        # For path automorphisms, the J-partition is exactly the partition by
        # multiset of image-interval sizes.
        for n in range(3, 7):
            monoid = enumerate_paut(n)
            by_sizes: dict[frozenset, set] = {}
            for a in monoid:
                sizes = Counter(hi - lo + 1 for lo, hi in image_intervals(a))
                by_sizes.setdefault(frozenset(sizes.items()), set()).add(a)
            expected = frozenset(frozenset(members) for members in by_sizes.values())
            assert classify(monoid, "J").as_sets() == expected


def test_07_minimal_generating_set_sizes():
    with criterion(7):
        # The shipped alphabets realize the closed-form rank values.
        for n in range(3, 13):
            assert len(alphabet_paut(n)) == rank_formula("paut", n)
            assert len(alphabet_iend(n)) == rank_formula("iend", n)
        # No letter is redundant.
        for n in range(4, 7):
            assert is_irredundant(alphabet_elements("paut", n), paut_monoid(n))
        for n in range(4, 6):
            assert is_irredundant(alphabet_elements("iend", n), iend_monoid(n))
        # Exhaustive subset search at n = 3: no smaller set generates.
        start = time.monotonic()
        assert exhaustive_min_size(paut_monoid(3), 2)
        assert exhaustive_min_size(iend_monoid(3), 3)
        assert time.monotonic() - start < 300.0
        witness = verify_rank("paut", 3, exhaustive=True)
        assert witness.ok and witness.exhaustive_lower_bound == 3
        witness = verify_rank("iend", 3, exhaustive=True)
        assert witness.ok and witness.exhaustive_lower_bound == 4
        # Structural witnesses backing the lower bounds at larger n.
        for n in range(3, 9):
            assert all(lower_bound_witnesses(n).values())
        for n in range(1, 7):
            assert end_deleted_domain_elements_are_automorphisms(n)
            assert corank_one_non_automorphisms_have_end_deleted_image(n)


def test_08_membership_predicates_match_oracles():
    with criterion(8):
        for n in range(1, 7):
            for a in all_partial_injections(n):
                # The edge oracle is the paper's definition on dicts; the
                # block rule reads membership off the maximal intervals.
                assert is_iend(a) == edge_oracle_is_iend(a) == reference_is_iend(a)
                assert is_paut(a) == reference_is_paut(a)
                assert is_paut(a) == (is_iend(a) and edge_oracle_is_iend(inverse(a)))
