"""Counting: closed form, per-mask refinement, constructive enumeration."""

from __future__ import annotations

import pytest

from pathmonoid import (
    ResourceRefused,
    count_by_mask,
    count_iend,
    count_paut,
    elements_with_domain,
    enumerate_iend,
    enumerate_paut,
    is_iend,
    is_paut,
    mask_profile,
)
from pathmonoid.census import (
    iend_contribution,
    mask_from_set,
    mask_to_set,
    mask_to_string,
    paut_contribution,
)
from pathmonoid.selftest import check_counts

from conftest import all_partial_injections

# Frozen expected counts, n = 1..16.  Derived once from independent routes
# agreeing exactly: the mask sum throughout, and for n = 1..8 constructive
# enumeration and the naive filter of all partial injections.
PAUT_COUNTS = [
    2, 7, 22, 71, 252, 935, 3614, 14567, 60828, 262415, 1166782, 5334247,
    25028732, 120328935, 591886958, 2975043959,
]
IEND_COUNTS = [
    2, 7, 26, 105, 458, 2127, 10450, 53937, 291154, 1636535, 9548362, 57654233,
    359439258, 2308682303, 15250157442, 103427157217,
]


class TestMasks:
    def test_mask_set_round_trip(self):
        assert mask_to_set(4, 0b1011) == frozenset({1, 2, 4})
        assert mask_from_set(4, {1, 2, 4}) == 0b1011
        for bits in range(1 << 5):
            assert mask_from_set(5, mask_to_set(5, bits)) == bits

    def test_mask_string_reads_left_to_right(self):
        # Position p of the string is vertex p's bit.
        assert mask_to_string(4, mask_from_set(4, {1, 2, 4})) == "1101"

    def test_profile_example(self):
        # Domain {1,2,4} at n=4: blocks {1,2} and {4}.
        prof = mask_profile(4, mask_from_set(4, {1, 2, 4}))
        assert (prof.r, prof.s, prof.T) == (2, 3, 1)
        assert (prof.q1, prof.t1) == (1, 2)
        assert (prof.q2, prof.t2) == (3, 6)
        assert paut_contribution(prof) == 4
        assert iend_contribution(prof) == 12

    def test_empty_mask_contributes_one(self):
        prof = mask_profile(3, 0)
        assert (prof.r, prof.s, prof.T, prof.t1, prof.t2) == (0, 0, 0, 1, 1)

    def test_profile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mask_profile(0, 0)
        with pytest.raises(ValueError):
            mask_profile(3, 1 << 3)


class TestCounts:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_frozen_values(self, n):
        assert count_paut(n) == PAUT_COUNTS[n - 1]
        assert count_iend(n) == IEND_COUNTS[n - 1]

    def test_rejects_nonpositive_n(self):
        for count in (count_paut, count_iend):
            with pytest.raises(ValueError):
                count(0)

    def test_paut_never_exceeds_iend(self):
        for n in range(1, 13):
            assert count_paut(n) <= count_iend(n)

    def test_per_mask_table_sums_to_totals(self):
        for n in range(1, 15):
            table = count_by_mask(n)
            assert len(table) == 1 << n
            assert sum(p for _, p, _ in table) == count_paut(n)
            assert sum(i for _, _, i in table) == count_iend(n)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_naive_filter(self, n):
        everything = list(all_partial_injections(n))
        assert sorted(enumerate_paut(n), key=str) == sorted(
            (a for a in everything if is_paut(a)), key=str
        )
        assert sorted(enumerate_iend(n), key=str) == sorted(
            (a for a in everything if is_iend(a)), key=str
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_closed_form(self, n):
        assert check_counts(n) is None

    def test_no_duplicates(self):
        for n in (4, 5):
            elements = enumerate_iend(n)
            assert len(set(elements)) == len(elements)

    def test_sorted_by_text_form(self):
        elements = enumerate_paut(4)
        texts = [a.format() for a in elements]
        assert texts == sorted(texts)

    def test_elements_with_domain_matches_filter(self):
        for n, dom in ((4, {1, 2, 4}), (5, {2, 3, 4}), (5, {1, 3, 5}), (3, set())):
            for family, member in (("paut", is_paut), ("iend", is_iend)):
                built = sorted(elements_with_domain(n, frozenset(dom), family), key=str)
                naive = sorted(
                    (
                        a
                        for a in all_partial_injections(n)
                        if a.domain_set() == frozenset(dom) and member(a)
                    ),
                    key=str,
                )
                assert built == naive, (n, dom, family)

    @pytest.mark.parametrize(
        "n, domain", [(4, {0, 1}), (4, {2, 5}), (0, set())], ids=["vertex-0", "vertex-n+1", "n-0"]
    )
    def test_elements_with_domain_rejects_bad_input(self, n, domain):
        for family in ("paut", "iend"):
            with pytest.raises(ValueError):
                elements_with_domain(n, frozenset(domain), family)

    def test_refuses_beyond_bound(self):
        with pytest.raises(ResourceRefused):
            enumerate_paut(9)
        with pytest.raises(ResourceRefused):
            enumerate_iend(4, n_max=3)
        assert len(enumerate_iend(4, n_max=4)) == IEND_COUNTS[3]

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            enumerate_paut(0)
