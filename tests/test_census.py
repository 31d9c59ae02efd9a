"""Counting: closed form, per-mask refinement, constructive enumeration."""

from __future__ import annotations

import importlib
import pkgutil
import re
from functools import partial
from itertools import combinations

import pytest

import pathmonoid

from pathmonoid import (
    ResourceRefused,
    alphabet_paut,
    count_by_mask,
    count_iend,
    count_paut,
    elements_with_domain,
    enumerate_iend,
    enumerate_paut,
    format_element,
    is_iend,
    is_paut,
    mask_profile,
    maximal_intervals,
    rank_formula,
)
from pathmonoid import census, cli, iend_monoid, path_core, paut_monoid, verify_rank
from pathmonoid.census import mask_from_set, mask_to_string
from pathmonoid.path_core import _text_key
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
        assert mask_from_set(4, {1, 2, 4}) == 0b1011
        for bits in range(1 << 5):
            points = {p for p, bit in enumerate(mask_to_string(5, bits), 1) if bit == "1"}
            assert mask_from_set(5, points) == bits

    def test_mask_string_reads_left_to_right(self):
        # Position p of the string is vertex p's bit.
        assert mask_to_string(4, mask_from_set(4, {1, 2, 4})) == "1101"

    def test_profile_example(self):
        # Domain {1,2,4} at n=4: blocks {1,2} and {4}.
        prof = mask_profile(4, mask_from_set(4, {1, 2, 4}))
        assert (prof.r, prof.s, prof.T) == (2, 3, 1)
        assert (prof.q1, prof.t1) == (1, 2)
        assert (prof.q2, prof.t2) == (3, 6)
        assert count_by_mask(4)[prof.bits][1:] == (4, 12)

    def test_empty_mask_contributes_one(self):
        prof = mask_profile(3, 0)
        assert (prof.r, prof.s, prof.T, prof.t1, prof.t2) == (0, 0, 0, 1, 1)

    def test_profile_rejects_bad_input(self):
        # mask_to_string used to write (3, 9) as "100" and (3, -1) as "111",
        # and to raise TypeError for (3.0, 1).
        for read_mask in (mask_profile, mask_to_string):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                read_mask(0, 0)
            with pytest.raises(ValueError, match="n must be a positive integer"):
                read_mask(3.0, 1)
            for bits in (1 << 3, 9, -1):
                with pytest.raises(ValueError, match="out of range for n=3"):
                    read_mask(3, bits)

    @pytest.mark.parametrize("bits", [True, 2.0, "3", None], ids=["bool", "float", "str", "none"])
    def test_profile_rejects_a_non_integer_mask(self, bits):
        # True used to give a profile with bits=True and the string "100";
        # 2.0 raised TypeError.
        for read_mask in (mask_profile, mask_to_string):
            with pytest.raises(ValueError, match="a mask must be an integer"):
                read_mask(3, bits)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_profile_counts_the_blocks_of_the_set_bits(self, n):
        # The blocks of a mask are the maximal intervals of its set bits.
        for bits in range(1 << n):
            blocks = maximal_intervals(p for p in range(1, n + 1) if bits >> (p - 1) & 1)
            sizes = [hi - lo + 1 for lo, hi in blocks]
            prof = mask_profile(n, bits)
            assert (prof.r, prof.s, prof.T) == (len(sizes), sum(sizes), sum(k > 1 for k in sizes))


class TestCounts:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_frozen_values(self, n):
        assert count_paut(n) == PAUT_COUNTS[n - 1]
        assert count_iend(n) == IEND_COUNTS[n - 1]

    def test_rejects_nonpositive_n(self):
        for count in (count_paut, count_iend):
            with pytest.raises(ValueError):
                count(0)
        # mask_from_set used to return 0 for both.
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                mask_from_set(n, set())

    @pytest.mark.parametrize(
        ("call", "n"),
        [
            (count_paut, 2.0), (count_paut, True), (count_iend, "3"), (enumerate_paut, 3.0),
            (enumerate_paut, True), (count_by_mask, 2.0), (alphabet_paut, "5"),
            (partial(rank_formula, "paut"), 4.0), (partial(mask_from_set, points={1}), True),
            (partial(mask_from_set, points={1}), 2.0), (partial(mask_from_set, points=set()), "3"),
        ],
        ids=[
            "count_paut-float", "count_paut-bool", "count_iend-str", "enumerate_paut-float",
            "enumerate_paut-bool", "count_by_mask-float", "alphabet_paut-str", "rank_formula-float",
            "mask_from_set-bool", "mask_from_set-float", "mask_from_set-str",
        ],
    )
    def test_rejects_a_non_integer_n(self, call, n):
        # Each used to raise TypeError or answer for the int the value
        # stands for: count_paut(True) gave 2, rank_formula("paut", 4.0) 3.0,
        # mask_from_set(True, {1}) 1 and mask_from_set("3", set()) 0.
        with pytest.raises(ValueError, match="n must be a positive integer"):
            call(n)

    def test_paut_never_exceeds_iend(self):
        for n in range(1, 13):
            assert count_paut(n) <= count_iend(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_per_mask_table_rows_are_the_mask_profiles(self, n):
        assert count_by_mask(n) == [
            (prof, (1 << prof.T) * prof.t1, (1 << prof.T) * prof.t2)
            for prof in map(partial(mask_profile, n), range(1 << n))
        ]

    def test_per_mask_table_places_each_r_s_once(self, monkeypatch):
        # q1 and q2 depend on (r, s) alone: two ``_slots`` calls per
        # distinct (r, s), not two per mask.
        n = 12
        pairs = {(prof.r, prof.s) for prof, _, _ in count_by_mask(n)}
        calls = []
        slots = census._slots

        def counting(*args):
            calls.append(args)
            return slots(*args)

        monkeypatch.setattr(census, "_slots", counting)
        count_by_mask(n)
        assert sorted(calls) == sorted((n, s, r, gap) for r, s in pairs for gap in (0, 1))
        assert len(calls) == 2 * len(pairs) < 2 * (1 << n)

    def test_per_mask_table_checks_n_once(self, monkeypatch):
        checks = []
        check = census._check_n

        def counting(n):
            checks.append(n)
            check(n)

        monkeypatch.setattr(census, "_check_n", counting)
        count_by_mask(10)
        assert checks == [10]

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
        texts = [format_element(a) for a in elements]
        assert texts == sorted(texts)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize(
        "family, enumerate_family", [("paut", enumerate_paut), ("iend", enumerate_iend)], ids=["paut", "iend"]
    )
    def test_walk_matches_the_placement_rule(self, family, enumerate_family, n):
        # The walk follows the adjacency rule; ``elements_with_domain``
        # places the image blocks by stars and bars, one domain at a time.
        placed = [
            a
            for s in range(n + 1)
            for domain in combinations(range(1, n + 1), s)
            for a in elements_with_domain(n, frozenset(domain), family)
        ]
        walked = enumerate_family(n)
        assert len(placed) == len(walked)
        assert set(placed) == set(walked)

    def test_elements_with_domain_matches_filter(self):
        for n, dom in ((4, {1, 2, 4}), (5, {2, 3, 4}), (5, {1, 3, 5}), (3, set())):
            for family, member in (("paut", is_paut), ("iend", is_iend)):
                built = sorted(elements_with_domain(n, frozenset(dom), family), key=str)
                naive = sorted(
                    (
                        a
                        for a in all_partial_injections(n)
                        if a.domain() == tuple(sorted(dom)) and member(a)
                    ),
                    key=str,
                )
                assert built == naive, (n, dom, family)

    @pytest.mark.parametrize(
        "n, domain",
        [(4, {0, 1}), (4, {2, 5}), (0, set()), (3, {True, 2}), (3, {1.0}), (3, {"1"}), (3, {None})],
        ids=["vertex-0", "vertex-n+1", "n-0", "bool", "float", "str", "none"],
    )
    def test_elements_with_domain_rejects_bad_input(self, n, domain):
        # {True, 2} used to read True as vertex 1 and give 4 elements; the
        # other non-integer vertices raised TypeError.
        for family in ("paut", "iend"):
            with pytest.raises(ValueError):
                elements_with_domain(n, frozenset(domain), family)

    def test_elements_with_domain_rejects_unknown_family(self):
        # An unhashable name gets the same error as any other unknown one.
        for name in ("foo", None, ["paut"]):
            with pytest.raises(ValueError, match=re.escape(f"unknown family {name!r}")):
                elements_with_domain(3, {1}, name)

    @pytest.mark.parametrize(
        "entry",
        [partial(census._enumerate_family, 3), partial(census._count, 3)],
        ids=["enumerate", "count"],
    )
    def test_family_entries_reject_unknown_family(self, entry):
        for name in ("foo", None, ["paut"]):
            with pytest.raises(ValueError, match=re.escape(f"unknown family {name!r}")):
                entry(name)

    def test_refuses_beyond_bound(self, monkeypatch):
        with pytest.raises(ResourceRefused):
            enumerate_paut(9)
        monkeypatch.setattr(census, "MAX_ENUMERATE_N", 3)
        with pytest.raises(ResourceRefused, match="n=4 is above the bound of 3"):
            enumerate_iend(4)
        monkeypatch.setattr(census, "MAX_ENUMERATE_N", 4)
        assert len(enumerate_iend(4)) == IEND_COUNTS[3]

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            enumerate_paut(0)


class TestTextOrder:
    """The enumeration walk emits text order without sorting, so neither the
    listings nor the callers that collect a set or count read a sort key."""

    @pytest.fixture
    def key_calls(self, monkeypatch):
        # Every module that binds the key, except ``greens``: ``classify``
        # sorts its own input into text order, its output order.
        calls = []

        def counting_key(a):
            calls.append(a)
            return _text_key(a)

        for info in pkgutil.iter_modules(pathmonoid.__path__):
            module = importlib.import_module(f"pathmonoid.{info.name}")
            if hasattr(module, "_text_key") and info.name != "greens":
                monkeypatch.setattr(module, "_text_key", counting_key)
        return calls

    @pytest.mark.parametrize(
        "build",
        [
            lambda: paut_monoid(6),
            lambda: iend_monoid(6),
            lambda: verify_rank("iend", 5),
            lambda: check_counts(6),
            lambda: cli.main(["classify", "--n", "5", "--family", "iend", "--relation", "H"]),
        ],
        ids=["paut-monoid", "iend-monoid", "verify-rank", "check-counts", "cli-classify"],
    )
    def test_set_builders_do_not_sort(self, key_calls, capsys, build):
        build()
        assert len(key_calls) == 0

    def test_enumeration_does_not_sort(self, key_calls):
        assert len(enumerate_iend(6)) == IEND_COUNTS[5] == 2127
        assert len(key_calls) == 0

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("enumerate_family", [enumerate_paut, enumerate_iend], ids=["paut", "iend"])
    def test_enumeration_is_in_text_order(self, enumerate_family, n):
        keys = list(map(_text_key, enumerate_family(n)))
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @staticmethod
    def _count_calls(monkeypatch, name):
        """Route ``name`` in every module that binds it through a counter."""
        calls = []
        rule = getattr(path_core, name)

        def counting(img):
            calls.append(img)
            return rule(img)

        for info in pkgutil.iter_modules(pathmonoid.__path__):
            module = importlib.import_module(f"pathmonoid.{info.name}")
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
        return calls

    def test_cli_enumerate_formats_each_element_once(self, monkeypatch, capsys):
        # The walk writes each member's text once, from its parent's: the
        # text rule is read for the root and the n² pair texts alone, and
        # the listing builds no element.
        texts = self._count_calls(monkeypatch, "_image_text")
        built = self._count_calls(monkeypatch, "_trusted")
        assert cli.main(["enumerate", "--n", "6", "--family", "iend"]) == 0
        assert capsys.readouterr().out.count('"n=6;') == IEND_COUNTS[5] == 2127
        assert len(texts) <= (6 + 1) ** 2
        assert built == []

    @pytest.mark.parametrize("n", range(1, census.MAX_ENUMERATE_N + 1))
    @pytest.mark.parametrize("family", ["paut", "iend"])
    def test_walk_texts_are_the_element_texts(self, family, n):
        # Every n the walk admits: the texts it writes from the parents'
        # are the text rule's, in the same order as the image tuples.
        enumerate_family = {"paut": enumerate_paut, "iend": enumerate_iend}[family]
        assert census._members(n, family, True) == list(map(format_element, enumerate_family(n)))

    def test_check_counts_builds_no_element(self, monkeypatch):
        built = self._count_calls(monkeypatch, "_trusted")
        assert check_counts(6) is None
        assert built == []

    @pytest.mark.parametrize("n", range(1, 9))
    def test_monoids_hold_the_enumeration(self, n):
        assert paut_monoid(n).elements == frozenset(enumerate_paut(n))
        assert iend_monoid(n).elements == frozenset(enumerate_iend(n))
