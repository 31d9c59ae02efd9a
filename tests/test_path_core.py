"""Core value type: composition algebra, membership, text and JSON forms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmonoid import (
    PartialInjection,
    compose,
    domain_intervals,
    element_from_json_dict,
    element_to_json_dict,
    empty_map,
    format_element,
    identity,
    image_intervals,
    inverse,
    is_iend,
    is_paut,
    maximal_intervals,
    parse_element,
    restrict,
)

from conftest import all_partial_injections, edge_oracle_is_iend, partial_injections


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

    def test_domain_and_image(self):
        a = PartialInjection(5, [(1, 3), (4, 2)])
        assert a.domain() == (1, 4)
        assert a.image() == (2, 3)  # ascending, not domain order
        assert a.domain_set() == frozenset({1, 4})
        assert a.image_set() == frozenset({2, 3})

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
        [(3, [(1, 0)]), (3, [(-1, 1)]), (3, [(1.0, 2)]), (3, [("1", 2)]), (2.0, []), (-1, [])],
    )
    def test_rejects_bad_vertices_and_n(self, n, pairs):
        with pytest.raises(ValueError):
            PartialInjection(n, pairs)


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

    def test_domain_and_image_intervals(self):
        a = PartialInjection(6, [(1, 5), (2, 6), (4, 2)])
        assert domain_intervals(a) == ((1, 2), (4, 4))
        assert image_intervals(a) == ((2, 2), (5, 6))


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

    @pytest.mark.parametrize(
        "bad",
        [
            "", "n=5", "5;1>3", "n=5;1>3,", "n=5;1>6", "n=5;0>1", "n=5;1>2,1>3", "n=x;1>2",
            "n=5;1>2,3>2", "n=0;", "n=5;-1>2", "n=5;1>a",
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
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
