"""Green's relations: structural predicates against the ideal-based oracle."""

from __future__ import annotations

from collections import Counter

import pytest

from pathmonoid import (
    GreensClassification,
    PartialInjection,
    classify,
    enumerate_iend,
    enumerate_paut,
    h_related,
    inverse,
    is_iend,
    j_related,
    l_related,
    oracle_classifications,
    parse_element,
    r_related,
    similar_type,
    type_sequence,
)
from pathmonoid import greens
from pathmonoid.greens import canonical_type
from pathmonoid.selftest import check_greens

from conftest import (
    reference_h_related,
    reference_j_related,
    reference_l_related,
    reference_r_related,
)

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

    def test_canonical_type_reversal_normalized(self):
        assert canonical_type((2, 1)) == (1, 2) == canonical_type((1, 2))

    def test_similar_type_examples(self):
        a = parse_element("n=5;1>2,2>3,4>4")
        b = parse_element("n=5;2>2,4>4,5>3")  # blocks {2} and {4,5} -> types (1,2)
        assert similar_type(a, b)
        c = parse_element("n=5;1>2,2>3,4>5")
        assert not similar_type(a, c)


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
            texts = [a.format() for a in cls]
            assert texts == sorted(texts)
        firsts = [cls[0].format() for cls in part.classes]
        assert firsts == sorted(firsts)

    def test_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            classify(enumerate_paut(3), "D")

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

    def test_empty_input(self):
        assert classify([], "H").classes == ()

    def test_known_class_counts_small(self):
        m = enumerate_iend(3)
        assert len(classify(m, "L").classes) == 10
        assert len(classify(m, "R").classes) == 9
        assert len(classify(m, "J").classes) == 6


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

    def test_oracle_rejects_non_closed_input(self):
        # {id restricted to {1}} alone is closed; adding a non-composable
        # partner whose products escape the set is not.
        m = [PartialInjection(3, [(1, 2), (2, 3)]), PartialInjection(3, [(1, 1)])]
        with pytest.raises(ValueError):
            oracle_classifications(m, ("L",))

    def test_oracle_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            oracle_classifications(enumerate_paut(3), ("X",))
