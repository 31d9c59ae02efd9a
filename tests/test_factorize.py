"""Factorization into generator words: round-trips over whole monoids."""

from __future__ import annotations

import pytest

from pathmonoid import (
    PartialInjection,
    Word,
    canonical_delta,
    enumerate_iend,
    enumerate_paut,
    eval_word,
    expand_word,
    factor_iend,
    factor_paut,
    identity,
    make_generator,
    parse_element,
)
from pathmonoid import factorize
from pathmonoid.genwords import tau
from pathmonoid.selftest import check_round_trip


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
        built = []

        def counting(sym, n):
            built.append(sym)
            return make_generator(sym, n)

        monkeypatch.setattr(factorize, "make_generator", counting)
        a = parse_element("n=9;1>9,3>3,4>4,7>6,8>7")
        word = factor_paut(a)
        assert eval_word(word) == a
        assert len(built) == len(set(built)) == len(set(word.letters)) < len(word)

    def test_step_bound_is_enforced(self):
        a = parse_element("n=5;1>3,3>5,5>1")
        with pytest.raises(RuntimeError):
            factor_paut(a, step_bound=1)


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

    def test_words_use_only_legal_letters(self):
        # Factor and expand build their words without checks; rebuilding
        # through the checking constructor re-checks every letter.
        for factor, elements in ((factor_paut, enumerate_paut(5)), (factor_iend, enumerate_iend(5))):
            for a in elements:
                word = factor(a)
                assert Word(word.n, word.letters) == word, a
                base = expand_word(word)
                assert Word(base.n, base.letters) == base, a
