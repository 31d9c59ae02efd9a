"""Factorization into generator words: round-trips over whole monoids."""

from __future__ import annotations

import pytest

from pathmonoid import (
    PartialInjection,
    Word,
    canonical_delta,
    domain_intervals,
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
from pathmonoid import factorize, selftest
from pathmonoid.genwords import alpha_star, beta, eps_star, rho_plus, tau
from pathmonoid.selftest import check_round_trip

from test_golden import WORDS_FILE, WORDS_N, factor_words


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

    def test_step_bound_is_enforced(self, monkeypatch):
        a = parse_element("n=5;1>3,3>5,5>1")
        monkeypatch.setattr(factorize, "word_length_bound", lambda n: 1)
        with pytest.raises(RuntimeError, match="step bound of 1 letters"):
            factor_paut(a)

    def test_block_order_is_not_recomputed_per_letter(self, monkeypatch):
        # The n = 24 partial automorphism of the golden cases: 4 domain blocks,
        # some reversed, dozens of shift letters.
        a = parse_element("n=24;2>21,3>20,4>19,5>18,8>3,9>4,10>5,14>12,15>11,16>10,17>9,20>24,21>23")
        block_order = factorize._block_order
        calls = []

        def counting(img, blocks):
            calls.append(img)
            return block_order(img, blocks)

        monkeypatch.setattr(factorize, "_block_order", counting)
        word = factor_paut(a)
        assert eval_word(word) == a
        assert len(calls) <= len(domain_intervals(a)) + 1 < len(word)

    @pytest.mark.parametrize(
        ("text", "match"),
        [
            # tau places the second block but throws the first one to the
            # right end: only the end check can see it.
            pytest.param("n=6;1>1,3>4", "shift letters disturbed the block order", id="end-check"),
            # tau toggles both blocks back and forth until the step bound.
            pytest.param("n=4;1>1,3>4", "step bound", id="step-bound"),
        ],
    )
    def test_a_wrong_shift_letter_raises(self, monkeypatch, text, match):
        monkeypatch.setattr(factorize, "_shift_right_letter", lambda *args: tau())
        with pytest.raises(RuntimeError, match=match):
            factor_paut(parse_element(text))


class TestLeftShift:
    def test_letters(self):
        # A block slides down by rp; a single point swaps with its left
        # neighbour by es, named as(3) at the left end.
        assert factorize._shift_left_letter(4, 6, 8) == rho_plus(2, 6)
        assert factorize._shift_left_letter(2, 3, 8) == rho_plus(0, 3)
        assert factorize._shift_left_letter(5, 5, 8) == eps_star(3, 6)
        assert factorize._shift_left_letter(2, 2, 8) == alpha_star(3)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_two_points_below_the_block_are_free(self, monkeypatch, n):
        # Each left-shift letter is emitted while image point lo - 1 is free
        # and lo - 2 is free or is 0, so it moves no point but the block's.
        shift_left_letter, emit = factorize._shift_left_letter, factorize._Emitter.emit
        pending, seen = [], set()

        def recording(lo, hi, n):
            pending.append((lo, hi))
            return shift_left_letter(lo, hi, n)

        def checking(em, sym):
            if pending:
                lo, hi = pending.pop()
                assert lo - 1 not in em.img, (em.img, lo, hi)
                assert lo == 2 or lo - 2 not in em.img, (em.img, lo, hi)
                seen.add((lo == 2, lo == hi))
            emit(em, sym)

        monkeypatch.setattr(factorize, "_shift_left_letter", recording)
        monkeypatch.setattr(factorize._Emitter, "emit", checking)
        for a in enumerate_paut(n):
            assert eval_word(factor_paut(a)) == a
        assert not pending
        if n >= 5:
            # Blocks and single points, at the left end and away from it.
            assert seen == {(True, True), (True, False), (False, True), (False, False)}


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
        monkeypatch.setattr(selftest, "factor_paut", lambda a: Word(a.n, (tau(),) * 37))
        fault = check_round_trip("paut", 3)
        assert fault.startswith("paut element n=3;") and fault.endswith(
            "has 37 letters, above 4n^2"
        )

    def test_check_names_a_letter_outside_the_alphabet(self, monkeypatch):
        # b(2) is a letter of B(3), not of A(3).
        monkeypatch.setattr(selftest, "factor_paut", lambda a: Word(a.n, (beta(2),)))
        fault = check_round_trip("paut", 3)
        assert fault.startswith("paut element n=3;") and fault.endswith(
            "word 'b2' expands to a word that uses b2, outside the alphabet"
        )

    def test_words_match_the_golden_list(self):
        # Pins every word, not only its value: a rewrite of the factorization
        # that changes a single letter shows here.
        assert factor_words(WORDS_N) == WORDS_FILE.read_text()

    def test_words_use_only_legal_letters(self):
        # Factor and expand build their words without checks; rebuilding
        # through the checking constructor re-checks every letter.
        for factor, elements in ((factor_paut, enumerate_paut(5)), (factor_iend, enumerate_iend(5))):
            for a in elements:
                word = factor(a)
                assert Word(word.n, word.letters) == word, a
                base = expand_word(word)
                assert Word(base.n, base.letters) == base, a
