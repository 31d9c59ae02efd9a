"""Generator symbols, alphabets, words, and expansion identities."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmonoid import (
    PartialInjection,
    Symbol,
    Word,
    alphabet_iend,
    alphabet_paut,
    compose,
    eval_word,
    expand_symbol,
    expand_word,
    format_symbol,
    format_word,
    identity,
    is_iend,
    is_paut,
    legal_symbols,
    make_generator,
    parse_symbol,
    parse_word,
)
from pathmonoid import genwords, path_core
from pathmonoid.path_core import _trusted
from pathmonoid.genwords import (
    MAX_EXPANSION_LENGTH,
    _is_base_letter,
    alpha,
    alpha_star,
    beta,
    canonical_eps_star,
    eps,
    eps_star,
    tau,
)
from pathmonoid.selftest import check_expansions

from conftest import folded


class TestSymbol:
    def test_repr(self):
        assert repr(alpha(1)) == "Symbol(kind='a', i=1, j=0)"
        assert repr(eps_star(0, 4)) == "Symbol(kind='es', i=0, j=4)"

    def test_order(self):
        ordered = " ".join(format_symbol(sym) for sym in sorted(legal_symbols(3)))
        assert ordered == (
            "a0 a1 a2 a3 a4 as1 as2 as3 b2 e1,3 es0,2 es0,3 es0,4 es1,3 es1,4 es2,4 rm1,4 rp0,3 tau"
        )
        # The yield order fixes which counterexample a failing suite names first.
        assert " ".join(format_symbol(sym) for sym in legal_symbols(4)) == (
            "tau a0 a1 a2 a3 a4 a5 as1 as2 as3 as4 e1,3 e1,4 e2,4 es0,2 es0,3 es0,4 es0,5 "
            "es1,3 es1,4 es1,5 es2,4 es2,5 es3,5 rp0,3 rp0,4 rp1,4 rm1,4 rm1,5 rm2,5 b2 b3"
        )

    def test_immutable(self):
        sym = alpha(1)
        with pytest.raises(AttributeError):
            sym.i = 2
        with pytest.raises(AttributeError):
            sym.extra = 2

    def test_hash_and_equality_follow_the_fields(self):
        symbols = list(legal_symbols(6))
        assert len(set(symbols)) == len(symbols)
        for sym in symbols:
            twin = Symbol(sym.kind, sym.i, sym.j)
            assert twin == sym and hash(twin) == hash(sym)
        assert Symbol("a", 1) == Symbol("a", 1, 0) != Symbol("a", 2)
        assert Symbol("e", 1, 3) != Symbol("es", 1, 3)
        # Documented: a Symbol equals the plain tuple of its fields.
        assert alpha(1) == ("a", 1, 0)


class TestMakeGenerator:
    def test_tau(self):
        assert make_generator(tau(), 4) == PartialInjection(4, [(1, 4), (2, 3), (3, 2), (4, 1)])

    def test_alpha(self):
        # a(2) at n=5: fixes 1, folds 3..5 onto 5..3 reversed.
        assert make_generator(alpha(2), 5) == PartialInjection(
            5, [(1, 1), (3, 5), (4, 4), (5, 3)]
        )

    def test_alpha_boundary_conventions(self):
        assert make_generator(alpha(0), 4) == make_generator(tau(), 4)
        assert make_generator(alpha(5), 4) == identity(4)

    def test_alpha_star(self):
        # as(4) at n=5: reverses 1..3 onto 3..1, fixes 5.
        assert make_generator(alpha_star(4), 5) == PartialInjection(
            5, [(1, 3), (2, 2), (3, 1), (5, 5)]
        )

    def test_eps(self):
        assert make_generator(eps(2, 4), 5) == PartialInjection(5, [(1, 1), (3, 3), (5, 5)])

    def test_eps_star_interior(self):
        # es(1,4): fixes outside [1,4], reverses the open segment (1,4).
        assert make_generator(eps_star(1, 4), 6) == PartialInjection(
            6, [(2, 3), (3, 2), (5, 5), (6, 6)]
        )

    def test_eps_star_boundary_conventions(self):
        n = 6
        assert make_generator(eps_star(0, n + 1), n) == make_generator(tau(), n)
        for j in range(2, n + 1):
            assert make_generator(eps_star(0, j), n) == make_generator(alpha_star(j), n)
        for i in range(1, n - 1):
            assert make_generator(eps_star(i, n + 1), n) == make_generator(alpha(i), n)

    def test_shifts(self):
        assert make_generator(Symbol("rp", 1, 4), 5) == PartialInjection(
            5, [(3, 2), (4, 3)]
        )
        assert make_generator(Symbol("rm", 2, 5), 5) == PartialInjection(
            5, [(2, 3), (3, 4)]
        )

    def test_beta(self):
        assert make_generator(beta(3), 5) == PartialInjection(
            5, [(1, 1), (2, 2), (4, 3), (5, 4)]
        )
        assert not is_paut(make_generator(beta(3), 5))
        assert is_iend(make_generator(beta(3), 5))

    def test_rejects_out_of_range_indices(self):
        for sym, n in (
            (alpha(6), 4),  # i > n+1
            (alpha_star(0), 4),
            (eps(2, 3), 4),  # needs i+1 < j
            (eps(0, 3), 4),
            (eps_star(1, 7), 5),
            (Symbol("rp", 1, 3), 5),  # needs i+2 < j
            (Symbol("rm", 0, 4), 5),
            (beta(1), 5),
            (beta(5), 5),
        ):
            with pytest.raises(ValueError):
                make_generator(sym, n)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown symbol kind 'zz'"):
            make_generator(Symbol("zz"), 3)
        with pytest.raises(ValueError, match="unknown symbol kind 'zz'"):
            format_symbol(Symbol("zz"))

    @pytest.mark.parametrize(
        "check",
        [lambda sym: Word(3, [sym]), lambda sym: make_generator(sym, 3), format_symbol],
        ids=["Word", "make_generator", "format_symbol"],
    )
    def test_rejects_an_unhashable_kind(self, check):
        with pytest.raises(ValueError, match=r"unknown symbol kind \['a'\]"):
            check(Symbol(["a"], 1, 0))

    _checks = pytest.mark.parametrize(
        "check",
        [
            lambda sym: make_generator(sym, 5),
            lambda sym: Word(5, (sym,)),
            lambda sym: expand_symbol(sym, 5),
            format_symbol,
        ],
        ids=["make_generator", "Word", "expand_symbol", "format_symbol"],
    )

    @_checks
    @pytest.mark.parametrize(
        "sym",
        [Symbol("a", True), Symbol("a", 1.5), Symbol("es", 1, 4.0), Symbol("b", 2, False)],
        ids=["bool", "float", "float-j", "bool-unwritten-j"],
    )
    def test_rejects_non_integer_indices(self, check, sym):
        # A bool index would print as "aTrue", which parse_word cannot read.
        with pytest.raises(ValueError, match="symbol indices must be integers"):
            check(sym)

    @_checks
    @pytest.mark.parametrize(
        "sym",
        [Symbol("a", 1, 9), Symbol("tau", 5), Symbol("tau", 0, 2), Symbol("as", 2, 3), Symbol("b", 2, 1)],
        ids=["a-j", "tau-i", "tau-j", "as-j", "b-j"],
    )
    def test_rejects_unwritten_indices(self, check, sym):
        # a(1, 9) used to expand to a word for the identity on 2..5, and
        # tau(5) printed as "tau", which parse_word reads as another symbol.
        with pytest.raises(ValueError, match="sets an index its kind does not take"):
            check(sym)

    @pytest.mark.parametrize("sym", [Symbol("a", -1), Symbol("es", -1, 4)], ids=["a", "es-i"])
    def test_format_symbol_rejects_a_negative_index(self, sym):
        # es(-1, 4) printed as "es-1,4", which parse_symbol cannot read.
        with pytest.raises(ValueError, match="negative index"):
            format_symbol(sym)
        with pytest.raises(ValueError, match=r"indices out of range for n=5$"):
            make_generator(sym, 5)

    def test_legal_symbols_agree_with_validation(self):
        for n in (3, 4, 6):
            symbols = list(legal_symbols(n))
            assert len(set(symbols)) == len(symbols)
            for sym in symbols:
                make_generator(sym, n)  # must not raise
        for n in (0, -1):
            assert list(legal_symbols(n)) == []

    @pytest.mark.parametrize(
        "check",
        [
            lambda n: make_generator(tau(), n),
            lambda n: Word(n, (tau(),)),
            lambda n: Word(n, ()),
            lambda n: expand_symbol(tau(), n),
            lambda n: list(legal_symbols(n)),
        ],
        ids=["make_generator", "Word", "empty-Word", "expand_symbol", "legal_symbols"],
    )
    @pytest.mark.parametrize("n", [5.0, "5", True], ids=["float", "str", "bool"])
    def test_rejects_a_non_integer_n(self, check, n):
        # expand_symbol(tau(), 5.0) used to return a word over n = 5.0, and a
        # str n raised TypeError from a comparison.
        with pytest.raises(ValueError, match="n must be a positive integer"):
            check(n)


class TestAlphabets:
    def test_paut_alphabet_small(self):
        assert alphabet_paut(3) == (tau(), alpha(1), alpha(2))
        assert alphabet_paut(5) == (tau(), alpha(1), alpha(2), alpha(3))

    def test_iend_alphabet_adds_betas(self):
        assert alphabet_iend(3) == (tau(), alpha(1), alpha(2), beta(2))
        assert alphabet_iend(6)[-2:] == (beta(2), beta(3))

    def test_sizes(self):
        for n in range(3, 13):
            assert len(alphabet_paut(n)) == (3 if n == 3 else n - 1)
            assert len(alphabet_iend(n)) == len(alphabet_paut(n)) + (n + 1) // 2 - 1

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            alphabet_paut(2)
        with pytest.raises(ValueError):
            alphabet_iend(2)

    def test_letters_are_members(self):
        for n in (3, 5, 8):
            for sym in alphabet_paut(n):
                assert is_paut(make_generator(sym, n))
            for sym in alphabet_iend(n):
                assert is_iend(make_generator(sym, n))


class TestWords:
    def test_word_validates_letters(self):
        with pytest.raises(ValueError):
            Word(4, (beta(4),))  # b needs 2 <= i <= n-1

    def test_a_letter_that_is_not_a_symbol_is_refused(self):
        # A plain tuple has no ``kind``: the check raised AttributeError.
        with pytest.raises(ValueError, match="a letter must be a Symbol"):
            Word(3, [("a", 1, 0)])
        with pytest.raises(ValueError, match="a letter must be a Symbol"):
            make_generator(("a", 1), 3)
        # A full plain tuple names its image directly and stays accepted.
        assert make_generator(("a", 1, 0), 3) == make_generator(alpha(1), 3)

    def test_eval_left_to_right(self):
        w = Word(3, (alpha(1), tau()))
        expected = compose(make_generator(alpha(1), 3), make_generator(tau(), 3))
        assert eval_word(w) == expected

    def test_empty_word_is_identity(self):
        assert eval_word(Word(4, ())) == identity(4)

    def test_iterates_over_its_letters(self):
        assert list(Word(3, (tau(), alpha(1)))) == [tau(), alpha(1)]

    def test_concatenation_is_homomorphic(self):
        u = Word(5, (alpha(2), eps(1, 3)))
        v = Word(5, (tau(), alpha_star(3)))
        assert eval_word(u + v) == compose(eval_word(u), eval_word(v))

    def test_concatenation_rejects_mixed_n(self):
        with pytest.raises(ValueError):
            Word(4, ()) + Word(5, ())

    @pytest.mark.parametrize("other", [3, None, (tau(),), "tau"], ids=["int", "None", "tuple", "str"])
    def test_concatenation_refuses_what_is_not_a_word(self, other):
        # ``+`` read ``other.n`` and raised AttributeError, where ``*`` of
        # elements refuses with ValueError.
        with pytest.raises(ValueError, match="a word must be a Word, got"):
            Word(3, (tau(),)) + other

    def test_a_list_of_letters_is_stored_as_a_tuple(self):
        # A stored list left the word unhashable, and ``+`` raised TypeError.
        w = Word(5, [tau()])
        assert w.letters == (tau(),) and w == Word(5, (tau(),))
        assert hash(w) == hash(Word(5, (tau(),)))
        assert (w + w).letters == (tau(), tau())


class TestTextFormat:
    @pytest.mark.parametrize(
        "text,sym",
        [
            ("tau", tau()),
            ("a3", alpha(3)),
            ("as3", alpha_star(3)),
            ("e1,4", eps(1, 4)),
            ("es1,4", eps_star(1, 4)),
            ("rp0,5", Symbol("rp", 0, 5)),
            ("rm2,6", Symbol("rm", 2, 6)),
            ("b3", beta(3)),
        ],
    )
    def test_symbol_round_trip(self, text, sym):
        assert parse_symbol(text) == sym
        assert format_symbol(sym) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "", "zeta", "a", "e3", "es1", "tau2", "b1,2", "a-1",
            # Non-ASCII digits, and a trailing newline that ``$`` would allow.
            "a\u0663", "es\uff11,\uff14", "a3\n",
        ],
    )
    def test_parse_symbol_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_symbol(bad)

    @pytest.mark.parametrize("bad", [b"tau", None, ["tau"]], ids=["bytes", "none", "list"])
    def test_parse_symbol_refuses_a_non_str(self, bad):
        with pytest.raises(ValueError, match="generator symbol must be a str"):
            parse_symbol(bad)

    @pytest.mark.parametrize("bad", [b"tau a3", None, ["tau"]], ids=["bytes", "none", "list"])
    def test_parse_word_refuses_a_non_str(self, bad):
        with pytest.raises(ValueError, match="word must be a str"):
            parse_word(bad, 3)

    def test_word_round_trip(self):
        text = "tau a3 as3 e1,4 es1,4 rp0,5 rm2,6 b3"
        word = parse_word(text, 6)
        assert format_word(word) == text

    def test_parse_word_checks_ranges(self):
        with pytest.raises(ValueError):
            parse_word("a9", 4)

    def test_every_legal_symbol_round_trips(self):
        for sym in legal_symbols(6):
            assert parse_symbol(format_symbol(sym)) == sym


class TestExpansion:
    @pytest.mark.parametrize("n", range(3, 41))
    def test_every_legal_symbol_expands_correctly(self, n):
        # Over A(n), or B(n) for b, and evaluating to the generator.
        assert check_expansions(n) is None
        assert all(len(expand_symbol(sym, n)) <= MAX_EXPANSION_LENGTH for sym in legal_symbols(n))

    def test_expand_word_concatenates(self):
        w = Word(5, (eps_star(1, 4), beta(4)))
        expanded = expand_word(w)
        assert set(expanded.letters) <= set(alphabet_iend(5))
        assert eval_word(expanded) == eval_word(w)

    def test_base_letters_expand_to_themselves(self):
        for n in range(3, 13):
            base = set(alphabet_iend(n))
            for sym in legal_symbols(n):
                assert _is_base_letter(sym, n) == (sym in base), (n, sym)
            for sym in base:
                assert expand_symbol(sym, n).letters == (sym,)

    def test_expansion_does_not_build_the_alphabet(self, monkeypatch):
        calls = []
        monkeypatch.setattr(genwords, "alphabet_iend", calls.append)
        genwords._expand.cache_clear()
        expand_symbol(Symbol("rm", 2, 5), 50_000)
        assert calls == []

    def test_longest_expansion(self):
        assert MAX_EXPANSION_LENGTH == 10
        for n in (*range(3, 21), 100):
            longest = max(len(expand_symbol(sym, n)) for sym in legal_symbols(n))
            assert longest == MAX_EXPANSION_LENGTH, n
            # e(i, j) with j >= n-1: a(j) folds through the reversal.
            assert len(expand_symbol(eps(1, n), n)) == MAX_EXPANSION_LENGTH

    def test_canonical_eps_star(self):
        assert canonical_eps_star(0, 7, 6) == tau()
        assert canonical_eps_star(0, 4, 6) == alpha_star(4)
        assert canonical_eps_star(2, 7, 6) == alpha(2)
        assert canonical_eps_star(2, 5, 6) == eps_star(2, 5)

    def test_expansion_needs_alphabets(self):
        with pytest.raises(ValueError):
            expand_symbol(tau(), 2)

    @pytest.mark.parametrize("n", (1, 2))
    def test_empty_word_expansion_needs_alphabets(self, n):
        # The empty word has no letter to expand, but there is still no
        # base alphabet below n = 3 to write it over.
        with pytest.raises(ValueError, match=f"expansion requires n >= 3, got n={n}"):
            expand_word(Word(n, ()))


def _one_letter_words(n: int) -> list[Word]:
    return [Word(n, (sym,)) for sym in legal_symbols(n)]


def _seeded_words(n: int) -> list[Word]:
    """Three seeded 40-letter words at n, drawn from pools of 1, 5 and 40
    legal symbols, so that letters repeat within a walk."""
    rng = random.Random(n)
    symbols = list(legal_symbols(n))
    return [
        Word(n, tuple(rng.choices(rng.sample(symbols, size), k=40))) for size in (1, 5, 40)
    ]


def _walk_fault(words: list[Word]) -> Word | None:
    """The first of ``words`` that ``eval_word`` does not take to its fold."""
    return next((word for word in words if eval_word(word) != folded(word)), None)


class TestWordWalk:
    """``eval_word`` walks byte images at n <= 255 and image tuples above;
    the left fold of ``compose`` over ``make_generator``, the tuple kernel,
    is the reference of both routes."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_every_legal_symbol_walks_to_its_generator(self, n):
        assert _walk_fault(_one_letter_words(n)) is None

    @pytest.mark.parametrize("n", (24, 100, 255, 256))
    def test_seeded_words_walk_to_their_fold(self, n):
        words = _seeded_words(n)
        assert _walk_fault(words) is None
        carried = genwords._walk(path_core._carried(range(n + 1)), words[2].letters, n)
        assert type(carried) is (bytes if n <= 255 else tuple)

    @pytest.mark.parametrize(
        "words, sym",
        [
            pytest.param(lambda: _one_letter_words(5), tau(), id="one-letter-n5"),
            pytest.param(lambda: _seeded_words(24), None, id="seeded-n24"),
            pytest.param(lambda: _seeded_words(255), None, id="seeded-n255"),
        ],
    )
    def test_a_planted_wrong_table_entry_is_found(self, plant_table, words, sym):
        # The byte route reads only the translation table, the fold only the
        # image tuple: one wrong table entry shows as a fault.  The seeded
        # cases plant into the first letter of their first word.
        words = words()
        sym = sym or words[0].letters[0]
        plant_table(sym, words[0].n)
        fault = _walk_fault(words)
        assert fault is not None and sym in fault.letters


class TestWalkContract:
    """``path_core._walk`` is one loop: it reads each distinct letter's entry
    from ``entry`` the first time the letter comes, and multiplies by every
    letter in order."""

    @staticmethod
    def _walk(word: Word) -> tuple[object, list[Symbol]]:
        """The carried end of ``word``'s walk from the identity, and the
        letters whose entries it read, in order."""
        reads: list[Symbol] = []

        def entry(kind, i, j, n):
            reads.append(Symbol(kind, i, j))
            return genwords._image(kind, i, j, n)

        n = word.n
        return path_core._walk(entry, path_core._carried(range(n + 1)), word.letters, n), reads

    @pytest.mark.parametrize("n", (24, 256))
    def test_a_one_letter_word_reads_one_entry(self, n):
        end, reads = self._walk(Word(n, (alpha(2),)))
        assert reads == [alpha(2)]
        assert tuple(end) == make_generator(alpha(2), n).img

    @pytest.mark.parametrize("n", (24, 256))
    def test_the_empty_word_reads_nothing_and_returns_its_start(self, n):
        start = path_core._carried(range(n + 1))
        reads: list = []
        assert path_core._walk(reads.append, start, (), n) is start
        assert reads == []

    @pytest.mark.parametrize("n", (24, 256))
    def test_each_symbol_is_read_once_in_the_order_it_first_comes(self, n):
        word = _seeded_words(n)[1]  # 40 letters from 5 symbols
        end, reads = self._walk(word)
        assert len(word) == 40 and len(reads) == 5
        assert reads == list(dict.fromkeys(word.letters))
        assert _trusted(tuple(end)) == folded(word)

    def test_a_letter_with_a_bool_index_is_refused_where_it_comes(self):
        # The typed letter cache refuses the 30th letter, a(True), which no
        # letter before it equals.
        n = 24
        pool = [sym for sym in legal_symbols(n) if sym != alpha(1)]
        letters = (*random.Random(30).choices(pool, k=29), Symbol("a", True))
        with pytest.raises(ValueError, match=re.escape("symbol indices must be integers, got (True, 0)")):
            eval_word(genwords._trusted_word(n, letters))


@settings(max_examples=60)
@given(st.data())
def test_random_words_evaluate_homomorphically(data):
    n = data.draw(st.integers(min_value=3, max_value=7))
    pool = list(legal_symbols(n))
    letters = data.draw(st.lists(st.sampled_from(pool), max_size=8))
    word = Word(n, tuple(letters))
    by_parts = identity(n)
    for sym in letters:
        by_parts = compose(by_parts, make_generator(sym, n))
    assert eval_word(word) == by_parts
    expanded = expand_word(word)
    assert eval_word(expanded) == by_parts
