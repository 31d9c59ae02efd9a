"""The image-tuple core of ``PartialInjection`` against naive dict oracles.

``compose``, ``inverse``, ``make_generator`` and word evaluation build their
results from image tuples without re-validation, so each is checked here
against the brute-force dict versions in ``conftest``.  The mapping views are
pinned at their edges, where a 0-sentinel tuple could otherwise leak a value
(``img[-1]`` is the image of n).  The validating constructors are pinned in
``test_path_core``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_compose, naive_eval, naive_generator, naive_inverse, partial_injections
from pathmonoid import (
    PartialInjection,
    Word,
    compose,
    eval_word,
    identity,
    inverse,
    legal_symbols,
    make_generator,
)
from pathmonoid.genwords import alpha, tau


def assert_well_formed(a: PartialInjection, expected: dict[int, int]) -> None:
    """``a`` has a valid image tuple and equals the validated build of ``expected``."""
    assert len(a.img) == a.n + 1 and a.img[0] == 0
    assert a == PartialInjection(a.n, expected)
    assert hash(a) == hash(PartialInjection(a.n, expected))
    assert dict(a.pairs) == expected


@st.composite
def same_n_pairs(draw):
    a = draw(partial_injections(max_n=9))
    b = draw(partial_injections(min_n=a.n, max_n=a.n))
    return a, b


@st.composite
def words(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    letters = draw(st.lists(st.sampled_from(list(legal_symbols(n))), max_size=12))
    return Word(n, tuple(letters))


class TestAgainstNaive:
    @settings(max_examples=300)
    @given(same_n_pairs())
    def test_compose(self, ab):
        a, b = ab
        assert_well_formed(compose(a, b), naive_compose(dict(a.pairs), dict(b.pairs)))

    @settings(max_examples=300)
    @given(partial_injections(max_n=9))
    def test_inverse(self, a):
        assert_well_formed(inverse(a), naive_inverse(dict(a.pairs)))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_make_generator_every_legal_symbol(self, n):
        for sym in legal_symbols(n):
            assert_well_formed(make_generator(sym, n), naive_generator(sym, n))

    @pytest.mark.parametrize("n", [0, -1])
    def test_make_generator_rejects_nonpositive_n(self, n):
        for sym in (alpha(0), alpha(n + 1), tau()):
            with pytest.raises(ValueError):
                make_generator(sym, n)

    @settings(max_examples=300)
    @given(words())
    def test_eval_word(self, word):
        assert_well_formed(eval_word(word), naive_eval(word.letters, word.n))

    @pytest.mark.parametrize("n", (1, 2))
    def test_eval_word_every_short_word_at_tiny_n(self, n):
        # An image tuple of length 2 or 3 is the shortest the composition
        # kernel meets.
        symbols = list(legal_symbols(n))
        words = [()] + [(s,) for s in symbols]
        words += [(s, t, u) for s in symbols for t in symbols for u in symbols]
        for letters in words:
            assert_well_formed(eval_word(Word(n, letters)), naive_eval(letters, n))


class TestMappingViewEdges:
    @pytest.mark.parametrize("a", [identity(4), PartialInjection(4, [(2, 3), (4, 1)])])
    def test_out_of_range_keys(self, a):
        # bool is a subclass of int, but not a vertex.
        for x in (0, a.n + 1, -1, True, False):
            with pytest.raises(KeyError):
                a[x]
            assert a.get(x) is None
            assert a.get(x, "default") == "default"
            assert x not in a

    def test_views_of_a_sparse_map(self):
        a = PartialInjection(5, [(4, 1), (2, 5)])
        assert a.img == (0, 0, 5, 0, 1, 0)
        assert a[2] == 5 and a.get(3) is None and 3 not in a and 4 in a
        assert len(a) == 2 and list(a) == [2, 4]
        assert a.domain() == (2, 4) and a.image() == (1, 5)

    def test_empty_map_views(self):
        z = PartialInjection(3, [])
        assert z.img == (0, 0, 0, 0)
        assert len(z) == 0 and z.pairs == () and z.domain() == z.image() == ()
