"""Named generators, words over them, alphabets, and expansion rules.

The generator families (all partial injections on {1..n}):

* ``tau``            -- the full reversal x -> n+1-x.
* ``a(i)``           -- alpha_i: fixes 1..i-1, folds i+1..n reversed onto
                        n..i+1; by convention a(0) = tau and a(n+1) = id.
* ``as(i)``          -- alpha*_i: reverses 1..i-1 onto i-1..1, fixes i+1..n.
* ``e(i,j)``         -- the idempotent identity on {1..n} minus {i, j}.
* ``es(i,j)``        -- fixes outside [i, j], reverses the open segment
                        (i, j); es(0, n+1) = tau, es(0, j) = as(j),
                        es(i, n+1) = a(i).
* ``rp(i,j)``        -- down-shift: i+2..j moves to i+1..j-1.
* ``rm(i,j)``        -- up-shift: i..j-2 moves to i+1..j-1.
* ``b(i)``           -- fixes 1..i-1, shifts i+1..n down by one.

Words are read left to right in the right action: ``eval_word`` of
``[u, v]`` is ``compose(u, v)``.

A symbol's text form is its kind and, in ASCII digits, the number of
indices ``_KINDS`` gives that kind: ``tau``, ``a3``, ``es1,4``.

The shipped alphabets are A(n) = {tau, a(1), ..., a(n-2)} (with a(2) kept
at n = 3) generating PAut(P_n), and B(n) = A(n) + {b(2), ..., b(ceil(n/2))}
generating IEnd(P_n); one table, ``_BASE_KINDS``, holds these index ranges
for both alphabets and for the expansion's base-letter test.
``expand_symbol`` rewrites any legal symbol into a
word over B(n) -- over A(n) unless the symbol is some b(i) -- using the
identities

    a(i)    = tau a(n-i+1)^2 tau                  (i = n-1, n)
    as(i)   = tau a(n-i+1) tau
    e(i,j)  = a(i)^2 a(j)^2
    es(i,j) = a(i) a(n+i+1-j) a(i)                (j >= i+3; es(i,i+2) = e(i,i+2))
    rp(i,j) = a(i) a(n+i-j) a(n+i-j+1) a(i)
    rm(i,j) = a(i-1) a(n+i-j+1) a(n+i-j) a(i-1)
    b(i)    = tau b(n-i+1) as(n)                  (i > ceil(n/2))

with a(0) = tau, a(n+1) the empty word, and the boundary names of es at
0 / n+1 substituted first.  No expansion is longer than 10 letters.

Two per-symbol caches live for the process, each bounded at 4096 entries.
One checks and builds each generator image once for ``make_generator``,
``eval_word`` and factorization, at about 8·(n+1) bytes, as the ints are
those of one shared identity tuple; the other holds each symbol's expansion.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .path_core import PartialInjection, _check_n, _check_text, _listed, _trusted, identity


class Symbol(NamedTuple):
    """One generator name; ``kind`` doubles as the text-format mnemonic.  It
    orders, hashes and compares equal as the plain tuple ``(kind, i, j)``."""

    kind: str
    i: int = 0
    j: int = 0


def tau() -> Symbol:
    return Symbol("tau")


def alpha(i: int) -> Symbol:
    return Symbol("a", i)


def alpha_star(i: int) -> Symbol:
    return Symbol("as", i)


def eps(i: int, j: int) -> Symbol:
    return Symbol("e", i, j)


def eps_star(i: int, j: int) -> Symbol:
    return Symbol("es", i, j)


def beta(i: int) -> Symbol:
    return Symbol("b", i)


# Each symbol kind: how many indices its text form writes (an unwritten
# index is 0) and the index ranges it admits at a given n.
_KINDS = {
    "tau": (0, lambda i, j, n: n >= 1),
    "a": (1, lambda i, j, n: 0 <= i <= n + 1),
    "as": (1, lambda i, j, n: 1 <= i <= n),
    "e": (2, lambda i, j, n: 1 <= i and i + 1 < j <= n),
    "es": (2, lambda i, j, n: 0 <= i and i + 1 < j <= n + 1),
    "rp": (2, lambda i, j, n: 0 <= i and i + 2 < j <= n),
    "rm": (2, lambda i, j, n: 1 <= i and i + 2 < j <= n + 1),
    "b": (1, lambda i, j, n: 2 <= i <= n - 1),
}


def _kind_entry(kind: str) -> tuple:
    """The ``_KINDS`` entry of ``kind``; ``ValueError`` for an unknown kind."""
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"unknown symbol kind {kind!r}") from None


def _check_letter(sym: object) -> None:
    if not isinstance(sym, Symbol):
        raise ValueError(f"a letter must be a Symbol, got {sym!r}")


def _check_symbol(sym: Symbol, n: int) -> None:
    _check_n(n)  # a(0) and a(n+1) would pass the index rules at n <= 0.
    _check_letter(sym)
    count, rule = _kind_entry(sym.kind)
    if type(sym.i) is not int or type(sym.j) is not int:  # bool is a subclass of int
        raise ValueError(f"symbol indices must be integers, got ({sym.i!r}, {sym.j!r})")
    if any((sym.i, sym.j)[count:]):
        raise ValueError(f"symbol {tuple(sym)} sets an index its kind does not take")
    if not rule(sym.i, sym.j, n):
        raise ValueError(f"symbol {format_symbol(sym)} has indices out of range for n={n}")


@lru_cache(maxsize=1)
def _identity_image(n: int) -> tuple[int, ...]:
    """(0, 1, ..., n), held for the last n: every generator image at n is
    built from its entries, so no two images hold separate int objects for
    one vertex (CPython caches only the ints up to 256)."""
    return tuple(range(n + 1))


def _generator_image(kind: str, i: int, j: int, n: int) -> tuple[int, ...]:
    """The image tuple (see ``PartialInjection``) of a checked symbol."""
    v = _identity_image(n)
    if kind == "a" and i == n + 1:
        return v
    if kind == "b":
        return (*v[:i], 0, *v[i:n])
    # The boundary reversals are es letters: tau and a(i) are es(i, n+1)
    # (tau has i = 0, as a(0) does) and as(i) is es(0, i).
    if kind in ("tau", "a"):
        kind, j = "es", n + 1
    elif kind == "as":
        kind, i, j = "es", 0, i
    img = list(v)
    if kind == "e":
        img[i] = img[j] = 0
    elif kind == "es":
        # The boundary conventions need no case: index 0 is the sentinel
        # slot and n+1 lies past the end, so nothing leaves the domain.
        img[i + 1 : j] = v[j - 1 : i : -1]
        img[i] = 0
        if j <= n:
            img[j] = 0
    elif kind == "rp":
        img[i + 2 : j + 1] = v[i + 1 : j]
        img[i] = img[i + 1] = 0
        if j + 1 <= n:
            img[j + 1] = 0
    else:  # rm
        img[i : j - 1] = v[i + 1 : j]
        img[i - 1] = img[j - 1] = 0
        if j <= n:
            img[j] = 0
    return tuple(img)


@lru_cache(maxsize=4096, typed=True)
def _image(kind: str, i: int, j: int, n: int) -> tuple[int, ...]:
    """The image tuple of the symbol ``(kind, i, j)`` at n, checked and built
    once per process; every caller that needs a letter's image asks here.
    ``typed`` keeps ``True`` and ``1.0`` from reading the entry of ``1``, so
    no symbol skips its check."""
    _check_symbol(Symbol(kind, i, j), n)
    return _generator_image(kind, i, j, n)


def make_generator(sym: Symbol, n: int) -> PartialInjection:
    """The partial injection named by ``sym`` on {1..n}."""
    try:
        return _trusted(_image(*sym, n))
    except TypeError:  # an unhashable index or n never reaches the check
        _check_symbol(sym, n)
        raise


def legal_symbols(n: int) -> Iterator[Symbol]:
    """Every symbol with legal indices at this n, one kind at a time in the
    order of ``_KINDS``, indices ascending; nothing for an int n < 1."""
    if type(n) is int and n < 1:
        return
    _check_n(n)
    indices = range(n + 2)
    for kind, (count, rule) in _KINDS.items():
        for i in indices if count else (0,):
            for j in indices if count == 2 else (0,):
                if rule(i, j, n):
                    yield Symbol(kind, i, j)


def canonical_eps_star(i: int, j: int, n: int) -> Symbol:
    """The preferred name for es(i, j): tau, as(j) or a(i) at the boundary."""
    if i == 0 and j == n + 1:
        return tau()
    if i == 0:
        return alpha_star(j)
    if j == n + 1:
        return alpha(i)
    return eps_star(i, j)


# -- words --------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """A sequence of generator symbols over a fixed n.  The constructor and
    ``parse_word`` check every letter; words built inside the package from
    checked letters (``+``, ``expand_word``, factorization) skip the check."""

    n: int
    letters: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        _check_n(self.n)
        # A list of letters would leave the word unhashable and break ``+``.
        object.__setattr__(self, "letters", tuple(_listed(self.letters, "letters")))
        for sym in self.letters:
            _check_symbol(sym, self.n)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.letters)

    def __add__(self, other: "Word") -> "Word":
        _check_word(other)
        if self.n != other.n:
            raise ValueError("cannot concatenate words over different n")
        return _trusted_word(self.n, self.letters + other.letters)


def _trusted_word(n: int, letters: tuple[Symbol, ...]) -> Word:
    """Wrap ``letters`` without checks; every letter must already be legal
    at n (see ``_check_symbol``)."""
    word = object.__new__(Word)
    object.__setattr__(word, "n", n)
    object.__setattr__(word, "letters", letters)
    return word


def _check_word(word: object) -> None:
    if not isinstance(word, Word):
        raise ValueError(f"a word must be a Word, got {type(word).__name__}")


def _walk(img: tuple[int, ...], letters: Iterable[Symbol], n: int) -> tuple[int, ...]:
    """The image tuple ``img`` carried through ``letters`` at n."""
    for sym in letters:
        img = itemgetter(*img)(_image(*sym, n))
    return img


def eval_word(word: Word) -> PartialInjection:
    """Evaluate left to right under the right action."""
    _check_word(word)
    return _trusted(_walk(identity(word.n).img, word.letters, word.n))


# -- alphabets ---------------------------------------------------------------


# The base letters (see the module docstring): each kind's indices in B(n).
# A(n) is the tau and a letters.
_BASE_KINDS = {
    "tau": lambda n: range(1),
    "a": lambda n: range(1, max(n - 2, 2) + 1),
    "b": lambda n: range(2, (n + 1) // 2 + 1),
}


def _alphabet(n: int, kinds: tuple[str, ...]) -> tuple[Symbol, ...]:
    _check_n(n)
    if n < 3:
        raise ValueError(f"the alphabet is defined for n >= 3, got n={n}")
    return tuple(Symbol(kind, i) for kind in kinds for i in _BASE_KINDS[kind](n))


def alphabet_paut(n: int) -> tuple[Symbol, ...]:
    """A(n), the shipped generating set of PAut(P_n); defined for n >= 3."""
    return _alphabet(n, ("tau", "a"))


def alphabet_iend(n: int) -> tuple[Symbol, ...]:
    """B(n), the shipped generating set of IEnd(P_n); defined for n >= 3."""
    return _alphabet(n, ("tau", "a", "b"))


# -- expansion ---------------------------------------------------------------


def _is_base_letter(sym: Symbol, n: int) -> bool:
    """Whether the legal ``sym`` is a letter of B(n), without building the
    alphabet."""
    indices = _BASE_KINDS.get(sym.kind)
    return indices is not None and sym.i in indices(n)


# The longest word ``expand_symbol`` returns at any n: 10 letters, for
# e(i, j) with j >= n-1, whose a(j) folds through the reversal.  No rule
# reads n except through the fold, so the bound holds at every n; tests
# check it for n = 3..40 and n = 100.
MAX_EXPANSION_LENGTH = 10


@lru_cache(maxsize=4096)
def _expand(kind: str, i: int, j: int, n: int) -> tuple[Symbol, ...]:
    sym = Symbol(kind, i, j)
    if _is_base_letter(sym, n):
        return (sym,)

    def seq(*symbols: Symbol) -> tuple[Symbol, ...]:
        out: list[Symbol] = []
        for s in symbols:
            out.extend(_expand(s.kind, s.i, s.j, n))
        return tuple(out)

    if kind == "a":
        if i == 0:
            return (tau(),)
        if i == n + 1:
            return ()
        # i is n-1 or n here; fold through the reversal.
        return seq(tau(), alpha(n - i + 1), alpha(n - i + 1), tau())
    if kind == "as":
        return seq(tau(), alpha(n - i + 1), tau())
    if kind == "e":
        return seq(alpha(i), alpha(i), alpha(j), alpha(j))
    if kind == "es":
        named = canonical_eps_star(i, j, n)
        if named.kind != "es":
            return seq(named)
        if j == i + 2:
            return seq(eps(i, j))
        return seq(alpha(i), alpha(n + i + 1 - j), alpha(i))
    if kind == "rp":
        return seq(alpha(i), alpha(n + i - j), alpha(n + i - j + 1), alpha(i))
    if kind == "rm":
        return seq(alpha(i - 1), alpha(n + i - j + 1), alpha(n + i - j), alpha(i - 1))
    # b(i) with i > ceil(n/2); reflect to the low half.
    return seq(tau(), beta(n - i + 1), alpha_star(n))


def expand_symbol(sym: Symbol, n: int) -> Word:
    """Rewrite ``sym`` as a word over the base alphabet B(n) (n >= 3)."""
    return expand_word(Word(n, (sym,)))


def expand_word(word: Word) -> Word:
    """Expand every letter; the result evaluates to the same element."""
    _check_word(word)
    n = word.n
    if n < 3:
        raise ValueError(f"expansion requires n >= 3, got n={n}")
    letters: list[Symbol] = []
    for sym in word.letters:
        letters.extend(_expand(sym.kind, sym.i, sym.j, n))
    # Every leaf of ``_expand`` passed ``_is_base_letter``.
    return _trusted_word(n, tuple(letters))


# -- text form ----------------------------------------------------------------

# A kind name and up to two ASCII indices; ``_KINDS`` says how many it takes.
_SYMBOL_RE = re.compile(f"({'|'.join(_KINDS)})(?:([0-9]+)(?:,([0-9]+))?)?")


def format_symbol(sym: Symbol) -> str:
    _check_letter(sym)
    count = _kind_entry(sym.kind)[0]
    return sym.kind + ",".join(str(index) for index in (sym.i, sym.j)[:count])


def parse_symbol(text: str) -> Symbol:
    _check_text(text, "generator symbol")
    m = _SYMBOL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed generator symbol {text!r}")
    kind = m.group(1)
    indices = [int(index) for index in m.groups()[1:] if index is not None]
    count = _KINDS[kind][0]
    if len(indices) != count:
        if count == 0:
            raise ValueError(f"malformed generator symbol {text!r}")
        if count == 1:
            raise ValueError(f"symbol {text!r} takes exactly one index")
        raise ValueError(f"symbol {text!r} takes two indices")
    return Symbol(kind, *indices)


def format_word(word: Word) -> str:
    _check_word(word)
    return " ".join(map(format_symbol, word.letters))


def parse_word(text: str, n: int) -> Word:
    """Parse a whitespace-separated word, validating letters against n."""
    _check_text(text, "word")
    return Word(n, tuple(parse_symbol(tok) for tok in text.split()))
