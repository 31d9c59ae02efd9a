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

The shipped alphabets are A(n) = {tau, a(1), ..., a(n-2)} (with a(2) kept
at n = 3) generating PAut(P_n), and B(n) = A(n) + {b(2), ..., b(ceil(n/2))}
generating IEnd(P_n).  ``expand_symbol`` rewrites any legal symbol into a
word over B(n) -- over A(n) unless the symbol is some b(i) -- using the
identities

    a(i)    = tau a(n-i+1)^2 tau                  (i = n-1, n)
    as(i)   = a(i) tau a(n-i+1) tau a(i)
    e(i,j)  = a(i)^2 a(j)^2
    es(i,j) = e(i,j) as(j) as(j-i) as(j)
    rp(i,j) = a(i)^2 a(i+1)^2 a(j+1)^2 es(i,j+1) es(i,j)
    rm(i,j) = a(i-1)^2 a(j-1)^2 a(j)^2 es(i-1,j) es(i,j)
    b(i)    = tau b(n-i+1) as(n)                  (i > ceil(n/2))

applied recursively, with the boundary conventions for a(0), a(n+1) and
es at 0 / n+1 substituted first.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .path_core import PartialInjection, _trusted, identity

__all__ = [
    "Symbol",
    "tau",
    "alpha",
    "alpha_star",
    "eps",
    "eps_star",
    "rho_plus",
    "rho_minus",
    "beta",
    "Word",
    "make_generator",
    "eval_word",
    "eval_symbols",
    "alphabet_paut",
    "alphabet_iend",
    "expand_symbol",
    "expand_word",
    "legal_symbols",
    "canonical_eps_star",
    "format_symbol",
    "parse_symbol",
    "format_word",
    "parse_word",
]


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


def rho_plus(i: int, j: int) -> Symbol:
    return Symbol("rp", i, j)


def rho_minus(i: int, j: int) -> Symbol:
    return Symbol("rm", i, j)


def beta(i: int) -> Symbol:
    return Symbol("b", i)


# Index ranges each symbol kind admits at a given n.
_INDEX_RULES = {
    "tau": lambda i, j, n: n >= 1,
    "a": lambda i, j, n: 0 <= i <= n + 1,
    "as": lambda i, j, n: 1 <= i <= n,
    "e": lambda i, j, n: 1 <= i and i + 1 < j <= n,
    "es": lambda i, j, n: 0 <= i and i + 1 < j <= n + 1,
    "rp": lambda i, j, n: 0 <= i and i + 2 < j <= n,
    "rm": lambda i, j, n: 1 <= i and i + 2 < j <= n + 1,
    "b": lambda i, j, n: 2 <= i <= n - 1,
}


def _check_symbol(sym: Symbol, n: int) -> None:
    rule = _INDEX_RULES.get(sym.kind)
    if rule is None:
        raise ValueError(f"unknown symbol kind {sym.kind!r}")
    if not rule(sym.i, sym.j, n):
        raise ValueError(f"symbol {format_symbol(sym)} has indices out of range for n={n}")


def _generator_image(kind: str, i: int, j: int, n: int) -> tuple[int, ...]:
    """The image tuple (see ``PartialInjection``) of a checked symbol."""
    if kind == "tau":
        return (0, *range(n, 0, -1))
    if kind == "a":
        if i == n + 1:
            return tuple(range(n + 1))
        # a(0) = tau falls out of the same formula.
        return (*range(i), 0, *range(n, i, -1))
    if kind == "as":
        return (0, *range(i - 1, 0, -1), 0, *range(i + 1, n + 1))
    if kind == "b":
        return (*range(i), 0, *range(i, n))
    img = list(range(n + 1))
    if kind == "e":
        img[i] = img[j] = 0
    elif kind == "es":
        # The boundary conventions need no case: index 0 is the sentinel
        # slot and n+1 lies past the end, so nothing leaves the domain.
        img[i + 1 : j] = range(j - 1, i, -1)
        img[i] = 0
        if j <= n:
            img[j] = 0
    elif kind == "rp":
        img[i + 2 : j + 1] = range(i + 1, j)
        img[i] = img[i + 1] = 0
        if j + 1 <= n:
            img[j + 1] = 0
    else:  # rm
        img[i : j - 1] = range(i + 1, j)
        img[i - 1] = img[j - 1] = 0
        if j <= n:
            img[j] = 0
    return tuple(img)


def make_generator(sym: Symbol, n: int) -> PartialInjection:
    """The partial injection named by ``sym`` on {1..n}."""
    _check_symbol(sym, n)
    # a(0) and a(n+1) pass the index check at n <= 0 too.
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return _trusted(_generator_image(sym.kind, sym.i, sym.j, n))


def legal_symbols(n: int) -> Iterator[Symbol]:
    """Every symbol with legal indices at this n, one kind at a time in the
    order of ``_INDEX_RULES``, indices ascending; nothing for n < 1."""
    if n < 1:
        return
    indices = range(n + 2)
    for kind, rule in _INDEX_RULES.items():
        if kind == "tau":
            candidates = [(0, 0)]
        elif kind in _PAIR_KINDS:
            candidates = [(i, j) for i in indices for j in indices]
        else:
            candidates = [(i, 0) for i in indices]
        for i, j in candidates:
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
        for sym in self.letters:
            _check_symbol(sym, self.n)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.letters)

    def __add__(self, other: "Word") -> "Word":
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


def eval_symbols(letters: Iterable[Symbol], n: int) -> PartialInjection:
    """Evaluate ``letters`` left to right under the right action."""
    out = identity(n).img
    images: dict[Symbol, tuple[int, ...]] = {}
    for sym in letters:
        g = images.get(sym)
        if g is None:
            g = images[sym] = make_generator(sym, n).img
        out = itemgetter(*out)(g)
    return _trusted(out)


def eval_word(word: Word) -> PartialInjection:
    """Evaluate left to right under the right action."""
    return eval_symbols(word.letters, word.n)


# -- alphabets ---------------------------------------------------------------


def alphabet_paut(n: int) -> tuple[Symbol, ...]:
    """A(n), the shipped generating set of PAut(P_n); defined for n >= 3."""
    if n < 3:
        raise ValueError(f"the alphabet is defined for n >= 3, got n={n}")
    if n == 3:
        return (tau(), alpha(1), alpha(2))
    return (tau(), *(alpha(i) for i in range(1, n - 1)))


def alphabet_iend(n: int) -> tuple[Symbol, ...]:
    """B(n), the shipped generating set of IEnd(P_n); defined for n >= 3."""
    top = (n + 1) // 2
    return alphabet_paut(n) + tuple(beta(i) for i in range(2, top + 1))


# -- expansion ---------------------------------------------------------------


def _is_base_letter(sym: Symbol, n: int) -> bool:
    """Whether ``sym`` is a letter of B(n), without building the alphabet."""
    if sym.kind == "a":
        # A(3) keeps a(2).
        return sym.j == 0 and 1 <= sym.i <= max(n - 2, 2)
    if sym.kind == "b":
        return sym.j == 0 and 2 <= sym.i <= (n + 1) // 2
    return sym == tau()


# The longest word ``expand_symbol`` returns at any n: 98 letters, for
# rm(2, j) once n >= 5 (37 at n = 3, 72 at n = 4).  The rules compare
# indices only with the ends of the path, so the longest expansion stays the
# same as n grows; tests check it for n = 3..20 and n = 100.
MAX_EXPANSION_LENGTH = 98


@lru_cache(maxsize=None)
def _expand(kind: str, i: int, j: int, n: int) -> tuple[Symbol, ...]:
    sym = Symbol(kind, i, j)
    if _is_base_letter(sym, n):
        return (sym,)

    def rec(s: Symbol) -> tuple[Symbol, ...]:
        return _expand(s.kind, s.i, s.j, n)

    def seq(*symbols: Symbol) -> tuple[Symbol, ...]:
        out: list[Symbol] = []
        for s in symbols:
            out.extend(rec(s))
        return tuple(out)

    if kind == "a":
        if i == 0:
            return (tau(),)
        if i == n + 1:
            return ()
        # i is n-1 or n here; fold through the reversal.
        return seq(tau(), alpha(n - i + 1), alpha(n - i + 1), tau())
    if kind == "as":
        return seq(alpha(i), tau(), alpha(n - i + 1), tau(), alpha(i))
    if kind == "e":
        return seq(alpha(i), alpha(i), alpha(j), alpha(j))
    if kind == "es":
        named = canonical_eps_star(i, j, n)
        if named.kind != "es":
            return rec(named)
        return seq(eps(i, j), alpha_star(j), alpha_star(j - i), alpha_star(j))
    if kind == "rp":
        return seq(
            alpha(i), alpha(i),
            alpha(i + 1), alpha(i + 1),
            alpha(j + 1), alpha(j + 1),
            canonical_eps_star(i, j + 1, n),
            canonical_eps_star(i, j, n),
        )
    if kind == "rm":
        return seq(
            alpha(i - 1), alpha(i - 1),
            alpha(j - 1), alpha(j - 1),
            alpha(j), alpha(j),
            canonical_eps_star(i - 1, j, n),
            canonical_eps_star(i, j, n),
        )
    if kind == "b":
        # i > ceil(n/2) here; reflect to the low half.
        return seq(tau(), beta(n - i + 1), alpha_star(n))
    raise ValueError(f"cannot expand symbol kind {kind!r}")


def expand_symbol(sym: Symbol, n: int) -> Word:
    """Rewrite ``sym`` as a word over the base alphabet B(n) (n >= 3)."""
    _check_symbol(sym, n)
    if n < 3:
        raise ValueError(f"expansion requires n >= 3, got n={n}")
    return Word(n, _expand(sym.kind, sym.i, sym.j, n))


def expand_word(word: Word) -> Word:
    """Expand every letter; the result evaluates to the same element."""
    n = word.n
    if word.letters and n < 3:
        raise ValueError(f"expansion requires n >= 3, got n={n}")
    letters: list[Symbol] = []
    for sym in word.letters:
        letters.extend(_expand(sym.kind, sym.i, sym.j, n))
    # Every leaf of ``_expand`` passed ``_is_base_letter``.
    return _trusted_word(n, tuple(letters))


# -- text form ----------------------------------------------------------------

_SYMBOL_RE = re.compile(r"^(tau|as|a|es|e|rp|rm|b)(?:(\d+)(?:,(\d+))?)?$")
_PAIR_KINDS = {"e", "es", "rp", "rm"}
_SINGLE_KINDS = {"a", "as", "b"}


def format_symbol(sym: Symbol) -> str:
    if sym.kind == "tau":
        return "tau"
    if sym.kind in _PAIR_KINDS:
        return f"{sym.kind}{sym.i},{sym.j}"
    return f"{sym.kind}{sym.i}"


def parse_symbol(text: str) -> Symbol:
    m = _SYMBOL_RE.match(text)
    if m is None:
        raise ValueError(f"malformed generator symbol {text!r}")
    kind, si, sj = m.groups()
    if kind == "tau":
        if si is not None:
            raise ValueError(f"malformed generator symbol {text!r}")
        return tau()
    if kind in _SINGLE_KINDS:
        if si is None or sj is not None:
            raise ValueError(f"symbol {text!r} takes exactly one index")
        return Symbol(kind, int(si))
    if si is None or sj is None:
        raise ValueError(f"symbol {text!r} takes two indices")
    return Symbol(kind, int(si), int(sj))


def format_word(word: Word) -> str:
    return " ".join(format_symbol(sym) for sym in word.letters)


def parse_word(text: str, n: int) -> Word:
    """Parse a whitespace-separated word, validating letters against n."""
    return Word(n, tuple(parse_symbol(tok) for tok in text.split()))
