"""Shared naive oracles and strategies for the test suite.

The oracles here are deliberately brute-force and independent of the
library's own interval-based logic, so the fast implementations are
checked against something that cannot share their bugs.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Iterator

from hypothesis import strategies as st

from pathmonoid import PartialInjection, Symbol


def all_partial_injections(n: int) -> Iterator[PartialInjection]:
    """Every injective partial map on {1..n}, by explicit domain/image choice."""
    points = range(1, n + 1)
    for size in range(n + 1):
        for dom in combinations(points, size):
            for img in permutations(points, size):
                yield PartialInjection(n, list(zip(dom, img)))


def edge_oracle_is_iend(a: PartialInjection) -> bool:
    """Edge-by-edge endomorphism test: every domain edge maps to an edge."""
    mapping = dict(a.pairs)
    for x in range(1, a.n):
        if x in mapping and x + 1 in mapping:
            if abs(mapping[x] - mapping[x + 1]) != 1:
                return False
    return True


def naive_compose(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """x -> b(a(x)) on plain dicts, wherever both sides are defined."""
    return {x: b[y] for x, y in a.items() if y in b}


def naive_inverse(a: dict[int, int]) -> dict[int, int]:
    return {y: x for x, y in a.items()}


def naive_generator(sym: Symbol, n: int) -> dict[int, int]:
    """The generator named by a legal ``sym``, written out pair by pair from
    the definitions in ``pathmonoid.genwords``."""
    k, i, j = sym.kind, sym.i, sym.j
    ident = {x: x for x in range(1, n + 1)}
    if k == "tau" or (k == "a" and i == 0):
        return {x: n + 1 - x for x in range(1, n + 1)}
    if k == "a" and i == n + 1:
        return ident
    if k == "a":
        return {x: (x if x < i else n + i + 1 - x) for x in ident if x != i}
    if k == "as":
        return {x: (i - x if x < i else x) for x in ident if x != i}
    if k == "e":
        return {x: x for x in ident if x not in (i, j)}
    if k == "es":
        return {x: (i + j - x if i < x < j else x) for x in ident if x not in (i, j)}
    if k == "rp":
        return {x: (x - 1 if i + 2 <= x <= j else x) for x in ident if x not in (i, i + 1, j + 1)}
    if k == "rm":
        return {x: (x + 1 if i <= x <= j - 2 else x) for x in ident if x not in (i - 1, j - 1, j)}
    if k == "b":
        return {x: (x if x < i else x - 1) for x in ident if x != i}
    raise ValueError(f"unknown symbol kind {k!r}")


def naive_eval(letters: Iterable[Symbol], n: int) -> dict[int, int]:
    """Left-to-right product of the named generators on plain dicts."""
    out = {x: x for x in range(1, n + 1)}
    for sym in letters:
        out = naive_compose(out, naive_generator(sym, n))
    return out


@st.composite
def partial_injections(draw, min_n: int = 1, max_n: int = 7) -> PartialInjection:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    points = list(range(1, n + 1))
    dom = draw(st.lists(st.sampled_from(points), unique=True, max_size=n))
    img = draw(st.permutations(points))
    return PartialInjection(n, list(zip(sorted(dom), img)))
