"""Shared naive oracles and strategies for the test suite.

The oracles here are deliberately brute-force and independent of the
library's own interval-based logic, so the fast implementations are
checked against something that cannot share their bugs.
"""

from __future__ import annotations

from collections import Counter
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


def _edges_to_edges(mapping: dict[int, int]) -> bool:
    """Every path edge {x, x+1} inside the domain maps to a path edge."""
    return all(abs(mapping[x] - mapping[x + 1]) == 1 for x in mapping if x + 1 in mapping)


def edge_oracle_is_iend(a: PartialInjection) -> bool:
    """Edge-by-edge endomorphism test: every domain edge maps to an edge."""
    return _edges_to_edges(dict(a.pairs))


def naive_compose(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """x -> b(a(x)) on plain dicts, wherever both sides are defined."""
    return {x: b[y] for x, y in a.items() if y in b}


def naive_inverse(a: dict[int, int]) -> dict[int, int]:
    return {y: x for x, y in a.items()}


# -- the paper's pairwise forms of Green's relations, on plain dicts ---------


def _naive_is_paut(mapping: dict[int, int]) -> bool:
    """Both the map and its inverse send path edges to path edges."""
    return _edges_to_edges(mapping) and _edges_to_edges(naive_inverse(mapping))


def _runs(points: Iterable[int]) -> list[list[int]]:
    """Maximal runs of consecutive integers, in increasing order."""
    runs: list[list[int]] = []
    for p in sorted(points):
        if runs and p == runs[-1][-1] + 1:
            runs[-1].append(p)
        else:
            runs.append([p])
    return runs


def _naive_types(mapping: dict[int, int]) -> Counter:
    """Multiset of reversal-normalized types of the maximal image intervals."""
    types: Counter = Counter()
    for interval in _runs(mapping.values()):
        blocks = _runs(x for x, y in mapping.items() if y in interval)
        blocks.sort(key=lambda block: min(mapping[x] for x in block))
        t = tuple(len(block) for block in blocks)
        types[min(t, t[::-1])] += 1
    return types


def reference_l_related(a: PartialInjection, b: PartialInjection) -> bool:
    """Equal images, and a·b⁻¹ is a partial automorphism."""
    da, db = dict(a.pairs), dict(b.pairs)
    same_image = set(da.values()) == set(db.values())
    return same_image and _naive_is_paut(naive_compose(da, naive_inverse(db)))


def reference_r_related(a: PartialInjection, b: PartialInjection) -> bool:
    """Equal domains, and a⁻¹·b is a partial automorphism."""
    da, db = dict(a.pairs), dict(b.pairs)
    return set(da) == set(db) and _naive_is_paut(naive_compose(naive_inverse(da), db))


def reference_h_related(a: PartialInjection, b: PartialInjection) -> bool:
    return reference_l_related(a, b) and reference_r_related(a, b)


def reference_j_related(a: PartialInjection, b: PartialInjection) -> bool:
    """Similar type: the image intervals carry the same types up to reversal."""
    return _naive_types(dict(a.pairs)) == _naive_types(dict(b.pairs))


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
