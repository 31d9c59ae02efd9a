"""Shared naive oracles and strategies for the test suite.

The oracles here are deliberately brute-force, on plain dicts.  The edge
oracle is the paper's definition, the same rule as the library's membership
predicates, so the independent check of membership is the census's
placement enumeration (``TestEnumeration::test_matches_naive_filter``); the
block rule below, which reads membership off the maximal intervals, is a
second reference.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations, repeat
from typing import Iterable, Iterator

from hypothesis import strategies as st

from pathmonoid import (
    MonoidSet,
    PartialInjection,
    Symbol,
    elements_with_domain,
    format_element,
    is_generating,
    is_paut,
)
from pathmonoid import path_core, rankcheck
from pathmonoid.path_core import _img_bytes, _table


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


def reference_is_iend(a: PartialInjection) -> bool:
    """The block rule: each maximal domain interval maps monotonically onto
    an interval, ascending or descending."""
    mapping = dict(a.pairs)
    for block in _runs(mapping):
        images = [mapping[x] for x in block]
        up = [images[0] + k for k in range(len(block))]
        down = [images[0] - k for k in range(len(block))]
        if images not in (up, down):
            return False
    return True


def reference_is_paut(a: PartialInjection) -> bool:
    """The block rule, and Im a has one maximal interval per domain block."""
    mapping = dict(a.pairs)
    return reference_is_iend(a) and len(_runs(mapping.values())) == len(_runs(mapping))


def naive_type_sequences(mapping: dict[int, int]) -> dict[tuple[int, int], tuple[int, ...]]:
    """The type of each maximal image interval ``(lo, hi)``: the sizes of
    the domain runs mapping into it, ordered by their least image."""
    types: dict[tuple[int, int], tuple[int, ...]] = {}
    for interval in _runs(mapping.values()):
        blocks = _runs(x for x, y in mapping.items() if y in interval)
        blocks.sort(key=lambda block: min(mapping[x] for x in block))
        types[interval[0], interval[-1]] = tuple(len(block) for block in blocks)
    return types


def _naive_types(mapping: dict[int, int]) -> Counter:
    """Multiset of reversal-normalized types of the maximal image intervals."""
    return Counter(min(t, t[::-1]) for t in naive_type_sequences(mapping).values())


def reference_domain_intervals(img: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The runs of the defined slots of the image tuple ``img``, the slots
    picked by a generator over ``enumerate`` rather than by ``compress``."""
    return path_core._runs(x for x, y in enumerate(img) if y)


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


# -- lemmas on the rank-(n-1) layer, checked by tests ------------------------


def end_deleted_domain_elements_are_automorphisms(n: int) -> bool:
    """Injective endomorphisms defined everywhere but one endpoint are
    partial automorphisms."""
    full = frozenset(range(1, n + 1))
    for dom in (full - {n}, full - {1}):
        for a in elements_with_domain(n, dom, "iend"):
            if not is_paut(a):
                return False
    return True


def corank_one_non_automorphisms_have_end_deleted_image(n: int) -> bool:
    """Injective endomorphisms on n-1 vertices that are not automorphisms
    all have image {1..n-1} or {2..n}."""
    full = frozenset(range(1, n + 1))
    end_deleted = (tuple(range(1, n)), tuple(range(2, n + 1)))
    for i in range(1, n + 1):
        for a in elements_with_domain(n, full - {i}, "iend"):
            if not is_paut(a) and a.image() not in end_deleted:
                return False
    return True


def is_closed(m: MonoidSet) -> bool:
    """Whether every product of two members of ``m`` is a member, by a
    quadratic sweep of plain-dict products."""
    maps = [dict(a.pairs) for a in m]
    return all(PartialInjection(m.n, naive_compose(a, b)) in m for a in maps for b in maps)


def reference_closure(gens: Iterable[PartialInjection], n: int) -> frozenset[PartialInjection]:
    """The identity and every product of ``gens``, by a plain breadth-first
    search over dicts, with no rank order and no early exit."""
    letters = [dict(g.pairs) for g in gens]
    start = {x: x for x in range(1, n + 1)}
    seen = {frozenset(start.items())}
    queue = [start]
    for x in queue:
        for g in letters:
            y = naive_compose(x, g)
            key = frozenset(y.items())
            if key not in seen:
                seen.add(key)
                queue.append(y)
    return frozenset(PartialInjection(n, key) for key in seen)


def reference_exhaustive_min_size(target: MonoidSet, k: int) -> bool:
    """Whether no k-subset of ``target`` generates it, by ``is_generating``
    on every candidate subset: each k-subset holding the forced generators,
    one saturation apiece, with no grouping."""
    forced = rankcheck._forced_generators(target)
    if k < len(forced):
        return True
    pool = [a for a in target.elements if a not in forced]
    return not any(
        is_generating(forced + list(combo), target)
        for combo in combinations(pool, k - len(forced))
    )


def reference_ideal_tables(
    imgs: list[bytes],
) -> tuple[dict[bytes, frozenset[bytes]], dict[bytes, frozenset[bytes]]]:
    """The principal left and right ideals of every byte image in two
    sweeps: the row of x's products gives the right ideal xM¹, then the
    column of y's products, each taken a second time, gives the left ideal
    M¹y.  ``ValueError`` for a row that leaves ``imgs``."""
    universe = set(imgs)
    tables = [_table(y) for y in imgs]
    right = {}
    for x in imgs:
        right[x] = frozenset([x, *map(x.translate, tables)])
        if not universe.issuperset(right[x]):
            raise ValueError("input set is not closed under composition")
    left = {
        y: frozenset([y, *map(bytes.translate, imgs, repeat(t))]) for y, t in zip(imgs, tables)
    }
    return left, right


def reference_ideal_partitions(
    elements: Iterable[PartialInjection],
) -> dict[str, tuple[tuple[PartialInjection, ...], ...]]:
    """The L, R, H and J classes of the closed set ``elements`` by equality
    of the principal ideals of ``reference_ideal_tables``: M¹a, aM¹, the
    pair, and M¹aM¹ as the union of the left ideals of aM¹.  Each class
    lists its members in text order, and the classes follow their first
    members."""
    ordered = sorted(set(elements), key=format_element)
    imgs = [_img_bytes(a.img) for a in ordered]
    left, right = reference_ideal_tables(imgs)
    # One union per distinct right ideal, over its distinct left ideals.
    unions = {rk: frozenset().union(*{left[y] for y in rk}) for rk in set(right.values())}
    keys = {
        "L": left,
        "R": right,
        "H": {x: (left[x], right[x]) for x in imgs},
        "J": {x: unions[right[x]] for x in imgs},
    }
    partitions = {}
    for relation, key in keys.items():
        classes: dict = {}
        for a, x in zip(ordered, imgs):
            classes.setdefault(key[x], []).append(a)
        partitions[relation] = tuple(map(tuple, classes.values()))
    return partitions


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
