"""Green's relations on IEnd(P_n) and PAut(P_n).

Each relation is equality of a canonical key read off the structural
characterizations.  One block key, the set of runs ``x.img[lo:hi+1]`` over
the maximal domain intervals of x, each normalized against its reversal,
serves both L and R:

* L is image equality with a·b⁻¹ a partial automorphism.  The runs of a
  member are monotone, so with x = a the key is the set of block images,
  and equal keys are exactly L.
* R is domain equality with a⁻¹·b a partial automorphism.  With x = a⁻¹
  the key lists, per maximal image interval of a, its preimages in image
  order up to reversal: exactly what a⁻¹·b must carry onto the maximal
  image intervals of b.
* H pairs the two keys.
* J compares the *types* of the maximal image intervals up to reversal.
  The type of a maximal image interval j under a is the sequence of sizes
  of the maximal domain intervals mapping into j, in the order of their
  images inside j.  a J b exactly when a bijection between the image
  intervals matches each type up to reversal, so the key is the sorted
  tuple of reversal-normalized types.

The keys are the production path: ``classify`` checks membership once per
element and groups by key, and the pairwise predicates compare keys.
``oracle_classifications`` implements the raw definitions instead --
equality of principal left/right/two-sided ideals inside an explicitly
enumerated monoid -- and is the independent reference for the keys.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Sequence

from .path_core import (
    PartialInjection,
    block_image,
    domain_intervals,
    format_element,
    image_intervals,
    inverse,
    is_iend,
    maximal_intervals,
)

__all__ = [
    "type_sequence",
    "canonical_type",
    "similar_type",
    "l_related",
    "r_related",
    "h_related",
    "j_related",
    "GreensClassification",
    "classify",
    "oracle_classifications",
]


def _require_members(*elements: PartialInjection) -> None:
    for a in elements:
        if a.n != elements[0].n:
            raise ValueError("elements live on different paths")
        if not is_iend(a):
            raise ValueError(f"{format_element(a)} is not an injective partial endomorphism")


def type_sequence(a: PartialInjection, j: tuple[int, int]) -> tuple[int, ...]:
    """Sizes of the maximal domain intervals mapping into the maximal image
    interval ``j = (lo, hi)``, ordered by where their images sit inside j."""
    _require_members(a)
    if j not in image_intervals(a):
        raise ValueError(f"{j} is not a maximal image interval of {format_element(a)}")
    return _type_sequence(a, j)


def _type_sequence(a: PartialInjection, j: tuple[int, int]) -> tuple[int, ...]:
    lo, hi = j
    blocks = maximal_intervals(x for x, y in enumerate(a.img) if lo <= y <= hi)
    ordered = sorted(blocks, key=lambda block: block_image(a.img, block))
    return tuple(b_hi - b_lo + 1 for b_lo, b_hi in ordered)


def canonical_type(t: Sequence[int]) -> tuple[int, ...]:
    """Reversal-normalized form of a type sequence."""
    t = tuple(t)
    return min(t, t[::-1])


# -- canonical keys ----------------------------------------------------------
# They assume membership in IEnd(P_n), which every public entry point checks
# with ``_require_members`` before reading a key.


def _block_key(a: PartialInjection) -> frozenset[tuple[int, ...]]:
    """Reversal-normalized image runs of the maximal domain intervals."""
    img = a.img
    return frozenset(
        min(run, run[::-1]) for run in (img[lo : hi + 1] for lo, hi in domain_intervals(a))
    )


def _r_key(a: PartialInjection) -> Hashable:
    return _block_key(inverse(a))


def _h_key(a: PartialInjection) -> Hashable:
    return _block_key(a), _r_key(a)


def _j_key(a: PartialInjection) -> Hashable:
    return tuple(sorted(canonical_type(_type_sequence(a, j)) for j in image_intervals(a)))


_KEYS: dict[str, Callable[[PartialInjection], Hashable]] = {
    "L": _block_key,
    "R": _r_key,
    "H": _h_key,
    "J": _j_key,
}


def _same_key(
    key: Callable[[PartialInjection], Hashable], a: PartialInjection, b: PartialInjection
) -> bool:
    _require_members(a, b)
    return key(a) == key(b)


def similar_type(a: PartialInjection, b: PartialInjection) -> bool:
    """True iff the image intervals of a and b carry the same multiset of
    types up to reversal."""
    return _same_key(_j_key, a, b)


def l_related(a: PartialInjection, b: PartialInjection) -> bool:
    """a L b in IEnd(P_n): equal images and a·b⁻¹ ∈ PAut(P_n)."""
    return _same_key(_block_key, a, b)


def r_related(a: PartialInjection, b: PartialInjection) -> bool:
    """a R b in IEnd(P_n): equal domains and a⁻¹·b ∈ PAut(P_n)."""
    return _same_key(_r_key, a, b)


def h_related(a: PartialInjection, b: PartialInjection) -> bool:
    """a H b: both L- and R-related."""
    return _same_key(_h_key, a, b)


def j_related(a: PartialInjection, b: PartialInjection) -> bool:
    """a J b in IEnd(P_n): a and b have similar type."""
    return similar_type(a, b)


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class GreensClassification:
    """A partition of a set of elements under one of the relations."""

    relation: str
    classes: tuple[tuple[PartialInjection, ...], ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def as_sets(self) -> frozenset[frozenset[PartialInjection]]:
        return frozenset(frozenset(c) for c in self.classes)


def _partition_by_key(
    relation: str,
    elements: Iterable[PartialInjection],
    key: Callable[[PartialInjection], Hashable],
) -> GreensClassification:
    """Group ``elements`` by ``key``; members of a class and the classes
    themselves are sorted by text form, so the result does not depend on the
    input order."""
    by_key: dict[Hashable, list[PartialInjection]] = {}
    for a in elements:
        by_key.setdefault(key(a), []).append(a)
    classes = [tuple(sorted(c, key=format_element)) for c in by_key.values()]
    classes.sort(key=lambda c: format_element(c[0]))
    return GreensClassification(relation=relation, classes=tuple(classes))


def classify(elements: Iterable[PartialInjection], relation: str) -> GreensClassification:
    """Partition ``elements`` by the canonical key of ``relation`` (one of
    L, R, H, J).  Every element must be a member of IEnd(P_n) for one
    common n; otherwise ``ValueError``."""
    try:
        key = _KEYS[relation]
    except KeyError:
        raise ValueError(f"unknown relation {relation!r}; expected one of L, R, H, J") from None
    elements = list(elements)
    _require_members(*elements)
    return _partition_by_key(relation, elements, key)


_Img = tuple[int, ...]


def _ideal_tables(imgs: list[_Img]) -> tuple[dict[_Img, set[_Img]], dict[_Img, set[_Img]]]:
    """Principal left and right ideals of every element, in one product sweep
    over image tuples (x·y maps v to y[x[v]])."""
    if len(set(map(len, imgs))) > 1:
        raise ValueError("elements live on different paths")
    universe = set(imgs)
    left: dict[_Img, set[_Img]] = {x: {x} for x in imgs}
    right: dict[_Img, set[_Img]] = {x: {x} for x in imgs}
    for x in imgs:
        right_x = right[x]
        x_then = itemgetter(*x)
        for y in imgs:
            xy = x_then(y)
            if xy not in universe:
                raise ValueError("input set is not closed under composition")
            left[y].add(xy)
            right_x.add(xy)
    return left, right


def oracle_classifications(
    monoid: Iterable[PartialInjection],
    relations: Iterable[str] = ("L", "R", "H", "J"),
) -> dict[str, GreensClassification]:
    """Partitions by equality of principal ideals, computed inside ``monoid``.

    ``monoid`` must be finite and closed under composition.  L and R compare
    principal left/right ideals M¹a and aM¹; H intersects the two; J compares
    the two-sided ideals M¹aM¹, assembled as the union of the left ideals of
    aM¹.  All requested relations share a single product sweep.
    """
    wanted = tuple(relations)
    for rel in wanted:
        if rel not in ("L", "R", "H", "J"):
            raise ValueError(f"oracle supports L, R, H, J; got {rel!r}")
    elements = list(dict.fromkeys(monoid))
    imgs = [a.img for a in elements]
    left, right = _ideal_tables(imgs)
    left_key = {x: frozenset(left[x]) for x in imgs}
    right_key = {x: frozenset(right[x]) for x in imgs}

    out: dict[str, GreensClassification] = {}
    for rel in wanted:
        key: dict[_Img, Hashable]
        if rel == "L":
            key = left_key
        elif rel == "R":
            key = right_key
        elif rel == "H":
            key = {x: (left_key[x], right_key[x]) for x in imgs}
        else:
            # The two-sided ideal M¹aM¹ is the union of the left ideals of
            # aM¹, so it depends on a only through aM¹: take one union per
            # distinct right ideal, over distinct left ideals.
            two_sided = {
                rk: frozenset().union(*{left_key[x] for x in rk})
                for rk in set(right_key.values())
            }
            key = {x: two_sided[right_key[x]] for x in imgs}
        out[rel] = _partition_by_key(rel, elements, lambda a: key[a.img])
    return out
