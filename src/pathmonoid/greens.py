"""Green's relations on IEnd(P_n) and PAut(P_n).

The fast predicates use the structural characterizations: L is image
equality together with a·b⁻¹ being a partial automorphism, R is domain
equality together with a⁻¹·b being one, H is their meet, and J compares the
*types* of the maximal image intervals up to reversal.

The type of a maximal image interval j under a is the sequence of sizes of
the maximal domain intervals mapping into j, listed in the order of their
images inside j.  Two elements are J-related exactly when there is a
bijection between their image intervals matching each type up to reversal;
since types are invariant under that pairing we simply compare multisets of
reversal-normalized types.

``oracle_relation`` implements the raw definitions instead -- equality of
principal left/right/two-sided ideals inside an explicitly enumerated
monoid -- and exists so the predicates can be checked against it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .path_core import (
    PartialInjection,
    block_image,
    compose,
    domain_intervals,
    format_element,
    image_intervals,
    inverse,
    is_iend,
    is_paut,
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
    "l_related_interval_images",
    "GreensClassification",
    "classify",
    "oracle_relation",
]


def _require_members(*elements: PartialInjection) -> None:
    n = elements[0].n
    for a in elements:
        if a.n != n:
            raise ValueError("elements live on different paths")
        if not is_iend(a):
            raise ValueError(f"{format_element(a)} is not an injective partial endomorphism")


def type_sequence(a: PartialInjection, j: tuple[int, int]) -> tuple[int, ...]:
    """Sizes of the maximal domain intervals mapping into the maximal image
    interval ``j = (lo, hi)``, ordered by where their images sit inside j."""
    _require_members(a)
    if j not in image_intervals(a):
        raise ValueError(f"{j} is not a maximal image interval of {format_element(a)}")
    lo, hi = j
    preimage = [x for x, y in a.pairs if lo <= y <= hi]
    blocks = maximal_intervals(preimage)
    ordered = sorted(blocks, key=lambda block: block_image(a, block))
    return tuple(b_hi - b_lo + 1 for b_lo, b_hi in ordered)


def canonical_type(t: Sequence[int]) -> tuple[int, ...]:
    """Reversal-normalized form of a type sequence."""
    t = tuple(t)
    return min(t, t[::-1])


def _type_multiset(a: PartialInjection) -> Counter:
    return Counter(canonical_type(type_sequence(a, j)) for j in image_intervals(a))


def similar_type(a: PartialInjection, b: PartialInjection) -> bool:
    """True iff the image intervals of a and b carry the same multiset of
    types up to reversal."""
    _require_members(a, b)
    return _type_multiset(a) == _type_multiset(b)


def l_related(a: PartialInjection, b: PartialInjection) -> bool:
    """a L b in IEnd(P_n): equal images and a·b⁻¹ ∈ PAut(P_n)."""
    _require_members(a, b)
    return a.image_set() == b.image_set() and is_paut(compose(a, inverse(b)))


def r_related(a: PartialInjection, b: PartialInjection) -> bool:
    """a R b in IEnd(P_n): equal domains and a⁻¹·b ∈ PAut(P_n)."""
    _require_members(a, b)
    return a.domain_set() == b.domain_set() and is_paut(compose(inverse(a), b))


def h_related(a: PartialInjection, b: PartialInjection) -> bool:
    """a H b: both L- and R-related."""
    return l_related(a, b) and r_related(a, b)


def j_related(a: PartialInjection, b: PartialInjection) -> bool:
    """a J b in IEnd(P_n): a and b have similar type."""
    return similar_type(a, b)


def l_related_interval_images(a: PartialInjection, b: PartialInjection) -> bool:
    """The interval-image form of the L characterization: the maximal domain
    intervals of a and of b have the same set of images.  Kept as an
    independent route for cross-checking ``l_related``."""
    _require_members(a, b)

    def block_images(x: PartialInjection) -> frozenset[tuple[int, int]]:
        return frozenset(block_image(x, block) for block in domain_intervals(x))

    return block_images(a) == block_images(b)


# -- classification ----------------------------------------------------------

_PREDICATES = {
    "L": l_related,
    "R": r_related,
    "H": h_related,
    "J": j_related,
}


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


def _sorted_partition(relation: str, classes: Iterable[Iterable[PartialInjection]]) -> GreensClassification:
    normalized = [tuple(sorted(c, key=format_element)) for c in classes]
    normalized.sort(key=lambda c: format_element(c[0]))
    return GreensClassification(relation=relation, classes=tuple(normalized))


def classify(elements: Iterable[PartialInjection], relation: str) -> GreensClassification:
    """Partition ``elements`` by the structural predicate for ``relation``
    (one of L, R, H, J)."""
    try:
        related = _PREDICATES[relation]
    except KeyError:
        raise ValueError(f"unknown relation {relation!r}; expected one of L, R, H, J") from None
    classes: list[list[PartialInjection]] = []
    for a in elements:
        for cls in classes:
            if related(a, cls[0]):
                cls.append(a)
                break
        else:
            classes.append([a])
    return _sorted_partition(relation, classes)


def _ideal_tables(
    elements: list[PartialInjection],
) -> tuple[
    dict[PartialInjection, set[PartialInjection]],
    dict[PartialInjection, set[PartialInjection]],
]:
    """Principal left and right ideals of every element, in one product sweep."""
    universe = set(elements)
    left: dict[PartialInjection, set[PartialInjection]] = {a: {a} for a in elements}
    right: dict[PartialInjection, set[PartialInjection]] = {a: {a} for a in elements}
    for a in elements:
        for b in elements:
            ab = compose(a, b)
            if ab not in universe:
                raise ValueError("input set is not closed under composition")
            left[b].add(ab)
            right[a].add(ab)
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
    left, right = _ideal_tables(elements)
    left_key = {a: frozenset(left[a]) for a in elements}
    right_key = {a: frozenset(right[a]) for a in elements}

    out: dict[str, GreensClassification] = {}
    for rel in wanted:
        key: dict[PartialInjection, object]
        if rel == "L":
            key = dict(left_key)
        elif rel == "R":
            key = dict(right_key)
        elif rel == "H":
            key = {a: (left_key[a], right_key[a]) for a in elements}
        else:
            # The two-sided ideal depends on a only through aM¹, so compute
            # each union once per distinct right ideal, and union distinct
            # left ideals rather than one per element.
            two_sided_of: dict[frozenset, frozenset] = {}
            key = {}
            for a in elements:
                rk = right_key[a]
                cached = two_sided_of.get(rk)
                if cached is None:
                    distinct_left = {left_key[x] for x in rk}
                    cached = frozenset().union(*distinct_left)
                    two_sided_of[rk] = cached
                key[a] = cached
        by_key: dict[object, list[PartialInjection]] = {}
        for a in elements:
            by_key.setdefault(key[a], []).append(a)
        out[rel] = _sorted_partition(rel, by_key.values())
    return out


def oracle_relation(monoid: Iterable[PartialInjection], relation: str) -> GreensClassification:
    """Partition by equality of principal ideals; see ``oracle_classifications``."""
    return oracle_classifications(monoid, (relation,))[relation]
