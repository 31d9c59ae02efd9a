"""Green's relations on IEnd(P_n) and PAut(P_n).

Each relation is equality of a canonical key read off the structural
characterizations.  One block key, the set of runs ``x.img[lo:hi+1]`` over
the maximal domain intervals of x, each normalized against its reversal,
serves L, R, H and J:

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
  images inside j.  It is read off the run of j in the R key: a domain
  block ends wherever two consecutive preimages are not adjacent
  (``path_core.split_blocks``).  a J b exactly when a bijection between
  the image intervals matches each type up to reversal, so the key is the
  sorted tuple of reversal-normalized types.

The keys are the production path: ``classify`` checks membership once per
element and groups by key, and the pairwise predicates compare keys.
``oracle_classifications`` implements the raw definitions instead --
equality of principal left/right/two-sided ideals inside an explicitly
enumerated monoid -- and is the independent reference for the keys.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .path_core import (
    PartialInjection,
    _check_element,
    _check_vertices,
    _img_bytes,
    _table,
    _text_key,
    domain_intervals,
    format_element,
    inverse,
    is_iend,
    split_blocks,
)


def _require_members(*elements: PartialInjection) -> None:
    for a in elements:
        _check_element(a)
        if a.n != elements[0].n:
            raise ValueError("elements live on different paths")
        if not is_iend(a):
            raise ValueError(f"{format_element(a)} is not an injective partial endomorphism")


def type_sequence(a: PartialInjection, j: tuple[int, int]) -> tuple[int, ...]:
    """Sizes of the maximal domain intervals mapping into the maximal image
    interval ``j = (lo, hi)``, ordered by where their images sit inside j."""
    _require_members(a)
    inv = inverse(a)
    if j not in domain_intervals(inv):  # Im a = Dom a⁻¹
        raise ValueError(f"{j} is not a maximal image interval of {format_element(a)}")
    _check_vertices(j)  # (True, 3) and (1.0, 3) pass the test above
    return _type(inv.img[j[0] : j[1] + 1])


def _type(run: tuple[int, ...]) -> tuple[int, ...]:
    """The type of the maximal image interval whose preimage run is ``run``."""
    return tuple(map(len, split_blocks(run)))


def canonical_type(t: Sequence[int]) -> tuple[int, ...]:
    """Reversal-normalized form of a sequence: the lesser of it and its
    reversal.  It normalizes the types of the J key and the block image
    runs of the L and R keys."""
    t = tuple(t)
    return min(t, t[::-1])


# -- canonical keys ----------------------------------------------------------
# They assume membership in IEnd(P_n), which every public entry point checks
# with ``_require_members`` before reading a key.


def _block_images(x: PartialInjection) -> list[tuple[int, ...]]:
    """The image runs ``x.img[lo:hi+1]`` of the maximal domain intervals."""
    return [x.img[lo : hi + 1] for lo, hi in domain_intervals(x)]


def _block_key(a: PartialInjection) -> frozenset[tuple[int, ...]]:
    """Reversal-normalized image runs of the maximal domain intervals."""
    return frozenset(map(canonical_type, _block_images(a)))


def _r_key(a: PartialInjection) -> Hashable:
    return _block_key(inverse(a))


def _h_key(a: PartialInjection) -> Hashable:
    return _block_key(a), _r_key(a)


def _j_key(a: PartialInjection) -> Hashable:
    return tuple(sorted(canonical_type(_type(run)) for run in _block_images(inverse(a))))


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
    """a J b in IEnd(P_n): a and b have similar type, that is, their image
    intervals carry the same multiset of types up to reversal."""
    return _same_key(_j_key, a, b)


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
    elements: list[PartialInjection],
    key: Callable[[PartialInjection], Hashable],
) -> GreensClassification:
    """Group ``elements``, which the caller has put in text-form order, by
    ``key``: members of a class come out in text order and the classes in
    the order of their first member, whatever order the caller was given."""
    by_key: dict[Hashable, list[PartialInjection]] = {}
    for a in elements:
        by_key.setdefault(key(a), []).append(a)
    return GreensClassification(relation=relation, classes=tuple(map(tuple, by_key.values())))


def classify(elements: Iterable[PartialInjection], relation: str) -> GreensClassification:
    """Partition ``elements`` by the canonical key of ``relation`` (one of
    L, R, H, J).  Every element must be a member of IEnd(P_n) for one
    common n; otherwise ``ValueError``.  The elements are checked, then
    sorted into text order by ``path_core._text_key``, so each class lists
    its members in text order and the classes follow their first members."""
    try:
        key = _KEYS[relation]
    except (KeyError, TypeError):  # TypeError: an unhashable relation
        raise ValueError(f"unknown relation {relation!r}; expected one of L, R, H, J") from None
    elements = list(elements)
    _require_members(*elements)
    elements.sort(key=_text_key)
    return _partition_by_key(relation, elements, key)


_Ideals = dict[bytes, frozenset[bytes]]


def _ideal_tables(imgs: list[bytes]) -> tuple[_Ideals, _Ideals]:
    """Principal left and right ideals of every element, over byte images:
    x·y is ``x.translate(_table(y))`` (see ``path_core._img_bytes``).

    Each product x·y is taken once.  The row of x, one ``map`` of
    ``translate`` in C, gives the right ideal xM¹, and x·y also goes into
    the column of y, which gathers the left ideal M¹y, so no table of all
    the products is held.  ``members`` sends every product to the input's
    own byte object, and ``interned`` keeps one object per distinct ideal,
    so the callers compare members and ideals by identity before they
    compare contents.  A product outside ``imgs`` is refused with
    ``ValueError``."""
    members = {y: y for y in imgs}
    tables = list(map(_table, imgs))
    columns = [{y} for y in imgs]
    interned: dict[frozenset[bytes], frozenset[bytes]] = {}
    right: _Ideals = {}
    for x in imgs:
        try:
            row = list(map(members.__getitem__, map(x.translate, tables)))
        except KeyError:
            raise ValueError("input set is not closed under composition") from None
        deque(map(set.add, columns, row), maxlen=0)  # drain the map in C
        row.append(x)
        ideal = frozenset(row)
        right[x] = interned.setdefault(ideal, ideal)
    left = {y: interned.setdefault(f, f) for y, f in zip(imgs, map(frozenset, columns))}
    return left, right


def oracle_classifications(monoid: Iterable[PartialInjection]) -> dict[str, GreensClassification]:
    """Partitions under L, R, H and J by equality of principal ideals,
    computed inside ``monoid``.

    ``monoid`` must be finite and closed under composition, on one n <= 255;
    elements on different n are refused with ``ValueError`` before the one
    sort of the distinct elements into text order (``path_core._text_key``)
    that all four partitions share, as in ``classify``.  L and R compare
    principal left/right ideals M¹a and aM¹; H intersects the two; J
    compares the two-sided ideals M¹aM¹, assembled as the union of the left
    ideals of aM¹.  All four relations share the two ideal tables of
    ``_ideal_tables``, which take each product once and hold each distinct
    ideal once, so equal ideals are compared by identity.
    """
    given = list(monoid)
    for a in given:
        _check_element(a)
    distinct = set(given)
    # Before the sort: ``_text_key`` gives bytes below n = 10 and text above.
    if len({a.n for a in distinct}) > 1:
        raise ValueError("elements live on different paths")
    elements = sorted(distinct, key=_text_key)
    img_of = {a: _img_bytes(a.img) for a in elements}
    imgs = list(img_of.values())
    left_key, right_key = _ideal_tables(imgs)
    # The two-sided ideal M¹aM¹ is the union of the left ideals of aM¹, so it
    # depends on a only through aM¹: take one union per distinct right ideal,
    # over distinct left ideals, and hold each distinct union once.
    unions: dict[frozenset[bytes], frozenset[bytes]] = {}
    two_sided = {}
    for rk in set(right_key.values()):
        ideal = frozenset().union(*{left_key[x] for x in rk})
        two_sided[rk] = unions.setdefault(ideal, ideal)
    keys: dict[str, dict[bytes, Hashable]] = {
        "L": left_key,
        "R": right_key,
        "H": {x: (left_key[x], right_key[x]) for x in imgs},
        "J": {x: two_sided[right_key[x]] for x in imgs},
    }
    return {
        rel: _partition_by_key(rel, elements, lambda a, key=key: key[img_of[a]])
        for rel, key in keys.items()
    }
