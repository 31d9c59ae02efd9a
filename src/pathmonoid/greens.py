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
  sorted tuple of reversal-normalized types.  Since R ⊆ J the J key is a
  function of the R key, and ``_types`` reads it off the runs once per
  R-class: its cache holds 4,096 R keys, more than the 1,973 R-classes of
  IEnd(P_8).

The keys are the production path: ``classify`` checks membership once per
element and groups by key, and the pairwise predicates compare keys.
``oracle_classifications``, the Cayley-graph oracle, implements the raw
definitions instead -- equality of principal left/right/two-sided ideals
inside an explicitly enumerated monoid, read as reachability in its Cayley
graphs (``path_core``'s byte kernel) over a generating set picked from it --
and is the independent reference for the keys.
"""
from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .path_core import (
    PartialInjection,
    _by_rank,
    _cayley_graphs,
    _check_element,
    _domain_intervals,
    _first_difference,
    _img_bytes,
    _inverse_image,
    _listed,
    _table,
    _text_key,
    _vertices,
    format_element,
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
    inv = _inverse_image(a.img)
    if j not in _domain_intervals(inv):  # Im a = Dom a⁻¹
        raise ValueError(f"{j} is not a maximal image interval of {format_element(a)}")
    _vertices(j)  # (True, 3) and (1.0, 3) pass the test above
    return _type(inv[j[0] : j[1] + 1])


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
# Each is read off the image tuple ``img`` of an element, and the R, H and J
# keys off the image tuple of its inverse, without building an element.
# They assume membership in IEnd(P_n), which every public entry point checks
# with ``_require_members`` before reading a key.


def _block_key(img: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Reversal-normalized image runs ``img[lo:hi+1]`` of the maximal domain
    intervals."""
    return frozenset(canonical_type(img[lo : hi + 1]) for lo, hi in _domain_intervals(img))


def _r_key(img: tuple[int, ...]) -> Hashable:
    return _block_key(_inverse_image(img))


def _h_key(img: tuple[int, ...]) -> Hashable:
    return _block_key(img), _r_key(img)


@lru_cache(maxsize=4096)
def _types(r_key: frozenset[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The J key of the members whose R key is ``r_key``: the sorted
    reversal-normalized types of its preimage runs.  A run and its reversal
    have reversed types, so the normalized runs give the same types."""
    return tuple(sorted(canonical_type(_type(run)) for run in r_key))


def _j_key(img: tuple[int, ...]) -> Hashable:
    return _types(_r_key(img))


_KEYS: dict[str, Callable[[tuple[int, ...]], Hashable]] = {
    "L": _block_key,
    "R": _r_key,
    "H": _h_key,
    "J": _j_key,
}


def _same_key(
    key: Callable[[tuple[int, ...]], Hashable], a: PartialInjection, b: PartialInjection
) -> bool:
    _require_members(a, b)
    return key(a.img) == key(b.img)


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


class GreensClassification(NamedTuple):
    """A partition of a set of elements under one of the relations."""

    relation: str
    classes: tuple[tuple[PartialInjection, ...], ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def as_sets(self) -> frozenset[frozenset[PartialInjection]]:
        return frozenset(frozenset(c) for c in self.classes)


def _partition_by_key(
    relation: str, elements: list[PartialInjection], keys: Iterable[Hashable]
) -> GreensClassification:
    """Group ``elements``, which the caller has put in text-form order, by
    their ``keys``, given in the same order: members of a class come out in
    text order and the classes in the order of their first member, whatever
    order the caller was given."""
    by_key: dict[Hashable, list[PartialInjection]] = {}
    for a, k in zip(elements, keys):
        by_key.setdefault(k, []).append(a)
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
    elements = _listed(elements, "elements")
    _require_members(*elements)
    elements.sort(key=_text_key)
    return _partition_by_key(relation, elements, [key(a.img) for a in elements])


def _pick_generators(nodes: list[bytes], layers: Sequence[frozenset[bytes]]) -> list[bytes]:
    """Letters drawn from ``nodes``, the byte images of a monoid in text
    order, that generate it; ``layers`` are the nodes by rank.  At the first
    layer where the closure of the letters so far differs
    (``path_core._first_difference``), a non-member is refused with
    ``ValueError``, and otherwise the layer's first missing node is added."""
    letters: list[bytes] = []
    tables: list[bytes] = []  # one per letter, built when it is picked
    while (differs := _first_difference(tables, layers)) is not None:
        r, layer = differs
        if not layers[r].issuperset(layer):
            raise ValueError("input set is not closed under composition")
        missing = layers[r].difference(layer)
        letters.append(next(y for y in nodes if y in missing))
        tables.append(_table(letters[-1]))
    return letters


def _components(graph: list[list[int]]) -> list[int]:
    """The strongly connected component of each vertex of ``graph``, named
    by its root, by Tarjan's algorithm with an explicit path stack."""
    order = [0] * len(graph)  # discovery number from 1; 0 while unvisited
    low = [0] * len(graph)
    component = [-1] * len(graph)
    stack: list[int] = []
    count = 0
    for root in range(len(graph)):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        path = [(root, iter(graph[root]))]
        while path:
            v, arcs = path[-1]
            for w in arcs:
                if not order[w]:
                    count += 1
                    order[w] = low[w] = count
                    stack.append(w)
                    path.append((w, iter(graph[w])))
                    break
                if component[w] < 0 and order[w] < low[v]:  # w is on the stack
                    low[v] = order[w]
            else:  # every arc of v is done
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        component[w] = v
    return component


def oracle_classifications(monoid: Iterable[PartialInjection]) -> dict[str, GreensClassification]:
    """Partitions under L, R, H and J by equality of principal ideals,
    computed inside ``monoid``.

    ``monoid`` must be finite and closed under composition, on one n <= 255;
    elements on different n are refused with ``ValueError`` before the one
    sort of the distinct elements into text order (``path_core._text_key``)
    that all four partitions share, as in ``classify``.  The ideals are
    taken in M¹, the input with the identity adjoined: a generating set of
    M¹ is picked from the input (``_pick_generators``), which also refuses
    an input that is not closed, and M¹a, aM¹ and M¹aM¹ are the nodes
    reached from a in the left, the right and the union Cayley graph.  So
    L, R and J are the strongly connected components of those three graphs,
    and H is the meet of L and R.  A closed set without the identity holds
    no permutation, as the powers of one reach the identity, so the
    adjoined identity is alone in every class and is left out.
    """
    given = _listed(monoid, "elements")
    for a in given:
        _check_element(a)
    distinct = set(given)
    # Before the sort: ``_text_key`` gives bytes below n = 10 and text above.
    if len({a.n for a in distinct}) > 1:
        raise ValueError("elements live on different paths")
    elements = sorted(distinct, key=_text_key)
    if not elements:
        return {rel: GreensClassification(rel, ()) for rel in _KEYS}
    n = elements[0].n
    nodes = [_img_bytes(a.img) for a in elements]
    ident = _img_bytes(range(n + 1))
    if ident not in nodes:
        if any(len(a) == n for a in elements):  # a permutation
            raise ValueError("input set is not closed under composition")
        nodes.append(ident)
    left, right = _cayley_graphs(nodes, _pick_generators(nodes, _by_rank(nodes, n)))
    l_key, r_key = _components(left), _components(right)
    keys = {
        "L": l_key,
        "R": r_key,
        "H": list(zip(l_key, r_key)),
        "J": _components(list(map(add, left, right))),
    }
    # ``nodes`` lists ``elements`` first, so the keys of the identity, if
    # adjoined, come last and go unread.
    return {rel: _partition_by_key(rel, elements, key) for rel, key in keys.items()}
