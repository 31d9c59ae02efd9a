"""Partial injections on {1..n} and membership in the path monoids.

The vertices of the path are 1, 2, ..., n, with an edge between i and i+1.
Elements here are injective partial maps; composition acts on the right, so
``x`` under ``compose(a, b)`` is ``b(a(x))``.  Two membership predicates are
provided:

* ``is_iend`` -- injective partial endomorphisms: every maximal interval of
  the domain maps monotonically onto an interval.
* ``is_paut`` -- partial automorphisms: as above, and each such image is a
  *maximal* interval of the image set.

Elements are stored as image tuples (see ``PartialInjection``).  The
canonical text format is ``"n=5;1>3,2>4"`` (pairs sorted by domain; an
empty map is ``"n=5;"``).
"""
from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

__all__ = [
    "PartialInjection",
    "compose",
    "inverse",
    "identity",
    "empty_map",
    "restrict",
    "maximal_intervals",
    "domain_intervals",
    "image_intervals",
    "block_image",
    "is_iend",
    "is_paut",
    "format_element",
    "parse_element",
    "element_to_json_dict",
    "element_from_json_dict",
]


class PartialInjection:
    """An immutable injective partial map on {1, ..., n}.

    The map is stored as ``img``, a tuple of length n+1: ``img[x]`` is the
    image of x, 0 where x is undefined, and ``img[0]`` is always 0, so
    ``compose(a, b)`` is the single pass ``b.img[a.img[x]]``.  ``pairs``,
    ``domain()``, ``image()`` and the mapping methods are views derived from
    ``img``; ``pairs`` is the graph of the map sorted by ``x``.  Instances
    are hashable and compare by ``img``.

    The constructor, ``parse_element`` and ``element_from_json_dict``
    validate their input.  Results built inside the package (``compose``,
    ``inverse``, generators and word evaluation) come from an image tuple
    that is correct by construction and skip the checks.
    """

    __slots__ = ("n", "img", "_hash")

    n: int
    img: tuple[int, ...]

    def __init__(self, n: int, pairs: Mapping[int, int] | Iterable[tuple[int, int]]):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        items = sorted(pairs.items()) if isinstance(pairs, Mapping) else sorted(pairs)
        defined: set[int] = set()
        seen_images: set[int] = set()
        for x, y in items:
            if not (isinstance(x, int) and isinstance(y, int)):
                raise ValueError(f"vertices must be integers, got ({x!r}, {y!r})")
            if not (1 <= x <= n and 1 <= y <= n):
                raise ValueError(f"pair ({x}, {y}) out of range for n={n}")
            if x in defined:
                raise ValueError(f"duplicate domain vertex {x}")
            if y in seen_images:
                raise ValueError(f"duplicate image vertex {y} (map not injective)")
            defined.add(x)
            seen_images.add(y)
        img = [0] * (n + 1)
        for x, y in items:
            img[x] = y
        _init(self, tuple(img))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PartialInjection is immutable")

    # -- views derived from img -------------------------------------------

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((x, y) for x, y in enumerate(self.img) if y)

    def __getitem__(self, x: int) -> int:
        y = self.get(x)
        if y is None:
            raise KeyError(x)
        return y

    def get(self, x: int, default: int | None = None) -> int | None:
        # Index 0 holds the sentinel and negative indices wrap, so only
        # 1..n may reach the tuple.
        if isinstance(x, int) and 0 < x <= self.n and self.img[x]:
            return self.img[x]
        return default

    def __contains__(self, x: int) -> bool:
        return self.get(x) is not None

    def __len__(self) -> int:
        return len(self.img) - self.img.count(0)

    def __iter__(self) -> Iterator[int]:
        return iter(self.domain())

    def domain(self) -> tuple[int, ...]:
        return tuple(x for x, y in enumerate(self.img) if y)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(y for y in self.img if y))

    def domain_set(self) -> frozenset[int]:
        return frozenset(self.domain())

    def image_set(self) -> frozenset[int]:
        return frozenset(self.img) - {0}

    # -- identity/equality -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialInjection):
            return NotImplemented
        return self.img == other.img

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PartialInjection.parse({format_element(self)!r})"

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PartialInjection") -> "PartialInjection":
        return compose(self, other)

    def inverse(self) -> "PartialInjection":
        return inverse(self)

    @staticmethod
    def parse(text: str) -> "PartialInjection":
        return parse_element(text)

    def format(self) -> str:
        return format_element(self)


def _init(a: PartialInjection, img: tuple[int, ...]) -> None:
    object.__setattr__(a, "n", len(img) - 1)
    object.__setattr__(a, "img", img)
    object.__setattr__(a, "_hash", hash(img))


def _trusted(img: tuple[int, ...]) -> PartialInjection:
    """Wrap an image tuple without checks; ``img`` must already be a valid
    injective image tuple with ``img[0] == 0`` and length at least 2."""
    a = object.__new__(PartialInjection)
    _init(a, img)
    return a


def compose(a: PartialInjection, b: PartialInjection) -> PartialInjection:
    """Right-action composite: x -> b(a(x)) where both sides are defined.

    The package's one composition idiom: on image tuples x·y is
    ``itemgetter(*x)(y)``, always a tuple since len(x) = n+1 >= 2.  Loops
    multiplying one x by many y build ``itemgetter(*x)`` once."""
    if a.n != b.n:
        raise ValueError(f"cannot compose maps on different paths (n={a.n} vs n={b.n})")
    return _trusted(itemgetter(*a.img)(b.img))


def inverse(a: PartialInjection) -> PartialInjection:
    """The inverse partial injection (swap domain and image)."""
    inv = [0] * len(a.img)
    for x, y in enumerate(a.img):
        inv[y] = x
    # Every undefined x wrote itself into slot 0; restore the sentinel.
    inv[0] = 0
    return _trusted(tuple(inv))


def identity(n: int) -> PartialInjection:
    """The identity map on all of {1..n}."""
    return PartialInjection(n, [(x, x) for x in range(1, n + 1)])


def empty_map(n: int) -> PartialInjection:
    """The empty map (nowhere defined)."""
    return PartialInjection(n, [])


def restrict(a: PartialInjection, keep: Iterable[int]) -> PartialInjection:
    """Restriction of ``a`` to the domain vertices in ``keep``."""
    keep_set = set(keep)
    return PartialInjection(a.n, [(x, y) for x, y in a.pairs if x in keep_set])


def maximal_intervals(points: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Decompose a set of integers into maximal runs of consecutive values.

    Returns ``((lo, hi), ...)`` in increasing order; ``maximal_intervals({2,3,5})``
    is ``((2, 3), (5, 5))`` and the empty set yields ``()``.
    """
    ordered = sorted(set(points))
    if not ordered:
        return ()
    runs: list[tuple[int, int]] = []
    lo = prev = ordered[0]
    for p in ordered[1:]:
        if p == prev + 1:
            prev = p
            continue
        runs.append((lo, prev))
        lo = prev = p
    runs.append((lo, prev))
    return tuple(runs)


def domain_intervals(a: PartialInjection) -> tuple[tuple[int, int], ...]:
    """Maximal intervals of Dom a, in increasing order."""
    return maximal_intervals(x for x, y in enumerate(a.img) if y)


def image_intervals(a: PartialInjection) -> tuple[tuple[int, int], ...]:
    """Maximal intervals of Im a, in increasing order."""
    return maximal_intervals(y for y in a.img if y)


def block_image(img: tuple[int, ...], block: tuple[int, int]) -> tuple[int, int]:
    """``(min, max)`` of the images of the domain block ``(lo, hi)``, an
    interval inside the domain of the image tuple ``img``."""
    values = img[block[0] : block[1] + 1]
    return min(values), max(values)


def _is_monotone_onto_interval(values: tuple[int, ...]) -> bool:
    """True iff ``values`` (distinct) is consecutive ascending or descending."""
    if len(values) <= 1:
        return True
    step = values[1] - values[0]
    if step not in (1, -1):
        return False
    return all(values[i + 1] - values[i] == step for i in range(1, len(values) - 1))


def is_iend(a: PartialInjection) -> bool:
    """Membership in IEnd(P_n): each maximal domain interval maps onto an
    interval, order-preservingly or order-reversingly."""
    img = a.img
    for lo, hi in domain_intervals(a):
        if not _is_monotone_onto_interval(img[lo : hi + 1]):
            return False
    return True


def is_paut(a: PartialInjection) -> bool:
    """Membership in PAut(P_n): as ``is_iend``, with every block image a
    *maximal* interval of the image set."""
    img = a.img
    img_blocks = set(image_intervals(a))
    for block in domain_intervals(a):
        if not _is_monotone_onto_interval(img[block[0] : block[1] + 1]):
            return False
        if block_image(img, block) not in img_blocks:
            return False
    return True


# -- text and JSON forms ----------------------------------------------------

_ELEMENT_RE = re.compile(r"^n=(\d+);((?:\d+>\d+)(?:,\d+>\d+)*)?$")


def format_element(a: PartialInjection) -> str:
    """Canonical text form, e.g. ``"n=5;1>3,2>4"`` (empty map: ``"n=5;"``)."""
    body = ",".join(f"{x}>{y}" for x, y in a.pairs)
    return f"n={a.n};{body}"


def parse_element(text: str) -> PartialInjection:
    """Parse the text form produced by :func:`format_element`.

    Raises ``ValueError`` on malformed input, out-of-range vertices, or
    duplicated domain/image vertices.
    """
    m = _ELEMENT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed element text: {text!r}")
    n = int(m.group(1))
    body = m.group(2)
    pairs: list[tuple[int, int]] = []
    if body:
        for chunk in body.split(","):
            x, y = chunk.split(">")
            pairs.append((int(x), int(y)))
    return PartialInjection(n, pairs)


def element_to_json_dict(a: PartialInjection) -> dict:
    """JSON object form: ``{"n": 5, "pairs": [[1, 3], [2, 4]]}``."""
    return {"n": a.n, "pairs": [[x, y] for x, y in a.pairs]}


def element_from_json_dict(obj: Mapping) -> PartialInjection:
    """Inverse of :func:`element_to_json_dict`."""
    try:
        n = int(obj["n"])
        pairs = [(int(x), int(y)) for x, y in obj["pairs"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed element object: {obj!r}") from exc
    return PartialInjection(n, pairs)
