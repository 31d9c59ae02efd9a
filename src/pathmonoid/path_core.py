"""Partial injections on {1..n} and membership in the path monoids.

The vertices of the path are 1, 2, ..., n, with an edge between i and i+1.
Elements here are injective partial maps; composition acts on the right, so
``x`` under ``compose(a, b)`` is ``b(a(x))``.  The membership predicates
are the paper's definitions, by adjacency:

* ``is_iend`` -- injective partial endomorphisms: every edge {x, x+1} inside
  the domain maps to an edge.  An injective map cannot step back, so each
  maximal domain interval maps monotonically onto an interval.
* ``is_paut`` -- partial automorphisms: a and a⁻¹ both send edges to edges.

Elements are stored as image tuples (see ``PartialInjection``).  The
canonical text format is ``"n=5;1>3,2>4"`` (pairs sorted by domain; an
empty map is ``"n=5;"``; ASCII digits only).

The byte kernel, the last section here, is the one home of byte images: no
other module builds or multiplies them.  A byte image is ``bytes(img)``
(``_img_bytes``), so n <= 255; a larger n is refused with ``ValueError``,
with no second route.  x·y is ``x.translate(_table(y))``, so the product,
its hash and the rank n + 1 - ``count(0)`` run in C.  Its two dense loops
are ``_cayley_graphs`` and ``_saturate``, which yields the closure of the
identity under right multiplication by letters one rank layer at a time,
from rank n down: rank(x·y) <= min(rank x, rank y), so the rank-r members
are final once the rank-r bucket is drained.  By the same bound a product
with a letter of rank below r has rank below r: layers r and above of a
closure depend on its letters of rank >= r alone.  ``_first_difference``
compares the layers with a target's, bucketed by ``_by_rank``.
"""
from __future__ import annotations

import re
from itertools import compress, count, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence


class PartialInjection:
    """An immutable injective partial map on {1, ..., n}.

    The map is stored as ``img``, a tuple of length n+1: ``img[x]`` is the
    image of x, 0 where x is undefined, and ``img[0]`` is always 0, so
    ``compose(a, b)`` is the single pass ``b.img[a.img[x]]``.  ``pairs``,
    ``domain()``, ``image()`` and the mapping methods are views derived from
    ``img``; ``pairs`` is the graph of the map sorted by ``x``.  Instances
    are hashable and compare by ``img``.

    The constructor validates its input, which ``parse_element`` and
    ``element_from_json_dict`` read, and returns through ``_trusted``, the
    one maker of elements; results built inside the package (``compose``,
    ``inverse``, ``restrict``, generators, word evaluation) call it on image
    tuples correct by construction, unchecked.
    """

    __slots__ = ("n", "img", "_hash")

    n: int
    img: tuple[int, ...]

    def __new__(cls, n: int, pairs: Mapping[int, int] | Iterable[tuple[int, int]]):
        _check_n(n)
        img = [0] * (n + 1)  # an image is at least 1, so img[x] tells x is defined
        seen_images: set[int] = set()
        # Unsorted: sorting mixed vertex types would raise TypeError.
        for pair in _listed(pairs.items() if isinstance(pairs, Mapping) else pairs, "pairs"):
            try:
                x, y = pair
            except (TypeError, ValueError):
                raise ValueError(f"a pair must be two vertices, got {pair!r}") from None
            if type(x) is not int or type(y) is not int:
                raise ValueError(f"vertices must be integers, got ({x!r}, {y!r})")
            if not (1 <= x <= n and 1 <= y <= n):
                raise ValueError(f"pair ({x}, {y}) out of range for n={n}")
            if img[x]:
                raise ValueError(f"duplicate domain vertex {x}")
            if y in seen_images:
                raise ValueError(f"duplicate image vertex {y} (map not injective)")
            img[x] = y
            seen_images.add(y)
        return _trusted(tuple(img))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PartialInjection is immutable")

    def __reduce__(self) -> tuple:  # copies and pickles pass the checked constructor
        return PartialInjection, (self.n, self.pairs)

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
        if type(x) is int and 0 < x <= self.n and self.img[x]:  # not bool
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

    # -- identity/equality -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialInjection):
            return NotImplemented
        return self.img == other.img

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"parse_element({format_element(self)!r})"

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PartialInjection") -> "PartialInjection":
        return compose(self, other)


# The slots' member descriptors: setting through them skips the
# ``__setattr__`` that keeps instances immutable, and the lookup of
# ``object.__setattr__``.  ``_trusted`` alone sets them.
_set_n, _set_img, _set_hash = (
    PartialInjection.__dict__[slot].__set__ for slot in PartialInjection.__slots__
)


def _check_n(n: int) -> None:
    if type(n) is not int or n < 1:  # bool is a subclass of int
        raise ValueError(f"n must be a positive integer, got {n!r}")


def _check_element(a: object) -> None:
    """``ValueError`` unless ``a`` is a ``PartialInjection``: the functions
    that take elements call it before they read ``n`` or ``img``."""
    if not isinstance(a, PartialInjection):
        raise ValueError(f"an element must be a PartialInjection, got {type(a).__name__}")


def _listed(items: object, noun: str) -> list:
    """``list(items)``, or ``ValueError`` naming ``noun`` if ``items`` is not
    iterable: the functions that take a collection of elements, pairs,
    letters or vertices list it through here."""
    try:
        it = iter(items)  # only this call: a generator's own errors pass through
    except TypeError:
        raise ValueError(f"{noun} must be an iterable, got {type(items).__name__}") from None
    return list(it)


def _check_text(text: object, form: str) -> None:
    if not isinstance(text, str):
        raise ValueError(f"{form} must be a str, got {type(text).__name__}")


def _trusted(img: tuple[int, ...]) -> PartialInjection:
    """Wrap an image tuple without checks; ``img`` must already be a valid
    injective image tuple with ``img[0] == 0`` and length at least 2.  It
    alone sets the slots; the checked constructor returns through it too."""
    a = object.__new__(PartialInjection)
    _set_n(a, len(img) - 1)
    _set_img(a, img)
    _set_hash(a, hash(img))
    return a


def compose(a: PartialInjection, b: PartialInjection) -> PartialInjection:
    """Right-action composite: x -> b(a(x)) where both sides are defined.

    The package has two product kernels.  On image tuples x·y is
    ``itemgetter(*x)(y)``, always a tuple since len(x) = n+1 >= 2; it serves
    any n, and ``compose``, word evaluation and the factorizer use it.  The
    two dense loops multiply byte images instead (see the module docstring)."""
    _check_element(a)
    _check_element(b)
    if a.n != b.n:
        raise ValueError(f"cannot compose maps on different paths (n={a.n} vs n={b.n})")
    return _trusted(itemgetter(*a.img)(b.img))


def inverse(a: PartialInjection) -> PartialInjection:
    """The inverse partial injection (swap domain and image)."""
    _check_element(a)
    return _trusted(_inverse_image(a.img))


def _inverse_image(img: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of the inverse of the image tuple ``img``: the one
    inverse rule, which ``inverse``, the Green's keys and the factorizer
    read."""
    inv = [0] * len(img)
    for x, y in enumerate(img):
        inv[y] = x
    # Every undefined x wrote itself into slot 0; restore the sentinel.
    inv[0] = 0
    return tuple(inv)


def identity(n: int) -> PartialInjection:
    """The identity map on all of {1..n}."""
    _check_n(n)
    return _trusted(tuple(range(n + 1)))


def empty_map(n: int) -> PartialInjection:
    """The empty map (nowhere defined)."""
    return PartialInjection(n, [])


def _vertices(points: object) -> list:
    """``points`` listed (``_listed``), or ``ValueError`` for a vertex that
    is not an ``int``, as in the constructor: a bool or a float would
    compare equal to one."""
    points = _listed(points, "vertices")
    for v in points:
        if type(v) is not int:
            raise ValueError(f"vertices must be integers, got {v!r}")
    return points


def restrict(a: PartialInjection, keep: Iterable[int]) -> PartialInjection:
    """Restriction of ``a`` to the domain vertices in ``keep``."""
    _check_element(a)
    keep_set = set(_vertices(keep))  # checked before the set, where True would merge with 1
    return _trusted(tuple(y if x in keep_set else 0 for x, y in enumerate(a.img)))


def _runs(ordered: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Maximal runs ``(lo, hi)`` of the increasing integers ``ordered``.  The
    inner loop drains the iterator, so the outer one runs at most once."""
    runs: list[tuple[int, int]] = []
    points = iter(ordered)
    for lo in points:
        hi = lo
        for p in points:
            if p != hi + 1:
                runs.append((lo, hi))
                lo = p
            hi = p
        runs.append((lo, hi))
    return tuple(runs)


def maximal_intervals(points: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The maximal runs ``((lo, hi), ...)`` of consecutive values of a set of
    integers, in increasing order: ``maximal_intervals({2,3,5})`` is
    ``((2, 3), (5, 5))`` and the empty set yields ``()``."""
    # Checked before the set, where True would merge with 1.
    return _runs(sorted(set(_vertices(points))))


def domain_intervals(a: PartialInjection) -> tuple[tuple[int, int], ...]:
    """Maximal intervals of Dom a, in increasing order."""
    _check_element(a)
    return _domain_intervals(a.img)


def _domain_intervals(img: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The runs of the defined slots of the image tuple ``img``, unchecked."""
    return _runs(compress(count(), img))


def image_intervals(a: PartialInjection) -> tuple[tuple[int, int], ...]:
    """Maximal intervals of Im a, in increasing order; Im a = Dom a⁻¹."""
    _check_element(a)
    return _domain_intervals(_inverse_image(a.img))


def split_blocks(run: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The domain blocks, in image order, that the preimage run
    ``inverse(a).img[lo : hi + 1]`` of a maximal image interval (lo, hi) of a
    member a of IEnd(P_n) passes through.  Blocks map monotonically and lie
    two or more apart, so one ends wherever two consecutive preimages are
    not adjacent."""
    cuts = [k for k in range(1, len(run)) if run[k] - run[k - 1] not in (1, -1)]
    return [run[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(run)])]


def is_iend(a: PartialInjection) -> bool:
    """Membership in IEnd(P_n): |a(x+1) - a(x)| = 1 wherever both are
    defined, so every edge inside Dom a maps to an edge."""
    _check_element(a)
    prev = 0  # img[0] is the sentinel 0, so vertex 1 has no left edge to check
    for y in a.img:
        if prev and y and y - prev not in (1, -1):
            return False
        prev = y
    return True


def is_paut(a: PartialInjection) -> bool:
    """Membership in PAut(P_n): a and its inverse both send edges to edges."""
    return is_iend(a) and is_iend(inverse(a))


# -- text and JSON forms ----------------------------------------------------

_ELEMENT_RE = re.compile(r"n=([0-9]+);((?:[0-9]+>[0-9]+)(?:,[0-9]+>[0-9]+)*)?")


def format_element(a: PartialInjection) -> str:
    """Canonical text form, e.g. ``"n=5;1>3,2>4"`` (empty map: ``"n=5;"``)."""
    _check_element(a)
    return _image_text(a.img)


def _image_text(img: tuple[int, ...]) -> str:
    """The text form of the image tuple ``img``, unchecked: the one text
    rule, which ``format_element`` and the listings of ``enumerate`` read."""
    body = ",".join([f"{x}>{y}" for x, y in enumerate(img) if y])
    return f"n={len(img) - 1};{body}"


def _text_key(a: PartialInjection) -> bytes | str:
    """Sort key of text order, the order of ``format_element``'s strings;
    every text-order decision in the package that sorts or takes ``min``
    does so by it.  The enumeration walk emits text order without sorting,
    and the tests check its order against this key.

    For n <= 9 each vertex is one digit, so the text compares as the sequence
    x1, a(x1), x2, a(x2), ... of the pairs, a prefix first.  ``img`` orders
    the same way once its trailing undefined slots are dropped and every
    other undefined slot reads n+1, above every vertex.  For n >= 10 that
    order is wrong ("n=10;10>1" sorts before "n=10;1>1"), and the key is
    the text itself."""
    if a.n >= 10:
        return format_element(a)
    return bytes(a.img).rstrip(b"\0").replace(b"\0", bytes((a.n + 1,)))


def _read_element_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The ``(n, pairs)`` of the text form, read without building anything;
    ``ValueError`` unless the text matches the form (ASCII digits only)."""
    _check_text(text, "element text")
    m = _ELEMENT_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"malformed element text: {text!r}")
    body = m.group(2)
    pairs: list[tuple[int, int]] = []
    if body:
        for chunk in body.split(","):
            x, y = chunk.split(">")
            pairs.append((int(x), int(y)))
    return int(m.group(1)), pairs


def parse_element(text: str) -> PartialInjection:
    """Parse the text form produced by :func:`format_element`.

    Raises ``ValueError`` on a non-str or malformed input, out-of-range
    vertices, or duplicated domain/image vertices.
    """
    return PartialInjection(*_read_element_text(text))


def element_to_json_dict(a: PartialInjection) -> dict:
    """JSON object form: ``{"n": 5, "pairs": [[1, 3], [2, 4]]}``."""
    _check_element(a)
    return {"n": a.n, "pairs": [[x, y] for x, y in a.pairs]}


def _read_element_json(obj: Mapping) -> tuple[object, list[tuple[object, object]]]:
    """The ``(n, pairs)`` of the JSON object form, read without building
    anything or coercing any value; the constructor checks the types."""
    try:
        return obj["n"], [(x, y) for x, y in obj["pairs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed element object: {obj!r}") from exc


def element_from_json_dict(obj: Mapping) -> PartialInjection:
    """Inverse of :func:`element_to_json_dict`; coerces no value to int."""
    return PartialInjection(*_read_element_json(obj))


# -- byte kernel (see the module docstring) ---------------------------------


def _img_bytes(img: Sequence[int]) -> bytes:
    """``img`` as a byte image, or ``ValueError`` for n above 255."""
    if len(img) > 256:
        raise ValueError(f"the byte kernel needs n <= 255, got n={len(img) - 1}")
    return bytes(img)


def _table(y: bytes) -> bytes:
    """The byte image ``y`` padded to the 256 entries of a translation
    table: ``x.translate(_table(y))`` is x·y."""
    return y.ljust(256, b"\0")


def _by_rank(images: Iterable[bytes], n: int) -> tuple[frozenset[bytes], ...]:
    """``images``, byte images on n, by rank: entry r holds those of rank r."""
    layers: list[set[bytes]] = [set() for _ in range(n + 1)]
    for y in images:
        layers[n + 1 - y.count(0)].add(y)
    return tuple(map(frozenset, layers))


def _saturate(tables: Iterable[bytes], n: int) -> Iterator[tuple[int, list[bytes]]]:
    """The byte images of the closure of the identity on n <= 255 under right
    multiplication by ``tables``, each once: yields ``(r, layer)`` for r = n
    down to 0, once its bucket is drained and so final (see the module docstring)."""
    ident = bytes(range(n + 1))
    tables = dict.fromkeys(tables)
    seen = {ident}
    buckets: list[list[bytes]] = [[] for _ in range(n)] + [[ident]]
    for r in range(n, -1, -1):
        bucket = buckets[r]
        # Products of the same rank are appended to the bucket being drained;
        # iterating a list visits what is appended during the loop.
        for x in bucket:
            for table in tables:
                y = x.translate(table)
                if y not in seen:
                    seen.add(y)
                    buckets[n + 1 - y.count(0)].append(y)
        yield r, bucket


def _first_difference(
    tables: Iterable[bytes], layers: Sequence[frozenset[bytes]]
) -> tuple[int, list[bytes]] | None:
    """The first finished layer ``(r, layer)`` of the closure of ``tables``,
    from rank n down, that differs from ``layers[r]`` (n = len(layers) - 1)
    in size or holds a byte image outside it; None when ``tables`` generate
    exactly the target whose rank layers (``_by_rank``) are ``layers``."""
    for r, layer in _saturate(tables, len(layers) - 1):
        if len(layer) != len(layers[r]) or not layers[r].issuperset(layer):
            return r, layer
    return None


def _cayley_graphs(nodes: list[bytes], letters: list[bytes]) -> tuple[list, list]:
    """The left and right Cayley graphs of the monoid ``nodes`` over the
    generating set ``letters``, both as byte images: node x has the arcs
    x -> g·x and x -> x·g, one per letter g, as indices into ``nodes``."""
    index = {y: i for i, y in enumerate(nodes)}.__getitem__
    tables = list(map(_table, letters))
    left = [list(map(index, map(bytes.translate, letters, repeat(_table(x))))) for x in nodes]
    right = [list(map(index, map(x.translate, tables))) for x in nodes]
    return left, right
