"""Exact counting and enumeration of PAut(P_n) and IEnd(P_n).

One placement rule underlies the counts.  An element with a domain of r
maximal intervals (blocks) and s vertices sends its blocks, in some order,
onto r image intervals of the same sizes, each laid down in two
orientations when its size is at least 2.  The image intervals of PAut
keep at least ``gap = 1`` free vertex between each other, as a⁻¹ too sends
edges to edges; those of IEnd may touch (``gap = 0``).  The gap, alphabet
and rank formula of each family live in one table, ``_FAMILIES``, read
through ``_family``.  By stars and bars the ordered image blocks fit on
{1..n} in

    _slots(n, s, r, gap) = C(n - s + r - (r - 1) * gap, r)

ways, which is 1 for the empty domain.  So a domain mask with r blocks, s
vertices and T blocks of size >= 2 has 2^T * r! * _slots elements.

``count_paut`` and ``count_iend`` group the masks by (r, s).  The domain
blocks are maximal, so the same rule at gap 1 places them, in
_slots(n, s, r, 1) = C(n - s + 1, r) ways, times h[r][s - r], the number of
ways to split s into r block sizes weighted by 2^T.  h is the Pascal-like
table h[r][m] = h[r][m-1] + h[r-1][m] + h[r-1][m-1] with h[0][0] = 1, so
the sum has O(n^2) terms.  The sum over all 2^n masks (``count_by_mask``) is
kept as the per-mask table and as the reference the closed form is checked
against.  ``mask_profile`` reads r, s and T off the mask by popcounts: the
block starts are the set bits whose lower neighbour is clear.  The
placements (q1, q2, t1, t2) depend on (r, s) alone, so ``count_by_mask``
computes them once per (r, s), not once per mask.

Enumeration does not use the placement rule.  ``_members`` walks the
members depth first by the paper's adjacency definition (|a(x+1) - a(x)| =
1 where both are defined, for PAut of a and of its inverse), adding one pair
at a time and never visiting a non-member, so its size is a third count
independent of the closed form.  The one walk has two outputs, and neither
builds an element.  It emits image tuples, changing one image list in place
and copying it once per member, for ``enumerate_paut``, ``enumerate_iend``
(which wrap them as they are) and the count of ``selftest``.  Or it emits
texts, each written from its parent's text and one pair, for the CLI's
``enumerate`` listing.  Its preorder is text order, the order of every
listing, with no sort.  ``elements_with_domain`` keeps the placement rule,
one domain at a time, and the tests check the walk against it.
"""
from __future__ import annotations

from itertools import accumulate, combinations, permutations, product
from math import comb, factorial
from operator import add
from typing import Callable, NamedTuple

from .errors import ResourceRefused
from .genwords import Symbol, alphabet_iend, alphabet_paut
from .path_core import PartialInjection, _check_n, _image_text, _runs, _trusted, _vertices

# Largest n ``enumerate_*`` accepts: IEnd(P_8) has 53,937 elements.
MAX_ENUMERATE_N = 8


class _Family(NamedTuple):
    """One family's facts (see the module docstring); ``gap`` is 1 or 0."""

    gap: int
    alphabet: Callable[[int], tuple[Symbol, ...]]
    rank: Callable[[int], int]


# The facts read by family name; listings of both follow this order.
_FAMILIES = {
    "paut": _Family(1, alphabet_paut, lambda n: (2, 2, 3)[n - 1] if n <= 3 else n - 1),
    "iend": _Family(0, alphabet_iend, lambda n: (2, 2, 4)[n - 1] if n <= 3 else n + (n + 1) // 2 - 2),
}


def _family(name: str) -> _Family:
    """The record of the family ``name``; ``ValueError`` for any other."""
    try:
        return _FAMILIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown family {name!r}") from None


class MaskProfile(NamedTuple):
    """The counting data of one domain mask: its r blocks, s vertices and T
    blocks of size >= 2; q1 and q2 are ``_slots`` at gap 1 (PAut) and 0
    (IEnd), and t_i = r! * q_i."""

    n: int
    bits: int
    r: int
    s: int
    T: int
    q1: int
    q2: int
    t1: int
    t2: int


def mask_from_set(n: int, points: set[int] | frozenset[int]) -> int:
    _check_n(n)
    bits = 0
    for p in _vertices(points):
        if not 1 <= p <= n:
            raise ValueError(f"vertex {p} out of range for n={n}")
        bits |= 1 << (p - 1)
    return bits


def _blocks(n: int, bits: int) -> tuple[tuple[int, int], ...]:
    """The blocks ``(lo, hi)`` of a domain mask: the maximal intervals of its
    set bits, in increasing order."""
    return _runs(p for p in range(1, n + 1) if bits >> (p - 1) & 1)


def _check_mask(n: int, bits: int) -> None:
    """``ValueError`` unless n is a positive int and ``bits`` an int mask of
    n bits: the check of the functions that take a mask."""
    _check_n(n)
    if type(bits) is not int:  # bool is a subclass of int
        raise ValueError(f"a mask must be an integer, got {bits!r}")
    if not 0 <= bits < 1 << n:
        raise ValueError(f"mask {bits:#x} out of range for n={n}")


def mask_to_string(n: int, bits: int) -> str:
    """Bit string with position p (left to right) equal to A(p)."""
    _check_mask(n, bits)
    return "".join("1" if bits >> (p - 1) & 1 else "0" for p in range(1, n + 1))


def _slots(n: int, s: int, r: int, gap: int) -> int:
    """Placements of r ordered image blocks of total size s on {1..n},
    at least ``gap`` free vertices apart."""
    return comb(n - s + r - (r - 1) * gap, r)


def _placements(n: int, r: int, s: int) -> tuple[int, int, int, int]:
    """(q1, q2, t1, t2) of a mask with r blocks and s vertices at n."""
    q1, q2 = _slots(n, s, r, 1), _slots(n, s, r, 0)
    f = factorial(r)
    return q1, q2, f * q1, f * q2


def mask_profile(n: int, bits: int) -> MaskProfile:
    """Compute (r, s, T, q1, q2, t1, t2) for one domain mask."""
    _check_mask(n, bits)
    return _profile(n, bits, {})


def _profile(n: int, bits: int, placements: dict) -> MaskProfile:
    """``mask_profile`` of a mask already checked against n; ``placements``
    holds the ``_placements`` of each (r, s) met so far in the caller."""
    # A block starts at a set bit whose lower neighbour is clear, and has
    # size >= 2 when the bit above its start is set too.
    starts = bits & ~(bits << 1)
    r, s, T = starts.bit_count(), bits.bit_count(), (starts & (bits >> 1)).bit_count()
    if (r, s) not in placements:
        placements[r, s] = _placements(n, r, s)
    return MaskProfile(n, bits, r, s, T, *placements[r, s])


def _count(n: int, family: str) -> int:
    """The (r, s) sum of the module docstring."""
    _check_n(n)
    gap = _family(family).gap
    # h[r][m]: ways to split r + m vertices into r ordered blocks, weighted
    # by 2 per block of size >= 2.
    h = [[1] + [0] * n]
    for r in range(1, (n + 1) // 2 + 1):
        prev, row = h[-1], [0] * (n + 1)
        for m in range(n + 1):
            row[m] = prev[m] + (row[m - 1] + prev[m - 1] if m else 0)
        h.append(row)
    return sum(
        _slots(n, s, r, 1) * factorial(r) * _slots(n, s, r, gap) * h[r][s - r]
        for r in range(len(h))
        for s in range(r, n + 2 - max(r, 1))
    )


def count_paut(n: int) -> int:
    """|PAut(P_n)|, exactly, by the closed form (O(n^2) terms)."""
    return _count(n, "paut")


def count_iend(n: int) -> int:
    """|IEnd(P_n)|, exactly, by the closed form (O(n^2) terms)."""
    return _count(n, "iend")


def count_by_mask(n: int) -> list[tuple[MaskProfile, int, int]]:
    """Per-mask table of (profile, paut contribution, iend contribution)."""
    _check_n(n)
    placements: dict = {}
    table = []
    for bits in range(1 << n):
        prof = _profile(n, bits, placements)
        table.append((prof, prof.t1 << prof.T, prof.t2 << prof.T))
    return table


# -- constructive enumeration -------------------------------------------------


def elements_with_domain(
    n: int, domain: set[int] | frozenset[int], family: str
) -> list[PartialInjection]:
    """All members of the family whose domain is exactly ``domain``.

    ``family`` is ``"paut"`` or ``"iend"``.  Each order of the domain blocks
    is placed by ``_slots``' stars and bars, and each block of size >= 2 in
    both orientations, which realizes every element exactly once.
    """
    gap = _family(family).gap
    blocks = _blocks(n, mask_from_set(n, domain))
    r, s = len(blocks), sum(hi - lo + 1 for lo, hi in blocks)
    img = [0] * (n + 1)
    out: list[PartialInjection] = []
    for order in permutations(blocks):
        # Block k starts bars[k] + offsets[k]: past bars[k] - k free
        # vertices, the k blocks before it and the k gaps after them.
        offsets = list(accumulate((hi - lo + gap for lo, hi in order[:-1]), initial=1))
        for bars in combinations(range(n - s + r - (r - 1) * gap), r):
            orientations = [
                (range(c, c + hi - lo + 1), range(c + hi - lo, c - 1, -1))
                if hi > lo
                else (range(c, c + 1),)
                for (lo, hi), c in zip(order, map(add, bars, offsets))
            ]
            for images in product(*orientations):
                for (lo, hi), image in zip(order, images):
                    img[lo : hi + 1] = image
                out.append(_trusted(tuple(img)))
    return out


def _members(n: int, family: str, texts: bool) -> list:
    """Every member of the family at n, in text order, by the paper's
    adjacency rule alone: its text form if ``texts``, else its image tuple.

    A depth-first walk whose nodes are exactly the members, the empty map
    at the root: the parent of a member is the member with its largest
    domain vertex dropped (the rule constrains only pairs that are present,
    so every restriction is a member), and each member is reached once.
    The children of a node whose last pair is (x, y) are (x + 1, y ± 1) and
    every (x', y') with x' >= x + 2, each kept when the pair it adds keeps
    the rule.  They are visited in (x', y') order, so for n <= 9, where each
    vertex is one digit and a prefix sorts first, the preorder is text
    order.  One walk has both outputs.  For image tuples it sets and clears
    pairs in one list ``img`` and copies it once per member.  For texts a
    child's text is its parent's, a comma if the parent has a pair, and the
    text of the pair it adds; the root text and the n² pair texts are read
    off ``path_core._image_text``, the one text rule, once per call."""
    _check_n(n)
    if n > MAX_ENUMERATE_N:
        raise ResourceRefused(f"enumeration at n={n} is above the bound of {MAX_ENUMERATE_N}")
    gap = _family(family).gap
    img = [0] * (n + 1)
    used = [False] * (n + 2)  # slots 0 and n + 1 stay False
    root: str | tuple[int, ...] = tuple(img)
    if texts:
        root = _image_text(root)
        # pairs[x][y] is the text "x>y"; row 0 and column 0 are never read.
        pairs = [()] + [
            [""] + [
                _image_text((0,) * x + (y,) + (0,) * (n - x))[len(root):]
                for y in range(1, n + 1)
            ]
            for x in range(1, n + 1)
        ]
    out = [root]
    emit = out.append

    def grow(x: int, y: int, head: str) -> None:
        # The node's last pair is (x, y), x < n, or (0, 0) at the root, and
        # ``head`` is the text its children extend ("" for image tuples).  A
        # child adds the pair (x', y') and marks y' used while its subtree
        # is walked: y' = y ± 1 at x' = x + 1, and any free y' from
        # x' = x + 2 on (from x' = 1 at the root).  With a gap (PAut), a
        # free vertex has no used neighbour, and y ± 1 needs its other
        # neighbour unused, as that preimage would lie before x.
        free = [
            z for z in range(1, n + 1)
            if not used[z] and not (gap and (used[z - 1] or used[z + 1]))
        ] if x + 2 <= n or not y else ()
        ys = [
            z for z in (y - 1, y + 1)
            if 0 < z <= n and not used[z] and not (gap and used[2 * z - y])
        ] if y else free
        for x2 in range(x + 1, n + 1):
            for z in ys:
                if texts:
                    emit(text := head + pairs[x2][z])
                else:
                    img[x2] = z
                    emit(tuple(img))
                if x2 < n:
                    used[z] = True
                    grow(x2, z, text + "," if texts else "")
                    used[z] = False
            img[x2] = 0
            ys = free

    grow(0, 0, root if texts else "")
    return out


def _enumerate_family(n: int, family: str) -> list[PartialInjection]:
    """Every member of the family at n, in text order (``_members``)."""
    return list(map(_trusted, _members(n, family, False)))


def enumerate_paut(n: int) -> list[PartialInjection]:
    """All of PAut(P_n) in text order.  Refuses n > ``MAX_ENUMERATE_N``."""
    return _enumerate_family(n, "paut")


def enumerate_iend(n: int) -> list[PartialInjection]:
    """All of IEnd(P_n) in text order.  Refuses n > ``MAX_ENUMERATE_N``."""
    return _enumerate_family(n, "iend")
