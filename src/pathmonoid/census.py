"""Exact counting and enumeration of PAut(P_n) and IEnd(P_n).

One placement rule underlies the counts.  An element with a domain of r
maximal intervals (blocks) and s vertices sends its blocks, in some order,
onto r image intervals of the same sizes, each laid down in two
orientations when its size is at least 2.  The image intervals of PAut
keep at least ``gap = 1`` free vertex between each other, as a⁻¹ too sends
edges to edges; those of IEnd may touch (``gap = 0``).  The gap and every
other fact in which the families differ live in one table, ``_FAMILIES``,
read through ``_family``.  By stars and bars the ordered image blocks fit
on {1..n} in

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
block starts are the set bits whose lower neighbour is clear.

Enumeration does not use the placement rule.  ``_enumerate_family`` walks
the members depth first by the paper's adjacency definition (|a(x+1) - a(x)|
= 1 where both are defined, for PAut of a and of its inverse), adding one
pair at a time and never visiting a non-member, so its size is a third count
independent of the closed form.  Its preorder is text order, the order of
every listing, with no sort; ``enumerate_paut`` and ``enumerate_iend``
return it as it is.  ``elements_with_domain`` keeps the placement rule, one
domain at a time, and the tests check the walk against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, permutations, product
from math import comb, factorial
from operator import add
from typing import Callable, NamedTuple

from .errors import ResourceRefused
from .factorize import factor_iend, factor_paut
from .genwords import Symbol, Word, alphabet_iend, alphabet_paut
from .path_core import (
    PartialInjection, _check_n, _runs, _trusted, _vertices, is_iend, is_paut
)

# Largest n ``enumerate_*`` accepts: IEnd(P_8) has 53,937 elements.
MAX_ENUMERATE_N = 8


class _Family(NamedTuple):
    """One family's facts (see the module docstring); ``gap`` is 1 or 0."""

    gap: int
    is_member: Callable[[PartialInjection], bool]
    factor: Callable[[PartialInjection], Word]
    alphabet: Callable[[int], tuple[Symbol, ...]]
    rank: Callable[[int], int]


# Every fact in which the families differ; listings of both follow this order.
_FAMILIES = {
    "paut": _Family(1, is_paut, factor_paut, alphabet_paut, lambda n: (2, 2, 3)[n - 1] if n <= 3 else n - 1),
    "iend": _Family(
        0, is_iend, factor_iend, alphabet_iend, lambda n: (2, 2, 4)[n - 1] if n <= 3 else n + (n + 1) // 2 - 2
    ),
}


def _family(name: str) -> _Family:
    """The record of the family ``name``; ``ValueError`` for any other."""
    try:
        return _FAMILIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown family {name!r}") from None


@dataclass(frozen=True)
class MaskProfile:
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


def mask_to_string(n: int, bits: int) -> str:
    """Bit string with position p (left to right) equal to A(p)."""
    return "".join("1" if bits >> (p - 1) & 1 else "0" for p in range(1, n + 1))


def _slots(n: int, s: int, r: int, gap: int) -> int:
    """Placements of r ordered image blocks of total size s on {1..n},
    at least ``gap`` free vertices apart."""
    return comb(n - s + r - (r - 1) * gap, r)


def mask_profile(n: int, bits: int) -> MaskProfile:
    """Compute (r, s, T, q1, q2, t1, t2) for one domain mask."""
    _check_n(n)
    if type(bits) is not int:  # bool is a subclass of int
        raise ValueError(f"a mask must be an integer, got {bits!r}")
    if not 0 <= bits < 1 << n:
        raise ValueError(f"mask {bits:#x} out of range for n={n}")
    return _profile(n, bits)


def _profile(n: int, bits: int) -> MaskProfile:
    """``mask_profile`` of a mask already checked against n."""
    # A block starts at a set bit whose lower neighbour is clear, and has
    # size >= 2 when the bit above its start is set too.
    starts = bits & ~(bits << 1)
    r, s, T = starts.bit_count(), bits.bit_count(), (starts & (bits >> 1)).bit_count()
    q1, q2 = _slots(n, s, r, 1), _slots(n, s, r, 0)
    f = factorial(r)
    return MaskProfile(n=n, bits=bits, r=r, s=s, T=T, q1=q1, q2=q2, t1=f * q1, t2=f * q2)


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
    table = []
    for bits in range(1 << n):
        prof = _profile(n, bits)
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
    _check_n(n)
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


def _enumerate_family(n: int, family: str) -> list[PartialInjection]:
    """Every member of the family at n, in text order, by the paper's
    adjacency rule alone.

    A depth-first walk whose nodes are exactly the members, the empty map
    at the root: the parent of a member is the member with its largest
    domain vertex dropped (the rule constrains only pairs that are present,
    so every restriction is a member), and each member is reached once.
    The children of a node whose last pair is (x, y) are (x + 1, y ± 1) and
    every (x', y') with x' >= x + 2, each kept when the pair it adds keeps
    the rule.  They are visited in (x', y') order, so for n <= 9, where each
    vertex is one digit and a prefix sorts first, the preorder is text
    order."""
    _check_n(n)
    if n > MAX_ENUMERATE_N:
        raise ResourceRefused(f"enumeration at n={n} is above the bound of {MAX_ENUMERATE_N}")
    gap = _family(family).gap
    used = [False] * (n + 2)  # slots 0 and n + 1 stay False
    zeros = [(0,) * (n + 1 - k) for k in range(n + 2)]
    out = [_trusted(zeros[0])]

    def grow(prefix: tuple[int, ...], y: int) -> None:
        # prefix is img[0..x], x < n; y = img[x], or 0 at the root, whose
        # children start at x' = 1.
        x = len(prefix) - 1
        # a(x + 1) = y ± 1; with a gap (PAut), the other neighbour 2y' - y
        # of y' must be unused, as its preimage would lie before x.
        steps = [
            prefix + (z,) for z in ((y - 1, y + 1) if y else ())
            if 0 < z <= n and not used[z] and not (gap and used[2 * z - y])
        ]
        first = x + 2 if y else 1
        if first <= n:
            free = [
                z for z in range(1, n + 1)
                if not used[z] and not (gap and (used[z - 1] or used[z + 1]))
            ]
            for x2 in range(first, n + 1):
                pad = prefix + (0,) * (x2 - x - 1)
                steps.extend([pad + (z,) for z in free])
        for child in steps:
            out.append(_trusted(child + zeros[len(child)]))
            if len(child) <= n:
                z = child[-1]
                used[z] = True
                grow(child, z)
                used[z] = False

    grow((0,), 0)
    return out


def enumerate_paut(n: int) -> list[PartialInjection]:
    """All of PAut(P_n) in text order.  Refuses n > ``MAX_ENUMERATE_N``."""
    return _enumerate_family(n, "paut")


def enumerate_iend(n: int) -> list[PartialInjection]:
    """All of IEnd(P_n) in text order.  Refuses n > ``MAX_ENUMERATE_N``."""
    return _enumerate_family(n, "iend")
