"""Exact counting and enumeration of PAut(P_n) and IEnd(P_n).

One placement rule underlies all of it.  An element with a domain of r
maximal intervals (blocks) and s vertices sends its blocks, in some order,
onto r image intervals of the same sizes, each laid down in two
orientations when its size is at least 2.  The image intervals of PAut
keep at least ``gap = 1`` free vertex between each other (they stay
maximal in the image); those of IEnd may touch (``gap = 0``).  By stars and
bars the ordered image blocks fit on {1..n} in

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
against.

Enumeration places the image blocks explicitly by the same rule, never
filtering the full symmetric inverse monoid, so its size is a third,
independent count.  Text order, the order of every listing, is imposed by
``enumerate_paut`` and ``enumerate_iend`` alone; callers that only collect a
set take ``_enumerate_family``'s placement order unsorted.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, permutations, product
from math import comb, factorial
from operator import add

from .errors import ResourceRefused
from .path_core import (
    PartialInjection, _check_n, _check_vertices, _runs, _trusted, format_element
)

# Largest n ``enumerate_*`` accepts: IEnd(P_8) has 53,937 elements.
MAX_ENUMERATE_N = 8


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
    _check_vertices(points)
    bits = 0
    for p in points:
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
    sizes = [hi - lo + 1 for lo, hi in _blocks(n, bits)]
    r, s, T = len(sizes), sum(sizes), sum(size >= 2 for size in sizes)
    q1, q2 = _slots(n, s, r, 1), _slots(n, s, r, 0)
    f = factorial(r)
    return MaskProfile(n=n, bits=bits, r=r, s=s, T=T, q1=q1, q2=q2, t1=f * q1, t2=f * q2)


def paut_contribution(profile: MaskProfile) -> int:
    """Number of partial automorphisms whose domain is exactly the mask."""
    return (1 << profile.T) * profile.t1


def iend_contribution(profile: MaskProfile) -> int:
    """Number of injective partial endomorphisms with domain the mask."""
    return (1 << profile.T) * profile.t2


def _count(n: int, gap: int) -> int:
    """The (r, s) sum of the module docstring."""
    _check_n(n)
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
    return _count(n, 1)


def count_iend(n: int) -> int:
    """|IEnd(P_n)|, exactly, by the closed form (O(n^2) terms)."""
    return _count(n, 0)


def count_by_mask(n: int) -> list[tuple[MaskProfile, int, int]]:
    """Per-mask table of (profile, paut contribution, iend contribution)."""
    _check_n(n)
    table = []
    for bits in range(1 << n):
        prof = mask_profile(n, bits)
        table.append((prof, paut_contribution(prof), iend_contribution(prof)))
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
    if family not in ("paut", "iend"):
        raise ValueError(f"unknown family {family!r}")
    _check_n(n)
    blocks = _blocks(n, mask_from_set(n, domain))
    gap = 1 if family == "paut" else 0
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
    """Every member of the family at n, in placement order."""
    _check_n(n)
    if n > MAX_ENUMERATE_N:
        raise ResourceRefused(f"enumeration at n={n} is above the bound of {MAX_ENUMERATE_N}")
    elements: list[PartialInjection] = []
    for s in range(n + 1):
        for domain in combinations(range(1, n + 1), s):
            elements.extend(elements_with_domain(n, frozenset(domain), family))
    return elements


def enumerate_paut(n: int) -> list[PartialInjection]:
    """All of PAut(P_n), sorted by text form.  Refuses n > ``MAX_ENUMERATE_N``."""
    elements = _enumerate_family(n, "paut")
    elements.sort(key=format_element)
    return elements


def enumerate_iend(n: int) -> list[PartialInjection]:
    """All of IEnd(P_n), sorted by text form.  Refuses n > ``MAX_ENUMERATE_N``."""
    elements = _enumerate_family(n, "iend")
    elements.sort(key=format_element)
    return elements
