"""Constructive factorization over the shipped generating sets.

``factor_paut`` and ``factor_iend`` check membership, then write a member
b of IEnd(P_n) as a word by one rule, restrict, pack, merge, then unpack:

    b = id_Dom b · spread · β · δ⁻¹,        δ = canonical_delta(b).

δ packs the maximal intervals of Im b, read once as those of Dom b⁻¹.
The idempotents a(i)^2 restrict the identity to Dom b.  ``_pack`` carries
the identity on a domain onto a map whose image blocks are packed from 1
with single gaps, by segment reversals: here onto spread, which is b·δ with
one gap opened at each cut, where a domain block ends inside a maximal
image interval of b (read off its run in b⁻¹ by the J key's rule,
``path_core.split_blocks``).  The merging letters β, one b(i) per cut,
close those gaps and give b·δ.  Each reversal letter is its own inverse,
so δ's word read backwards spells δ⁻¹ on Im δ.  A partial automorphism has
no cuts, so its word uses {tau, a, as, es} only; other members add their b
letters.  Each step walks its letters with ``eval_word``'s walk and checks
its end.

Every emitted letter is legal for the ambient n, and emitted es letters are
boundary-normalized (es(0, n+1) is emitted as tau, es(0, j) as as(j),
es(i, n+1) as a(i)).  Expanding the word with ``genwords.expand_word``
yields a word over B(n) -- over A(n) for partial automorphisms.
"""
from __future__ import annotations

from typing import Iterable

from .genwords import Symbol, Word, _trusted_word, _walk, alpha, beta, canonical_eps_star
from .path_core import (
    PartialInjection,
    _trusted,
    compose,
    domain_intervals,
    format_element,
    identity,
    image_intervals,
    inverse,
    is_iend,
    is_paut,
    split_blocks,
)


def word_length_bound(n: int) -> int:
    """The most letters ``factor_paut`` or ``factor_iend`` emits at n: 3n+1.

    Let s = |Dom a|, r its number of blocks and c the number of cuts; the
    blocks need r - 1 gaps, so r <= s and s + r - 1 <= n.  a(i)^2 per
    deleted vertex, at most two reversals per block to pack spread, c
    b-letters and at most two reversals per block of Dom δ, which has r - c:
    2(n-s) + 4r - c <= 3n+1 (add 3(s-r) >= 0 and n-s+1-r >= 0).
    """
    return 3 * n + 1


def _pack(x: PartialInjection, img: tuple[int, ...], blocks: Iterable[tuple[int, int]]) -> list[Symbol]:
    """Reversal letters carrying the working image tuple ``img``, the
    identity on Dom x, to x, whose image blocks are packed from 1 with
    single gaps; ``blocks`` are the maximal intervals of Dom x.

    The blocks are placed in image order.  ``front`` is the gap after the
    blocks already placed; the unplaced images lie above it and no two
    touch, so es(front, cur_hi+1) moves no point out of the domain.  It
    reverses the block onto the front, or flips it in place once it is
    there, and moves nothing placed.
    """
    n = x.n
    letters: list[Symbol] = []
    front = 0
    for lo, hi in sorted(blocks, key=lambda block: x.img[block[0]]):
        for _ in range(2):
            if img[lo : hi + 1] == x.img[lo : hi + 1]:
                break
            sym = canonical_eps_star(front, max(img[lo : hi + 1]) + 1, n)
            letters.append(sym)
            img = _walk(img, (sym,), n)
        front += hi - lo + 2
    if img != x.img:
        raise RuntimeError(f"reversal letters did not pack {format_element(x)}")
    return letters


def _factor(a: PartialInjection) -> Word:
    """The word of a known member ``a`` of IEnd(P_n); each step walks on
    from the last, so the end checks of the steps cover the whole word."""
    n = a.n
    # Restrict: a(i)^2 is the identity off vertex i.
    letters = [alpha(i) for i in range(1, n + 1) if not a.img[i] for _ in range(2)]
    img = _walk(identity(n).img, letters, n)
    # Pack: open one gap at each cut of a·δ, where a domain block ends
    # inside a maximal image interval of a; b(i) closes the gap at i.
    # a, packed and spread all have the domain blocks of a.
    inv = inverse(a)
    image_blocks = domain_intervals(inv)  # Im a = Dom a⁻¹
    delta = _delta(n, image_blocks)
    packed = compose(a, delta)
    spread_img = [0] * (n + 1)
    merge: list[Symbol] = []
    for lo, hi in image_blocks:
        y = delta.img[lo]  # in packed coordinates
        for k, block in enumerate(split_blocks(inv.img[lo : hi + 1])):
            if k:
                merge.append(beta(y))
            for x in block:
                spread_img[x] = y + len(merge)
                y += 1
    spread = _trusted(tuple(spread_img))
    letters += _pack(spread, img, domain_intervals(a))
    # Merge.
    if _walk(spread.img, merge, n) != packed.img:
        raise RuntimeError(f"merging letters did not reach {format_element(packed)}")
    letters += merge
    # Unpack: δ's pack read backwards.
    on_image = tuple(v if y else 0 for v, y in enumerate(delta.img))
    letters += _pack(delta, on_image, image_blocks)[::-1]
    bound = word_length_bound(n)
    if len(letters) > bound:
        raise RuntimeError(f"factorization exceeded the step bound of {bound} letters")
    # Every letter passed the checked image cache ``genwords._image`` in a walk.
    return _trusted_word(n, tuple(letters))


def factor_paut(a: PartialInjection) -> Word:
    """A word in {tau, a, as, es} letters evaluating to ``a``.

    ``a`` must be a partial automorphism.  The word has at most
    ``word_length_bound(n)`` = 3n+1 letters; a longer one would be a broken
    invariant and raises RuntimeError.
    """
    if not is_paut(a):
        raise ValueError(f"{format_element(a)} is not a partial automorphism")
    return _factor(a)


def canonical_delta(b: PartialInjection) -> PartialInjection:
    """The packing automorphism for Im b: each maximal image interval is
    carried order-preservingly onto the leftmost free slots, consecutive
    intervals separated by exactly one gap."""
    return _delta(b.n, image_intervals(b))


def _delta(n: int, intervals: Iterable[tuple[int, int]]) -> PartialInjection:
    """``canonical_delta`` at n from the maximal image intervals, in order;
    they already sit apart by at least one gap, so the packed ones fit."""
    img = [0] * (n + 1)
    offset = 1
    for lo, hi in intervals:
        size = hi - lo + 1
        img[lo : hi + 1] = range(offset, offset + size)
        offset += size + 1
    return _trusted(tuple(img))


def factor_iend(b: PartialInjection) -> Word:
    """A word in {tau, a, as, es, b} letters evaluating to ``b``.

    ``b`` must be an injective partial endomorphism; a partial automorphism
    gets the word :func:`factor_paut` gives.  The word has at most
    ``word_length_bound(n)`` letters.
    """
    if not is_iend(b):
        raise ValueError(f"{format_element(b)} is not an injective partial endomorphism")
    return _factor(b)
