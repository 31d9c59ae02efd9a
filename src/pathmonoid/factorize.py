"""Constructive factorization over the shipped generating sets.

``factor_paut`` and ``factor_iend`` check membership, then write a member
b of IEnd(P_n) as a word by one rule, restrict, pack, merge, then unpack:

    b = spread · β · δ⁻¹,        δ = canonical_delta(b),

where the restriction and the pack together spell spread.

δ packs the maximal intervals of Im b, read once off the runs of b⁻¹.  The
restriction is one a(i) per vertex i outside Dom b, in descending i: a(i)
drops vertex i and fixes every vertex below it, so each deleted vertex still
sits at its own place when its letter comes, and the letters leave a partial
automorphism with domain Dom b.  ``_pack`` carries any partial automorphism
with domain Dom x onto x, whose image blocks are packed from 1 with single
gaps, by segment reversals: here onto spread, which is b·δ with one gap
opened at each cut, where a domain block ends inside a maximal image
interval of b (read off its run in b⁻¹ by the J key's rule,
``path_core.split_blocks``).  The merging letters β, one b(i) per cut,
close those gaps and give b·δ.  Each reversal letter is its own inverse,
so δ's word read backwards spells δ⁻¹ on Im δ.  A partial automorphism has
no cuts, so its word uses {tau, a, as, es} only; other members add their b
letters.  The factorizer builds no element on success: it reads image
tuples, and each step walks its letters with ``eval_word``'s walk, from
images in the form ``path_core._carried`` gives them (byte images at
n <= 255), and checks its end; a·δ and a⁻¹·a are ``path_core._img_product``.

Every emitted letter is legal for the ambient n, and emitted es letters are
boundary-normalized (es(0, n+1) is emitted as tau, es(0, j) as as(j),
es(i, n+1) as a(i)).  Expanding the word with ``genwords.expand_word``
yields a word over B(n) -- over A(n) for partial automorphisms.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .genwords import Symbol, Word, _trusted_word, _walk, alpha, beta, canonical_eps_star
from .path_core import (
    PartialInjection,
    _carried,
    _check_element,
    _domain_intervals,
    _img_product,
    _inverse_image,
    _trusted,
    format_element,
    is_iend,
    is_paut,
    split_blocks,
)


def word_length_bound(n: int) -> int:
    """The most letters ``factor_paut`` or ``factor_iend`` emits at n: 3n+1.

    Let s = |Dom a|, r its number of blocks and c the number of cuts; the
    blocks need r - 1 gaps, so r <= s and s + r - 1 <= n, whence
    2r <= n + 1.  One a(i) per deleted vertex, at most two reversals per
    block to pack spread, c b-letters and at most two reversals per block
    of Dom δ, which has r - c: n - s + 4r - c <= n + 3r <= (5n+3)/2 <= 3n+1.
    """
    return 3 * n + 1


def _pack(img: Sequence[int], target: Sequence[int], blocks: Iterable[tuple[int, int]]) -> list[Symbol]:
    """Reversal letters carrying the image ``img``, any partial automorphism
    with domain Dom x, to the image ``target`` of x, whose image blocks are
    packed from 1 with single gaps; ``blocks`` are the maximal intervals of
    Dom x in the order of their images under x.  Both images are carried
    (``path_core._carried``).

    ``front`` is the gap after the blocks already placed; the unplaced
    images lie above it and no two touch, so es(front, cur_hi+1) moves no
    point out of the domain.  It reverses the block onto the front, or
    flips it in place once it is there, and moves nothing placed.  Each
    block maps monotonically onto an interval, so its two end points tell
    where it lies.
    """
    n = len(img) - 1
    letters: list[Symbol] = []
    front = 0
    for lo, hi in blocks:
        for _ in range(2):
            if img[lo] == target[lo] and img[hi] == target[hi]:
                break
            sym = canonical_eps_star(front, max(img[lo], img[hi]) + 1, n)
            letters.append(sym)
            img = _walk(img, (sym,), n)
        front += hi - lo + 2
    if img != target:
        raise RuntimeError(f"reversal letters did not pack {format_element(_trusted(tuple(target)))}")
    return letters


def _factor(a: PartialInjection) -> Word:
    """The word of a known member ``a`` of IEnd(P_n); each step walks on
    from the last, so the end checks of the steps cover the whole word."""
    n, img_a = a.n, a.img
    # Restrict: a(i) drops vertex i and fixes 1..i-1, so in descending i
    # each deleted vertex still sits at its own place when its letter comes.
    letters = [alpha(i) for i in range(n, 0, -1) if not img_a[i]]
    img = _walk(_carried(range(n + 1)), letters, n)
    # Pack: open one gap at each cut of a·δ, where a domain block ends
    # inside a maximal image interval of a; b(i) closes the gap at i.
    inv = _inverse_image(img_a)
    image_blocks = _domain_intervals(inv)  # Im a = Dom a⁻¹
    delta = _delta_image(n, image_blocks)
    packed = _img_product(img_a, delta)  # a·δ
    spread = list(packed)
    blocks: list[tuple[int, int]] = []  # the domain blocks, in image order
    merge: list[Symbol] = []
    for lo, hi in image_blocks:
        for k, block in enumerate(split_blocks(inv[lo : hi + 1])):
            if k:
                merge.append(beta(packed[block[0]]))
            if merge:  # spread lifts a block by the cuts at or below it
                for x in block:
                    spread[x] += len(merge)
            blocks.append((min(block[0], block[-1]), max(block[0], block[-1])))
    spread_img = _carried(spread)
    letters += _pack(img, spread_img, blocks)
    # Merge.
    if _walk(spread_img, merge, n) != _carried(packed):
        raise RuntimeError(f"merging letters did not reach {format_element(_trusted(packed))}")
    letters += merge
    # Unpack: δ's pack read backwards, from a⁻¹·a, the identity on Im a.
    letters += _pack(_carried(_img_product(inv, img_a)), _carried(delta), image_blocks)[::-1]
    bound = word_length_bound(n)
    if len(letters) > bound:
        raise RuntimeError(f"factorization exceeded the step bound of {bound} letters")
    # Every letter passed the checked letter cache in a walk.
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
    _check_element(b)
    image_blocks = _domain_intervals(_inverse_image(b.img))  # Im b = Dom b⁻¹
    return _trusted(_delta_image(b.n, image_blocks))


def _delta_image(n: int, intervals: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The image tuple of ``canonical_delta`` at n from the maximal image
    intervals, in order; they already sit apart by at least one gap, so the
    packed ones fit."""
    img = [0] * (n + 1)
    offset = 1
    for lo, hi in intervals:
        size = hi - lo + 1
        img[lo : hi + 1] = range(offset, offset + size)
        offset += size + 1
    return tuple(img)


def factor_iend(b: PartialInjection) -> Word:
    """A word in {tau, a, as, es, b} letters evaluating to ``b``.

    ``b`` must be an injective partial endomorphism; a partial automorphism
    gets the word :func:`factor_paut` gives.  The word has at most
    ``word_length_bound(n)`` letters.
    """
    if not is_iend(b):
        raise ValueError(f"{format_element(b)} is not an injective partial endomorphism")
    return _factor(b)
