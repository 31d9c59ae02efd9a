"""Constructive factorization over the shipped generating sets.

``factor_paut`` writes a partial automorphism as a word in the derived
letters {tau, a, es, rp, rm} by building it from the identity in three
stages: restrict the domain with the idempotents a(i)^2, repair the left-
to-right order of the image blocks with segment reversals, then walk each
block to its target with unit shifts and fix its orientation in place.

``factor_iend`` reduces an injective partial endomorphism to the partial
automorphism case: pack the image with a canonical automorphism delta,
split the packed map at its junction points (where two domain blocks meet
inside one image interval) into an automorphism part and a product of the
merging letters b(i), and recurse.

Every emitted letter is legal for the ambient n, and emitted es letters are
boundary-normalized (es(0, n+1) is emitted as tau, es(0, j) as as(j),
es(i, n+1) as a(i)).  Expanding the word with ``genwords.expand_word``
yields a word over B(n) -- over A(n) for partial automorphisms.
"""
from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .genwords import Symbol, Word, _trusted_word, alpha, beta, canonical_eps_star, make_generator
from .genwords import rho_minus, rho_plus
from .path_core import (
    PartialInjection,
    _trusted,
    block_image,
    compose,
    domain_intervals,
    format_element,
    image_intervals,
    inverse,
    is_iend,
    is_paut,
)


def word_length_bound(n: int) -> int:
    """The most letters ``factor_paut`` emits at n: 4n²."""
    return 4 * n * n


def _block_order(img: tuple[int, ...], blocks: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Block indices sorted by where their images sit, left to right."""
    lows = [min(img[lo : hi + 1]) for lo, hi in blocks]
    return tuple(sorted(range(len(blocks)), key=lows.__getitem__))


class _Emitter:
    """Tracks the working image tuple and enforces ``word_length_bound``."""

    def __init__(self, n: int, start: tuple[int, ...]):
        self.n = n
        self.img = start
        self.bound = word_length_bound(n)
        self.letters: list[Symbol] = []
        self._generators: dict[Symbol, tuple[int, ...]] = {}

    def emit(self, sym: Symbol) -> None:
        if len(self.letters) >= self.bound:
            raise RuntimeError(
                f"factorization exceeded the step bound of {self.bound} letters"
            )
        self.letters.append(sym)
        g = self._generators.get(sym)
        if g is None:
            g = self._generators[sym] = make_generator(sym, self.n).img
        self.img = itemgetter(*self.img)(g)


def _repair_block_order(
    em: _Emitter, blocks: tuple[tuple[int, int], ...], target_order: tuple[int, ...]
) -> None:
    """Reverse image segments until the blocks appear in the target order.

    Each pass finds the least position s whose block is wrong and reverses
    from the start of the block currently at s through the end of the block
    that belongs there; position s becomes correct and earlier positions are
    untouched, so at most len(blocks) - 1 reversals are needed.
    """
    n = em.n
    while True:
        order = _block_order(em.img, blocks)
        if order == target_order:
            return
        s = next(p for p in range(len(blocks)) if order[p] != target_order[p])
        t = block_image(em.img, blocks[order[s]])[0]
        q = block_image(em.img, blocks[target_order[s]])[1]
        if not t <= q:
            raise RuntimeError("block order repair selected an empty segment")
        em.emit(canonical_eps_star(t - 1, q + 1, n))


def _shift_right_letter(img: frozenset[int], lo: int, hi: int, n: int) -> Symbol:
    """One letter moving the image block [lo, hi] one step right.

    Uses rm(lo, j+1) for the least free pair (j, j+1) beyond the block that
    the rm index range admits; when the block is a single point whose only
    free pair starts immediately after it, the same step is the two-point
    reversal es(lo-1, lo+2) instead (rm would need j = i+2, which is outside
    its declared range).
    """
    for j in range(hi + 1, n + 1):
        if j in img or (j + 1 <= n and j + 1 in img):
            continue
        if j >= lo + 2:
            return rho_minus(lo, j + 1)
        # j == lo + 1 forces lo == hi: an isolated point with lo+1, lo+2 free.
        return canonical_eps_star(lo - 1, lo + 2, n)
    raise RuntimeError("no free pair available for a right shift")


def _shift_left_letter(lo: int, hi: int, n: int) -> Symbol:
    """One letter moving the image block [lo, hi] one step left.

    ``factor_paut`` places the blocks left to right in target order, and
    target image intervals sit at least one point apart, so nothing lies
    between the placed blocks and a block that still has to move left:
    image point lo - 1 is free, and lo - 2 is free or is 0, the left end.
    A block of two or more points slides down by rp(lo-2, hi); a single
    point is swapped with lo - 1 by the two-point reversal es(lo-2, lo+1).
    """
    if lo < hi:
        return rho_plus(lo - 2, hi)
    return canonical_eps_star(lo - 2, lo + 1, n)


def factor_paut(a: PartialInjection) -> Word:
    """A word in {tau, a, es, rp, rm} letters evaluating to ``a``.

    ``a`` must be a partial automorphism.  The word has at most
    ``word_length_bound(n)`` = 4·n² letters; a longer one would be a broken
    invariant and raises RuntimeError.
    """
    if not is_paut(a):
        raise ValueError(f"{format_element(a)} is not a partial automorphism")
    return _factor_paut(a)


def _factor_paut(a: PartialInjection) -> Word:
    """``factor_paut`` for an ``a`` already known to be a partial automorphism."""
    n = a.n
    blocks = domain_intervals(a)
    target = a.img

    # The identity on Dom a.
    start = tuple(x if y else 0 for x, y in enumerate(target))
    em = _Emitter(n, start)
    # Domain restriction: a(i)^2 is the identity off vertex i.
    for i in range(1, n + 1):
        if not target[i]:
            em.emit(alpha(i))
            em.emit(alpha(i))
    if em.img != start:
        raise RuntimeError("domain restriction letters disagree with the restricted identity")

    target_order = _block_order(target, blocks)
    _repair_block_order(em, blocks, target_order)

    # Place the blocks left to right.  A letter for a block moves only image
    # points above the target top of the block placed before it, and keeps
    # the block order, so a placed block never moves again.
    for block in (blocks[r] for r in target_order):
        lo, hi = block
        tgt_lo, tgt_hi = block_image(target, block)
        while em.img[lo : hi + 1] != target[lo : hi + 1]:
            cur_lo, cur_hi = block_image(em.img, block)
            if (cur_lo, cur_hi) == (tgt_lo, tgt_hi):
                # Image in place; the orientation differs, so flip it in place.
                em.emit(canonical_eps_star(cur_lo - 1, cur_hi + 1, n))
            elif cur_lo < tgt_lo:
                em.emit(_shift_right_letter(frozenset(em.img), cur_lo, cur_hi, n))
            else:
                em.emit(_shift_left_letter(cur_lo, cur_hi, n))
    if em.img != target:
        raise RuntimeError("shift letters disturbed the block order")
    # Every letter passed ``make_generator`` in ``_Emitter.emit``.
    return _trusted_word(n, tuple(em.letters))


def canonical_delta(b: PartialInjection) -> PartialInjection:
    """The packing automorphism for Im b: each maximal image interval is
    carried order-preservingly onto the leftmost free slots, consecutive
    intervals separated by exactly one gap."""
    # The intervals already sit apart by at least one gap, so the packed
    # ones fit in {1..n}.
    img = [0] * (b.n + 1)
    offset = 1
    for lo, hi in image_intervals(b):
        size = hi - lo + 1
        img[lo : hi + 1] = range(offset, offset + size)
        offset += size + 1
    return _trusted(tuple(img))


def factor_iend(b: PartialInjection) -> Word:
    """A word in {tau, a, es, rp, rm, b} letters evaluating to ``b``.

    ``b`` must be an injective partial endomorphism; partial automorphisms
    are factored as :func:`factor_paut` does.
    """
    if not is_iend(b):
        raise ValueError(f"{format_element(b)} is not an injective partial endomorphism")
    if is_paut(b):
        return _factor_paut(b)
    n = b.n
    delta = canonical_delta(b)
    packed = compose(b, delta)

    # Junction points: x whose successor value belongs to the packed image
    # but is contributed by a different domain block.
    image = packed.image_set()
    junctions = [
        x
        for x, y in packed.pairs
        if y + 1 in image and y + 1 != packed.get(x - 1) and y + 1 != packed.get(x + 1)
    ]
    if not junctions:
        raise RuntimeError("no junction found in a map outside PAut")
    cuts = sorted(packed[x] for x in junctions)

    # Spread the packed map at each cut; the result is a partial automorphism
    # and the b-letters merge the pieces back together.  Each cut joins two
    # domain blocks, so the image still ends by |Dom b| + #blocks - 1 <= n.
    spread = _trusted(tuple(y and y + bisect_left(cuts, y) for y in packed.img))
    if not is_paut(spread):
        raise RuntimeError("junction split did not produce a partial automorphism")
    merged = spread
    for c in cuts:
        merged = compose(merged, make_generator(beta(c + 1), n))
    if compose(merged, inverse(delta)) != b:
        raise RuntimeError("junction decomposition failed to reassemble the input")

    # spread and every b(c + 1) are checked above; inverse(delta) is an automorphism.
    word = _factor_paut(spread)
    word = word + _trusted_word(n, tuple(beta(c + 1) for c in cuts))
    word = word + _factor_paut(inverse(delta))
    return word
