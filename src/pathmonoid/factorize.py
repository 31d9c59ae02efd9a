"""Constructive factorization over the shipped generating sets.

``factor_paut`` writes a partial automorphism a as a word in the derived
letters {tau, a, as, es} by one rule, pack then unpack:

    a = id_Dom a · (a·δ) · δ⁻¹,        δ = canonical_delta(a).

The idempotents a(i)^2 restrict the identity to Dom a, and ``_pack``
carries the identity on a domain onto a map whose image blocks are packed
from 1 with single gaps, as a·δ and δ are, by segment reversals.  Each
letter is its own inverse, so δ's word read backwards spells δ⁻¹ on Im δ.

``factor_iend`` reduces an injective partial endomorphism to the partial
automorphism case: pack the image with delta, split the packed map at its
junction points (where two domain blocks meet inside one image interval)
into an automorphism part and a product of the merging letters b(i), and
recurse; its words use {tau, a, as, es} plus b.

Every emitted letter is legal for the ambient n, and emitted es letters are
boundary-normalized (es(0, n+1) is emitted as tau, es(0, j) as as(j),
es(i, n+1) as a(i)).  Expanding the word with ``genwords.expand_word``
yields a word over B(n) -- over A(n) for partial automorphisms.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter
from typing import Callable

from .genwords import Symbol, Word, _trusted_word, alpha, beta, canonical_eps_star, eval_symbols, make_generator
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
)


def word_length_bound(n: int) -> int:
    """The most letters ``factor_paut`` or ``factor_iend`` emits at n: 5n+1.

    Let s = |Dom a|, r its number of blocks and c the number of cuts; the
    blocks need r - 1 gaps, so r <= s and s + r - 1 <= n.

    * PAut: a(i)^2 per deleted vertex and at most two reversals per block in
      each pack, 2(n-s) + 4r <= 3n+1 (add 3(s-r) >= 0 and n-s+1-r >= 0).
    * IEnd: 2(n-s) + 4r for the spread part, c b-letters, and 2(n-s) +
      2(r-c) for inverse(delta), whose own delta is delta, so that its first
      pack is empty: 4(n-s) + 6r - c <= 5n+1 (add 5(s-r) and n-s+1-r).
    """
    return 5 * n + 1


def _pack(x: PartialInjection, img: tuple[int, ...], image_of: Callable) -> list[Symbol]:
    """Reversal letters carrying the working image tuple ``img``, the
    identity on Dom x, to x, whose image blocks are packed from 1 with
    single gaps; ``image_of`` gives a letter's image tuple.

    The blocks are placed in image order.  ``front`` is the gap after the
    blocks already placed; the unplaced images lie above it and no two
    touch, so es(front, cur_hi+1) moves no point out of the domain.  It
    reverses the block onto the front, or flips it in place once it is
    there, and moves nothing placed.
    """
    n = x.n
    letters: list[Symbol] = []
    front = 0
    for lo, hi in sorted(domain_intervals(x), key=lambda block: x.img[block[0]]):
        for _ in range(2):
            if img[lo : hi + 1] == x.img[lo : hi + 1]:
                break
            sym = canonical_eps_star(front, max(img[lo : hi + 1]) + 1, n)
            letters.append(sym)
            img = itemgetter(*img)(image_of(sym))
        front += hi - lo + 2
    if img != x.img:
        raise RuntimeError(f"reversal letters did not pack {format_element(x)}")
    return letters


def factor_paut(a: PartialInjection) -> Word:
    """A word in {tau, a, as, es} letters evaluating to ``a``.

    ``a`` must be a partial automorphism.  The word has at most
    ``word_length_bound(n)`` = 5n+1 letters; a longer one would be a broken
    invariant and raises RuntimeError.
    """
    if not is_paut(a):
        raise ValueError(f"{format_element(a)} is not a partial automorphism")
    return _bounded_word(a.n, _factor_paut(a))


def _bounded_word(n: int, letters: list[Symbol]) -> Word:
    bound = word_length_bound(n)
    if len(letters) > bound:
        raise RuntimeError(f"factorization exceeded the step bound of {bound} letters")
    # Every letter passed ``make_generator``, in a walk or a check.
    return _trusted_word(n, tuple(letters))


def _factor_paut(a: PartialInjection) -> list[Symbol]:
    """``factor_paut``'s letters for a known partial automorphism ``a``; the
    first pack walks on from the restriction, so the end checks cover all."""
    n = a.n
    # One cache for the request: each letter is built once, for both packs.
    image_of = lru_cache(maxsize=None)(lambda sym: make_generator(sym, n).img)
    # Domain restriction: a(i)^2 is the identity off vertex i.
    letters = [alpha(i) for i in range(1, n + 1) if not a.img[i] for _ in range(2)]
    img = identity(n).img
    for sym in letters:
        img = itemgetter(*img)(image_of(sym))
    delta = canonical_delta(a)
    letters += _pack(compose(a, delta), img, image_of)
    on_image = tuple(v if y else 0 for v, y in enumerate(delta.img))
    return letters + _pack(delta, on_image, image_of)[::-1]


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
    """A word in {tau, a, as, es, b} letters evaluating to ``b``.

    ``b`` must be an injective partial endomorphism; partial automorphisms
    are factored as :func:`factor_paut` does.  The word has at most
    ``word_length_bound(n)`` letters.
    """
    if not is_iend(b):
        raise ValueError(f"{format_element(b)} is not an injective partial endomorphism")
    if is_paut(b):
        return _bounded_word(b.n, _factor_paut(b))
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
    merge = [beta(c + 1) for c in cuts]
    if compose(compose(spread, eval_symbols(merge, n)), inverse(delta)) != b:
        raise RuntimeError("junction decomposition failed to reassemble the input")

    # spread and every b(c + 1) are checked above; inverse(delta) is an automorphism.
    return _bounded_word(n, _factor_paut(spread) + merge + _factor_paut(inverse(delta)))
