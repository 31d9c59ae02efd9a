"""Closure from generating sets, irredundancy, and rank verification.

The shipped alphabets of :mod:`pathmonoid.genwords` are minimal generating
sets of PAut(P_n) and IEnd(P_n).  This module provides the machinery for
checking that computationally: closure, generation and irredundancy tests,
exhaustive minimality search where the subset count allows it, the
closed-form rank values as reference constants, and the structural witness
checks that back the rank lower bounds at sizes where exhaustive search is
out of reach.

One saturation loop, ``_saturate``, serves closure and the generation tests.
It works on image tuples and expands elements in order of decreasing rank
(the size of the domain).  Since rank(x·y) <= min(rank x, rank y), the
elements of rank r in the closure are all known once the rank-r bucket is
drained, so a candidate generating set that misses part of a rank layer of
the target is rejected at that layer.  Every letter of A(n) and B(n) has
rank n or n-1, so dropping one of them is detected within the top two
layers, and most candidates of the exhaustive search fail as early.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator

from .census import elements_with_domain, enumerate_iend, enumerate_paut
from .errors import ResourceRefused
from .genwords import alphabet_iend, alphabet_paut, make_generator, tau
from .path_core import (
    PartialInjection,
    _trusted,
    compose,
    format_element,
    identity,
    is_paut,
)

DEFAULT_SUBSET_SEARCH_BUDGET = 10_000_000


@dataclass(frozen=True)
class MonoidSet:
    """A set of partial injections on a common n, closed under composition.

    Closure is guaranteed by the constructors used throughout (``closure``,
    the family helpers below); it is not re-verified on every instantiation
    because that costs |M|^2 products.  ``is_closed`` performs the exact
    check for tests.
    """

    n: int
    elements: frozenset[PartialInjection]

    def __post_init__(self) -> None:
        for a in self.elements:
            if a.n != self.n:
                raise ValueError(
                    f"element on n={a.n} does not match the monoid's n={self.n}"
                )
        if identity(self.n) not in self.elements:
            raise ValueError("a monoid must contain the identity")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, a: PartialInjection) -> bool:
        return a in self.elements

    def __iter__(self) -> Iterator[PartialInjection]:
        return iter(self.elements)

    @cached_property
    def _layers(self) -> tuple[frozenset[tuple[int, ...]], tuple[int, ...]]:
        """The members' image tuples, and how many members have each rank
        0..n; computed once per monoid for ``is_generating``."""
        imgs = frozenset(a.img for a in self.elements)
        sizes = [0] * (self.n + 1)
        for y in imgs:
            sizes[self.n + 1 - y.count(0)] += 1
        return imgs, tuple(sizes)

    def is_closed(self) -> bool:
        """Exact closure test; quadratic, intended for small test monoids."""
        elems = self.elements
        return all(compose(a, b) in elems for a in elems for b in elems)


def paut_monoid(n: int) -> MonoidSet:
    """All of PAut(P_n) as a MonoidSet.  Refuses what ``enumerate_paut`` does."""
    return MonoidSet(n, frozenset(enumerate_paut(n)))


def iend_monoid(n: int) -> MonoidSet:
    """All of IEnd(P_n) as a MonoidSet.  Refuses what ``enumerate_iend`` does."""
    return MonoidSet(n, frozenset(enumerate_iend(n)))


def alphabet_elements(family: str, n: int) -> list[PartialInjection]:
    """The shipped alphabet of the family, evaluated to partial injections."""
    if family == "paut":
        symbols = alphabet_paut(n)
    elif family == "iend":
        symbols = alphabet_iend(n)
    else:
        raise ValueError(f"unknown family {family!r}")
    return [make_generator(sym, n) for sym in symbols]


def _saturate(
    gens: list[PartialInjection],
    n: int,
    *,
    within: MonoidSet | None = None,
    max_size: int | None = None,
) -> set[tuple[int, ...]] | None:
    """Image tuples of the closure of ``gens`` and the identity under right
    multiplication, expanded one rank at a time from n down to 0 (see the
    module docstring).  ``None`` as soon as the closure cannot be all of
    ``within``: at a product outside it, or at a drained rank bucket smaller
    than its layer of that rank.  Refuses once more than ``max_size``
    elements are found."""
    letters = list(dict.fromkeys(g.img for g in gens))
    if within is not None:
        members, layer_sizes = within._layers
    ident = tuple(range(n + 1))
    seen = {ident}
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(n)] + [[ident]]
    for r in range(n, -1, -1):
        bucket = buckets[r]
        # Products of the same rank are appended to the bucket being drained;
        # iterating a list visits what is appended during the loop.
        for x in bucket:
            x_then = itemgetter(*x)
            for g in letters:
                y = x_then(g)
                if y not in seen:
                    if within is not None and y not in members:
                        return None
                    seen.add(y)
                    buckets[n + 1 - y.count(0)].append(y)
            if max_size is not None and len(seen) > max_size:
                raise ResourceRefused(
                    f"closure exceeded the bound of {max_size} elements"
                )
        if within is not None and len(bucket) != layer_sizes[r]:
            return None
    return seen


def closure(
    gens: Iterable[PartialInjection], n: int, *, max_size: int | None = None
) -> MonoidSet:
    """Least submonoid of I_n containing ``gens`` and the identity.

    If the closure grows beyond ``max_size`` the computation is refused
    rather than left to run on.
    """
    gen_list: list[PartialInjection] = []
    for g in gens:
        if g.n != n:
            raise ValueError(f"generator on n={g.n} does not match n={n}")
        gen_list.append(g)
    seen = _saturate(gen_list, n, max_size=max_size)
    return MonoidSet(n, frozenset(map(_trusted, seen)))


def is_generating(gens: Iterable[PartialInjection], target: MonoidSet) -> bool:
    """Whether ``gens`` generates exactly ``target``.

    Saturates inside ``target`` and gives up at the first product outside it
    or the first rank layer left incomplete.
    """
    gen_list: list[PartialInjection] = []
    for g in gens:
        if g.n != target.n:
            raise ValueError(f"generator on n={g.n} does not match n={target.n}")
        if g not in target:
            return False
        gen_list.append(g)
    seen = _saturate(gen_list, target.n, within=target)
    return seen is not None and len(seen) == len(target)


def _first_redundant(gens: list[PartialInjection], target: MonoidSet) -> int | None:
    """Index of the first letter whose removal leaves a generating set."""
    for k in range(len(gens)):
        if is_generating(gens[:k] + gens[k + 1 :], target):
            return k
    return None


def is_irredundant(gens: Iterable[PartialInjection], target: MonoidSet) -> bool:
    """Whether ``gens`` generates ``target`` and no proper subset does."""
    gen_list = list(gens)
    return is_generating(gen_list, target) and _first_redundant(gen_list, target) is None


def _forced_generators(target: MonoidSet) -> list[PartialInjection]:
    """Elements that every generating set of ``target`` must contain.

    When the identity and the full reversal are the only full-domain members,
    the reversal is forced: a product with any proper partial factor is
    itself proper, and full-domain products of the remaining elements only
    ever yield the identity.
    """
    n = target.n
    ident = identity(n)
    rev = make_generator(tau(), n)
    if rev == ident:
        return []
    full_domain = {a for a in target.elements if len(a) == n}
    if full_domain == {ident, rev}:
        return [rev]
    return []


def subset_search_scope(target: MonoidSet, k: int) -> int:
    """Number of candidate k-subsets ``exhaustive_min_size`` will test."""
    forced = _forced_generators(target)
    if k < len(forced):
        return 0
    return comb(len(target) - len(forced), k - len(forced))


def exhaustive_min_size(
    target: MonoidSet, k: int, *, budget: int = DEFAULT_SUBSET_SEARCH_BUDGET
) -> bool:
    """True iff no k-subset of ``target`` generates it, i.e. rank > k.

    Candidates omitting a forced generator (see ``_forced_generators``) are
    skipped, which cuts the search by a factor of roughly |target|/k without
    losing soundness.  Refuses when the candidates left to test,
    ``subset_search_scope(target, k)``, exceed ``budget``.
    """
    if k < 0:
        raise ValueError(f"subset size must be nonnegative, got {k}")
    scope = subset_search_scope(target, k)
    if scope > budget:
        raise ResourceRefused(
            f"searching {scope} candidate {k}-subsets exceeds the budget of {budget}"
        )
    forced = _forced_generators(target)
    if k < len(forced):
        return True
    pool = sorted(
        (a for a in target.elements if a not in forced), key=format_element
    )
    for combo in combinations(pool, k - len(forced)):
        if is_generating(forced + list(combo), target):
            return False
    return True


def rank_formula(family: str, n: int) -> int:
    """Least size of a generating set, in closed form.

    paut: 2, 2, 3 for n = 1, 2, 3 and n-1 for n >= 4.
    iend: 2, 2, 4 for n = 1, 2, 3 and n + ceil(n/2) - 2 for n >= 4.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if family == "paut":
        return (2, 2, 3)[n - 1] if n <= 3 else n - 1
    if family == "iend":
        return (2, 2, 4)[n - 1] if n <= 3 else n + (n + 1) // 2 - 2
    raise ValueError(f"unknown family {family!r}")


def point_deleted_class(n: int, i: int) -> list[PartialInjection]:
    """A_i: automorphisms whose domain omits exactly vertex i or its mirror.

    The two candidate domains coincide when i is the middle vertex.
    """
    if not 1 <= i <= n:
        raise ValueError(f"vertex {i} out of range for n={n}")
    full = frozenset(range(1, n + 1))
    out: list[PartialInjection] = []
    for dom in sorted({full - {i}, full - {n + 1 - i}}, key=sorted):
        out.extend(elements_with_domain(n, dom, "paut"))
    return out


def end_deleted_domain_elements_are_automorphisms(n: int) -> bool:
    """Injective endomorphisms defined everywhere but one endpoint are
    partial automorphisms."""
    full = frozenset(range(1, n + 1))
    for dom in (full - {n}, full - {1}):
        for a in elements_with_domain(n, dom, "iend"):
            if not is_paut(a):
                return False
    return True


def corank_one_non_automorphisms_have_end_deleted_image(n: int) -> bool:
    """Injective endomorphisms on n-1 vertices that are not automorphisms
    all have image {1..n-1} or {2..n}."""
    full = frozenset(range(1, n + 1))
    end_deleted = (full - {n}, full - {1})
    for i in range(1, n + 1):
        for a in elements_with_domain(n, full - {i}, "iend"):
            if not is_paut(a) and a.image_set() not in end_deleted:
                return False
    return True


def lower_bound_witnesses(n: int) -> dict[str, bool]:
    """Structural checks backing the rank lower bounds of the alphabets.

    Keys, in order:

    - ``reversal_in_alphabet``: the full reversal is a letter of A(n); it is
      forced into every generating set of either family.
    - ``alphabet_meets_point_deleted_classes``: for every i <= ceil(n/2),
      some letter of A(n) lies in A_i.  Generating sets must meet each A_i.
    - ``inner_classes_have_two_letters``: for 3 <= i <= floor(n/2) (no such
      i below n = 6), at least two letters of A(n) lie in A_i.
    - ``inner_class_size_sixteen``: |A_i| == 16 for the same i range, by
      direct enumeration.
    - ``enough_letters_outside_automorphisms``: B(n) carries at least
      ceil(n/2) - 1 letters that are not partial automorphisms, matching
      the count forced on IEnd generating sets.
    """
    if n < 3:
        raise ValueError(f"witness checks are defined for n >= 3, got n={n}")
    paut_letters = alphabet_elements("paut", n)
    iend_letters = alphabet_elements("iend", n)
    half = (n + 1) // 2
    checks: dict[str, bool] = {}
    checks["reversal_in_alphabet"] = make_generator(tau(), n) in paut_letters

    meets_every_class = True
    for i in range(1, half + 1):
        members = set(point_deleted_class(n, i))
        if not any(a in members for a in paut_letters):
            meets_every_class = False
    checks["alphabet_meets_point_deleted_classes"] = meets_every_class

    two_letters = True
    size_sixteen = True
    for i in range(3, n // 2 + 1):
        members = point_deleted_class(n, i)
        member_set = set(members)
        if sum(1 for a in paut_letters if a in member_set) < 2:
            two_letters = False
        if len(members) != 16:
            size_sixteen = False
    checks["inner_classes_have_two_letters"] = two_letters
    checks["inner_class_size_sixteen"] = size_sixteen

    outside = sum(1 for a in iend_letters if not is_paut(a))
    checks["enough_letters_outside_automorphisms"] = outside >= half - 1
    return checks


@dataclass(frozen=True)
class RankWitness:
    """Outcome of verifying the rank of one family at one n."""

    n: int
    family: str
    formula_value: int
    generating_set_size: int
    generates: bool
    irredundant: bool
    witnesses: tuple[tuple[str, bool], ...]
    exhaustive_lower_bound: int | None = None
    subsets_searched: int | None = None
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        verdicts = [
            self.generating_set_size == self.formula_value,
            self.generates,
            self.irredundant,
            *(passed for _, passed in self.witnesses),
        ]
        if self.exhaustive_lower_bound is not None:
            verdicts.append(self.exhaustive_lower_bound == self.formula_value)
        return all(verdicts)


def _generation_counterexample(
    letters: list[PartialInjection], target: MonoidSet
) -> str:
    """Why ``letters`` do not generate ``target``: the first member, in text
    order, that their closure misses, or else the first product outside it."""
    reached = set(map(_trusted, _saturate(letters, target.n)))
    missed = min(map(format_element, target.elements - reached), default=None)
    if missed is not None:
        return f"{missed} is not generated"
    stray = min(map(format_element, reached - target.elements))
    return f"{stray} is generated but lies outside the monoid"


def verify_rank(family: str, n: int, *, exhaustive: bool = False) -> RankWitness:
    """Check the rank value of the family at n against the shipped alphabet.

    Always verified: the alphabet's size equals the closed-form rank, it
    generates the enumerated monoid, no single letter can be dropped, and
    the lower-bound witness checks hold.  With ``exhaustive`` the subset
    search additionally establishes the rank as an exact lower bound,
    walking k downward until no k-subset generates; it refuses a k whose
    scope is above ``DEFAULT_SUBSET_SEARCH_BUDGET``.

    When the alphabet does not generate, or a letter can be dropped, the
    witness's ``counterexample`` names the first member missing from the
    closure (in text order) or the first redundant letter.
    """
    if n < 3:
        raise ValueError(f"rank verification needs the alphabets (n >= 3), got n={n}")
    letters = alphabet_elements(family, n)
    formula = rank_formula(family, n)
    target = paut_monoid(n) if family == "paut" else iend_monoid(n)
    generates = is_generating(letters, target)
    redundant = _first_redundant(letters, target) if generates else None
    counterexample = None
    if not generates:
        counterexample = _generation_counterexample(letters, target)
    elif redundant is not None:
        counterexample = (
            f"letter {redundant + 1} of {len(letters)}, "
            f"{format_element(letters[redundant])}, is redundant"
        )
    witnesses = tuple(lower_bound_witnesses(n).items())
    lower_bound: int | None = None
    searched: int | None = None
    if exhaustive:
        searched = 0
        k = formula - 1
        while k >= 1:
            searched += subset_search_scope(target, k)
            if exhaustive_min_size(target, k):
                break
            k -= 1
        lower_bound = k + 1
    return RankWitness(
        n=n,
        family=family,
        formula_value=formula,
        generating_set_size=len(letters),
        generates=generates,
        irredundant=generates and redundant is None,
        witnesses=witnesses,
        exhaustive_lower_bound=lower_bound,
        subsets_searched=searched,
        counterexample=counterexample,
    )
