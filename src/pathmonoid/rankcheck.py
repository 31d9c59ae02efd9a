"""Closure from generating sets, irredundancy, and rank verification.

The shipped alphabets of :mod:`pathmonoid.genwords` are minimal generating
sets of PAut(P_n) and IEnd(P_n).  This module provides the machinery for
checking that computationally: breadth-first closure, generation and
irredundancy tests, exhaustive minimality search where the subset count
allows it, the closed-form rank values as reference constants, and the
structural witness checks that back the rank lower bounds at sizes where
exhaustive search is out of reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .census import (
    DEFAULT_N_MAX_ENUMERATE,
    elements_with_domain,
    enumerate_iend,
    enumerate_paut,
)
from .errors import ResourceRefused
from .genwords import alphabet_iend, alphabet_paut, make_generator
from .path_core import (
    PartialInjection,
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

    def is_closed(self) -> bool:
        """Exact closure test; quadratic, intended for small test monoids."""
        elems = self.elements
        return all(compose(a, b) in elems for a in elems for b in elems)


def paut_monoid(n: int, *, n_max: int = DEFAULT_N_MAX_ENUMERATE) -> MonoidSet:
    """All of PAut(P_n) as a MonoidSet.  Refuses n > ``n_max``."""
    return MonoidSet(n, frozenset(enumerate_paut(n, n_max=n_max)))


def iend_monoid(n: int, *, n_max: int = DEFAULT_N_MAX_ENUMERATE) -> MonoidSet:
    """All of IEnd(P_n) as a MonoidSet.  Refuses n > ``n_max``."""
    return MonoidSet(n, frozenset(enumerate_iend(n, n_max=n_max)))


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
) -> set[PartialInjection] | None:
    """Closure of ``gens`` and the identity under right multiplication, or
    ``None`` as soon as a fresh product leaves ``within``.  Refuses once
    more than ``max_size`` elements are found."""
    seen: set[PartialInjection] = {identity(n), *gens}
    frontier = list(seen)
    while frontier:
        fresh: list[PartialInjection] = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    if within is not None and y not in within:
                        return None
                    seen.add(y)
                    fresh.append(y)
            if max_size is not None and len(seen) > max_size:
                raise ResourceRefused(
                    f"closure exceeded the configured bound of {max_size} elements"
                )
        frontier = fresh
    return seen


def closure(
    gens: Iterable[PartialInjection], n: int, *, max_size: int | None = None
) -> MonoidSet:
    """Least submonoid of I_n containing ``gens`` and the identity.

    Breadth-first saturation: new elements are right-multiplied by every
    generator until nothing fresh appears.  If the closure grows beyond
    ``max_size`` the computation is refused rather than left to run on.
    """
    gen_list: list[PartialInjection] = []
    for g in gens:
        if g.n != n:
            raise ValueError(f"generator on n={g.n} does not match n={n}")
        gen_list.append(g)
    return MonoidSet(n, frozenset(_saturate(gen_list, n, max_size=max_size)))


def is_generating(gens: Iterable[PartialInjection], target: MonoidSet) -> bool:
    """Whether ``gens`` generates exactly ``target``.

    Saturates inside ``target``, exiting as soon as a product escapes it,
    so failing candidates are rejected without computing their full closure.
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


def is_irredundant(gens: Iterable[PartialInjection], target: MonoidSet) -> bool:
    """Whether ``gens`` generates ``target`` and no proper subset does."""
    gen_list = list(gens)
    if not is_generating(gen_list, target):
        return False
    for k in range(len(gen_list)):
        rest = gen_list[:k] + gen_list[k + 1 :]
        if is_generating(rest, target):
            return False
    return True


def full_reversal(n: int) -> PartialInjection:
    """The order-reversing automorphism x -> n+1-x."""
    return PartialInjection(n, [(x, n + 1 - x) for x in range(1, n + 1)])


def _forced_generators(target: MonoidSet) -> list[PartialInjection]:
    """Elements that every generating set of ``target`` must contain.

    When the identity and the full reversal are the only full-domain members,
    the reversal is forced: a product with any proper partial factor is
    itself proper, and full-domain products of the remaining elements only
    ever yield the identity.
    """
    n = target.n
    ident = identity(n)
    rev = full_reversal(n)
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

    Refuses when C(|target|, k) exceeds ``budget``.  Candidates omitting a
    forced generator (see ``_forced_generators``) are skipped, which cuts
    the search by a factor of roughly |target|/k without losing soundness.
    """
    if k < 0:
        raise ValueError(f"subset size must be nonnegative, got {k}")
    size = len(target)
    if comb(size, k) > budget:
        raise ResourceRefused(
            f"searching C({size},{k}) candidate subsets exceeds the budget "
            f"of {budget}"
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
    checks["reversal_in_alphabet"] = full_reversal(n) in paut_letters

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


def verify_rank(
    family: str,
    n: int,
    *,
    exhaustive: bool = False,
    n_max_enumerate: int = DEFAULT_N_MAX_ENUMERATE,
    subset_search_budget: int = DEFAULT_SUBSET_SEARCH_BUDGET,
) -> RankWitness:
    """Check the rank value of the family at n against the shipped alphabet.

    Always verified: the alphabet's size equals the closed-form rank, it
    generates the enumerated monoid, no single letter can be dropped, and
    the lower-bound witness checks hold.  With ``exhaustive`` the subset
    search additionally establishes the rank as an exact lower bound,
    walking k downward until no k-subset generates.
    """
    if n < 3:
        raise ValueError(f"rank verification needs the alphabets (n >= 3), got n={n}")
    letters = alphabet_elements(family, n)
    formula = rank_formula(family, n)
    if family == "paut":
        target = paut_monoid(n, n_max=n_max_enumerate)
    else:
        target = iend_monoid(n, n_max=n_max_enumerate)
    generates = is_generating(letters, target)
    irredundant = generates and is_irredundant(letters, target)
    witnesses = tuple(lower_bound_witnesses(n).items())
    lower_bound: int | None = None
    searched: int | None = None
    if exhaustive:
        searched = 0
        k = formula - 1
        while k >= 1:
            searched += subset_search_scope(target, k)
            if exhaustive_min_size(target, k, budget=subset_search_budget):
                break
            k -= 1
        lower_bound = k + 1
    return RankWitness(
        n=n,
        family=family,
        formula_value=formula,
        generating_set_size=len(letters),
        generates=generates,
        irredundant=irredundant,
        witnesses=witnesses,
        exhaustive_lower_bound=lower_bound,
        subsets_searched=searched,
    )
