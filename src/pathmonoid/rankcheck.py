"""Closure from generating sets, irredundancy, and rank verification.

The shipped alphabets of :mod:`pathmonoid.genwords` are minimal generating
sets of PAut(P_n) and IEnd(P_n).  This module provides the machinery for
checking that computationally: closure, generation and irredundancy tests,
exhaustive minimality search where the subset count allows it, the
closed-form rank values as reference constants, and the structural witness
checks that back the rank lower bounds at sizes where exhaustive search is
out of reach.

Closure and the generation tests read the rank layers of ``_saturate``, the
byte kernel's saturation loop (see :mod:`pathmonoid.path_core`), with letters
as translation tables made once per public call by ``_letter_tables``.  A
target's layers are one record, ``MonoidSet._layers``, built once per
monoid.  ``exhaustive_min_size`` prunes by the kernel's layer rule (see
:mod:`pathmonoid.path_core`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Iterator, Sequence

from .census import MAX_ENUMERATE_N, _count, _enumerate_family, _family, elements_with_domain
from .errors import ResourceRefused
from .genwords import make_generator, tau
from . import path_core
from .path_core import (
    PartialInjection,
    _by_rank,
    _check_element,
    _check_n,
    _first_difference,
    _img_bytes,
    _listed,
    _table,
    _text_key,
    _trusted,
    format_element,
    identity,
    is_paut,
)

MAX_SUBSETS = 10_000_000


@dataclass(frozen=True)
class MonoidSet:
    """A set of partial injections on a common n, closed under composition.

    The constructor refuses with ``ValueError`` an n that is not a positive
    int, elements that are not a collection of ``PartialInjection`` on that
    n, and a set without the identity.  Any other collection is stored as a
    frozenset, so every monoid hashes and compares by its members; a
    frozenset is kept as it is.  Closure is guaranteed by the constructors
    used throughout (``closure``, the family helpers below); it is not
    re-verified on every instantiation because that costs |M|^2 products.
    """

    n: int
    elements: frozenset[PartialInjection]

    def __post_init__(self) -> None:
        n = self.n
        _check_n(n)
        members = _listed(self.elements, "elements")
        for a in members:
            # One isinstance per member; ``_check_element`` words the refusal.
            if not isinstance(a, PartialInjection) or a.n != n:
                _check_element(a)
                raise ValueError(f"element on n={a.n} does not match the monoid's n={n}")
        if not isinstance(self.elements, frozenset):
            object.__setattr__(self, "elements", frozenset(members))
        if identity(n) not in self.elements:
            raise ValueError("a monoid must contain the identity")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, a: PartialInjection) -> bool:
        return a in self.elements

    def __iter__(self) -> Iterator[PartialInjection]:
        return iter(self.elements)

    @cached_property
    def _layers(self) -> tuple[frozenset[bytes], ...]:
        """The members' byte images (``path_core._img_bytes``) by rank, once
        per monoid; ``_first_difference`` and ``_forced_generators`` read it."""
        return _by_rank([_img_bytes(a.img) for a in self.elements], self.n)


def paut_monoid(n: int) -> MonoidSet:
    """All of PAut(P_n) as a MonoidSet.  Refuses what ``enumerate_paut`` does."""
    return MonoidSet(n, frozenset(_enumerate_family(n, "paut")))


def iend_monoid(n: int) -> MonoidSet:
    """All of IEnd(P_n) as a MonoidSet.  Refuses what ``enumerate_iend`` does."""
    return MonoidSet(n, frozenset(_enumerate_family(n, "iend")))


def alphabet_elements(family: str, n: int) -> list[PartialInjection]:
    """The shipped alphabet of the family, evaluated to partial injections."""
    return [make_generator(sym, n) for sym in _family(family).alphabet(n)]


def _letter_tables(gens: Iterable[PartialInjection], n: int) -> list[bytes]:
    """The translation tables (``path_core._table``) of ``gens``, one per
    letter in order: where letters enter the byte kernel.  ``ValueError``
    for ``gens`` that are not an iterable of ``PartialInjection`` on n, an n
    that is not a positive int, or a letter on n above 255 (``_img_bytes``)."""
    letters = _listed(gens, "elements")
    _check_n(n)
    tables = []
    for g in letters:
        _check_element(g)
        if g.n != n:
            raise ValueError(f"generator on n={g.n} does not match n={n}")
        tables.append(_table(_img_bytes(g.img)))
    return tables


def closure(gens: Iterable[PartialInjection], n: int) -> MonoidSet:
    """Least submonoid of I_n containing ``gens`` and the identity.

    It has no bound of its own: its size is at most |I_n|, so n fixes the
    cost, and the CLI saturates only at n <= ``census.MAX_ENUMERATE_N``.
    ``ValueError`` for n above 255, which the byte kernel refuses, and for
    ``gens`` that are not an iterable of ``PartialInjection``.
    """
    tables = _letter_tables(gens, n)
    _img_bytes(range(n + 1))  # the byte kernel's n <= 255 rule, with no letters too
    layers = path_core._saturate(tables, n)
    return MonoidSet(n, frozenset(_trusted(tuple(y)) for _, layer in layers for y in layer))


def is_generating(gens: Iterable[PartialInjection], target: MonoidSet) -> bool:
    """Whether ``gens`` generates exactly ``target``.

    Compares the closure with ``target`` layer by layer, from rank n down,
    and stops at the first finished layer that differs from the target's.
    ``ValueError`` if ``target`` is not a ``MonoidSet`` or ``gens`` is not
    iterable.
    """
    _check_target(target)
    return _first_difference(_letter_tables(gens, target.n), target._layers) is None


def _check_target(target: object) -> None:
    if not isinstance(target, MonoidSet):
        raise ValueError(f"the target must be a MonoidSet, got {type(target).__name__}")


def _first_redundant(tables: list[bytes], layers: Sequence[frozenset[bytes]]) -> int | None:
    """Index of the first of ``tables`` whose removal leaves a generating set."""
    for k in range(len(tables)):
        if _first_difference(tables[:k] + tables[k + 1 :], layers) is None:
            return k
    return None


def is_irredundant(gens: Iterable[PartialInjection], target: MonoidSet) -> bool:
    """Whether ``gens`` generates ``target`` and no proper subset does."""
    _check_target(target)
    tables, layers = _letter_tables(gens, target.n), target._layers
    return _first_difference(tables, layers) is None and _first_redundant(tables, layers) is None


def _forced_generators(target: MonoidSet) -> list[PartialInjection]:
    """Elements that every generating set of ``target`` must contain.

    When rank n has two members, the identity and the full reversal, the
    reversal is forced: a product with a proper partial factor is proper,
    and the other full-domain products give only the identity.  PAut(P_n)
    and IEnd(P_n), n >= 2, are such (the path has two automorphisms).
    """
    rev = make_generator(tau(), target.n)
    return [rev] if len(target._layers[target.n]) == 2 and rev in target else []


def _scope(size: int, forced: int, k: int) -> int:
    """How many k-subsets of ``size`` members hold the ``forced`` ones."""
    return comb(size - forced, k - forced) if k >= forced else 0


def subset_search_scope(target: MonoidSet, k: int) -> int:
    """How many k-subsets hold the forced generators: the candidates that
    ``exhaustive_min_size`` budgets for, refusing what it refuses."""
    _check_target(target)
    if type(k) is not int or not 0 <= k <= len(target):  # bool is a subclass of int
        raise ValueError(f"subset size must be an integer between 0 and {len(target)}, got {k!r}")
    return _scope(len(target), len(_forced_generators(target)), k)


def _refuse_scope(scope: int, k: int) -> None:
    if scope > MAX_SUBSETS:
        raise ResourceRefused(
            f"searching {scope} candidate {k}-subsets exceeds the budget of {MAX_SUBSETS}"
        )


def exhaustive_min_size(target: MonoidSet, k: int) -> bool:
    """True iff no k-subset of ``target`` generates it, i.e. rank > k.

    One depth-first search over the sets of at most k members other than
    the identity, which lies in every closure, taken in order of falling
    rank (``target.elements`` order within a rank).  Each
    set is saturated once; when its closure first differs from the target
    in layer r, it is extended only by later members of rank >= r (the
    layer rule of :mod:`pathmonoid.path_core`), and dropped when none is
    left or no letter is left to spend.  Refuses when
    ``subset_search_scope(target, k)`` exceeds the fixed ``MAX_SUBSETS``.
    ``ValueError`` if ``target`` is not a ``MonoidSet``.
    """
    _refuse_scope(subset_search_scope(target, k), k)
    ident = identity(target.n)
    # Stable: falling rank, ``target.elements`` order within a rank.
    members = sorted((a for a in target.elements if a != ident), key=len, reverse=True)
    tables = _letter_tables(members, target.n)
    chosen: list[int] = []  # the set under test, as increasing indices into ``members``
    floors: list[int] = []  # per prefix of ``chosen``, the rank of its first differing layer
    i = 0  # the next member that may extend ``chosen``
    while True:
        differs = _first_difference([tables[j] for j in chosen], target._layers)
        if differs is None:
            return False
        floors.append(differs[0])
        while len(chosen) == k or i == len(members) or len(members[i]) < floors[-1]:
            if not chosen:
                return True
            floors.pop()
            i = chosen.pop() + 1
        chosen.append(i)
        i += 1


def rank_formula(family: str, n: int) -> int:
    """Least size of a generating set, in closed form.

    paut: 2, 2, 3 for n = 1, 2, 3 and n-1 for n >= 4.
    iend: 2, 2, 4 for n = 1, 2, 3 and n + ceil(n/2) - 2 for n >= 4.
    """
    _check_n(n)
    return _family(family).rank(n)


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
    if type(n) is not int or n < 3:  # bool is a subclass of int
        raise ValueError(f"witness checks are defined for n >= 3, got n={n!r}")
    paut_letters = alphabet_elements("paut", n)
    iend_letters = alphabet_elements("iend", n)
    half = (n + 1) // 2
    classes = {i: set(point_deleted_class(n, i)) for i in range(1, half + 1)}
    letters_in = {i: sum(a in members for a in paut_letters) for i, members in classes.items()}
    inner = range(3, n // 2 + 1)
    return {
        "reversal_in_alphabet": make_generator(tau(), n) in paut_letters,
        "alphabet_meets_point_deleted_classes": all(letters_in.values()),
        "inner_classes_have_two_letters": all(letters_in[i] >= 2 for i in inner),
        "inner_class_size_sixteen": all(len(classes[i]) == 16 for i in inner),
        "enough_letters_outside_automorphisms": sum(not is_paut(a) for a in iend_letters) >= half - 1,
    }


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
    exhaustive_lower_bound: int | None
    subsets_searched: int | None
    counterexample: str | None

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
    reached = closure(letters, target.n).elements
    missed = min(target.elements - reached, key=_text_key, default=None)
    if missed is not None:
        return f"{format_element(missed)} is not generated"
    stray = min(reached - target.elements, key=_text_key)
    return f"{format_element(stray)} is generated but lies outside the monoid"


def verify_rank(family: str, n: int, *, exhaustive: bool = False) -> RankWitness:
    """Check the rank value of the family at n against the shipped alphabet.

    Always verified: the alphabet's size equals the closed-form rank, it
    generates the enumerated monoid, no single letter can be dropped, and
    the lower-bound witness checks hold.  With ``exhaustive`` a subset
    search walks k downward until no k-subset generates, an exact lower
    bound.  An n past the enumeration bound, or a first (largest) search
    whose scope is above ``MAX_SUBSETS``, is refused before the monoid is
    enumerated: the scope follows from the closed-form count, as the
    reversal is forced (``_forced_generators``).

    When the alphabet does not generate, or a letter can be dropped, the
    witness's ``counterexample`` names the first member missing from the
    closure (in text order) or the first redundant letter.
    """
    if type(n) is not int or n < 3:  # bool is a subclass of int
        raise ValueError(f"rank verification needs the alphabets (n >= 3), got n={n!r}")
    if type(exhaustive) is not bool:
        raise ValueError(f"exhaustive must be True or False, got {exhaustive!r}")
    formula = rank_formula(family, n)
    if exhaustive and n <= MAX_ENUMERATE_N:
        _refuse_scope(_scope(_count(n, family), 1, formula - 1), formula - 1)
    target = MonoidSet(n, frozenset(_enumerate_family(n, family)))
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
    letters = alphabet_elements(family, n)
    tables, layers = _letter_tables(letters, n), target._layers
    generates = _first_difference(tables, layers) is None
    redundant = _first_redundant(tables, layers) if generates else None
    counterexample = None
    if not generates:
        counterexample = _generation_counterexample(letters, target)
    elif redundant is not None:
        counterexample = (
            f"letter {redundant + 1} of {len(letters)}, "
            f"{format_element(letters[redundant])}, is redundant"
        )
    witnesses = tuple(lower_bound_witnesses(n).items())
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
