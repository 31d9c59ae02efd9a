"""Dual-route checks, shared by ``pathmonoid selftest`` and the test suite.

Each check compares two independent routes to one result at one n (and
family): None when they agree, else a text naming the first counterexample.
"""
from __future__ import annotations

from functools import partial
from typing import Iterator

from .census import _FAMILIES, _count, _enumerate_family, _family, _members, count_by_mask
from .factorize import factor_iend, word_length_bound
from .genwords import (
    Symbol,
    Word,
    alphabet_iend,
    alphabet_paut,
    eval_word,
    expand_symbol,
    expand_word,
    format_symbol,
    format_word,
    legal_symbols,
    make_generator,
)
from .greens import classify, oracle_classifications
from .path_core import PartialInjection, _text_key, format_element


def check_counts(n: int) -> str | None:
    """Three routes to each family's size at n: the closed form, the sum of
    the per-mask table (both by the placement rule), and the length of the
    enumeration, which walks the members by the paper's adjacency rule."""
    table = count_by_mask(n)
    for column, family in enumerate(_FAMILIES, 1):
        routes = {
            "the closed form": _count(n, family),
            "the mask sum": sum(row[column] for row in table),
            "the enumeration": len(_members(n, family, False)),
        }
        values = list(routes.values())
        if len(set(values)) > 1:
            # The route outvoted by the other two, else the closed form.
            odd = min(routes, key=lambda route: values.count(routes[route]))
            others = ", ".join(f"{r} {v}" for r, v in routes.items() if r != odd)
            return f"{family} n={n}: {odd} gives {routes[odd]}, against {others}"
    return None


def _word_fault(word: Word, alphabet: frozenset[Symbol], target: PartialInjection) -> str | None:
    """What is wrong with a word meant to spell ``target`` over ``alphabet``."""
    if stray := set(word.letters) - alphabet:
        return f"uses {' '.join(map(format_symbol, sorted(stray)))}, outside the alphabet"
    if (value := eval_word(word)) != target:
        return f"evaluates to {format_element(value)}"
    return None


def check_round_trip(family: str, n: int) -> str | None:
    """Every element of the family at n (n >= 3) factors into at most
    ``word_length_bound(n)`` = 3n+1 letters, whose expansion over the
    family's alphabet evaluates back."""
    alphabet = frozenset(_family(family).alphabet(n))
    bound = word_length_bound(n)
    for a in _enumerate_family(n, family):
        word = factor_iend(a)
        if len(word) > bound:
            fault = f"has {len(word)} letters, above the bound of {bound}"
        elif fault := _word_fault(expand_word(word), alphabet, a):
            fault = f"expands to a word that {fault}"
        else:
            continue
        return f"{family} element {format_element(a)}: word '{format_word(word)}' {fault}"
    return None


def check_expansions(n: int) -> str | None:
    """Every legal symbol at n (n >= 3) expands into B(n), into A(n) unless
    it is some b(i), and the expansion evaluates to the generator."""
    automorphism_base, base = frozenset(alphabet_paut(n)), frozenset(alphabet_iend(n))
    for symbol in legal_symbols(n):
        word = expand_symbol(symbol, n)
        alphabet = base if symbol.kind == "b" else automorphism_base
        if fault := _word_fault(word, alphabet, make_generator(symbol, n)):
            return f"n={n} symbol {format_symbol(symbol)}: expansion '{format_word(word)}' {fault}"
    return None


def check_greens(family: str, n: int) -> str | None:
    """The key-based ``classify`` against the Cayley-graph oracle, which
    reads the principal ideals off the Cayley graphs, on the family at n,
    for L, R, H and J."""
    elements = _enumerate_family(n, family)
    for relation, expected in oracle_classifications(elements).items():
        keyed = classify(elements, relation)
        if keyed.as_sets() != expected.as_sets():
            by_key, by_oracle = (
                {a: frozenset(c) for c in p.classes for a in c} for p in (keyed, expected)
            )
            a = next(a for a in elements if by_key.get(a) != by_oracle[a])
            b = min(by_key.get(a, frozenset()) ^ by_oracle[a], key=_text_key)
            route = "the key" if b in by_key.get(a, ()) else "the Cayley-graph oracle"
            return (
                f"{family} n={n} relation {relation}: {format_element(a)} and "
                f"{format_element(b)} share a class only by {route}"
            )
    return None


def run_suites(n: int) -> Iterator[tuple[str, str, str | None]]:
    """Each suite's name, scope and first counterexample (None if it passed)."""
    symbol_hi, greens_hi = min(n, 10), min(n, 6)
    families = tuple(zip(_FAMILIES, (min(n, 6), min(n, 5))))  # round trips: PAut to 6, IEnd to 5
    suites = (
        ("counts-match-enumeration", f"n=1..{n}", [
            partial(check_counts, k) for k in range(1, n + 1)]),
        ("factorization-round-trip", ", ".join(f"{family} n=3..{hi}" for family, hi in families), [
            partial(check_round_trip, family, k)
            for family, hi in families
            for k in range(3, hi + 1)]),
        ("expansion-identities", f"n=3..{symbol_hi}", [
            partial(check_expansions, k) for k in range(3, symbol_hi + 1)]),
        ("greens-oracle", f"n=3..{greens_hi}, both families", [
            partial(check_greens, family, k)
            for k in range(3, greens_hi + 1)
            for family in _FAMILIES]),
    )
    for name, scope, checks in suites:
        if not checks:
            scope = "none (needs n >= 3)"
        yield name, scope, next(filter(None, (check() for check in checks)), None)
