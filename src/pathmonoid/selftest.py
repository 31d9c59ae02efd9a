"""Dual-route checks, shared by ``pathmonoid selftest`` and the test suite.

Each check compares two independent routes to one result at one n (and
family): None when they agree, else a text naming the first counterexample.
"""
from __future__ import annotations

from functools import partial
from typing import Iterator

from .census import _enumerate_family, count_by_mask, count_iend, count_paut
from .factorize import factor_iend, factor_paut, word_length_bound
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
    for family, count, column in (("paut", count_paut, 1), ("iend", count_iend, 2)):
        routes = {
            "the closed form": count(n),
            "the mask sum": sum(row[column] for row in table),
            "the enumeration": len(_enumerate_family(n, family)),
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
    factor = factor_paut if family == "paut" else factor_iend
    alphabet = frozenset(alphabet_paut(n) if family == "paut" else alphabet_iend(n))
    bound = word_length_bound(n)
    for a in _enumerate_family(n, family):
        word = factor(a)
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
    """The key-based ``classify`` against the ideal oracle on the family at
    n, for L, R, H and J."""
    elements = _enumerate_family(n, family)
    for relation, expected in oracle_classifications(elements).items():
        keyed = classify(elements, relation)
        if keyed.as_sets() != expected.as_sets():
            by_key, by_oracle = (
                {a: frozenset(c) for c in p.classes for a in c} for p in (keyed, expected)
            )
            a = next(a for a in elements if by_key.get(a) != by_oracle[a])
            b = min(by_key.get(a, frozenset()) ^ by_oracle[a], key=_text_key)
            route = "the key" if b in by_key.get(a, ()) else "the ideal oracle"
            return (
                f"{family} n={n} relation {relation}: {format_element(a)} and "
                f"{format_element(b)} share a class only by {route}"
            )
    return None


def run_suites(n: int) -> Iterator[tuple[str, str, str | None]]:
    """Each suite's name, scope and first counterexample (None if it passed)."""
    paut_hi, iend_hi, symbol_hi = min(n, 6), min(n, 5), min(n, 10)
    families = (("paut", paut_hi), ("iend", iend_hi))
    greens_scope = f"n=3..{iend_hi}, both families"
    if paut_hi > iend_hi:  # IEnd(P_6)'s oracle alone takes about 1 s (2-core VM)
        greens_scope += f"; paut n={paut_hi}"
    suites = (
        ("counts-match-enumeration", f"n=1..{n}", [
            partial(check_counts, k) for k in range(1, n + 1)]),
        ("factorization-round-trip", f"paut n=3..{paut_hi}, iend n=3..{iend_hi}", [
            partial(check_round_trip, family, k)
            for family, hi in families
            for k in range(3, hi + 1)]),
        ("expansion-identities", f"n=3..{symbol_hi}", [
            partial(check_expansions, k) for k in range(3, symbol_hi + 1)]),
        ("greens-oracle", greens_scope, [
            partial(check_greens, family, k)
            for k in range(3, paut_hi + 1)
            for family, hi in families
            if k <= hi]),
    )
    for name, scope, checks in suites:
        if not checks:
            scope = "none (needs n >= 3)"
        yield name, scope, next(filter(None, (check() for check in checks)), None)
