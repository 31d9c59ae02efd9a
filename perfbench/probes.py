"""Per-call probes of ``path_core`` and the largest-n-within-budget rows.

The probes time batches of one primitive over elements taken from the
workload's own inputs and outputs, and report the median cost per call.
They run outside the traced passes, because a span per microsecond call
would cost more than the call.
"""
from __future__ import annotations

import math
import random
import statistics
from collections import defaultdict
from time import perf_counter

PROBE_CALLS = 2000
PROBE_ROUNDS = 5


def _per_call_us(fn, arg_tuples, paused) -> float:
    times = []
    for _ in range(PROBE_ROUNDS):
        start, before = perf_counter(), paused()
        for args in arg_tuples:
            fn(*args)
        times.append((perf_counter() - start - (paused() - before)) / len(arg_tuples))
    return statistics.median(times) * 1e6


def path_core_probes(pm, pool: list, seed: int, paused) -> dict[str, float]:
    """Median microseconds per call of five primitives on ``pool``, leaving
    out the time the ``paused()`` clock advances."""
    rng = random.Random(seed)
    sample = rng.choices(pool, k=PROBE_CALLS)
    by_n = defaultdict(list)
    for a in pool:
        by_n[a.n].append(a)
    pairs = [(a, rng.choice(by_n[a.n])) for a in sample]
    singles = [(a,) for a in sample]
    texts = [(pm.format_element(a),) for a in sample]
    return {
        "path_core.compose_us": _per_call_us(pm.compose, pairs, paused),
        "path_core.construct_us": _per_call_us(pm.PartialInjection, [(a.n, a.pairs) for a in sample], paused),
        "path_core.is_iend_us": _per_call_us(pm.is_iend, singles, paused),
        "path_core.is_paut_us": _per_call_us(pm.is_paut, singles, paused),
        "path_core.parse_us": _per_call_us(pm.parse_element, texts, paused),
    }


def _within(op, n: int, budget: float) -> tuple[bool, float]:
    start = perf_counter()
    ok = op(n)
    elapsed = perf_counter() - start
    return ok and elapsed <= budget, elapsed


def largest_n_within(op, budget: float, start: int, cap: int) -> int:
    """Largest n in [start, cap] for which ``op(n)`` returns True within
    ``budget`` seconds, assuming cost grows with n; ``start - 1`` if none.

    The walk upward sizes each step from the growth seen on the previous
    one, so that the predicted time of the next call stays within the
    budget (an exponential cost is walked one n at a time, a polynomial one
    in doubling steps), then bisects the last step.
    """
    ok, last = _within(op, start, budget)
    if not ok:
        return start - 1
    good, bad, step = start, None, 1
    while good < cap:
        n = min(cap, good + step)
        ok, elapsed = _within(op, n, budget)
        if not ok:
            bad = n
            break
        per_n = (max(elapsed, 1e-4) / max(last, 1e-4)) ** (1 / (n - good))
        good, last = n, elapsed
        step = min(2 * step, good)
        if per_n > 1:
            step = max(1, min(step, int(math.log(budget / max(elapsed, 1e-4)) / math.log(per_n))))
    if bad is None:
        return good
    while bad - good > 1:
        mid = (good + bad) // 2
        if _within(op, mid, budget)[0]:
            good = mid
        else:
            bad = mid
    return good


COUNT_BUDGET_S = 0.5
FACTOR_BUDGET_S = 0.25


def count_max_n(pm) -> int:
    """Largest n where ``count_paut(n)`` and ``count_iend(n)`` together
    finish within ``COUNT_BUDGET_S``."""
    return largest_n_within(lambda n: pm.count_paut(n) > 0 and pm.count_iend(n) > 0,
                            COUNT_BUDGET_S, 1, 256)


def factor_max_n(pm) -> int:
    """Largest n where the empty map and the full reversal both round-trip
    (factor, expand, evaluate, compare) within ``FACTOR_BUDGET_S``."""

    def round_trips(n: int) -> bool:
        for text in (f"n={n};", f"n={n};" + ",".join(f"{x}>{n + 1 - x}" for x in range(1, n + 1))):
            a = pm.parse_element(text)
            if pm.eval_word(pm.expand_word(pm.factor_paut(a))) != a:
                return False
        return True

    return largest_n_within(round_trips, FACTOR_BUDGET_S, 3, 4096)
