#!/usr/bin/env python3
"""Run one workload of the pathmonoid benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: census_count, element_queries, greens_batch, rank_batch (see
``workloads.py``).  One single-threaded process, one client, closed loop.

The workload's fixed request list (one pass) is repeated until ``--seconds``
have passed; every pass starts with the package's function caches empty,
as in a fresh interpreter.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, writing the spans to ``perfbench/out/``.  ``--tiny``
shrinks every workload for the smoke check.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from probes import count_max_n, factor_max_n, path_core_probes  # noqa: E402
from speed import REFERENCE_S, Speedometer  # noqa: E402
from tracing import LAYERS, Tracer, Untraced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer time metrics: sums of span durations with these names.
SPAN_SUMS = {
    "census.count_s": ("census.count_paut", "census.count_iend", "census.count_by_mask"),
    "census.enumerate_s": ("census.enumerate_paut", "census.enumerate_iend"),
    "greens.classify_L_s": ("greens.classify:L",),
    "greens.classify_R_s": ("greens.classify:R",),
    "greens.classify_H_s": ("greens.classify:H",),
    "greens.classify_J_s": ("greens.classify:J",),
    "greens.oracle_s": ("greens.oracle_classifications",),
    "genwords.expand_s": ("genwords.expand_word",),
    "genwords.eval_s": ("genwords.eval_word",),
    "factorize.factor_s": ("factorize.factor_paut", "factorize.factor_iend"),
    "rankcheck.closure_s": ("rankcheck.closure",),
    "rankcheck.is_generating_s": ("rankcheck.is_generating",),
    "rankcheck.irredundant_s": ("rankcheck.is_irredundant",),
    "rankcheck.witnesses_s": ("rankcheck.lower_bound_witnesses",),
    "rankcheck.exhaustive_s": ("rankcheck.exhaustive_min_size",),
}
COUNTERS = (
    "census.elements_built",
    "greens.classes_found",
    "genwords.base_letters",
    "factorize.derived_letters",
    "factorize.rejected",
    "rankcheck.closure_size",
    "rankcheck.subsets_searched",
    "cli.bytes_out",
)
PER_LAYER = {
    **{f"path_core.{p}_us": "us" for p in ("compose", "construct", "is_iend", "is_paut", "parse")},
    **{name: "s" for name in SPAN_SUMS},
    **{name: "count" for name in COUNTERS},
    "census.elements_per_s": "1/s",
    "census.count_max_n": "n",
    "factorize.base_per_derived": "ratio",
    "factorize.factor_max_n": "n",
    **{f"{layer}.{what}": unit for layer in LAYERS
       for what, unit in (("calls", "count"), ("failed", "count"), ("self_s", "s"))},
    "bench.self_s": "s",
    "layers_self_s": "s",
    "untraced_wall_s": "s",
    "trace_overhead_frac": "ratio",
    "failed_frac": "ratio",
}


class Failed:
    """Output of a request that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"{type(self.exc).__name__}: {self.exc}"


def set_up(args, speed: Speedometer):
    """Import ``pathmonoid`` from this checkout's ``src`` and build the
    workload's inputs, ``SETUP_REPEATS`` times, each time with every
    ``pathmonoid`` module dropped first so that all module code runs again.

    Each repetition is scaled by the reference samples taken just before
    and just after it, which follow the machine's speed more closely than
    the timer's samples can over so short a time.  Returns the package,
    the last workload, the median scaled time and the median raw time.
    """
    if not (SRC / "pathmonoid" / "__init__.py").is_file():
        raise SystemExit(f"error: no pathmonoid package under {SRC}")
    sys.path.insert(0, str(SRC))
    scaled, raw = [], []
    before = speed.sample()
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "pathmonoid" or m.startswith("pathmonoid.")]:
            del sys.modules[name]
        start, paused = perf_counter(), speed.spent
        pm = importlib.import_module("pathmonoid")
        importlib.import_module("pathmonoid.cli")
        workload = WORKLOADS[args.workload](pm, args.seed, args.tiny)
        workload.setup()
        raw.append(perf_counter() - start - (speed.spent - paused))
        after = speed.sample()
        scaled.append(raw[-1] * REFERENCE_S / ((before + after) / 2))
        before = after
    if not Path(pm.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported pathmonoid from {pm.__file__}, not {SRC}")
    return pm, workload, statistics.median(scaled), statistics.median(raw)


def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has."""
    for name, module in list(sys.modules.items()):
        if name == "pathmonoid" or name.startswith("pathmonoid."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@dataclass
class Pass:
    raw_wall: float
    factor: float
    latencies: list[float]
    failed: list[str]
    done: dict | None
    ctx: Untraced

    @property
    def wall(self) -> float:
        return self.raw_wall * self.factor


def run_pass(workload, ctx, speed: Speedometer) -> Pass:
    """Issue every request once, then check every output.

    Time spent on speed samples is left out of every interval, and each
    request's latency is scaled by the speed sampled while it ran; the
    pass's wall time is the sum of its requests' latencies.
    """
    clear_caches()
    gc.collect()
    done: dict = {}
    intervals = []
    start, spent = perf_counter(), speed.spent
    for rid, req in enumerate(workload.requests):
        t, paused = perf_counter(), speed.spent
        try:
            done[req.key] = ctx.request(rid, req.body, done)
        except Exception as exc:  # a failed request is counted, not fatal
            done[req.key] = Failed(exc)
        intervals.append((t, perf_counter(), speed.spent - paused))
    raw_wall = perf_counter() - start - (speed.spent - spent)
    latencies = [(end - t - paused) * speed.factor(t, end) for t, end, paused in intervals]
    failed = []
    for req in workload.requests:
        out = done[req.key]
        try:
            ok = not isinstance(out, Failed) and req.check(out, done)
        except Exception as exc:  # a check that cannot run is a wrong output
            ok, done[req.key] = False, Failed(exc)
        if not ok:
            failed.append(req.key)
    return Pass(raw_wall, sum(latencies) / raw_wall, latencies, failed, done, ctx)


def percentile(sorted_values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with Beta((n+1)q, (n+1)(1-q)) weights.  It moves
    smoothly where a few dozen samples from a few kinds of request leave
    gaps that a single order statistic would jump across."""
    n = len(sorted_values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # Simpson's rule on each order statistic's interval [(i-1)/n, i/n].
    weights = [
        (density(i / n) + 4 * density((i + 0.5) / n) + density((i + 1) / n)) / (6 * n)
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, times at the reference speed."""
    tracer = p.ctx
    totals = tracer.layer_totals()
    out = {f"{layer}.{what}": totals.get(f"{layer}.{what}", 0)
           for layer in (*LAYERS, "bench") for what in ("calls", "failed", "self_s")}
    del out["bench.calls"], out["bench.failed"]
    for metric, names in SPAN_SUMS.items():
        out[metric] = sum(totals.get(f"span:{name}", 0.0) for name in names)
    for name in out:
        if name.endswith("_s"):
            out[name] *= p.factor
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0)
    enum_s = out["census.enumerate_s"]
    out["census.elements_per_s"] = out["census.elements_built"] / enum_s if enum_s else 0.0
    derived = out["factorize.derived_letters"]
    out["factorize.base_per_derived"] = out["genwords.base_letters"] / derived if derived else 0.0
    return out


def cli_library_share(workload, speed: Speedometer) -> dict[str, float]:
    """Self time per layer of the direct library calls that answer the
    workload's CLI requests, measured once under a separate tracer."""
    tracer = Tracer(lambda: speed.spent)
    since = perf_counter()
    for calls in workload.cli_direct.values():
        for name, fn, *args in calls:
            tracer.call(name, fn, *args)
    factor = speed.factor(since)
    totals = tracer.layer_totals()
    return {layer: totals.get(f"{layer}.self_s", 0.0) * factor for layer in LAYERS}


def measure(workload, seconds: float, trace: bool, speed: Speedometer):
    """Repeat the pass until ``seconds`` have passed.  Traced runs alternate
    untraced and traced passes, at least one of each."""
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        done = None  # no outputs of an earlier pass stay alive during this one
        use_tracer = trace and len(untraced) > len(traced)
        ctx = Tracer(lambda: speed.spent) if use_tracer else Untraced()
        p = run_pass(workload, ctx, speed)
        (traced if use_tracer else untraced).append(p)
        done, p.done = p.done, None
        if perf_counter() >= deadline and (not trace or traced):
            return untraced, traced, done


def traced_metrics(pm, workload, args, untraced, traced, done, speed) -> dict[str, float]:
    wall_s = statistics.median(p.wall for p in untraced)
    share = cli_library_share(workload, speed)
    per_pass = []
    for p in traced:
        m = layer_metrics(p)
        m["cli.self_s"] -= sum(share.values())
        for layer, seconds in share.items():
            if layer != "cli":
                m[f"{layer}.self_s"] += seconds
        m["layers_self_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        m["trace_overhead_frac"] = p.wall / wall_s - 1
        per_pass.append(m)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["untraced_wall_s"] = wall_s
    since = perf_counter()
    probes = path_core_probes(pm, workload.probe_pool(done), args.seed, lambda: speed.spent)
    factor = speed.factor(since)
    metrics.update({k: v * factor for k, v in probes.items()})
    metrics["census.count_max_n"] = count_max_n(pm)
    metrics["factorize.factor_max_n"] = factor_max_n(pm)
    return metrics


def write_spans(workload, seed: int, traced) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    passes = [{"pass": i, "speed_factor": p.factor, "spans": p.ctx.dump()}
              for i, p in enumerate(traced)]
    path.write_text(json.dumps({"workload": workload.name, "seed": seed, "passes": passes}))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the smoke check")
    args = parser.parse_args(argv)

    for key in [k for k in os.environ if k.startswith("PATHMONOID_")]:
        del os.environ[key]
    with Speedometer() as speed:
        return run_workload(args, speed)


def run_workload(args, speed: Speedometer) -> int:
    pm, workload, setup_s, raw_setup_s = set_up(args, speed)

    untraced, traced, done = measure(workload, args.seconds, bool(args.trace), speed)
    passes = untraced + traced
    attempted = len(workload.requests) * len(passes)
    failures = [key for p in passes for key in p.failed]
    for key in dict.fromkeys(failures):
        out = done.get(key)
        print(f"FAILED {key}: {out if isinstance(out, Failed) else 'wrong output'}", file=sys.stderr)
    lines = [
        f"workload {workload.name}  seed {args.seed}  {len(workload.requests)} requests per pass, "
        f"{len(untraced)} untraced + {len(traced)} traced passes, closed loop, one client",
        "times are at the reference speed (see speed.py); raw pass walls (s) and speed factors: "
        + ", ".join(f"{p.raw_wall:.3f} x {p.factor:.3f}" for p in passes),
        f"failed_frac {len(failures) / attempted:.6f} ratio ({len(failures)} of {attempted})",
    ]
    if args.trace:
        metrics = traced_metrics(pm, workload, args, untraced, traced, done, speed)
        metrics["failed_frac"] = len(failures) / attempted
        units = PER_LAYER
        lines.append(f"spans written to {write_spans(workload, args.seed, traced).relative_to(ROOT)}")
    else:
        # One sample per request: its median latency over the untraced
        # passes, so that a request slowed once by the machine does not
        # become the tail.
        latencies = sorted(statistics.median(ts) for ts in zip(*(p.latencies for p in untraced)))
        above = len(latencies) - math.ceil(0.99 * len(latencies))  # beyond the nearest-rank p99
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall for p in untraced),
            "req_p50_ms": percentile(latencies, 0.50) * 1e3,
            "req_p99_ms": percentile(latencies, 0.99) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        lines.append(
            f"latency samples {len(latencies)} (one per request, median of {len(untraced)} "
            f"passes), {above} above p99; setup_s raw median {raw_setup_s:.4f} s "
            f"of {SETUP_REPEATS} set-ups")
    for name, value in metrics.items():
        lines.append(f"{name:32s} {value:>16.6f} {units[name]}")
    print("\n".join(lines))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
