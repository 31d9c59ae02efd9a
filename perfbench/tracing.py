"""Spans around the benchmark's calls into the library, and per-layer sums.

The benchmark calls the library only through ``ctx.call(name, fn, ...)``,
where ``name`` is ``"<module>.<function>"`` (optionally ``:<tag>``) and the
module is the layer.  ``Untraced`` makes that a plain call; ``Tracer``
records one span per call, nested under a ``bench.request`` span per
request, and keeps them in memory until the run writes them out.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("path_core", "census", "greens", "genwords", "factorize", "rankcheck", "cli")


class Untraced:
    """The context of an untraced pass: calls go straight through."""

    def call(self, name, fn, *args, expect=(), **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, k=1):
        pass

    def request(self, rid, body, *args):
        return body(self, *args)


class Tracer(Untraced):
    """Records ``(name, start, end, parent, request, status, paused)`` per
    call.

    ``status`` is ``"ok"``, ``"rejected"`` for an exception listed in the
    call's ``expect``, or ``"error"`` for any other exception.  ``paused``
    is how far the ``paused()`` clock (time the benchmark spent on itself
    inside the span, such as speed samples) advanced during the call.
    """

    def __init__(self, paused=lambda: 0.0):
        self.spans: list[tuple] = []
        self._paused = paused
        self.counts: Counter = Counter()
        self._parent: int | None = None
        self._rid: int | None = None

    def call(self, name, fn, *args, expect=(), **kwargs):
        parent = self._parent
        index = len(self.spans)
        self.spans.append(None)
        self._parent = index
        status = "ok"
        paused = self._paused()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            status = "rejected" if isinstance(exc, expect) else "error"
            raise
        finally:
            end = perf_counter()
            paused = self._paused() - paused
            self.spans[index] = (name, start, end, parent, self._rid, status, paused)
            self._parent = parent

    def count(self, name, k=1):
        self.counts[name] += k

    def request(self, rid, body, *args):
        self._rid = rid
        return self.call("bench.request", body, self, *args)

    def layer_totals(self) -> dict[str, float]:
        """Per-layer calls, failures and self time, plus per-name durations.

        A span's duration excludes its paused time, and its self time is
        its duration minus the durations of its children; ``bench`` is the
        benchmark's own glue between calls.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _, _, paused in self.spans:
            if parent is not None:
                child_time[parent] += end - start - paused
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _, status, paused) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.failed"] += status == "error"
            out[f"{layer}.self_s"] += end - start - paused - child_time[index]
            out[f"span:{name}"] += end - start - paused
        return out

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "request", "status", "paused")
        return [dict(zip(keys, span)) for span in self.spans]
