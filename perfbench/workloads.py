"""The four workloads: seeded inputs, request lists and output checks.

Each workload is a fixed list of requests, issued one after another by a
single client (a closed loop).  A request's ``body(ctx, done)`` makes the
calls into the library through ``ctx.call`` and returns its output;
``done`` maps the keys of the requests already finished in this pass to
their outputs.  After the pass, ``check(output, done)`` decides whether the
output is right.  The library only ever receives element texts, n values
and the elements it built itself.

Why these four (see README.md for the full map):

* ``census_count`` -- mask arithmetic and element construction, no
  ``compose``: exposes a closed-form count, bypasses compose/closure work.
  Its inputs are n values alone, so it is the same for every seed.
* ``element_queries`` -- the ``factor`` user at n beyond enumeration:
  parse, membership, factorization, expansion, evaluation.
* ``greens_batch`` -- the quadratic pairwise ``classify`` scan and the
  |M|^2 ideal sweep of the oracle.
* ``rank_batch`` -- sparse saturation by a few generators, and subset
  search.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

# |PAut(P_n)| and |IEnd(P_n)|, recorded from the closed form; n <= 8 also
# agrees with constructive enumeration.
COUNTS = {
    1: (2, 2),
    2: (7, 7),
    3: (22, 26),
    4: (71, 105),
    5: (252, 458),
    6: (935, 2127),
    7: (3614, 10450),
    8: (14567, 53937),
    9: (60828, 291154),
    10: (262415, 1636535),
    11: (1166782, 9548362),
    12: (5334247, 57654233),
    13: (25028732, 359439258),
    14: (120328935, 2308682303),
    15: (591886958, 15250157442),
    16: (2975043959, 103427157217),
}
FAMILIES = ("paut", "iend")

# Green's class counts, recorded; (family, n) -> relation -> classes.
CLASS_COUNTS = {
    ("paut", 4): {"L": 16, "R": 16, "H": 44, "J": 7},
    ("iend", 4): {"L": 23, "R": 23, "H": 69, "J": 9},
    ("paut", 5): {"L": 32, "R": 32, "H": 134, "J": 11},
    ("iend", 5): {"L": 57, "R": 64, "H": 281, "J": 17},
    ("paut", 6): {"L": 64, "R": 64, "H": 414, "J": 15},
    ("iend", 6): {"L": 137, "R": 191, "J": 27},
}


def _count(fam: str, n: int) -> int:
    return COUNTS[n][FAMILIES.index(fam)]


@dataclass
class Request:
    key: str
    body: Callable[[Any, dict], Any]
    check: Callable[[Any, dict], bool]


class Workload:
    """Base: ``setup`` builds the inputs and ``self.requests`` from the seed."""

    name = ""

    def __init__(self, pm, seed: int, tiny: bool):
        self.pm = pm
        self.seed = seed
        self.tiny = tiny
        self.requests: list[Request] = []
        # CLI request key -> the direct library calls that answer it.
        self.cli_direct: dict[str, list[tuple]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def probe_pool(self, done: dict) -> list:
        """Elements from this workload's own inputs and outputs, for the
        ``path_core`` probes."""
        raise NotImplementedError


# -- census_count ---------------------------------------------------------------


class CensusCount(Workload):
    name = "census_count"

    def setup(self) -> None:
        # The inputs are n values only, so the seed changes nothing here; the
        # order is fixed, so that the outputs alive at the peak of memory are
        # the same in every run.
        count_ns = range(5, 10 if self.tiny else 17)
        enum_ns = range(5, 7 if self.tiny else 9)
        mask_ns = (6,) if self.tiny else (10, 12, 14)
        reqs = []
        for n in count_ns:
            for fam in FAMILIES:
                reqs.append(Request(f"count_{fam} {n}", partial(self._count, fam, n),
                                    partial(self._check_count, fam, n)))
        for n in enum_ns:
            for fam in FAMILIES:
                reqs.append(Request(f"enumerate_{fam} {n}", partial(self._enumerate, fam, n),
                                    partial(self._check_enumerate, fam, n)))
        for n in mask_ns:
            reqs.append(Request(f"count_by_mask {n}", partial(self._by_mask, n),
                                partial(self._check_by_mask, n)))
        pm = self.pm
        small = 5 if self.tiny else 7
        cli = [
            (["count", "--n", str(small + 2 if self.tiny else 14)], self._check_cli_count,
             [("census.count_paut", pm.count_paut), ("census.count_iend", pm.count_iend)]),
            (["count", "--n", str(small + 1), "--per-mask"], self._check_cli_per_mask,
             [("census.count_paut", pm.count_paut), ("census.count_iend", pm.count_iend),
              ("census.count_by_mask", pm.count_by_mask)]),
            (["enumerate", "--n", str(small), "--family", "iend"], self._check_cli_enumerate,
             [("census.enumerate_iend", pm.enumerate_iend)]),
            (["enumerate", "--n", str(small + 1), "--family", "paut", "--format", "text"],
             self._check_cli_enumerate, [("census.enumerate_paut", pm.enumerate_paut)]),
        ]
        for argv, check, direct in cli:
            key = "cli " + " ".join(argv)
            n = int(argv[2])
            reqs.append(Request(key, partial(self._cli, argv), partial(check, argv)))
            self.cli_direct[key] = [(name, fn, n) for name, fn in direct]
        self.requests = reqs

    def _count(self, fam, n, ctx, done):
        fn = self.pm.count_paut if fam == "paut" else self.pm.count_iend
        return ctx.call(f"census.count_{fam}", fn, n)

    def _enumerate(self, fam, n, ctx, done):
        fn = self.pm.enumerate_paut if fam == "paut" else self.pm.enumerate_iend
        out = ctx.call(f"census.enumerate_{fam}", fn, n)
        ctx.count("census.elements_built", len(out))
        return out

    def _by_mask(self, n, ctx, done):
        return ctx.call("census.count_by_mask", self.pm.count_by_mask, n)

    def _cli(self, argv, ctx, done):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ctx.call("cli.main", self.pm.cli.main, argv)
        text = buf.getvalue()
        ctx.count("cli.bytes_out", len(text.encode()))
        return code, text

    def _check_count(self, fam, n, value, done):
        enumerated = done.get(f"enumerate_{fam} {n}")
        if n <= 8 and isinstance(enumerated, list):
            return value == len(enumerated) == _count(fam, n)
        return value == _count(fam, n)

    def _check_enumerate(self, fam, n, elements, done):
        return len(elements) == len(set(elements)) == _count(fam, n)

    def _check_by_mask(self, n, table, done):
        return (
            len(table) == 1 << n
            and sum(p for _, p, _ in table) == _count("paut", n)
            and sum(i for _, _, i in table) == _count("iend", n)
        )

    def _check_cli_count(self, argv, output, done):
        code, text = output
        n = int(argv[2])
        payload = json.loads(text)
        return code == 0 and (payload["paut_count"], payload["iend_count"]) == COUNTS[n]

    def _check_cli_per_mask(self, argv, output, done):
        code, text = output
        n = int(argv[2])
        payload = json.loads(text)
        rows = payload["per_mask"]
        return (
            code == 0
            and (payload["paut_count"], payload["iend_count"]) == COUNTS[n]
            and len(rows) == 1 << n
            and sum(r["paut_contribution"] for r in rows) == payload["paut_count"]
            and sum(r["iend_contribution"] for r in rows) == payload["iend_count"]
        )

    def _check_cli_enumerate(self, argv, output, done):
        code, text = output
        n, fam = int(argv[2]), argv[4]
        if "text" in argv:
            texts = text.splitlines()
        else:
            payload = json.loads(text)
            texts = payload["elements"]
            if payload["count"] != len(texts):
                return False
        direct = done.get(f"enumerate_{fam} {n}")
        if isinstance(direct, list) and texts != [self.pm.format_element(a) for a in direct]:
            return False
        return code == 0 and len(texts) == _count(fam, n)

    def probe_pool(self, done):
        return [a for key, out in done.items() if key.startswith("enumerate_")
                and isinstance(out, list) for a in out]


# -- element_queries ------------------------------------------------------------


def _blocks(bits: list[bool]) -> list[tuple[int, int]]:
    """Maximal runs of set positions, as 1-based (lo, hi)."""
    out, x, n = [], 1, len(bits)
    while x <= n:
        if bits[x - 1]:
            lo = x
            while x <= n and bits[x - 1]:
                x += 1
            out.append((lo, x - 1))
        else:
            x += 1
    return out


def random_element_text(rng: random.Random, n: int, kind: str) -> str:
    """Text of a random element of the given kind on {1..n}.

    ``paut``: a partial automorphism.  ``iend``: in IEnd(P_n) but not in
    PAut(P_n) -- two image blocks touch.  ``non``: outside IEnd(P_n) -- a
    partial automorphism with two neighbouring images of a block of size
    >= 3 swapped.  Built without the library, so the library sees outside
    input.
    """
    while True:
        blocks = _blocks([rng.random() < 0.7 for _ in range(n)])
        if kind == "iend" and len(blocks) < 2:
            continue
        if kind == "non" and not any(hi - lo >= 2 for lo, hi in blocks):
            continue
        break
    order = list(range(len(blocks)))
    rng.shuffle(order)
    r = len(blocks)
    # gaps[k] is the free space before image block k (and gaps[r] after the last).
    gaps = [0] + [0 if kind == "iend" else 1] * (r - 1) + [0]
    tight = rng.randrange(1, r) if kind == "iend" else None
    slots = [s for s in range(r + 1) if s != tight]
    for _ in range(n - sum(hi - lo + 1 for lo, hi in blocks) - sum(gaps)):
        gaps[rng.choice(slots)] += 1
    image: dict[int, int] = {}
    pos = 1
    for k, b in enumerate(order):
        pos += gaps[k]
        lo, hi = blocks[b]
        targets = list(range(pos, pos + hi - lo + 1))
        if len(targets) >= 2 and rng.random() < 0.5:
            targets.reverse()
        image.update(zip(range(lo, hi + 1), targets))
        pos += hi - lo + 1
    if kind == "non":
        lo, hi = rng.choice([b for b in blocks if b[1] - b[0] >= 2])
        x = rng.randrange(lo, hi)
        image[x], image[x + 1] = image[x + 1], image[x]
    return f"n={n};" + ",".join(f"{x}>{image[x]}" for x in sorted(image))


class ElementQueries(Workload):
    name = "element_queries"
    KINDS = ("paut", "iend", "non")
    SHARES = (45, 40, 15)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        count, n_hi = (60, 10) if self.tiny else (5000, 24)
        # Every n and every kind comes up in fixed shares, in seeded order,
        # so that seeds change the elements but not the mix of sizes.
        kinds = [k for k, share in zip(self.KINDS, self.SHARES) for _ in range(share)]
        cells = [(6 + i % (n_hi - 5), kinds[i * len(kinds) // count]) for i in range(count)]
        rng.shuffle(cells)
        self.inputs = [(random_element_text(rng, n, kind), kind) for n, kind in cells]
        self.alphabets: dict[tuple[str, int], frozenset] = {}
        self.requests = [
            Request(f"query {i}", partial(self._query, text), partial(self._check, kind))
            for i, (text, kind) in enumerate(self.inputs)
        ]

    def _query(self, text, ctx, done):
        pm = self.pm
        a = ctx.call("path_core.parse_element", pm.parse_element, text)
        paut = ctx.call("path_core.is_paut", pm.is_paut, a)
        iend = paut or ctx.call("path_core.is_iend", pm.is_iend, a)
        name, factor = ("factorize.factor_paut", pm.factor_paut) if paut else (
            "factorize.factor_iend", pm.factor_iend)
        try:
            word = ctx.call(name, factor, a, expect=ValueError)
        except ValueError:
            if iend:
                raise
            ctx.count("factorize.rejected")
            return a, paut, iend, None, None
        base = ctx.call("genwords.expand_word", pm.expand_word, word)
        back = ctx.call("genwords.eval_word", pm.eval_word, base)
        ctx.count("factorize.derived_letters", len(word))
        ctx.count("genwords.base_letters", len(base))
        return a, paut, iend, base, back

    def _alphabet(self, fam: str, n: int) -> frozenset:
        key = (fam, n)
        if key not in self.alphabets:
            fn = self.pm.alphabet_paut if fam == "paut" else self.pm.alphabet_iend
            self.alphabets[key] = frozenset(fn(n))
        return self.alphabets[key]

    def _check(self, kind, output, done):
        a, paut, iend, base, back = output
        if (paut, iend) != {"paut": (True, True), "iend": (False, True), "non": (False, False)}[kind]:
            return False
        if kind == "non":
            return base is None
        return back == a and set(base.letters) <= self._alphabet(kind, a.n)

    def probe_pool(self, done):
        return [self.pm.parse_element(text) for text, _ in self.inputs]


# -- greens_batch ---------------------------------------------------------------


class GreensBatch(Workload):
    name = "greens_batch"

    def setup(self) -> None:
        pm = self.pm
        rng = random.Random(self.seed)
        small, large = (3, 4) if self.tiny else (5, 6)
        self.monoids = {}
        # Each request gets its own seeded element order: the order moves a
        # pairwise scan's cost, and independent orders average that out.
        self.orders = {}
        reqs = []
        for n in (small, large):
            for fam in FAMILIES:
                elements = pm.enumerate_paut(n) if fam == "paut" else pm.enumerate_iend(n)
                self.monoids[fam, n] = elements
                relations = [rel for rel in "LRHJ" if (fam, n, rel) != ("iend", 6, "H")]
                # IEnd(P_6) under H takes many seconds; it is left out.
                for rel in relations + (["oracle"] if n == small else []):
                    order = list(elements)
                    rng.shuffle(order)
                    self.orders[fam, n, rel] = order
                for rel in relations:
                    reqs.append(Request(f"classify {fam} {n} {rel}",
                                        partial(self._classify, fam, n, rel),
                                        partial(self._check_classify, fam, n, rel)))
                if n == small:
                    reqs.append(Request(f"oracle {fam} {n}", partial(self._oracle, fam, n),
                                        partial(self._check_oracle, fam, n)))
        self.requests = reqs

    def _classify(self, fam, n, rel, ctx, done):
        out = ctx.call(f"greens.classify:{rel}", self.pm.classify, self.orders[fam, n, rel], rel)
        ctx.count("greens.classes_found", out.class_count)
        return out

    def _oracle(self, fam, n, ctx, done):
        out = ctx.call("greens.oracle_classifications", self.pm.oracle_classifications,
                       self.orders[fam, n, "oracle"])
        ctx.count("greens.classes_found", sum(c.class_count for c in out.values()))
        return out

    def _partitions(self, fam, n, partition) -> bool:
        covered = [a for c in partition.classes for a in c]
        elements = self.monoids[fam, n]
        return len(covered) == len(elements) and set(covered) == set(elements)

    def _check_classify(self, fam, n, rel, out, done):
        if not self._partitions(fam, n, out):
            return False
        oracle = done.get(f"oracle {fam} {n}")
        if isinstance(oracle, dict) and out.as_sets() != oracle[rel].as_sets():
            return False
        recorded = CLASS_COUNTS.get((fam, n), {}).get(rel)
        return recorded is None or out.class_count == recorded

    def _check_oracle(self, fam, n, out, done):
        recorded = CLASS_COUNTS.get((fam, n), {})
        return all(self._partitions(fam, n, out[rel]) for rel in "LRHJ") and all(
            out[rel].class_count == count for rel, count in recorded.items())

    def probe_pool(self, done):
        return [a for elements in self.monoids.values() for a in elements]


# -- rank_batch -----------------------------------------------------------------


class RankBatch(Workload):
    name = "rank_batch"

    def setup(self) -> None:
        pm = self.pm
        rng = random.Random(self.seed)
        ns = (4, 5) if self.tiny else (6, 7)
        small = 3 if self.tiny else 4
        # The order is fixed, so that the outputs alive at the peak of memory
        # are the same for every seed; later steps of a family and n take the
        # monoid its first step built.
        reqs = []
        self.gens = {}
        for n in ns:
            for fam in FAMILIES:
                alphabet = pm.alphabet_paut(n) if fam == "paut" else pm.alphabet_iend(n)
                gens = [pm.make_generator(sym, n) for sym in alphabet]
                rng.shuffle(gens)
                self.gens[fam, n] = gens
                step = partial(self._step, fam, n)
                reqs += [
                    Request(f"monoid {fam} {n}", step("monoid"), step("check_monoid")),
                    Request(f"closure {fam} {n}", step("closure"), step("check_closure")),
                    Request(f"is_generating {fam} {n}", step("is_generating"), _is_true),
                    Request(f"is_irredundant {fam} {n}", step("is_irredundant"), _is_true),
                ]
            reqs.append(Request(f"witnesses {n}", partial(self._witnesses, n),
                                lambda out, done: all(out.values())))
        # Monoids passed to the exhaustive search are inputs, built here.
        self.small = {}
        for fam in FAMILIES:
            target = pm.paut_monoid(small) if fam == "paut" else pm.iend_monoid(small)
            k = pm.rank_formula(fam, small) - 1
            self.small[fam] = (target, k, pm.rankcheck.subset_search_scope(target, k))
            reqs.append(Request(f"exhaustive {fam} {small}", partial(self._exhaustive, fam),
                                _is_true))
            reqs.append(Request(f"verify_rank {fam} {ns[0]}", partial(self._verify, fam, ns[0]),
                                partial(self._check_verify, fam, ns[0])))
        self.requests = reqs

    def _step(self, fam, n, what):
        return partial(getattr(self, "_" + what), fam, n)

    def _monoid(self, fam, n, ctx, done):
        fn = self.pm.paut_monoid if fam == "paut" else self.pm.iend_monoid
        return ctx.call(f"rankcheck.{fam}_monoid", fn, n)

    def _closure(self, fam, n, ctx, done):
        out = ctx.call("rankcheck.closure", self.pm.closure, self.gens[fam, n], n)
        ctx.count("rankcheck.closure_size", len(out))
        return out

    def _is_generating(self, fam, n, ctx, done):
        return ctx.call("rankcheck.is_generating", self.pm.is_generating, self.gens[fam, n],
                        done[f"monoid {fam} {n}"])

    def _is_irredundant(self, fam, n, ctx, done):
        return ctx.call("rankcheck.is_irredundant", self.pm.is_irredundant, self.gens[fam, n],
                        done[f"monoid {fam} {n}"])

    def _witnesses(self, n, ctx, done):
        return ctx.call("rankcheck.lower_bound_witnesses", self.pm.lower_bound_witnesses, n)

    def _exhaustive(self, fam, ctx, done):
        target, k, scope = self.small[fam]
        ctx.count("rankcheck.subsets_searched", scope)
        return ctx.call("rankcheck.exhaustive_min_size", self.pm.exhaustive_min_size, target, k)

    def _verify(self, fam, n, ctx, done):
        return ctx.call("rankcheck.verify_rank", self.pm.verify_rank, fam, n)

    def _check_monoid(self, fam, n, out, done):
        return len(out) == _count(fam, n) and len(self.gens[fam, n]) == self.pm.rank_formula(fam, n)

    def _check_closure(self, fam, n, out, done):
        monoid = done.get(f"monoid {fam} {n}")
        return monoid is not None and out.elements == monoid.elements

    def _check_verify(self, fam, n, out, done):
        return out.ok and out.formula_value == out.generating_set_size == self.pm.rank_formula(fam, n)

    def probe_pool(self, done):
        pool = [a for gens in self.gens.values() for a in gens]
        for key, out in done.items():
            if key.startswith("monoid "):
                pool.extend(out.elements)
        return pool


def _is_true(out, done) -> bool:
    return out is True


WORKLOADS = {w.name: w for w in (CensusCount, ElementQueries, GreensBatch, RankBatch)}
