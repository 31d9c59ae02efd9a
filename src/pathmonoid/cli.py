"""Command-line front end for the path-monoid toolkit.

Subcommands
-----------
count        closed-form counts, optionally refined per domain mask
enumerate    list every element of a family
classify     partition a family by one of Green's relations
factor       factor an element into a generator word
expand       rewrite a generator symbol over the base alphabet
verify-rank  check the rank of a family at one n
selftest     run the oracle suites

Configuration comes from flags, then ``PATHMONOID_*`` environment
variables, then defaults.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 refused resource bound, 4 internal error (a broken
invariant, raised as ``RuntimeError``).  In JSON mode, runtime errors are
reported as ``{"error": {"code", "message"}}`` objects on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import __version__
from .census import (
    count_by_mask,
    count_iend,
    count_paut,
    enumerate_iend,
    enumerate_paut,
    mask_to_string,
)
from .errors import ResourceRefused
from .factorize import factor_iend, factor_paut
from .genwords import (
    MAX_EXPANSION_LENGTH,
    eval_word,
    expand_symbol,
    expand_word,
    format_symbol,
    format_word,
    make_generator,
    parse_symbol,
)
from .greens import classify as classify_elements
from .path_core import (
    PartialInjection,
    element_from_json_dict,
    format_element,
    is_iend,
    is_paut,
    parse_element,
)
from .rankcheck import verify_rank

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4

_ENV_PREFIX = "PATHMONOID_"
_FORMATS = ("json", "text", "csv")


class UsageError(Exception):
    """Invalid input discovered after argument parsing."""


@dataclass(frozen=True)
class Config:
    """Resolved runtime bounds and output settings."""

    n_max_enumerate: int = 8
    n_max_closure: int = 6
    subset_search_budget: int = 10_000_000
    output_format: str = "json"


def _env_config() -> Config:
    cfg = Config()
    for attr, env_name in (
        ("n_max_enumerate", "N_MAX_ENUMERATE"),
        ("n_max_closure", "N_MAX_CLOSURE"),
        ("subset_search_budget", "SUBSET_SEARCH_BUDGET"),
    ):
        raw = os.environ.get(_ENV_PREFIX + env_name)
        if raw is None:
            continue
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(
                f"{_ENV_PREFIX + env_name} must be an integer, got {raw!r}"
            ) from None
        if value < 1:
            raise UsageError(f"{_ENV_PREFIX + env_name} must be positive, got {raw!r}")
        cfg = replace(cfg, **{attr: value})
    raw = os.environ.get(_ENV_PREFIX + "FORMAT")
    if raw is not None:
        if raw not in _FORMATS:
            raise UsageError(
                f"{_ENV_PREFIX}FORMAT must be one of {', '.join(_FORMATS)}, got {raw!r}"
            )
        cfg = replace(cfg, output_format=raw)
    return cfg


def _resolve_config(args: argparse.Namespace) -> Config:
    cfg = _env_config()
    for attr, flag_value in (
        ("n_max_enumerate", args.n_max_enumerate),
        ("n_max_closure", args.n_max_closure),
        ("subset_search_budget", args.subset_search_budget),
    ):
        if flag_value is None:
            continue
        if flag_value < 1:
            raise UsageError(f"--{attr.replace('_', '-')} must be positive, got {flag_value}")
        cfg = replace(cfg, **{attr: flag_value})
    if args.format is not None:
        cfg = replace(cfg, output_format=args.format)
    return cfg


# -- output --------------------------------------------------------------------


@dataclass(frozen=True)
class Rendering:
    """One command's result in every output shape it supports."""

    payload: dict
    text_lines: tuple[str, ...]
    csv_header: tuple[str, ...] | None = None
    csv_rows: tuple[tuple, ...] | None = None


def _write_output(result: Rendering, cfg: Config, out: io.TextIOBase) -> None:
    fmt = cfg.output_format
    if fmt == "json":
        out.write(json.dumps(result.payload, indent=2) + "\n")
    elif fmt == "text":
        for line in result.text_lines:
            out.write(line + "\n")
    else:
        if result.csv_header is None:
            raise UsageError("csv output is only available for enumerate and classify")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(result.csv_header)
        writer.writerows(result.csv_rows or ())


def _write_error(code: str, message: str, fmt: str, err: io.TextIOBase) -> None:
    if fmt == "json":
        err.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")
    else:
        err.write(f"error ({code}): {message}\n")


# -- element and bound helpers ---------------------------------------------------


def _parse_element_arg(raw: str) -> PartialInjection:
    """Accept the text form or the JSON object form of an element."""
    stripped = raw.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise UsageError(f"element is not valid JSON: {exc}") from None
        try:
            return element_from_json_dict(obj)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    try:
        return parse_element(stripped)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


_ELEMENT_N_RE = re.compile(r"n=(\d+);")


def _peek_element_n(raw: str) -> int | None:
    """The n of an element argument, read without building the element;
    None when it cannot be read, so that the full parse reports the error."""
    stripped = raw.strip()
    try:
        if stripped.startswith("{"):
            return int(json.loads(stripped)["n"])
        m = _ELEMENT_N_RE.match(stripped)
        return int(m.group(1)) if m else None
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


# Largest up-front work estimate ``factor``, ``expand`` and ``count`` accept.
# ``factor`` and ``expand`` estimate a word's letter count times n, the cost
# of one composition: ``factor`` counts the 4n² letters of the factorization
# step bound (up to n = 292), ``expand`` the longest expansion of any symbol
# (up to n = 1,020,408).  ``count`` estimates n³, for the O(n²) terms of the
# closed form on numbers of O(n) digits (up to n = 464, under a second for
# both families on a 2-core VM).
MAX_WORD_WORK = 10**8


def _refuse_work(n: int, work: int, how: str) -> None:
    if work > MAX_WORD_WORK:
        raise ResourceRefused(
            f"n={n} needs an estimated {work} steps ({how}), above the bound of {MAX_WORD_WORK}"
        )


def _refuse_word_work(n: int, letters: int) -> None:
    _refuse_work(n, letters * n, f"{letters} letters, n per composition")


def _require_positive_n(n: int) -> None:
    if n < 1:
        raise UsageError(f"--n must be positive, got {n}")


def _refuse_above(n: int, bound: int, knob: str) -> None:
    if n > bound:
        raise ResourceRefused(
            f"n={n} exceeds the configured bound {knob}={bound}"
        )


# -- subcommands -----------------------------------------------------------------


def _cmd_count(args: argparse.Namespace, cfg: Config) -> tuple[Rendering, int]:
    _require_positive_n(args.n)
    if args.per_mask:
        _refuse_above(args.n, cfg.n_max_enumerate, "n_max_enumerate")
    _refuse_work(args.n, args.n**3, "n^3 for the closed form")
    family = args.family
    payload: dict = {"n": args.n, "family": family}
    lines = [f"n {args.n}"]
    if family in ("paut", "both"):
        payload["paut_count"] = count_paut(args.n)
        lines.append(f"paut_count {payload['paut_count']}")
    if family in ("iend", "both"):
        payload["iend_count"] = count_iend(args.n)
        lines.append(f"iend_count {payload['iend_count']}")
    if args.per_mask:
        rows = []
        for profile, paut_c, iend_c in count_by_mask(args.n):
            row = {
                "mask": mask_to_string(args.n, profile.bits),
                "r": profile.r,
                "s": profile.s,
                "T": profile.T,
                "q1": profile.q1,
                "q2": profile.q2,
                "t1": profile.t1,
                "t2": profile.t2,
            }
            if family in ("paut", "both"):
                row["paut_contribution"] = paut_c
            if family in ("iend", "both"):
                row["iend_contribution"] = iend_c
            rows.append(row)
            lines.append(" ".join(f"{k}={v}" for k, v in row.items()))
        payload["per_mask"] = rows
    return Rendering(payload=payload, text_lines=tuple(lines)), EXIT_OK


def _cmd_enumerate(args: argparse.Namespace, cfg: Config) -> tuple[Rendering, int]:
    _require_positive_n(args.n)
    enumerate_family = enumerate_paut if args.family == "paut" else enumerate_iend
    elements = enumerate_family(args.n, n_max=cfg.n_max_enumerate)
    texts = [format_element(a) for a in elements]
    payload = {
        "n": args.n,
        "family": args.family,
        "count": len(texts),
        "elements": texts,
    }
    return (
        Rendering(
            payload=payload,
            text_lines=tuple(texts),
            csv_header=("element",),
            csv_rows=tuple((t,) for t in texts),
        ),
        EXIT_OK,
    )


def _cmd_classify(args: argparse.Namespace, cfg: Config) -> tuple[Rendering, int]:
    _require_positive_n(args.n)
    _refuse_above(args.n, cfg.n_max_closure, "n_max_closure")
    enumerate_family = enumerate_paut if args.family == "paut" else enumerate_iend
    elements = enumerate_family(args.n, n_max=cfg.n_max_enumerate)
    relation = args.relation.upper()
    partition = classify_elements(elements, relation)
    classes = [[format_element(a) for a in cls] for cls in partition.classes]
    payload = {
        "n": args.n,
        "family": args.family,
        "relation": relation,
        "class_count": len(classes),
        "classes": classes,
    }
    lines = tuple(" ".join(cls) for cls in classes)
    rows = tuple(
        (index, text) for index, cls in enumerate(classes) for text in cls
    )
    return (
        Rendering(
            payload=payload,
            text_lines=lines,
            csv_header=("class", "element"),
            csv_rows=rows,
        ),
        EXIT_OK,
    )


def _cmd_factor(args: argparse.Namespace, cfg: Config) -> tuple[Rendering, int]:
    n = _peek_element_n(args.element)
    if n is not None:
        _refuse_word_work(n, 4 * n * n)
    element = _parse_element_arg(args.element)
    if args.n is not None and args.n != element.n:
        raise UsageError(
            f"--n {args.n} disagrees with the element's n={element.n}"
        )
    if is_paut(element):
        family = "paut"
        word = factor_paut(element)
    elif is_iend(element):
        family = "iend"
        word = factor_iend(element)
    else:
        raise UsageError(
            "element is not an injective partial endomorphism of the path; "
            "nothing to factor"
        )
    if args.alphabet == "base":
        word = expand_word(word)
    verified = eval_word(word) == element
    payload = {
        "n": element.n,
        "element": format_element(element),
        "family": family,
        "alphabet": args.alphabet,
        "word": format_word(word),
        "length": len(word),
        "verified": verified,
    }
    lines = (
        f"element {payload['element']}",
        f"word {payload['word']}",
        f"length {payload['length']}",
        f"verified {str(verified).lower()}",
    )
    code = EXIT_OK if verified else EXIT_VERIFICATION_FAILURE
    return Rendering(payload=payload, text_lines=lines), code


def _cmd_expand(args: argparse.Namespace, cfg: Config) -> tuple[Rendering, int]:
    _require_positive_n(args.n)
    _refuse_word_work(args.n, MAX_EXPANSION_LENGTH)
    try:
        symbol = parse_symbol(args.symbol)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        word = expand_symbol(symbol, args.n)
        generator = make_generator(symbol, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    evaluated = eval_word(word)
    matches = evaluated == generator
    payload = {
        "n": args.n,
        "symbol": format_symbol(symbol),
        "expansion": format_word(word),
        "length": len(word),
        "evaluates_to": format_element(evaluated),
        "matches_generator": matches,
    }
    lines = (
        f"symbol {payload['symbol']}",
        f"expansion {payload['expansion']}",
        f"evaluates_to {payload['evaluates_to']}",
        f"matches_generator {str(matches).lower()}",
    )
    code = EXIT_OK if matches else EXIT_VERIFICATION_FAILURE
    return Rendering(payload=payload, text_lines=lines), code


def _cmd_verify_rank(args: argparse.Namespace, cfg: Config) -> tuple[Rendering, int]:
    if args.n < 3:
        raise UsageError(f"verify-rank needs the alphabets, so --n must be >= 3, got {args.n}")
    _refuse_above(args.n, cfg.n_max_closure, "n_max_closure")
    witness = verify_rank(
        args.family,
        args.n,
        exhaustive=args.exhaustive,
        n_max_enumerate=cfg.n_max_enumerate,
        subset_search_budget=cfg.subset_search_budget,
    )
    payload = {
        "n": witness.n,
        "family": witness.family,
        "formula_value": witness.formula_value,
        "generating_set_size": witness.generating_set_size,
        "generates": witness.generates,
        "irredundant": witness.irredundant,
        "witnesses": dict(witness.witnesses),
        "exhaustive_lower_bound": witness.exhaustive_lower_bound,
        "subsets_searched": witness.subsets_searched,
        "ok": witness.ok,
    }
    lines = [
        f"family {witness.family}",
        f"n {witness.n}",
        f"formula_value {witness.formula_value}",
        f"generating_set_size {witness.generating_set_size}",
        f"generates {str(witness.generates).lower()}",
        f"irredundant {str(witness.irredundant).lower()}",
    ]
    for name, passed in witness.witnesses:
        lines.append(f"witness {name} {str(passed).lower()}")
    if witness.exhaustive_lower_bound is not None:
        lines.append(f"exhaustive_lower_bound {witness.exhaustive_lower_bound}")
        lines.append(f"subsets_searched {witness.subsets_searched}")
    if witness.counterexample is not None:
        payload["counterexample"] = witness.counterexample
        lines.append(f"FAIL {witness.counterexample}")
    lines.append("ok" if witness.ok else "FAILED")
    code = EXIT_OK if witness.ok else EXIT_VERIFICATION_FAILURE
    return Rendering(payload=payload, text_lines=tuple(lines)), code


def _cmd_selftest(args: argparse.Namespace, cfg: Config) -> tuple[Rendering, int]:
    # Imported here so that the other subcommands do not load the checks.
    from .selftest import run_suites

    _require_positive_n(args.n)
    _refuse_above(args.n, cfg.n_max_enumerate, "n_max_enumerate")
    suites = []
    lines = []
    for name, scope, counterexample in run_suites(args.n, n_max_closure=cfg.n_max_closure):
        passed = counterexample is None
        suite = {"name": name, "scope": scope, "passed": passed}
        line = f"{'PASS' if passed else 'FAIL'} {name} ({scope})"
        if not passed:
            suite["counterexample"] = counterexample
            line += f": {counterexample}"
        suites.append(suite)
        lines.append(line)
    all_ok = all(suite["passed"] for suite in suites)
    lines.append("OK" if all_ok else "FAILED")
    payload = {"n": args.n, "suites": suites, "ok": all_ok}
    code = EXIT_OK if all_ok else EXIT_VERIFICATION_FAILURE
    return Rendering(payload=payload, text_lines=tuple(lines)), code


_HANDLERS: dict[str, Callable[[argparse.Namespace, Config], tuple[Rendering, int]]] = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "factor": _cmd_factor,
    "expand": _cmd_expand,
    "verify-rank": _cmd_verify_rank,
    "selftest": _cmd_selftest,
}


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=_FORMATS,
        default=None,
        help="output format (default json; csv only for enumerate/classify)",
    )
    common.add_argument(
        "--n-max-enumerate",
        type=int,
        default=None,
        metavar="K",
        help="largest n for which explicit enumeration is attempted (default 8)",
    )
    common.add_argument(
        "--n-max-closure",
        type=int,
        default=None,
        metavar="K",
        help="largest n for closure-sized work: classify, verify-rank (default 6)",
    )
    common.add_argument(
        "--subset-search-budget",
        type=int,
        default=None,
        metavar="B",
        help="largest candidate-subset count for exhaustive rank search (default 10^7)",
    )

    parser = argparse.ArgumentParser(
        prog="pathmonoid",
        description="Partial automorphisms and injective partial endomorphisms "
        "of the n-vertex path: counting, enumeration, Green's relations, "
        "factorization into generators, and rank verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("count", parents=[common], help="closed-form counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("paut", "iend", "both"), default="both")
    p.add_argument("--per-mask", action="store_true", help="include the per-domain-mask table")

    p = sub.add_parser("enumerate", parents=[common], help="list every element of a family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("paut", "iend"), required=True)

    p = sub.add_parser("classify", parents=[common], help="partition a family by a Green's relation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("paut", "iend"), required=True)
    p.add_argument("--relation", choices=("L", "R", "H", "J", "l", "r", "h", "j"), required=True)

    p = sub.add_parser("factor", parents=[common], help="factor an element into a generator word")
    p.add_argument("--element", required=True, help="text form 'n=5;1>3,2>4' or JSON object form")
    p.add_argument("--n", type=int, default=None, help="optional cross-check against the element's n")
    p.add_argument(
        "--alphabet",
        choices=("base", "derived"),
        default="base",
        help="emit letters of the generating alphabet (base, default) or "
        "keep the derived segment/shift letters (derived)",
    )

    p = sub.add_parser("expand", parents=[common], help="rewrite a symbol over the base alphabet")
    p.add_argument("--symbol", required=True, help="e.g. es1,4 or rp0,5")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify-rank", parents=[common], help="check the rank of a family at one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("paut", "iend"), required=True)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="additionally search all smaller subsets (budgeted)",
    )

    p = sub.add_parser("selftest", parents=[common], help="run the oracle suites")
    p.add_argument("--n", type=int, required=True)

    return parser


def _best_effort_format(argv: Sequence[str]) -> str:
    """The output format for error objects, before config resolution."""
    for index, token in enumerate(argv):
        if token.startswith("--format="):
            candidate = token.split("=", 1)[1]
            if candidate in _FORMATS:
                return candidate
        if token == "--format" and index + 1 < len(argv):
            candidate = argv[index + 1]
            if candidate in _FORMATS:
                return candidate
    candidate = os.environ.get(_ENV_PREFIX + "FORMAT", "json")
    return candidate if candidate in _FORMATS else "json"


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version.
        return int(exc.code or 0)
    fmt = _best_effort_format(argv)
    try:
        cfg = _resolve_config(args)
        fmt = cfg.output_format
        result, code = _HANDLERS[args.command](args, cfg)
        _write_output(result, cfg, sys.stdout)
        return code
    except UsageError as exc:
        _write_error("usage", str(exc), fmt, sys.stderr)
        return EXIT_USAGE
    except ResourceRefused as exc:
        _write_error("resource-refused", str(exc), fmt, sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        _write_error("usage", str(exc), fmt, sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        _write_error("internal", str(exc), fmt, sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
