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

The only setting is ``--format`` (default json; csv for ``enumerate`` and
``classify`` only).  Every resource bound is a constant where it is
enforced: ``MAX_WORD_WORK`` below, ``census.MAX_ENUMERATE_N`` (the one
bound on n for the commands that enumerate) and ``rankcheck.MAX_SUBSETS``.
Exit codes: 0 success, 1 verification failure, 2 usage error (argparse's,
or any ``ValueError``), 3 refused resource bound, 4 internal error (a
broken invariant, raised as ``RuntimeError``).  In JSON mode, runtime
errors are reported as ``{"error": {"code", "message"}}`` objects on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from math import floor, log10
from typing import Sequence

from . import __version__
from .census import (
    MAX_ENUMERATE_N,
    _enumerate_family,
    count_by_mask,
    count_iend,
    count_paut,
    enumerate_iend,
    enumerate_paut,
    mask_to_string,
)
from .errors import ResourceRefused
from .factorize import factor_iend, word_length_bound
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
    _read_element_json,
    _read_element_text,
    format_element,
    is_paut,
)
from .rankcheck import verify_rank

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4


# -- output --------------------------------------------------------------------


@dataclass(frozen=True)
class Rendering:
    """One command's result in every output shape it supports."""

    payload: dict
    text_lines: tuple[str, ...]
    csv_header: tuple[str, ...] | None = None
    csv_rows: tuple[tuple, ...] | None = None


def _write_output(result: Rendering, fmt: str, out: io.TextIOBase) -> None:
    if fmt == "json":
        out.write(json.dumps(result.payload, indent=2) + "\n")
    elif fmt == "text":
        for line in result.text_lines:
            out.write(line + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(result.csv_header)
        writer.writerows(result.csv_rows)


def _write_error(code: str, message: str, fmt: str, err: io.TextIOBase) -> None:
    if fmt == "json":
        err.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")
    else:
        err.write(f"error ({code}): {message}\n")


def _lines(payload: dict, *keys: str) -> list[str]:
    """``key value`` text lines for ``keys`` of ``payload``, bools lowercased."""
    return [
        f"{key} {str(payload[key]).lower() if type(payload[key]) is bool else payload[key]}"
        for key in keys
    ]


# -- element and bound helpers ---------------------------------------------------


# Largest up-front work estimate ``factor``, ``expand`` and ``count`` accept.
# ``factor`` and ``expand`` estimate a word's letter count times n, the cost
# of one composition: ``factor`` counts the 3n+1 letters of the factorization
# step bound, ``factorize.word_length_bound`` (up to n = 5,773), ``expand`` the
# longest expansion of any symbol plus 2 per bit of n, for the n pairs it
# builds and prints (up to n = 1,923,076).  ``count`` estimates n³, for the
# O(n²) terms of the closed form on numbers of O(n) digits (up to n = 464,
# under a second for both families on a 2-core VM).
MAX_WORD_WORK = 10**8


def _magnitude(k: int) -> str:
    """``k`` in full below 10^30, else its order of magnitude: a refusal
    stays short, and Python formats no int of more than 4,300 digits."""
    return str(k) if k < 10**30 else f"about 10^{floor(log10(k))}"


def _refuse_work(n: int, work: int, how: str) -> None:
    if work > MAX_WORD_WORK:
        raise ResourceRefused(
            f"n={_magnitude(n)} needs an estimated {_magnitude(work)} steps ({how}), "
            f"above the bound of {MAX_WORD_WORK}"
        )


def _refuse_word_work(n: int, letters: int) -> None:
    _refuse_work(n, letters * n, f"{_magnitude(letters)} letters, n per composition")


def _refuse_above(n: int, what: str) -> None:
    if n > MAX_ENUMERATE_N:
        raise ResourceRefused(f"n={n} is above the bound of {MAX_ENUMERATE_N} for {what}")


def _read_element(raw: str) -> PartialInjection:
    """An element argument in the text or the JSON object form.  Its n is
    checked against the factorization work bound before it is built."""
    stripped = raw.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"element is not valid JSON: {exc}") from None
        n, pairs = _read_element_json(obj)
    else:
        n, pairs = _read_element_text(stripped)
    # Anything but a plain int n is left for the constructor to reject.
    if type(n) is int:
        _refuse_word_work(n, word_length_bound(n))
    return PartialInjection(n, pairs)


# -- subcommands -----------------------------------------------------------------


def _cmd_count(args: argparse.Namespace) -> tuple[Rendering, int]:
    if args.per_mask:
        _refuse_above(args.n, "the per-mask table")
    _refuse_work(args.n, args.n**3, "n^3 for the closed form")
    family = args.family
    payload: dict = {"n": args.n, "family": family}
    if family in ("paut", "both"):
        payload["paut_count"] = count_paut(args.n)
    if family in ("iend", "both"):
        payload["iend_count"] = count_iend(args.n)
    lines = _lines(payload, *(key for key in payload if key != "family"))
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


def _cmd_enumerate(args: argparse.Namespace) -> tuple[Rendering, int]:
    enumerate_family = enumerate_paut if args.family == "paut" else enumerate_iend
    elements = enumerate_family(args.n)
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


def _cmd_classify(args: argparse.Namespace) -> tuple[Rendering, int]:
    relation = args.relation.upper()
    # classify sorts its input by text form itself.
    partition = classify_elements(_enumerate_family(args.n, args.family), relation)
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


def _cmd_factor(args: argparse.Namespace) -> tuple[Rendering, int]:
    element = _read_element(args.element)
    # factor_iend refuses non-members and factors both families by one rule.
    word = factor_iend(element)
    if args.alphabet == "base":
        word = expand_word(word)
    verified = eval_word(word) == element
    payload = {
        "n": element.n,
        "element": format_element(element),
        "family": "paut" if is_paut(element) else "iend",
        "alphabet": args.alphabet,
        "word": format_word(word),
        "length": len(word),
        "verified": verified,
    }
    lines = _lines(payload, "element", "word", "length", "verified")
    code = EXIT_OK if verified else EXIT_VERIFICATION_FAILURE
    return Rendering(payload=payload, text_lines=tuple(lines)), code


def _cmd_expand(args: argparse.Namespace) -> tuple[Rendering, int]:
    letters = MAX_EXPANSION_LENGTH + 2 * args.n.bit_length()
    _refuse_work(args.n, letters * args.n, f"{MAX_EXPANSION_LENGTH} letters, 2 per bit of n, n each")
    symbol = parse_symbol(args.symbol)
    word = expand_symbol(symbol, args.n)
    generator = make_generator(symbol, args.n)
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
    lines = _lines(payload, "symbol", "expansion", "evaluates_to", "matches_generator")
    code = EXIT_OK if matches else EXIT_VERIFICATION_FAILURE
    return Rendering(payload=payload, text_lines=tuple(lines)), code


def _cmd_verify_rank(args: argparse.Namespace) -> tuple[Rendering, int]:
    witness = verify_rank(args.family, args.n, exhaustive=args.exhaustive)
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
    lines = _lines(
        payload, "family", "n", "formula_value", "generating_set_size", "generates", "irredundant"
    )
    witnesses = payload["witnesses"]
    lines += [f"witness {line}" for line in _lines(witnesses, *witnesses)]
    if witness.exhaustive_lower_bound is not None:
        lines += _lines(payload, "exhaustive_lower_bound", "subsets_searched")
    if witness.counterexample is not None:
        payload["counterexample"] = witness.counterexample
        lines.append(f"FAIL {witness.counterexample}")
    lines.append("ok" if witness.ok else "FAILED")
    code = EXIT_OK if witness.ok else EXIT_VERIFICATION_FAILURE
    return Rendering(payload=payload, text_lines=tuple(lines)), code


def _cmd_selftest(args: argparse.Namespace) -> tuple[Rendering, int]:
    # Imported here so that the other subcommands do not load the checks.
    from .selftest import run_suites

    # run_suites(0) would pass vacuously.
    if args.n < 1:
        raise ValueError(f"--n must be positive, got {args.n}")
    _refuse_above(args.n, "selftest")
    suites = []
    lines = []
    for name, scope, counterexample in run_suites(args.n):
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


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    format_help = "output format (default json)"
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json", help=format_help)
    # Only the commands that list elements have rows to write as csv.
    tabular = argparse.ArgumentParser(add_help=False)
    tabular.add_argument("--format", choices=("json", "text", "csv"), default="json", help=format_help)

    parser = argparse.ArgumentParser(
        prog="pathmonoid",
        description="Partial automorphisms and injective partial endomorphisms "
        "of the n-vertex path: counting, enumeration, Green's relations, "
        "factorization into generators, and rank verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, run, help: str, parent=common) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[parent], help=help)
        p.set_defaults(run=run)
        return p

    p = command("count", _cmd_count, "closed-form counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("paut", "iend", "both"), default="both")
    p.add_argument("--per-mask", action="store_true", help="include the per-domain-mask table")

    p = command("enumerate", _cmd_enumerate, "list every element of a family", tabular)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("paut", "iend"), required=True)

    p = command("classify", _cmd_classify, "partition a family by a Green's relation", tabular)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("paut", "iend"), required=True)
    p.add_argument("--relation", choices=("L", "R", "H", "J", "l", "r", "h", "j"), required=True)

    p = command("factor", _cmd_factor, "factor an element into a generator word")
    p.add_argument("--element", required=True, help="text form 'n=5;1>3,2>4' or JSON object form")
    p.add_argument(
        "--alphabet",
        choices=("base", "derived"),
        default="base",
        help="emit letters of the generating alphabet (base, default) or "
        "keep the derived segment-reversal letters (derived)",
    )

    p = command("expand", _cmd_expand, "rewrite a symbol over the base alphabet")
    p.add_argument("--symbol", required=True, help="e.g. es1,4 or rp0,5")
    p.add_argument("--n", type=int, required=True)

    p = command("verify-rank", _cmd_verify_rank, "check the rank of a family at one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("paut", "iend"), required=True)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="additionally search all smaller subsets (budgeted)",
    )

    p = command("selftest", _cmd_selftest, "run the oracle suites")
    p.add_argument("--n", type=int, required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version.
        return int(exc.code or 0)
    fmt = args.format
    try:
        result, code = args.run(args)
        _write_output(result, fmt, sys.stdout)
        return code
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
