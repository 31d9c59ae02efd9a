"""Golden-output gate: fixed CLI invocations compared byte for byte.

Each case runs ``pathmonoid.cli.main`` in-process and compares its exit code
and standard output with the committed file ``tests/golden/<name>.out``.
Refactors that must not change behaviour are gated on this test, including
any iteration order that leaks into the output.  ``tests/golden/factor-words-iend-n5.txt``
holds the ``factor_iend`` word of every element of IEnd(P_5), one
``element word`` line each; ``tests/test_factorize.py`` compares against it.

To rewrite the expected files after an intended output change, including the
word list, run from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from pathmonoid import enumerate_iend, factor_iend, format_element, format_word
from pathmonoid.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
WORDS_N = 5
WORDS_FILE = GOLDEN_DIR / f"factor-words-iend-n{WORDS_N}.txt"

CASES: dict[str, tuple[str, ...]] = {
    "selftest-n5": ("selftest", "--n", "5"),
    "selftest-n3-text": ("selftest", "--n", "3", "--format", "text"),
    "classify-n5-iend-H": ("classify", "--n", "5", "--family", "iend", "--relation", "H"),
    "classify-n5-iend-R": ("classify", "--n", "5", "--family", "iend", "--relation", "R"),
    "classify-n6-paut-L-text": ("classify", "--n", "6", "--family", "paut", "--relation", "L", "--format", "text"),
    "classify-n4-paut-J-csv": ("classify", "--n", "4", "--family", "paut", "--relation", "J", "--format", "csv"),
    "verify-rank-n6-iend": ("verify-rank", "--n", "6", "--family", "iend"),
    "verify-rank-n5-paut-text": ("verify-rank", "--n", "5", "--family", "paut", "--format", "text"),
    "factor-paut-base": ("factor", "--element", "n=7;1>6,2>5,4>1,5>2,6>3", "--alphabet", "base"),
    "factor-iend-base": ("factor", "--element", "n=8;1>3,2>4,4>5,5>6,7>1", "--alphabet", "base"),
    "factor-iend-derived-text": (
        "factor", "--element", '{"n": 6, "pairs": [[1, 2], [2, 1], [4, 3], [6, 6]]}',
        "--alphabet", "derived", "--format", "text",
    ),
    # Workload-size cases: n = 24, several domain blocks, some reversed.
    "factor-n24-iend-base": (
        "factor", "--element",
        "n=24;1>10,2>11,3>12,4>13,6>14,7>15,8>16,11>5,12>4,13>3,14>2,18>23,19>24,21>20,22>19",
        "--alphabet", "base",
    ),
    "factor-n24-paut-text": (
        "factor", "--element",
        "n=24;2>21,3>20,4>19,5>18,8>3,9>4,10>5,14>12,15>11,16>10,17>9,20>24,21>23",
        "--format", "text",
    ),
    "expand-rp": ("expand", "--symbol", "rp1,5", "--n", "7"),
    "expand-b": ("expand", "--symbol", "b5", "--n", "7"),
    "count-n10": ("count", "--n", "10"),
    "count-n16-iend": ("count", "--n", "16", "--family", "iend"),
    "count-n5-per-mask-text": ("count", "--n", "5", "--per-mask", "--format", "text"),
    "enumerate-n4-iend-text": ("enumerate", "--n", "4", "--family", "iend", "--format", "text"),
}


def run_case(argv: tuple[str, ...]) -> str:
    """Exit code line followed by everything written to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


def factor_words(n: int) -> str:
    """One ``element word`` line per element of IEnd(P_n), in enumeration order."""
    return "".join(
        f"{format_element(a)} {format_word(factor_iend(a))}".rstrip() + "\n" for a in enumerate_iend(n)
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert run_case(CASES[name]).encode() == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case_name, case_argv in CASES.items():
        (GOLDEN_DIR / f"{case_name}.out").write_bytes(run_case(case_argv).encode())
        print(f"wrote {case_name}", file=sys.stderr)
    WORDS_FILE.write_text(factor_words(WORDS_N))
    print(f"wrote {WORDS_FILE.stem}", file=sys.stderr)
