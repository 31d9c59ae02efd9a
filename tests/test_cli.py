"""Command-line interface: outputs, formats, fixed bounds, exit codes."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
import time
from functools import partial
from pathlib import Path

import pytest

import pathmonoid
from pathmonoid import (
    GreensClassification,
    Word,
    census,
    cli,
    count_paut,
    empty_map,
    enumerate_paut,
    factorize,
    format_element,
    identity,
    path_core,
    rankcheck,
    selftest,
)
from pathmonoid.cli import MAX_WORD_WORK, main
from pathmonoid.factorize import word_length_bound
from pathmonoid.genwords import MAX_EXPANSION_LENGTH
from pathmonoid.selftest import (
    check_counts,
    check_expansions,
    check_greens,
    check_round_trip,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_paut_p2_json(self, capsys):
        code, out, err = run(capsys, "count", "--n", "2", "--family", "paut")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["paut_count"] == 7
        assert "iend_count" not in payload

    def test_both_families_text(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "4", "--format", "text")
        assert code == 0
        assert "paut_count 71" in out and "iend_count 105" in out

    def test_per_mask_refines_totals(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "4", "--per-mask")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["per_mask"]) == 16
        assert sum(row["paut_contribution"] for row in payload["per_mask"]) == 71
        mask_1101 = next(r for r in payload["per_mask"] if r["mask"] == "1101")
        assert (mask_1101["r"], mask_1101["s"], mask_1101["T"]) == (2, 3, 1)
        assert mask_1101["paut_contribution"] == 4

    @pytest.mark.parametrize(
        "family, contributions",
        [
            ("paut", ["paut_contribution"]),
            ("iend", ["iend_contribution"]),
            ("both", ["paut_contribution", "iend_contribution"]),
        ],
    )
    def test_per_mask_row_keys(self, capsys, family, contributions):
        code, out, _ = run(capsys, "count", "--n", "3", "--family", family, "--per-mask")
        assert code == 0
        rows = json.loads(out)["per_mask"]
        assert len(rows) == 8
        for row in rows:
            assert list(row) == ["mask", "r", "s", "T", "q1", "q2", "t1", "t2", *contributions]

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (("count", "--n", "24", "--per-mask"), "bound of 8 for the per-mask table"),
            (("count", "--n", "100000000"), f"estimated {10**24} steps"),
        ],
        ids=["per-mask-n24", "n1e8"],
    )
    def test_refused_before_counting(self, capsys, argv, bound):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "resource-refused" and bound in error["message"]

    def test_edge_of_the_bound(self, capsys):
        # The closed form is estimated at n³ steps.
        assert 464**3 <= MAX_WORD_WORK < 465**3
        code, out, _ = run(capsys, "count", "--n", "464")
        assert code == 0 and json.loads(out)["iend_count"] > json.loads(out)["paut_count"] > 0
        code, _, err = run(capsys, "count", "--n", "465")
        assert code == 3
        assert f"estimated {465**3} steps" in err and f"bound of {MAX_WORD_WORK}" in err

    def test_csv_not_available(self, capsys, monkeypatch):
        # Only enumerate and classify offer csv, so argparse refuses it for
        # every other command before the command's library call.
        def must_not_run(*args, **kwargs):
            pytest.fail("the command ran before --format csv was refused")

        for name in ("_count", "factor_iend", "expand_symbol", "verify_rank"):
            monkeypatch.setattr(cli, name, must_not_run)
        monkeypatch.setattr(selftest, "run_suites", must_not_run)
        for argv in [
            ("count", "--n", "2"),
            ("factor", "--element", "n=3;1>3,2>2,3>1"),
            ("expand", "--symbol", "es1,4", "--n", "6"),
            ("verify-rank", "--n", "3", "--family", "paut"),
            ("selftest", "--n", "3"),
        ]:
            code, out, err = run(capsys, *argv, "--format", "csv")
            assert code == 2 and out == "", argv
            assert "csv" in err, argv


class TestEnumerate:
    def test_text_one_element_per_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--family", "paut", "--format", "text")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert lines == sorted(lines)

    def test_json_count_and_elements(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--family", "iend")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 26 == len(payload["elements"])

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1", "--family", "iend", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "element"
        assert len(out.splitlines()) == 3

    def test_refusal_exit_3(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "9", "--family", "paut")
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == "resource-refused"


class TestClassify:
    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3", "--family", "paut", "--relation", "J")
        payload = json.loads(out)
        assert code == 0
        assert payload["relation"] == "J"
        assert payload["class_count"] == 5 == len(payload["classes"])
        assert sum(len(c) for c in payload["classes"]) == 22

    def test_lowercase_relation_accepted(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3", "--family", "iend", "--relation", "l")
        payload = json.loads(out)
        assert code == 0
        assert payload["relation"] == "L" and payload["class_count"] == 10

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", "2", "--family", "paut", "--relation", "H", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "class,element"
        assert len(out.splitlines()) == 8  # header + 7 elements

    def test_closure_cap_refusal(self, capsys):
        # classify has no bound of its own: the enumeration refuses first.
        code, _, err = run(capsys, "classify", "--n", "9", "--family", "paut", "--relation", "L")
        assert code == 3
        assert json.loads(err)["error"]["message"] == "enumeration at n=9 is above the bound of 8"


class TestFactor:
    def test_full_reversal_factors_to_tau(self, capsys):
        code, out, _ = run(capsys, "factor", "--element", "n=3;1>3,2>2,3>1")
        payload = json.loads(out)
        assert code == 0
        assert payload["word"] == "tau"
        assert payload["length"] == 1
        assert payload["verified"] is True
        assert payload["family"] == "paut"

    def test_json_element_form(self, capsys):
        code, out, _ = run(
            capsys, "factor", "--element", '{"n": 5, "pairs": [[1, 1], [3, 2]]}'
        )
        payload = json.loads(out)
        assert code == 0 and payload["verified"] is True
        assert payload["family"] == "iend"

    def test_derived_alphabet(self, capsys):
        code, out, _ = run(
            capsys, "factor", "--element", "n=5;1>1,3>2", "--alphabet", "derived"
        )
        payload = json.loads(out)
        assert code == 0 and payload["verified"] is True
        assert payload["alphabet"] == "derived"

    def test_non_member_is_usage_error(self, capsys):
        code, _, err = run(capsys, "factor", "--element", "n=4;1>1,2>4")
        assert code == 2
        assert json.loads(err)["error"] == {
            "code": "usage",
            "message": "n=4;1>1,2>4 is not an injective partial endomorphism",
        }

    @pytest.mark.parametrize("n", (1, 2))
    def test_below_n3_only_the_derived_alphabet(self, capsys, n):
        # No base alphabet exists below n = 3, not even for the identity,
        # whose derived word is empty.
        for a in enumerate_paut(n):
            element = format_element(a)
            code, out, err = run(capsys, "factor", "--element", element)
            assert code == 2 and out == "", element
            assert json.loads(err)["error"] == {
                "code": "usage",
                "message": f"expansion requires n >= 3, got n={n}",
            }
            code, out, _ = run(capsys, "factor", "--element", element, "--alphabet", "derived")
            payload = json.loads(out)
            assert code == 0 and payload["verified"] is True, element
            assert payload["alphabet"] == "derived" and payload["family"] == "paut"

    @pytest.mark.parametrize("element,family", [("n=6;1>1,2>2,4>5", "paut"), ("n=5;1>1,3>2", "iend")])
    def test_membership_is_decided_once_per_entry(self, capsys, monkeypatch, element, family):
        # factor_iend checks is_iend only and factors both families by one
        # rule; the one PAut membership test is the "family" label's.
        calls = []

        def counting_is_paut(a):
            calls.append(a)
            return path_core.is_paut(a)

        monkeypatch.setattr(factorize, "is_paut", counting_is_paut)
        monkeypatch.setattr(cli, "is_paut", counting_is_paut)
        code, out, _ = run(capsys, "factor", "--element", element)
        payload = json.loads(out)
        assert code == 0 and payload["verified"] is True
        assert payload["family"] == family
        assert len(calls) == 1

    def test_malformed_element(self, capsys):
        code, _, err = run(capsys, "factor", "--element", "nonsense")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "usage"

    def test_failed_round_trip_exits_1(self, capsys, monkeypatch):
        # A word that evaluates to the wrong element is reported, not hidden.
        monkeypatch.setattr(cli, "eval_word", lambda word: identity(word.n))
        code, out, _ = run(capsys, "factor", "--element", "n=3;1>3,2>2,3>1")
        assert code == 1 and json.loads(out)["verified"] is False
        code, out, _ = run(capsys, "factor", "--element", "n=3;1>3,2>2,3>1", "--format", "text")
        assert code == 1 and out.splitlines()[-1] == "verified false"


class TestExpand:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "expand", "--symbol", "es1,4", "--n", "6")
        payload = json.loads(out)
        assert code == 0
        assert payload["matches_generator"] is True
        assert payload["evaluates_to"] == "n=6;2>3,3>2,5>5,6>6"

    def test_out_of_range_symbol(self, capsys):
        code, _, err = run(capsys, "expand", "--symbol", "es1,9", "--n", "5")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "usage"

    def test_non_ascii_digit_symbol(self, capsys):
        # "a٣" (Arabic-Indic 3) was once read as a3.
        code, out, err = run(capsys, "expand", "--symbol", "a\u0663", "--n", "7")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "usage"

    def test_mismatch_with_the_generator_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "make_generator", lambda sym, n: empty_map(n))
        code, out, _ = run(capsys, "expand", "--symbol", "es1,4", "--n", "6")
        assert code == 1 and json.loads(out)["matches_generator"] is False
        code, out, _ = run(capsys, "expand", "--symbol", "es1,4", "--n", "6", "--format", "text")
        assert code == 1 and out.splitlines()[-1] == "matches_generator false"


class TestWordWorkBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "--element", "n=100000000;1>1"),
            ("factor", "--element", '{"n": 100000000, "pairs": [[1, 1]]}'),
            ("expand", "--symbol", "b3", "--n", "100000000"),
        ],
    )
    def test_huge_n_refused_before_building(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "resource-refused"
        # factor: the step bound; expand: the longest expansion plus 2 per
        # bit of n, for the pairs it prints; n per letter.
        n = 10**8
        letters = word_length_bound(n) if argv[0] == "factor" else MAX_EXPANSION_LENGTH + 2 * n.bit_length()
        assert f"estimated {letters * n} steps" in error["message"]
        assert f"bound of {MAX_WORD_WORK}" in error["message"]

    def test_edge_of_the_bound(self, capsys):
        # factor's edge: the largest n whose step bound, n per letter, fits.
        edge = 1
        while (edge + 1) * word_length_bound(edge + 1) <= MAX_WORD_WORK:
            edge += 1
        # The identity factors to the empty word, so the edge itself runs fast.
        text = f"n={edge};" + ",".join(f"{x}>{x}" for x in range(1, edge + 1))
        code, out, _ = run(capsys, "factor", "--element", text)
        assert code == 0 and json.loads(out)["length"] == 0
        code, _, err = run(capsys, "factor", "--element", f"n={edge + 1};1>1")
        assert code == 3 and f"{(edge + 1) * word_length_bound(edge + 1)} steps" in err
        # expand has its own, far larger edge.
        code, out, _ = run(capsys, "expand", "--symbol", "b3", "--n", str(edge + 1))
        assert code == 0 and json.loads(out)["matches_generator"] is True
        # The longest expansion plus 2 per bit of n; both sides have 21 bits.
        top, letters = 1_923_076, MAX_EXPANSION_LENGTH + 2 * 21
        assert top.bit_length() == (top + 1).bit_length() == 21
        assert top * letters <= MAX_WORD_WORK < (top + 1) * letters
        code, _, err = run(capsys, "expand", "--symbol", "b3", "--n", str(top + 1))
        assert code == 3 and f"{letters * (top + 1)} steps" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "--element", f"n={'1' * 1500};1>1"),
            ("factor", "--element", f"n={'1' * 4300};1>1"),
            ("count", "--n", "1" * 2000),
            ("expand", "--symbol", "b3", "--n", "1" * 4300),
        ],
        ids=["factor-1500-digits", "factor-4300-digits", "count-2000-digits", "expand-4300-digits"],
    )
    def test_refusal_of_a_many_digit_n_is_short(self, capsys, argv):
        # Written in full, these estimates pass Python's 4,300-digit limit on
        # formatting an int, and the refusal used to exit 2 as a usage error.
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "resource-refused" and len(error["message"]) < 200

    def test_malformed_element_is_still_a_usage_error(self, capsys):
        code, _, err = run(capsys, "factor", "--element", '{"n": 1e400, "pairs": []}')
        assert code == 2
        assert json.loads(err)["error"]["code"] == "usage"

    @pytest.mark.parametrize(
        "element",
        [
            '{"n": 1e300, "pairs": []}',
            '{"n": 3.9, "pairs": [[1.5, 1.2]]}',
            '{"n": "3", "pairs": []}',
            '{"n": true, "pairs": []}',
            '{"n": 3, "pairs": ' + "[" * 100000 + "]" * 100000 + "}",
        ],
        ids=["n-1e300", "floats", "n-string", "n-bool", "deep-nesting"],
    )
    def test_json_numbers_are_not_coerced(self, capsys, element):
        # 1e300 was once read as an int n and refused with a message of
        # about 900 digits; 3.9 with [[1.5, 1.2]] was factored as n=3;1>1;
        # nesting past the recursion limit was reported as an internal error.
        code, out, err = run(capsys, "factor", "--element", element)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "usage" and len(error["message"]) < 200


class TestVerifyRank:
    def test_exhaustive_paut_p3(self, capsys):
        code, out, _ = run(capsys, "verify-rank", "--n", "3", "--family", "paut")
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["exhaustive_lower_bound"] == 3
        assert payload["witnesses"]["reversal_in_alphabet"] is True

    def test_plain_iend(self, capsys):
        # The first search of IEnd(P_6), C(2126, 5) subsets, is above the budget.
        code, out, _ = run(capsys, "verify-rank", "--n", "6", "--family", "iend")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert payload["exhaustive_lower_bound"] is None and payload["subsets_searched"] is None

    def test_exhaustive_flag_is_gone(self, capsys):
        # The subset search is decided by its scope, not by a flag.
        code, out, err = run(capsys, "verify-rank", "--n", "4", "--family", "iend", "--exhaustive")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --exhaustive" in err

    @pytest.mark.parametrize("n", [2, 0, -4])
    def test_needs_n_at_least_3(self, capsys, n):
        code, out, err = run(capsys, "verify-rank", "--n", str(n), "--family", "paut")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == (
            f"rank verification needs the alphabets (n >= 3), got n={n}"
        )

    def test_budget_counts_the_subsets_searched(self, capsys):
        # C(105, 3) = 187,460 subsets, but the forced reversal leaves C(104, 2).
        code, out, _ = run(capsys, "verify-rank", "--n", "4", "--family", "iend")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert payload["subsets_searched"] == 5356
        assert payload["exhaustive_lower_bound"] == 4

    @pytest.mark.parametrize(
        "fault,named",
        [
            (lambda letters: letters + letters[:1], "letter 1 of 5, n=4;1>4,2>3,3>2,4>1, is redundant"),
            (lambda letters: letters[1:], "n=4;1>1,2>2 is not generated"),
        ],
        ids=["duplicated-letter", "missing-letter"],
    )
    def test_planted_fault_names_its_counterexample(self, capsys, monkeypatch, fault, named):
        shipped = rankcheck.alphabet_elements
        monkeypatch.setattr(
            rankcheck, "alphabet_elements", lambda family, n: fault(shipped(family, n))
        )
        code, out, _ = run(capsys, "verify-rank", "--n", "4", "--family", "iend")
        assert code == 1
        payload = json.loads(out)
        assert payload["counterexample"] == named
        assert list(payload) == [
            "n", "family", "formula_value", "generating_set_size", "generates", "irredundant",
            "witnesses", "exhaustive_lower_bound", "subsets_searched", "ok", "counterexample",
        ]
        code, out, _ = run(
            capsys, "verify-rank", "--n", "4", "--family", "iend", "--format", "text"
        )
        assert code == 1
        assert out.splitlines()[-2:] == [f"FAIL {named}", "FAILED"]

    def test_passing_run_has_no_counterexample(self, capsys):
        code, out, _ = run(capsys, "verify-rank", "--n", "4", "--family", "paut")
        assert code == 0 and "counterexample" not in json.loads(out)


class TestInternalError:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_broken_invariant_exits_4(self, capsys, monkeypatch, fmt):
        def broken(a):
            raise RuntimeError("block order repair selected an empty segment")

        monkeypatch.setattr(cli, "factor_iend", broken)
        code, out, err = run(capsys, "factor", "--element", "n=3;1>2", "--format", fmt)
        assert code == cli.EXIT_INTERNAL == 4 and out == ""
        if fmt == "json":
            error = json.loads(err)["error"]
            assert error == {
                "code": "internal",
                "message": "block order repair selected an empty segment",
            }
        else:
            assert err == "error (internal): block order repair selected an empty segment\n"


def _one_class(elements, relation):
    return GreensClassification(relation, (tuple(elements),))


# One planted fault per suite: how to plant it, the check it breaks first
# and how that check's text starts.
PLANTED_FAULTS = {
    "counts-match-enumeration": (
        lambda mp: mp.setattr(
            selftest, "_count", lambda n, family: census._count(n, family) + (family == "iend")),
        partial(check_counts, 1), "iend n=1:"),
    "factorization-round-trip": (
        lambda mp: mp.setattr(selftest, "factor_iend", lambda a: Word(a.n, ())),
        partial(check_round_trip, "paut", 3), "paut element n=3;"),
    "expansion-identities": (
        lambda mp: mp.setattr(selftest, "expand_symbol", lambda sym, n: Word(n, ())),
        partial(check_expansions, 3), "n=3 symbol tau:"),
    "greens-oracle": (
        lambda mp: mp.setattr(selftest, "classify", _one_class),
        partial(check_greens, "paut", 3), "paut n=3 relation L:"),
}


class TestSelftest:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "selftest", "--n", "2")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert [s["name"] for s in payload["suites"]] == list(PLANTED_FAULTS)

    @pytest.mark.parametrize("suite", PLANTED_FAULTS)
    def test_planted_fault_names_its_counterexample(self, suite, capsys, monkeypatch):
        plant, check, named = PLANTED_FAULTS[suite]
        plant(monkeypatch)
        counterexample = check()
        assert counterexample.startswith(named)

        code, out, _ = run(capsys, "selftest", "--n", "4")
        assert code == 1
        for entry in json.loads(out)["suites"]:
            if entry["name"] == suite:
                scope = entry["scope"]
                assert entry == {"name": suite, "scope": scope, "passed": False,
                                 "counterexample": counterexample}
            else:
                assert list(entry) == ["name", "scope", "passed"] and entry["passed"]

        code, out, _ = run(capsys, "selftest", "--n", "4", "--format", "text")
        failed = [line for line in out.splitlines() if not line.startswith("PASS ")]
        assert code == 1 and failed == [f"FAIL {suite} ({scope}): {counterexample}", "FAILED"]

    def test_greens_oracle_reaches_n6(self, capsys, monkeypatch):
        # Both families are checked up to n = 6, whatever n above it.
        checked = []
        for name in ("check_counts", "check_round_trip", "check_expansions"):
            monkeypatch.setattr(selftest, name, lambda *args: None)
        monkeypatch.setattr(selftest, "check_greens", lambda *args: checked.append(args))
        code, out, _ = run(capsys, "selftest", "--n", "8", "--format", "text")
        assert code == 0
        assert "PASS greens-oracle (n=3..6, both families)" in out.splitlines()
        assert checked == [
            ("paut", 3), ("iend", 3), ("paut", 4), ("iend", 4), ("paut", 5), ("iend", 5),
            ("paut", 6), ("iend", 6),
        ]


class TestConfig:
    """``--format`` is the package's only setting."""

    def test_env_overrides_default(self, capsys, monkeypatch):
        # The bounds are fixed and ``--format`` has no environment fallback:
        # the former PATHMONOID_* variables change nothing.
        argvs = [
            ("enumerate", "--n", "4", "--family", "paut"),
            ("classify", "--n", "4", "--family", "paut", "--relation", "J"),
            ("verify-rank", "--n", "3", "--family", "iend"),
            ("count", "--n", "2"),
        ]
        plain = [run(capsys, *argv) for argv in argvs]
        for name, value in [
            ("PATHMONOID_N_MAX_ENUMERATE", "3"),
            ("PATHMONOID_N_MAX_CLOSURE", "3"),
            ("PATHMONOID_SUBSET_SEARCH_BUDGET", "1"),
            ("PATHMONOID_FORMAT", "text"),
            ("PATHMONOID_FORMAT", "yaml"),
        ]:
            monkeypatch.setenv(name, value)
            assert [run(capsys, *argv) for argv in argvs] == plain, (name, value)
            monkeypatch.delenv(name)

    def test_flag_overrides_env(self, capsys):
        # The bound flags are gone: argparse rejects them as usage errors.
        for flag in ("--n-max-enumerate", "--n-max-closure", "--subset-search-budget"):
            code, out, err = run(capsys, "enumerate", "--n", "4", "--family", "paut", flag, "5")
            assert code == 2 and out == ""
            assert f"unrecognized arguments: {flag} 5" in err

    def test_error_objects_respect_format(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "9", "--family", "paut", "--format", "text")
        assert code == 3
        assert err.startswith("error (resource-refused):")

    def test_library_functions_take_no_settings(self):
        # A parameter or a record field with a default is a setting, and no
        # library function has one.  The records are dataclasses and ``typing.NamedTuple`` classes; the
        # one record exception is ``Symbol``, whose i and j default to 0 for
        # the kinds that take fewer indices (``tau()`` is ``Symbol("tau")``).
        settings = [
            f"{name}({param.name}=)"
            for name in pathmonoid.__all__
            if inspect.isfunction(getattr(pathmonoid, name))
            for param in inspect.signature(getattr(pathmonoid, name)).parameters.values()
            if param.default is not param.empty
        ]
        settings += [
            f"{name}.{field.name}="
            for name in pathmonoid.__all__
            if dataclasses.is_dataclass(getattr(pathmonoid, name))
            for field in dataclasses.fields(getattr(pathmonoid, name))
            if field.default is not dataclasses.MISSING
            or field.default_factory is not dataclasses.MISSING
        ]
        settings += [
            f"{name}.{field}="
            for name in pathmonoid.__all__
            if isinstance(record := getattr(pathmonoid, name), type) and issubclass(record, tuple)
            for field in getattr(record, "_field_defaults", ())
        ]
        assert settings == ["Symbol.i=", "Symbol.j="]

    def test_private_functions_take_no_settings(self):
        # A default on a private function is an argument no caller needs to
        # pass, or one that only some callers pass: a second mode.
        settings = []
        for info in pkgutil.iter_modules(pathmonoid.__path__):
            tree = ast.parse(inspect.getsource(importlib.import_module(f"pathmonoid.{info.name}")))
            settings += [
                f"{info.name}.{node.name}"
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                if node.args.defaults or any(node.args.kw_defaults)
            ]
        assert settings == []

    def test_the_package_all_is_the_one_declaration(self):
        # A submodule's own ``__all__`` is read by nothing (no module
        # star-imports another) and drifts from the package's list.
        declaring = [
            info.name
            for info in pkgutil.iter_modules(pathmonoid.__path__)
            if "__all__" in vars(importlib.import_module(f"pathmonoid.{info.name}"))
        ]
        assert declaring == []
        assert len(set(pathmonoid.__all__)) == len(pathmonoid.__all__)
        assert [name for name in pathmonoid.__all__ if not hasattr(pathmonoid, name)] == []


class TestFixedBounds:
    """Each fixed bound runs the request at its edge and refuses one past it.
    The subset budget's refusal is ``exhaustive_min_size``'s, in
    ``tests/test_rankcheck.py::TestExhaustiveMinSize::test_budget_refusal``."""

    @pytest.mark.parametrize(
        "argv, check",
        [
            (("enumerate", "--n", "8", "--family", "paut"), lambda p: p["count"] == count_paut(8)),
            (("count", "--n", "8", "--per-mask"), lambda p: len(p["per_mask"]) == 256),
            (("classify", "--n", "8", "--family", "paut", "--relation", "L"),
             lambda p: p["class_count"] == 2**8 == len(p["classes"])
             and sum(map(len, p["classes"])) == count_paut(8)),
            (("verify-rank", "--n", "8", "--family", "iend"),
             lambda p: p["ok"] is True and p["formula_value"] == 10),
            (("verify-rank", "--n", "5", "--family", "paut"),
             lambda p: p["ok"] and p["subsets_searched"] == 31375),
        ],
        ids=["enumerate-n8", "per-mask-n8", "classify-n8", "verify-rank-n8", "exhaustive-paut-n5"],
    )
    def test_edge_runs(self, capsys, argv, check):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and check(json.loads(out))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("enumerate", "--n", "9", "--family", "iend"), "enumeration at n=9 is above the bound of 8"),
            (("count", "--n", "9", "--per-mask"), "n=9 is above the bound of 8 for the per-mask table"),
            (("classify", "--n", "9", "--family", "iend", "--relation", "H"),
             "enumeration at n=9 is above the bound of 8"),
            (("verify-rank", "--n", "9", "--family", "iend"),
             "enumeration at n=9 is above the bound of 8"),
            (("verify-rank", "--n", "100000000", "--family", "paut"),
             "enumeration at n=100000000 is above the bound of 8"),
            (("selftest", "--n", "9"), "n=9 is above the bound of 8 for selftest"),
        ],
        ids=[
            "enumerate-n9",
            "per-mask-n9",
            "classify-n9",
            "verify-rank-n9",
            "verify-rank-n1e8",
            "selftest-n9",
        ],
    )
    def test_one_past_the_edge_refused(self, capsys, monkeypatch, argv, message):
        # No refusal here may build an alphabet first: at n = 10^8 that
        # alone would take n^2 memory.
        def alphabet(*args):
            raise RuntimeError("alphabet built before the enumeration bound was checked")

        monkeypatch.setattr(rankcheck, "alphabet_elements", alphabet)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "resource-refused" and message in error["message"]

    def test_readme_table_matches_the_code(self):
        # The "defined as" column of README's "Fixed bounds" table names
        # existing int constants, and every module that refuses work lists
        # each of its MAX_* ints there.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Fixed bounds", 1)[1].split("\n#", 1)[0]
        rows = [line.split("|") for line in section.splitlines() if line.startswith("|")]
        listed = {name for row in rows for name in re.findall(r"`(\w+\.\w+)`", row[3])}
        assert listed
        for name in listed:
            module, constant = name.split(".")
            value = getattr(importlib.import_module(f"pathmonoid.{module}"), constant, None)
            assert type(value) is int, name
        bounds = set()
        for info in pkgutil.iter_modules(pathmonoid.__path__):
            source = inspect.getsource(importlib.import_module(f"pathmonoid.{info.name}"))
            if "raise ResourceRefused" in source:
                bounds |= {
                    f"{info.name}.{name}" for name in re.findall(r"^(MAX_\w+) = ", source, re.M)
                }
        assert "cli.MAX_WORD_WORK" in bounds
        assert bounds <= listed

    @pytest.mark.parametrize(
        "command", ["count", "enumerate", "classify", "factor", "expand", "verify-rank", "selftest"]
    )
    def test_help_lists_no_bound_flag(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert "--format" in out
        for flag in ("--n-max-enumerate", "--n-max-closure", "--subset-search-budget"):
            assert flag not in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--n", "5", "--per-mask"),
            ("enumerate", "--n", "4", "--family", "iend"),
            ("classify", "--n", "3", "--family", "iend", "--relation", "J"),
            ("factor", "--element", "n=5;1>5,3>1,5>3"),
            ("verify-rank", "--n", "3", "--family", "iend"),
        ],
    )
    def test_byte_identical_across_runs(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("count", "--n", "0"), id="count"),
            pytest.param(("count", "--n", "-3", "--per-mask"), id="count-per-mask"),
            pytest.param(("enumerate", "--n", "0", "--family", "paut"), id="enumerate"),
            pytest.param(("classify", "--n", "-2", "--family", "iend", "--relation", "H"), id="classify"),
            pytest.param(("expand", "--symbol", "a0", "--n", "0"), id="expand-a0"),
            pytest.param(("expand", "--symbol", "tau", "--n", "-4"), id="expand-tau"),
            pytest.param(("selftest", "--n", "0"), id="selftest"),
        ],
    )
    def test_nonpositive_n(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(err)["error"]["code"] == "usage"

    @pytest.mark.parametrize("n", [0, -3])
    def test_selftest_states_the_common_n_rule(self, capsys, n):
        code, out, err = run(capsys, "selftest", "--n", str(n))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == f"n must be a positive integer, got {n}"

    def test_family_choices_are_the_table_names(self):
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        choices = {
            name: action.choices
            for name, command in commands.choices.items()
            for action in command._actions
            if action.dest == "family"
        }
        names = tuple(census._FAMILIES)
        assert choices == {
            "count": (*names, "both"), "enumerate": names, "classify": names, "verify-rank": names,
        }

    def test_pyproject_states_the_package_version(self):
        # The release number is written twice: pyproject.toml's ``version``
        # and ``pathmonoid.__version__``, which ``--version`` prints.
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        assert tomllib.loads(pyproject.read_text())["project"]["version"] == pathmonoid.__version__


class TestReadmeExamples:
    README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def test_library_quick_start_runs(self):
        section = self.README.split("## Library quick start", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})

    def test_count_example_is_the_cli_output(self, capsys):
        command, output = re.search(
            r"```sh\n(pathmonoid count [^\n]*)\n```\s*```json\n(.*?)```", self.README, re.S
        ).groups()
        code, out, err = run(capsys, *command.split()[1:])
        assert code == 0 and err == ""
        assert out == output
