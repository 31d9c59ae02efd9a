"""Command-line interface: outputs, formats, configuration, exit codes."""

from __future__ import annotations

import json
import time
from functools import partial

import pytest

from pathmonoid import GreensClassification, Word, cli, count_iend, rankcheck, selftest
from pathmonoid.cli import MAX_WORD_WORK, main
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
        "argv, bound",
        [
            (("count", "--n", "24", "--per-mask"), "bound n_max_enumerate=8"),
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

    def test_csv_not_available(self, capsys):
        code, _, err = run(capsys, "count", "--n", "2", "--format", "csv")
        assert code == 2
        assert "csv" in err


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
        code, _, err = run(capsys, "classify", "--n", "7", "--family", "paut", "--relation", "L")
        assert code == 3
        assert "n_max_closure" in json.loads(err)["error"]["message"]


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

    def test_n_cross_check(self, capsys):
        code, _, err = run(capsys, "factor", "--element", "n=3;1>1", "--n", "4")
        assert code == 2
        assert "disagrees" in json.loads(err)["error"]["message"]

    def test_non_member_is_usage_error(self, capsys):
        code, _, err = run(capsys, "factor", "--element", "n=4;1>1,2>4")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "usage"

    def test_malformed_element(self, capsys):
        code, _, err = run(capsys, "factor", "--element", "nonsense")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "usage"


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
        # factor: 4n² letters; expand: the longest expansion; n per letter.
        letters = 4 * 10**16 if argv[0] == "factor" else MAX_EXPANSION_LENGTH
        assert f"estimated {letters * 10**8} steps" in error["message"]
        assert f"bound of {MAX_WORD_WORK}" in error["message"]

    def test_edge_of_the_bound(self, capsys):
        assert 4 * 292**3 <= MAX_WORD_WORK < 4 * 293**3
        code, _, _ = run(capsys, "factor", "--element", "n=293;1>1")
        assert code == 3
        # expand has its own, far larger edge.
        code, out, _ = run(capsys, "expand", "--symbol", "b3", "--n", "293")
        assert code == 0 and json.loads(out)["matches_generator"] is True
        top = MAX_WORD_WORK // MAX_EXPANSION_LENGTH
        assert top == 1_020_408
        code, _, err = run(capsys, "expand", "--symbol", "b3", "--n", str(top + 1))
        assert code == 3 and f"{MAX_EXPANSION_LENGTH * (top + 1)} steps" in err

    def test_malformed_element_is_still_a_usage_error(self, capsys):
        code, _, err = run(capsys, "factor", "--element", '{"n": 1e400, "pairs": []}')
        assert code == 2
        assert json.loads(err)["error"]["code"] == "usage"


class TestVerifyRank:
    def test_exhaustive_paut_p3(self, capsys):
        code, out, _ = run(capsys, "verify-rank", "--n", "3", "--family", "paut", "--exhaustive")
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["exhaustive_lower_bound"] == 3
        assert payload["witnesses"]["reversal_in_alphabet"] is True

    def test_plain_iend(self, capsys):
        code, out, _ = run(capsys, "verify-rank", "--n", "4", "--family", "iend")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert payload["exhaustive_lower_bound"] is None

    def test_needs_n_at_least_3(self, capsys):
        code, _, err = run(capsys, "verify-rank", "--n", "2", "--family", "paut")
        assert code == 2

    def test_budget_refusal(self, capsys):
        code, _, err = run(
            capsys,
            "verify-rank", "--n", "5", "--family", "paut", "--exhaustive",
            "--subset-search-budget", "1000",
        )
        assert code == 3
        error = json.loads(err)["error"]
        assert error["code"] == "resource-refused"
        assert "searching 31375 candidate 3-subsets" in error["message"]

    def test_budget_counts_the_subsets_searched(self, capsys):
        # C(105, 3) = 187,460 subsets, but the forced reversal leaves C(104, 2).
        code, out, _ = run(
            capsys,
            "verify-rank", "--n", "4", "--family", "iend", "--exhaustive",
            "--subset-search-budget", "6000",
        )
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
        assert json.loads(out)["counterexample"] == named
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

        monkeypatch.setattr(cli, "factor_paut", broken)
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


# One planted fault per suite: the name selftest looks it up by, the faulty
# stand-in, the check it breaks first and how that check's text starts.
PLANTED_FAULTS = {
    "counts-match-enumeration": (
        "count_iend", lambda n: count_iend(n) + 1, partial(check_counts, 1), "iend n=1:"),
    "factorization-round-trip": (
        "factor_paut", lambda a: Word(a.n, ()), partial(check_round_trip, "paut", 3),
        "paut element n=3;"),
    "expansion-identities": (
        "expand_symbol", lambda sym, n: Word(n, ()), partial(check_expansions, 3),
        "n=3 symbol tau:"),
    "greens-oracle": (
        "classify", _one_class, partial(check_greens, "paut", 3), "paut n=3 relation L:"),
}


class TestSelftest:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "selftest", "--n", "2")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert [s["name"] for s in payload["suites"]] == list(PLANTED_FAULTS)

    @pytest.mark.parametrize("suite", PLANTED_FAULTS)
    def test_planted_fault_names_its_counterexample(self, suite, capsys, monkeypatch):
        name, fault, check, named = PLANTED_FAULTS[suite]
        monkeypatch.setattr(selftest, name, fault)
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


class TestConfig:
    def test_env_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PATHMONOID_N_MAX_ENUMERATE", "3")
        code, _, err = run(capsys, "enumerate", "--n", "4", "--family", "paut")
        assert code == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PATHMONOID_N_MAX_ENUMERATE", "3")
        code, out, _ = run(
            capsys, "enumerate", "--n", "4", "--family", "paut", "--n-max-enumerate", "5"
        )
        assert code == 0
        assert json.loads(out)["count"] == 71

    def test_env_format(self, capsys, monkeypatch):
        monkeypatch.setenv("PATHMONOID_FORMAT", "text")
        code, out, _ = run(capsys, "count", "--n", "2", "--family", "paut")
        assert code == 0
        assert out.startswith("n 2")

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("PATHMONOID_SUBSET_SEARCH_BUDGET", "lots")
        code, _, err = run(capsys, "count", "--n", "2")
        assert code == 2

    def test_error_objects_respect_env_format(self, capsys, monkeypatch):
        monkeypatch.setenv("PATHMONOID_FORMAT", "text")
        code, _, err = run(capsys, "enumerate", "--n", "9", "--family", "paut")
        assert code == 3
        assert err.startswith("error (resource-refused):")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--n", "5", "--per-mask"),
            ("enumerate", "--n", "4", "--family", "iend"),
            ("classify", "--n", "3", "--family", "iend", "--relation", "J"),
            ("factor", "--element", "n=5;1>5,3>1,5>3"),
            ("verify-rank", "--n", "3", "--family", "iend", "--exhaustive"),
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

    def test_nonpositive_n(self, capsys):
        code, _, err = run(capsys, "count", "--n", "0")
        assert code == 2
