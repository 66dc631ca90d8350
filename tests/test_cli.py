"""Case-file handling, report shapes, and exit codes of the command line."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ialex import cli
from ialex.laurent import normalize

from conftest import MIXED_POOL


def invoke(tmp_path, case, *command, flags=()):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case), encoding="utf-8")
    runner = CliRunner()
    return runner.invoke(cli.main,
                         [*command, "--input", str(path), *flags])


def report_of(result):
    return json.loads(result.output)


FACTOR_CASE = {"kind": "factor", "payload": {"poly": "t^2 - 1"}}

POINT_CASE = {"kind": "ia-point", "payload": {
    "n": 5,
    "a": ["1", "t - 2", "1"],
    "b": ["t - 1", "t + 1", "1"],
    "c": ["1", "t^2 - t + 1", "1"],
    "perversity": [0, 1, 2, 3],
}}

CIRCLE_CASE = {"kind": "homology", "payload": {
    "simplices": [[0, 1], [1, 2], [0, 2]],
    "monodromy": {"0-1": "t"},
}}


# -- dispatch and report shape ---------------------------------------------------


def test_factor_two_ways(tmp_path):
    via_run = invoke(tmp_path, FACTOR_CASE, "run")
    direct = invoke(tmp_path, FACTOR_CASE, "factor")
    assert via_run.exit_code == 0 and direct.exit_code == 0
    assert via_run.output == direct.output
    report = report_of(direct)
    assert report["status"] == "pass"
    assert report["values"]["factors"] == [["t - 1", 1], ["t + 1", 1]]
    assert report["certificates"] == []


def test_reports_are_byte_stable(tmp_path):
    first = invoke(tmp_path, POINT_CASE, "ia", "point")
    second = invoke(tmp_path, POINT_CASE, "ia", "point")
    assert first.output == second.output
    assert first.output.endswith("\n")
    # canonical JSON: keys sorted, two-space indent
    assert first.output == json.dumps(json.loads(first.output),
                                      indent=2, sort_keys=True) + "\n"


def test_kind_mismatch_is_schema_error(tmp_path):
    result = invoke(tmp_path, FACTOR_CASE, "snf")
    assert result.exit_code == 1
    report = report_of(result)
    assert report["status"] == "error"
    assert report["error"]["code"] == "schema"
    assert report["error"]["path"] == "case.kind"
    assert report["values"] == {}


def test_unknown_kind(tmp_path):
    result = invoke(tmp_path, {"kind": "nope", "payload": {}}, "run")
    assert result.exit_code == 1
    assert report_of(result)["error"]["path"] == "case.kind"


def test_schema_error_paths(tmp_path):
    result = invoke(tmp_path, {"kind": "factor", "payload": {"poly": 5}},
                    "run")
    assert report_of(result)["error"]["path"] == "payload.poly"
    case = {"kind": "snf", "payload": {"matrix": [["t", 7]]}}
    result = invoke(tmp_path, case, "run")
    assert report_of(result)["error"]["path"] == "payload.matrix[0][1]"
    result = invoke(tmp_path, {"kind": "factor", "payload": {}}, "run")
    assert report_of(result)["error"]["path"] == "payload.poly"


@pytest.mark.parametrize("command", ["run", "factor"])
def test_zero_denominator_is_schema_error(tmp_path, command):
    """A zero denominator is one more malformed polynomial string, not an
    exception escaping the case."""
    reports = []
    for text in ("1/0*t", "t^^2"):
        case = {"kind": "factor", "payload": {"poly": text}}
        result = invoke(tmp_path, case, command)
        assert result.exit_code == 1
        report = report_of(result)
        assert report["error"]["message"].startswith("bad polynomial")
        del report["error"]["message"]
        reports.append(report)
    assert reports[0] == reports[1] == {
        "kind": "factor", "status": "error", "values": {},
        "certificates": [],
        "error": {"code": "schema", "path": "payload.poly"}}
    matrix = {"kind": "snf", "payload": {"matrix": [["t", "3/0"]]}}
    report, code = cli.run_case(matrix, cli.RunOptions())
    assert code == 1 and report["error"]["code"] == "schema"
    assert report["error"]["path"] == "payload.matrix[0][1]"


@pytest.mark.parametrize("text", ["2*", "2*+t", "2*-1"])
def test_star_without_t_is_schema_error(tmp_path, text):
    """A `*` stands only before `t`: `2*` is not the constant 2."""
    result = invoke(tmp_path, {"kind": "factor", "payload": {"poly": text}},
                    "run")
    assert result.exit_code == 1
    error = report_of(result)["error"]
    assert (error["code"], error["path"]) == ("schema", "payload.poly")


def test_missing_input_file(tmp_path):
    runner = CliRunner()
    result = runner.invoke(cli.main, ["run", "--input",
                                      str(tmp_path / "absent.json")])
    assert result.exit_code == 1
    assert report_of(result)["error"]["code"] == "io"


def test_degree_cap_exits_two(tmp_path):
    case = {"kind": "factor", "payload": {"poly": "t^9 - 1"}}
    result = invoke(tmp_path, case, "factor", flags=("--degree-cap", "4"))
    assert result.exit_code == 2
    assert report_of(result)["error"]["code"] == "degree-cap"


def test_unexpected_exception_is_internal_error(tmp_path, monkeypatch):
    """A broken invariant inside ialex (zfactor and exactseq raise
    RuntimeError for one) ends in an error report, not a traceback."""
    def broken(payload, opts):
        raise RuntimeError("factors of (1, 1) do not multiply back")

    monkeypatch.setitem(cli._HANDLERS, "factor", broken)
    result = invoke(tmp_path, FACTOR_CASE, "factor")
    assert result.exit_code == 1
    assert report_of(result)["error"] == {
        "code": "internal",
        "message": "RuntimeError: factors of (1, 1) do not multiply back"}


def test_factor_phi_240_at_the_cap(tmp_path):
    phi240 = "t^64 + t^56 - t^40 - t^32 - t^24 + t^8 + 1"  # degree 64
    case = {"kind": "factor", "payload": {"poly": phi240}}
    result = invoke(tmp_path, case, "factor")
    assert result.exit_code == 0
    assert report_of(result)["values"]["factors"] == [[phi240, 1]]
    result = invoke(tmp_path, case, "factor", flags=("--degree-cap", "63"))
    assert result.exit_code == 2
    assert report_of(result)["error"]["code"] == "degree-cap"


_WIDE = "t^1000000000 + 1"  # span 10^9, over laurent.MAX_SPAN


@pytest.mark.parametrize("case", [
    {"kind": "factor", "payload": {"poly": _WIDE}},
    {"kind": "snf", "payload": {"matrix": [["t - 1", _WIDE]]}},
    {"kind": "bounds", "payload": {"op": "check", "ia": "t - 1",
                                   "allowed": [_WIDE]}},
    {"kind": "bounds", "payload": {
        "op": "maxpower", "gamma": "t - 1", "gamma_j": 3, "j": 2, "n": 6,
        "perversity": [0] * 5,
        "table": {"entries": [{"i": 0, "p": 2, "q": 0, "poly": _WIDE}]}}},
    {"kind": "bounds", "payload": {
        "op": "allowed", "j": 2, "lambda": "t - 1",
        "stratification": {"n": 7, "strata": [
            {"dim": 1, "components": [{"xi": [_WIDE]}]}]}}},
], ids=["poly", "matrix-entry", "bounds", "e2-table", "stratification"])
def test_span_cap_exits_two(tmp_path, case):
    result = invoke(tmp_path, case, "run")
    assert result.exit_code == 2
    error = report_of(result)["error"]
    assert error["code"] == "degree-cap"
    assert "span 1000000000" in error["message"]


_OVER_CAP = "t^5 - t - 1"
_CAPPED_CASES = {
    "allowed-single": {"op": "allowed", "i": 2, "n": 7, "k": 4,
                       "c": _OVER_CAP, "xi": ["t - 1"]},
    "allowed-general": {"op": "allowed", "j": 2, "lambda": _OVER_CAP,
                        "stratification": {"n": 7, "strata": []}},
    "exclude": {"op": "exclude", "i": 2, "k": 4, "perversity": [0] * 5,
                "gamma": _OVER_CAP, "lambda": "t - 2", "xi": ["t - 1"]},
    "maxpower": {"op": "maxpower", "gamma": _OVER_CAP, "j": 2, "gamma_j": 0,
                 "n": 6, "perversity": [0] * 5, "table": {"entries": []}},
    "check": {"op": "check", "ia": _OVER_CAP, "allowed": []},
    "split": {"op": "split", "modules": [{"torsion": ["t - 1"]}],
              "prime": _OVER_CAP},
}


@pytest.mark.parametrize("name", sorted(_CAPPED_CASES))
def test_degree_cap_reaches_every_factorization(tmp_path, name):
    payload = _CAPPED_CASES[name]
    kind, command = ("seq", "split") if name == "split" else \
        ("bounds", payload["op"])
    result = invoke(tmp_path, {"kind": kind, "payload": payload},
                    kind, command, flags=("--degree-cap", "4"))
    assert result.exit_code == 2
    error = report_of(result)["error"]
    assert error["code"] == "degree-cap"
    assert error["message"] == "degree 5 exceeds the factorization cap 4"


def test_module_entry_point(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(FACTOR_CASE), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ialex", "factor", "--input", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == invoke(tmp_path, FACTOR_CASE, "factor").output


# -- kind handlers ------------------------------------------------------------------


def test_snf_case(tmp_path):
    case = {"kind": "snf", "payload": {
        "matrix": [["t - 1", "1"], ["0", "t + 1"]]}}
    result = invoke(tmp_path, case, "snf")
    assert result.exit_code == 0
    values = report_of(result)["values"]
    assert values["factors"] == ["1", "t^2 - 1"]
    assert values["rank"] == 2
    assert values["cokernel"] == {"free": 0, "torsion": ["t^2 - 1"]}
    # a third generator with no relation stays free in the cokernel
    case["payload"]["matrix"] = [["t - 1", "1", "0"], ["0", "t + 1", "0"]]
    values = report_of(invoke(tmp_path, case, "snf"))["values"]
    assert values == {"factors": ["1", "t^2 - 1"], "rank": 2,
                      "cokernel": {"free": 1, "torsion": ["t^2 - 1"]}}


def test_snf_empty_matrix_needs_cols(tmp_path):
    case = {"kind": "snf", "payload": {"matrix": [], "cols": 3}}
    values = report_of(invoke(tmp_path, case, "snf"))["values"]
    assert values["rank"] == 0
    assert values["cokernel"] == {"free": 3, "torsion": []}


def test_seq_check_pass_and_fail(tmp_path):
    good = {"kind": "seq", "payload": {
        "op": "check", "polys": ["t - 1", "t^2 - 1", "t + 1"]}}
    result = invoke(tmp_path, good, "seq", "check")
    assert result.exit_code == 0
    assert report_of(result)["values"]["exact"] is True

    bad = {"kind": "seq", "payload": {
        "op": "check", "polys": ["t - 1", "t + 1"]}}
    result = invoke(tmp_path, bad, "seq", "check")
    assert result.exit_code == 1
    report = report_of(result)
    assert report["status"] == "fail"
    assert report["certificates"]


def test_seq_op_injected_and_pinned(tmp_path):
    # the subcommand fills in a missing op and rejects a conflicting one
    case = {"kind": "seq", "payload": {"polys": ["t - 1", "t^2 - 1", "t + 1"]}}
    result = invoke(tmp_path, case, "seq", "subpolynomials")
    assert result.exit_code == 0
    assert report_of(result)["values"]["deltas"] == \
        ["1", "t - 1", "t + 1", "1"]
    mismatch = invoke(tmp_path, {"kind": "seq", "payload": {
        "op": "check", "polys": ["t - 1"]}}, "seq", "solve")
    assert mismatch.exit_code == 1
    assert report_of(mismatch)["error"]["path"] == "payload.op"


def test_seq_solve(tmp_path):
    case = {"kind": "seq", "payload": {
        "op": "solve",
        "polys": ["t^2 - 1", "t^2 + 3*t + 2", None],
        "junctions": {"0": "t - 1"}}}
    result = invoke(tmp_path, case, "seq", "solve")
    assert result.exit_code == 0
    assert report_of(result)["values"]["polys"] == \
        ["t^2 - 1", "t^2 + 3*t + 2", "t + 2"]


def test_seq_split(tmp_path):
    case = {"kind": "seq", "payload": {
        "op": "split",
        "modules": [{"torsion": ["t - 1"]}, {"torsion": ["t^2 - 1"]},
                    {"torsion": ["t + 1"]}],
        "maps": [[["t + 1"]], [["1"]]],
        "prime": "t - 1"}}
    result = invoke(tmp_path, case, "seq", "split")
    assert result.exit_code == 0
    values = report_of(result)["values"]
    assert [m["torsion"] for m in values["modules"]] == \
        [["t - 1"], ["t - 1"], []]
    assert values["orders"] == ["t - 1", "t - 1", "1"]


def test_ia_point_branch_table(tmp_path):
    result = invoke(tmp_path, POINT_CASE, "ia", "point")
    assert result.exit_code == 0
    values = report_of(result)["values"]
    assert values["cut"] == 1
    assert values["ia"] == ["t - 1", "t^2 - t + 1", "t - 2", "1"]
    assert [row["branch"] for row in values["table"]] == \
        ["lambda", "c", "mu", "mu"]


def test_ia_point_validation_error(tmp_path):
    case = {"kind": "ia-point", "payload": {
        "n": 5, "a": ["1"], "b": ["t - 1"], "c": ["1"],
        "perversity": [1, 2, 3, 4]}}
    result = invoke(tmp_path, case, "ia", "point")
    assert result.exit_code == 1
    assert report_of(result)["error"]["code"] == "validation"


def test_ia_product(tmp_path):
    payload = {
        "n": 6, "k": 5, "perversity": [0, 0, 1, 1, 2],
        "sigma": [{"free": 1}],
        "links": [{"torsion": ["t - 1"]}, {"torsion": ["t^2 - t + 1"]},
                  {"torsion": ["2*t - 1"]}],
        "c": ["1", "t^2 - t + 1", "1", "1", "1"],
        "a_high": ["1"],
    }
    case = {"kind": "ia-product", "payload": payload}
    result = invoke(tmp_path, case, "ia", "product")
    assert result.exit_code == 0
    values = report_of(result)["values"]
    assert values["ia"][0] == "t - 1"
    assert values["ia"][1] == "t^4 - 2*t^3 + 3*t^2 - 2*t + 1"
    assert values["report"][2]["nu"] == "2*t - 1"

    # an a_high the instance cannot support; with every high kernel
    # polynomial 1 (an empty a_high, which a defaults to) it passes again
    stuck = {"kind": "ia-product",
             "payload": dict(payload, a_high=["1", "1", "t - 5"])}
    assert invoke(tmp_path, stuck, "ia", "product").exit_code == 1
    eased = invoke(tmp_path, dict(stuck, payload=dict(stuck["payload"], a_high=[])),
                   "ia", "product")
    assert eased.exit_code == 0
    assert report_of(eased)["values"] == values


def test_ia_dual(tmp_path):
    case = {"kind": "ia-dual", "payload": {"ia": ["t - 1", "2*t - 1"],
                                           "n": 3}}
    result = invoke(tmp_path, case, "ia", "dual")
    assert report_of(result)["values"]["dual"] == ["1", "t - 2", "t - 1"]


def test_verify_aggregate(tmp_path):
    case = {"kind": "verify", "payload": {"instances": [
        {"ia": ["t - 1", "t^2 - t + 1", "t - 2", "1"], "n": 5},
        {"ia": ["t - 1", "t + 1"], "n": 4},
    ]}}
    result = invoke(tmp_path, case, "ia", "verify")
    assert result.exit_code == 1
    report = report_of(result)
    assert report["status"] == "fail"
    assert report["values"] == {"instances": 2, "checked": 6, "failures": 1}
    assert report["certificates"][0]["instance"] == 1
    assert report["certificates"][0]["degree"] == 1

    single = {"kind": "verify", "payload": {
        "ia": ["t - 1", "t^2 - t + 1", "t - 2", "1"], "n": 5}}
    assert invoke(tmp_path, single, "ia", "verify").exit_code == 0


def test_bounds_allowed_single_and_general(tmp_path):
    single = {"kind": "bounds", "payload": {
        "op": "allowed", "i": 2, "n": 7, "k": 4,
        "c": "t - 2", "xi": ["t - 1", "t^2 - t + 1"]}}
    result = invoke(tmp_path, single, "bounds", "allowed")
    assert report_of(result)["values"]["allowed"] == \
        ["t - 2", "t^2 - t + 1"]

    general = {"kind": "bounds", "payload": {
        "op": "allowed", "j": 2, "lambda": "1",
        "stratification": {"n": 7, "strata": [
            {"dim": 3, "components": [
                {"xi": ["t - 1", "t + 1", "t^2 + 1"]}]}]}}}
    result = invoke(tmp_path, general, "bounds", "allowed")
    assert report_of(result)["values"]["allowed"] == ["t + 1"]


def _malformed_stratification(strata):
    return {"kind": "bounds", "payload": {
        "op": "allowed", "j": 2, "lambda": "1",
        "stratification": {"n": 7, "strata": strata}}}


@pytest.mark.parametrize("strata", [[True], [{"dim": 3, "components": [5]}]])
def test_malformed_stratification_is_schema_error(tmp_path, strata):
    result = invoke(tmp_path, _malformed_stratification(strata), "run")
    assert result.exit_code == 1
    error = report_of(result)["error"]
    assert error["code"] == "schema"
    assert error["path"] == "payload.stratification"


def test_bounds_exclude(tmp_path):
    payload = {"op": "exclude", "i": 2, "k": 4, "perversity": [0] * 5,
               "lambda": "t - 2", "xi": ["t - 1", "t^2 - t + 1"]}
    certified = {"kind": "bounds", "payload": dict(payload, gamma="t^2 + 1")}
    result = invoke(tmp_path, certified, "bounds", "exclude")
    assert result.exit_code == 0
    assert report_of(result)["values"]["excluded"] is True

    blocked = {"kind": "bounds", "payload": dict(payload, gamma="t - 2")}
    result = invoke(tmp_path, blocked, "bounds", "exclude")
    assert result.exit_code == 1
    assert report_of(result)["values"]["excluded"] is False


def test_bounds_maxpower(tmp_path):
    case = {"kind": "bounds", "payload": {
        "op": "maxpower", "gamma": "t - 1", "j": 2, "gamma_j": 3,
        "n": 6, "perversity": [0, 0, 0, 0, 0],
        "table": {"entries": [{"i": 0, "p": 2, "q": 0, "poly": "t - 1"}]}}}
    result = invoke(tmp_path, case, "bounds", "maxpower")
    assert report_of(result)["values"]["bound"] == 4


def test_bounds_check(tmp_path):
    case = {"kind": "bounds", "payload": {
        "op": "check", "ia": "t^2 - 1", "allowed": ["t - 1"]}}
    result = invoke(tmp_path, case, "bounds", "check")
    assert result.exit_code == 1
    report = report_of(result)
    assert report["values"] == {"ok": False, "prime": "t + 1",
                                "observed": 1, "allowed": 0}

    capped = {"kind": "bounds", "payload": {
        "op": "check", "ia": "t^2 - 1", "allowed": ["t - 1", "t + 1"],
        "powers": {"t - 1": 2}}}
    assert invoke(tmp_path, capped, "bounds", "check").exit_code == 0


def test_homology_case(tmp_path):
    result = invoke(tmp_path, CIRCLE_CASE, "homology")
    assert result.exit_code == 0
    assert report_of(result)["values"]["homology"] == [
        {"free": 0, "torsion": ["t - 1"]},
        {"free": 0, "torsion": []},
    ]


@pytest.mark.parametrize("kind,payload", [
    ("homology", {"simplices": [list(range(40))]}),
    ("e2", {"base": [{"simplices": [[0]]}, {"simplices": [list(range(40))]}],
            "links": [{"torsion": ["t - 1"]}, {"torsion": ["t + 1"]}]}),
], ids=["homology", "e2-family"])
def test_complex_size_cap_exits_two(tmp_path, kind, payload):
    """One 40-vertex simplex would close to 2^40 - 1 faces; the cap refuses
    it before any face is built."""
    result = invoke(tmp_path, {"kind": kind, "payload": payload}, "run")
    assert result.exit_code == 2
    error = report_of(result)["error"]
    assert error["code"] == "complex-size"
    assert "1099511627775 faces" in error["message"]


def test_e2_cone_case(tmp_path):
    case = {"kind": "e2", "payload": {
        "base": {"simplices": [[0]]},
        "links": [{"torsion": ["t - 1"]}, {"torsion": ["t + 1", "t + 1"]}],
        "cone": {"codim": 3, "perversity": [0, 1]}}}
    result = invoke(tmp_path, case, "e2")
    assert result.exit_code == 0
    values = report_of(result)["values"]
    assert values["entries"] == [{"i": 0, "p": 0, "q": 0, "poly": "t - 1"}]
    assert values["bounds"] == [{"j": 0, "bound": "t - 1"},
                                {"j": 1, "bound": "1"}]


def test_e2_free_entry_is_validation_error(tmp_path):
    case = {"kind": "e2", "payload": {
        "base": {"simplices": [[0]]}, "links": [{"free": 1}]}}
    result = invoke(tmp_path, case, "e2")
    assert result.exit_code == 1
    assert report_of(result)["error"]["code"] == "validation"


# -- text rendering ------------------------------------------------------------------


def test_text_table_alignment(tmp_path):
    result = invoke(tmp_path, POINT_CASE, "ia", "point", flags=("--text",))
    lines = result.output.splitlines()
    assert lines[0] == "kind: ia-point"
    assert lines[1] == "status: pass"
    header = next(l for l in lines if l.strip().startswith("degree"))
    rows = lines[lines.index(header) + 1:lines.index(header) + 5]
    column = header.index("branch")
    assert all(len(row) > column and row[column] in "lcm" for row in rows)


def test_text_mode_is_byte_stable(tmp_path):
    first = invoke(tmp_path, CIRCLE_CASE, "homology", flags=("--text",))
    second = invoke(tmp_path, CIRCLE_CASE, "homology", flags=("--text",))
    assert first.output == second.output


# -- corpus --------------------------------------------------------------------------


def write_corpus(root, cases):
    root.mkdir(exist_ok=True)
    for name, case in cases.items():
        (root / name).write_text(json.dumps(case), encoding="utf-8")


def test_corpus_all_pass(tmp_path):
    write_corpus(tmp_path / "corp", {"a.json": FACTOR_CASE,
                                     "b.json": CIRCLE_CASE})
    runner = CliRunner()
    result = runner.invoke(cli.main, ["corpus", str(tmp_path / "corp")])
    assert result.exit_code == 0
    values = report_of(result)["values"]
    assert values["total"] == 2 and values["passed"] == 2
    assert [c["file"] for c in values["cases"]] == ["a.json", "b.json"]


def test_corpus_names_broken_file(tmp_path):
    write_corpus(tmp_path / "corp", {"a.json": FACTOR_CASE})
    (tmp_path / "corp" / "zz.json").write_text("{broken", encoding="utf-8")
    runner = CliRunner()
    result = runner.invoke(cli.main, ["corpus", str(tmp_path / "corp")])
    assert result.exit_code == 1
    report = report_of(result)
    assert report["status"] == "fail"
    broken = report["values"]["cases"][-1]
    assert broken["file"] == "zz.json" and broken["status"] == "error"
    assert "zz.json" in broken["detail"]


def test_corpus_empty_directory(tmp_path):
    (tmp_path / "empty").mkdir()
    runner = CliRunner()
    result = runner.invoke(cli.main, ["corpus", str(tmp_path / "empty")])
    assert result.exit_code == 0
    assert report_of(result)["values"] == {"cases": [], "passed": 0,
                                           "total": 0}


def test_corpus_missing_directory(tmp_path):
    runner = CliRunner()
    result = runner.invoke(cli.main, ["corpus", str(tmp_path / "nowhere")])
    assert result.exit_code == 1
    assert report_of(result)["error"]["code"] == "io"


# -- printed polynomials re-parse ------------------------------------------------------


@given(st.lists(st.sampled_from(MIXED_POOL), min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_factor_output_reparses_to_input(primes):
    product = primes[0]
    for q in primes[1:]:
        product = product * q
    case = {"kind": "factor", "payload": {"poly": str(product)}}
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("case.json", "w", encoding="utf-8") as fh:
            json.dump(case, fh)
        result = runner.invoke(cli.main, ["factor", "--input", "case.json"])
    assert result.exit_code == 0
    rebuilt = normalize("1")
    for text, mult in report_of(result)["values"]["factors"]:
        rebuilt = rebuilt * normalize(text) ** mult
    assert rebuilt == product


# -- mutated corpus cases ----------------------------------------------------------------

CORPUS = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(
    (Path(__file__).resolve().parents[1] / "fixtures" / "corpus").glob("*.json"))]
FUZZ_POOL = [None, True, 0, -1, 2, 7, 1.5, "", "t", "t - 1", "2*", [], [True],
             [5], {}, {"dim": 3, "components": [5]}]


@st.composite
def _mutated(draw, value):
    """value with one entry replaced by a pool value, one entry deleted, or
    one entry mutated in the same way (a nested mutation)."""
    if not isinstance(value, (dict, list)) or not value:
        return draw(st.sampled_from(FUZZ_POOL))
    key = draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                               else range(len(value))))
    action = draw(st.sampled_from(["replace", "delete", "nest"]))
    value = copy.copy(value)
    if action == "delete":
        del value[key]
    else:
        value[key] = draw(st.sampled_from(FUZZ_POOL) if action == "replace"
                          else _mutated(value[key]))
    return value


@given(st.sampled_from(CORPUS).flatmap(_mutated))
@example(_malformed_stratification([True]))
@example(_malformed_stratification([{"dim": 3, "components": [5]}]))
@settings(max_examples=300, deadline=None)
def test_mutated_corpus_cases_end_in_a_report(case):
    """Every mutation of a shipped case gives a report and an exit code of
    0, 1 or 2, and the report renders both ways: no traceback."""
    report, code = cli.run_case(case, cli.RunOptions())
    assert code in (0, 1, 2)
    for fmt in ("json", "text"):
        assert cli.render_report(report, fmt)
