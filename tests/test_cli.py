"""Case-file handling, report shapes, and exit codes of the command line."""

import contextlib
import copy
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ialex
from ialex import cli, twisted
from ialex.laurent import MAX_SPAN, normalize

from conftest import MIXED_POOL


class Result(NamedTuple):
    exit_code: int
    output: str


def run_cli(*argv) -> Result:
    """`cli.main(argv)` with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(arg) for arg in argv])
    return Result(code, out.getvalue())


def invoke(tmp_path, case, *command, flags=()):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case), encoding="utf-8")
    return run_cli(*command, "--input", path, *flags)


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
    result = run_cli("run", "--input", tmp_path / "absent.json")
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


def test_version_needs_no_installed_metadata():
    """`--version` reads `ialex.__version__`, so it also works from a
    source checkout that was never installed."""
    proc = subprocess.run([sys.executable, "-m", "ialex", "--version"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, f"ialex {ialex.__version__}\n", "")


@pytest.mark.parametrize("argv", [
    [], ["seq"], ["nope"], ["run"], ["corpus"],
    ["run", "--input", "case.json", "--degree-cap", "x"],
    ["run", "--input", "case.json", "--degree-cap", "-1"],
    ["corpus", "fixtures", "--degree-cap", "-5"],
    ["run", "--inp", "case.json"],
], ids=["no-command", "no-subcommand", "unknown-command", "missing-input",
        "missing-dir", "cap-not-int", "cap-negative", "corpus-cap-negative",
        "abbreviated-option"])
def test_usage_error_exits_one(argv, capsys):
    """Exit code 2 means a resource cap; a malformed command line is invalid
    input and exits 1, with usage and the message on stderr."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ialex") and "error: " in err


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


def test_snf_negative_cols_is_schema_error(tmp_path):
    case = {"kind": "snf", "payload": {"matrix": [], "cols": -2}}
    result = invoke(tmp_path, case, "snf")
    assert result.exit_code == 1
    assert report_of(result)["error"] == {
        "code": "schema", "path": "payload.cols",
        "message": "expected a non-negative integer"}


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


def test_ia_point_nonunit_top_a_is_validation_error(tmp_path):
    case = copy.deepcopy(POINT_CASE)
    case["payload"]["a"] = ["1", "t - 2"]
    case["payload"]["b"] = ["t - 1", "t + 1"]
    case["payload"]["c"] = ["1", "1"]
    result = invoke(tmp_path, case, "ia", "point")
    assert result.exit_code == 1
    assert report_of(result)["error"] == {
        "code": "validation",
        "message": "inconsistent subpolynomial data: boundary splittings must be 1"}


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


def test_ia_product_with_a_wider_than_a_high(tmp_path):
    """a beyond a_high takes b_low = low / (a / a_high); when that quotient
    fails, the report names a against nu if a does not divide it, and
    b_high against b if it does."""
    payload = {
        "n": 6, "k": 5, "perversity": [0, 0, 1, 1, 2],
        "sigma": [{"free": 1}],
        "links": [{"torsion": ["t - 1"]}, {"torsion": ["t^2 - t + 1"]},
                  {"torsion": ["2*t - 1"]}],
        "c": ["1", "t^2 - t + 1", "1", "1", "1"],
        "a_high": [], "a": ["t - 1", "1", "2*t - 1"],
    }
    result = invoke(tmp_path, {"kind": "ia-product", "payload": payload},
                    "ia", "product")
    assert result.exit_code == 0
    values = report_of(result)["values"]
    assert values["ia"] == ["1", "t^4 - 2*t^3 + 3*t^2 - 2*t + 1", "1", "1",
                            "1"]
    assert values["report"][0] == {"degree": 0, "nu": "t - 1", "b_high": "1",
                                   "b_low": "1", "value": "1"}

    foreign = dict(payload, a=["t + 1"])
    result = invoke(tmp_path, {"kind": "ia-product", "payload": foreign},
                    "ia", "product")
    assert result.exit_code == 1
    assert report_of(result)["error"] == {
        "code": "validation",
        "message": "degree 0: a = t + 1 does not divide nu = t - 1"}

    # the top perversity cuts at link degree 1, so degree 1 is all high:
    # a = nu leaves b = 1, which b_high = nu does not divide
    high = dict(payload, perversity=[0, 1, 2, 3, 4], a=["1", "t^2 - t + 1"])
    result = invoke(tmp_path, {"kind": "ia-product", "payload": high},
                    "ia", "product")
    assert result.exit_code == 1
    assert report_of(result)["error"] == {
        "code": "validation",
        "message": "degree 1: b_high = t^2 - t + 1 does not divide b = 1"}


def test_ia_dual(tmp_path):
    case = {"kind": "ia-dual", "payload": {"ia": ["t - 1", "2*t - 1"],
                                           "n": 3}}
    result = invoke(tmp_path, case, "ia", "dual")
    assert report_of(result)["values"]["dual"] == ["1", "t - 2", "t - 1"]


def test_ia_dual_refuses_degrees_without_a_dual(tmp_path):
    case = {"kind": "ia-dual", "payload": {
        "ia": ["t-1", "t+1", "t^2+1", "t-2"], "n": 2}}
    result = invoke(tmp_path, case, "ia", "dual")
    assert result.exit_code == 1
    report = report_of(result)
    assert report["status"] == "error"
    assert report["error"]["code"] == "validation"
    assert "degree 2 holds t^2 + 1" in report["error"]["message"]


def _n_case(kind, n):
    if kind == "ia-dual":
        return {"kind": kind, "payload": {"ia": ["t - 1"], "n": n}}
    return {"kind": kind, "payload": {
        "n": n, "k": 5, "perversity": [0, 0, 1, 1, 2], "sigma": [{"free": 1}],
        "links": [{"torsion": ["t - 1"]}], "c": [], "a_high": []}}


@pytest.mark.parametrize("kind", ["ia-dual", "ia-product"])
def test_output_length_n_is_capped(tmp_path, kind):
    """Both kinds write one entry per degree below n (ia-product: below
    n - 1); an n over MAX_SPAN is refused before any entry is built."""
    for n in (MAX_SPAN + 1, 2**70):
        start = time.perf_counter()
        result = invoke(tmp_path, _n_case(kind, n), "run")
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert report_of(result)["error"] == {
            "code": "degree-cap",
            "message": f"n = {n} is over the cap {MAX_SPAN}"}
    result = invoke(tmp_path, _n_case(kind, MAX_SPAN), "run")
    assert result.exit_code == 0
    key, length = ("dual", MAX_SPAN) if kind == "ia-dual" else ("ia", MAX_SPAN - 1)
    assert len(report_of(result)["values"][key]) == length


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
    assert error["path"] == ("payload.stratification.strata[0]" if strata == [True]
                             else "payload.stratification.strata[0].components[0]")


def _stratum(**fields):
    return _malformed_stratification([dict(
        {"dim": 3, "components": [{"xi": ["t - 1", "t + 1"]}]}, **fields)])


def _maxpower(*entries):
    return {"kind": "bounds", "payload": {
        "op": "maxpower", "gamma": "t - 1", "j": 2, "gamma_j": 3,
        "n": 6, "perversity": [0, 0, 0, 0, 0],
        "table": {"entries": list(entries)}}}


_TABLE_ENTRY = {"i": 0, "p": 2, "q": 0, "poly": "t - 1"}


def _solve(junctions):
    return {"kind": "seq", "payload": {
        "op": "solve", "polys": ["t^2 - 1", "t^2 + 3*t + 2", None],
        "junctions": junctions}}


@pytest.mark.parametrize("case,path,message", [
    (_stratum(dim=True), "payload.stratification.strata[0].dim",
     "expected an integer, got a boolean"),
    (_stratum(dim=3.5), "payload.stratification.strata[0].dim",
     "expected an integer"),
    (_stratum(dim="3"), "payload.stratification.strata[0].dim",
     "expected an integer"),
    ({"kind": "bounds", "payload": {
        "op": "allowed", "j": 2, "lambda": "1",
        "stratification": {"n": 7.9, "strata": []}}},
     "payload.stratification.n", "expected an integer"),
    ({"kind": "bounds", "payload": {
        "op": "allowed", "j": 2, "lambda": "1",
        "stratification": {"strata": []}}},
     "payload.stratification.n", "required field is missing"),
    (_stratum(dim=5), "payload.stratification",
     "bad stratification: stratum dimension 5 leaves no room for a link "
     "knot pair in S^7"),
    (_stratum(components=[{"xi": "t"}]),
     "payload.stratification.strata[0].components[0].xi",
     "expected an array of polynomial strings"),
    (_stratum(components=[{"xi": [], "zeta": ["0"]}]),
     "payload.stratification.strata[0].components[0].zeta[0]", None),
    (_maxpower(dict(_TABLE_ENTRY, i=0.7)), "payload.table.entries[0].i",
     "expected an integer"),
    (_maxpower(dict(_TABLE_ENTRY, p="2")), "payload.table.entries[0].p",
     "expected an integer"),
    (_maxpower(dict(_TABLE_ENTRY, q=False)), "payload.table.entries[0].q",
     "expected an integer, got a boolean"),
    (_maxpower({"i": 0, "p": 2, "q": 0}), "payload.table.entries[0].poly",
     "required field is missing"),
    (_maxpower(_TABLE_ENTRY, dict(_TABLE_ENTRY, poly="t + 1")),
     "payload.table.entries[1]", "repeated table entry (i, p, q) = (0, 2, 0)"),
    (_maxpower(dict(_TABLE_ENTRY, p=-1)), "payload.table",
     "bad table: table indices must be non-negative"),
    ({"kind": "homology", "payload": {
        "simplices": [[0, 1, 2]], "monodromy": {"0-1-2": "t"}}},
     "payload.monodromy.0-1-2",
     'expected an edge key "u-v" of two vertex indices'),
    ({"kind": "homology", "payload": {
        "simplices": [[0, 1]], "monodromy": {"-1-0": "t"}}},
     "payload.monodromy.-1-0", None),
    (_solve({" 0": "t - 1"}), "payload.junctions. 0",
     "expected a junction index of digits"),
    (_solve({"+0": "t - 1"}), "payload.junctions.+0", None),
    (_solve({"0_0": "t - 1"}), "payload.junctions.0_0", None),
    (_solve({"\u0660": "t - 1"}), "payload.junctions.\u0660", None),
    (_solve({"0": "t - 1", "00": "t + 1"}), "payload.junctions.00",
     "repeated junction index 0"),
    ({"kind": "homology", "payload": {
        "simplices": [[0]], "stalk": {"free": -1}}},
     "payload.stalk", "free rank must be non-negative"),
    ({"kind": "seq", "payload": {"op": "merge"}}, "payload.op",
     "unknown seq operation 'merge'"),
    ({"kind": "bounds", "payload": {"op": "merge"}}, "payload.op",
     "unknown bounds operation 'merge'"),
    ({"kind": "e2", "payload": {"links": []}}, "payload.base",
     "required field is missing"),
    ({"kind": "e2", "payload": {"base": [], "links": []}}, "payload.base",
     "needs at least one complex"),
    ({"kind": "snf", "payload": {"matrix": [["1", "t"], ["1"]]}},
     "payload.matrix", "ragged rows in matrix"),
], ids=["dim-bool", "dim-float", "dim-string", "n-float", "n-missing",
        "dim-range", "xi-string", "zeta-zero", "i-float", "p-string",
        "q-bool", "poly-missing", "repeated-entry", "negative-index",
        "key-three-parts", "key-negative", "junction-space", "junction-plus",
        "junction-underscore", "junction-arabic-digit", "junction-repeated",
        "free-negative", "seq-op-unknown", "bounds-op-unknown",
        "e2-base-missing", "e2-base-empty", "snf-ragged"])
def test_malformed_literal_is_schema_error_at_its_path(case, path, message):
    """Strict field reading: a literal that is not exactly the schema is a
    schema error at the offending field; the library's own domain checks
    are reported at the whole literal."""
    report, code = cli.run_case(case, cli.RunOptions())
    assert code == 1
    assert report["error"]["code"] == "schema"
    assert report["error"]["path"] == path
    if message is not None:
        assert report["error"]["message"] == message


def test_zero_bounded_solve_reports_its_splittings():
    """Without junctions both boundary splittings are 1, so the sequence
    is zero-bounded and its splittings come back with the missing third."""
    report, code = cli.run_case({"kind": "seq", "payload": {
        "op": "solve", "polys": ["t - 1", "t^2 - 1", None]}}, cli.RunOptions())
    assert code == 0
    assert report["values"] == {"polys": ["t - 1", "t^2 - 1", "t + 1"],
                                "splittings": ["1", "t - 1", "t + 1", "1"]}


_NO_KEY = 'expected an edge key "u-v" of two vertex indices'


@pytest.mark.parametrize("simplices,monodromy,code,path,message", [
    ([[0, 1], [1, True]], {}, "schema", "payload.simplices[1][1]",
     "expected an integer, got a boolean"),
    ([[0, 1], [1.0, 2]], {}, "schema", "payload.simplices[1][0]",
     "expected an integer"),
    ([[0, "1"]], {}, "schema", "payload.simplices[0][1]",
     "expected an integer"),
    ([[0, 1], [-1, 2]], {}, "validation", None,
     "vertices must be non-negative integers"),
    ([[0, 1], [2, 0, 2]], {}, "validation", None,
     "repeated vertex in simplex [2, 0, 2]"),
    ([[0, 1], 2], {}, "schema", "payload.simplices[1]",
     "expected an array of vertex indices"),
    ([[0, 1], "12"], {}, "schema", "payload.simplices[1]",
     "expected an array of vertex indices"),
    # the first misfit in input order is the one reported
    ([[0, False], 3], {}, "schema", "payload.simplices[0][1]",
     "expected an integer, got a boolean"),
    # a mistyped vertex is reported before a bad monodromy key, and a bad
    # key before a vertex that only the library refuses
    ([[0, 1], [1, 2.5]], {"0_1": "t"}, "schema", "payload.simplices[1][1]",
     "expected an integer"),
    ([[0, 1], [-1, 2]], {"0_1": "t"}, "schema", "payload.monodromy.0_1",
     _NO_KEY),
    ([[0, 1], [1, 1]], {"0_1": "t"}, "schema", "payload.monodromy.0_1",
     _NO_KEY),
], ids=["bool", "float", "string", "negative", "repeated", "simplex-int",
        "simplex-string", "first-misfit-wins", "vertex-before-key",
        "key-before-negative", "key-before-repeated"])
def test_homology_vertex_errors_are_pinned(tmp_path, simplices, monodromy,
                                           code, path, message):
    """Each malformed vertex input gives exactly this report and exit 1."""
    case = {"kind": "homology",
            "payload": {"simplices": simplices, "monodromy": monodromy}}
    result = invoke(tmp_path, case, "run")
    assert result.exit_code == 1
    error = {"code": code, "message": message}
    if path is not None:
        error["path"] = path
    assert report_of(result) == {"kind": "homology", "status": "error",
                                 "values": {}, "certificates": [],
                                 "error": error}


@pytest.mark.parametrize("monodromy", [
    {"0-1": "t", "1-2": "t^-1", "0-2": "1"},
    {"0-1": "t", "1-0": "t^-1"},
    {"0-1": "t", "00-1": "t"},
    {"0-1": "t", "00-1": "t^2"},
    {"1-0": "t", "0-1": "t"},
    {"0-3": "t"},
    {"1-1": "t"},
    {"0-1": "2*t - 1"},
    {"0-1": "t", "1-2": "t", "0-2": "t"},
    {"0-" + "1" * 5000: "t"},
], ids=["twisted", "both-orientations", "same-edge-twice",
        "same-edge-clash", "inverse-clash", "not-an-edge", "vertex",
        "not-a-unit", "cocycle", "past-digit-limit"])
def test_monodromy_keys_read_as_the_library_reads_strings(monodromy):
    """The command line hands the library the edge keys as written; every
    key set builds the complex, or gives the error, that the library gives
    on the string keys, keys that name one edge twice and keys past int's
    digit limit included."""
    simplices = [[0, 1], [1, 2], [0, 2]]
    payload = {"simplices": simplices, "monodromy": monodromy}
    try:
        expected = twisted.TwistedComplex(simplices, monodromy)
    except ValueError as exc:
        report, code = cli.run_case({"kind": "homology", "payload": payload},
                                    cli.RunOptions())
        assert (code, report["error"]) == (
            1, {"code": "validation", "message": str(exc)})
    else:
        assert cli._complex(payload, "payload") == expected


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


# -- JSON rendering ------------------------------------------------------------------

# strings with quotes, backslashes, control characters, a non-ASCII minus
# and an astral character, each escaped differently by the encoder
JSON_TEXT = st.text(st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u2212",
                                     "\U0001d54b", "a", " ", "/"]), max_size=6)
JSON_LEAVES = (JSON_TEXT | st.booleans() | st.none() | st.floats()
               | st.integers(-(10 ** 30), 10 ** 30))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=20)


@given(st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=5))
@example({})
@example({"values": {"ia": [], "report": {}, "n": [None, True, 10 ** 40]}})
@settings(max_examples=200, deadline=None)
def test_json_report_matches_json_dumps(report):
    """The report writer gives json.dumps's bytes at indent 2, keys sorted."""
    assert cli.render_report(report, "json") == \
        json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_json_writer_hands_other_keys_to_json_dumps():
    """A dict with a key that is not a string is written by json.dumps,
    nested at its depth."""
    report = {"a": [{1: "x", 2: [True]}], "b": {None: 0}}
    assert cli.render_report(report, "json") == \
        json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- corpus --------------------------------------------------------------------------


def write_corpus(root, cases):
    root.mkdir(exist_ok=True)
    for name, case in cases.items():
        (root / name).write_text(json.dumps(case), encoding="utf-8")


def test_corpus_all_pass(tmp_path):
    write_corpus(tmp_path / "corp", {"a.json": FACTOR_CASE,
                                     "b.json": CIRCLE_CASE})
    result = run_cli("corpus", tmp_path / "corp")
    assert result.exit_code == 0
    values = report_of(result)["values"]
    assert values["total"] == 2 and values["passed"] == 2
    assert [c["file"] for c in values["cases"]] == ["a.json", "b.json"]


def test_corpus_names_broken_file(tmp_path):
    write_corpus(tmp_path / "corp", {"a.json": FACTOR_CASE})
    (tmp_path / "corp" / "zz.json").write_text("{broken", encoding="utf-8")
    result = run_cli("corpus", tmp_path / "corp")
    assert result.exit_code == 1
    report = report_of(result)
    assert report["status"] == "fail"
    broken = report["values"]["cases"][-1]
    assert broken["file"] == "zz.json" and broken["status"] == "error"
    assert "zz.json" in broken["detail"]


# case files that json.loads refuses with something other than JSONDecodeError
UNREADABLE = {
    "latin1.json": '{"kind": "factor", "payload": {"poly": "t\xe9"}}'.encode("latin-1"),
    "deep.json": b"[" * 100000,
    "long-int.json": b'{"kind": "factor", "payload": {"n": ' + b"9" * 5000 + b"}}",
}


@pytest.mark.parametrize("name", UNREADABLE)
def test_unreadable_case_file_is_schema_error(tmp_path, capsys, name):
    """Not UTF-8, nested past the recursion limit, an integer past int's
    digit limit: each is invalid JSON, reported as such."""
    path = tmp_path / name
    path.write_bytes(UNREADABLE[name])
    result = run_cli("run", "--input", path)
    assert result.exit_code == 1
    report = report_of(result)
    assert (report["kind"], report["status"]) == ("unknown", "error")
    assert report["error"]["code"] == "schema"
    assert report["error"]["message"].startswith(f"invalid JSON in {path}: ")
    assert capsys.readouterr().err == ""


def test_corpus_lists_unreadable_files_and_goes_on(tmp_path, capsys):
    write_corpus(tmp_path / "corp", {"ok.json": FACTOR_CASE})
    for name, data in UNREADABLE.items():
        (tmp_path / "corp" / name).write_bytes(data)
    result = run_cli("corpus", tmp_path / "corp")
    assert result.exit_code == 1
    values = report_of(result)["values"]
    assert (values["total"], values["passed"]) == (4, 1)
    statuses = {c["file"]: (c["kind"], c["status"]) for c in values["cases"]}
    assert statuses == {"ok.json": ("factor", "pass"),
                        **{name: ("unknown", "error") for name in UNREADABLE}}
    assert capsys.readouterr().err == ""


def test_corpus_empty_directory(tmp_path):
    (tmp_path / "empty").mkdir()
    result = run_cli("corpus", tmp_path / "empty")
    assert result.exit_code == 0
    assert report_of(result)["values"] == {"cases": [], "passed": 0,
                                           "total": 0}


def test_corpus_missing_directory(tmp_path):
    result = run_cli("corpus", tmp_path / "nowhere")
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
    with tempfile.TemporaryDirectory() as tmp:
        result = invoke(Path(tmp), case, "factor")
    assert result.exit_code == 0
    rebuilt = normalize("1")
    for text, mult in report_of(result)["values"]["factors"]:
        rebuilt = rebuilt * normalize(text) ** mult
    assert rebuilt == product


# -- mutated corpus cases ----------------------------------------------------------------

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fixtures" / "corpus"
CORPUS = [json.loads(path.read_text(encoding="utf-8"))
          for path in sorted(CORPUS_DIR.glob("*.json"))]
FUZZ_POOL = [None, True, 0, -1, 2, 7, 1.5, "", "t", "t - 1", "2*", [], [True],
             [5], {}, {"dim": 3, "components": [5]}]


# sha256 of every shipped case's JSON then text report, cases in name order
CORPUS_DIGEST = "856ea7adcc18b463130db76ab7eae9db0f7f4362ce70b02db83a3bbbf547058d"


def test_corpus_report_bytes_are_pinned():
    """The shipped corpus renders to the same bytes, both formats."""
    digest = hashlib.sha256()
    for case in CORPUS:
        report, _ = cli.run_case(case, cli.RunOptions())
        for fmt in ("json", "text"):
            digest.update(cli.render_report(report, fmt).encode("utf-8"))
    assert len(CORPUS) == 21
    assert digest.hexdigest() == CORPUS_DIGEST


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


def _integer_leaves(value, path):
    """(path, parent, key) for every integer leaf below value, with paths as
    the reader reports them: `.key` for object fields, `[i]` for items."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        here = f"{path}[{key}]" if isinstance(value, list) else \
            (f"{path}.{key}" if path else key)
        if isinstance(item, int) and not isinstance(item, bool):
            yield here, value, key
        else:
            yield from _integer_leaves(item, here)


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*.json")))
def test_integer_fields_refuse_other_types(name):
    """Every integer field of a shipped case refuses a boolean, a float and
    a numeric string, as a schema error at that field's path."""
    shipped = json.loads((CORPUS_DIR / name).read_text(encoding="utf-8"))
    for path, _, _ in _integer_leaves(shipped, ""):
        for bad in (True, 1.5, "2"):
            case = copy.deepcopy(shipped)
            parent, key = {p: (v, k) for p, v, k in _integer_leaves(case, "")}[path]
            parent[key] = bad
            report, code = cli.run_case(case, cli.RunOptions())
            assert (code, report["error"]["code"], report["error"]["path"]) \
                == (1, "schema", path), (bad, report["error"])
