"""Command-line front end: JSON case files in, canonical reports out.

A case file is one JSON object `{"kind": ..., "payload": {...}}`; the kind
selects the computation and the payload carries its inputs, written with the
shared literals (polynomials as strings in the `laurent` grammar, matrices as
arrays of polynomial-string rows, modules as `{"free": n, "torsion": [...]}`,
complexes as vertex-index simplex lists with an edge-to-unit monodromy map
keyed `"u-v"`, stratifications as
`{"n", "strata": [{"dim", "components": [{"xi", "zeta"?}]}]}` and
second-page tables as `{"entries": [{"i", "p", "q", "poly"}]}`).  This module
is the only reader of that format, but for the `"u-v"` edge keys, which it
checks and `twisted` reads.  Every command validates the payload
against its schema before computing anything, field by field: integer fields
refuse booleans, floats and strings, a table may not repeat an (i, p, q), a
junction key is one index in digits, and an invalid field is reported at its
JSON path.  Each command emits a single report, as canonical JSON (the
default) or as an aligned plain-text table.  Reports are byte-stable: the
same case file always produces the same output.

Exit codes: 0 when the report status is pass, 1 on a failed check or invalid
input, 2 when a computation hits its degree cap (error code `degree-cap`) or
a complex's face closure could exceed `twisted.MAX_FACES` (`complex-size`).
Usage errors (a missing option, a malformed or negative `--degree-cap`, an
unknown or missing command) print usage on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

from ialex import __version__, bounds, engine, exactseq, gmodule, laurent, twisted

__all__ = [
    "KINDS",
    "RunOptions",
    "SchemaError",
    "main",
    "render_report",
    "run_case",
]

KINDS = ("factor", "snf", "seq", "ia-point", "ia-product", "ia-dual",
         "bounds", "homology", "e2", "verify")

_MISSING = object()


class SchemaError(ValueError):
    """A case-file field is missing, mistyped, or malformed."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class RunOptions(NamedTuple):
    """Flags threaded from the command line into the handlers."""

    degree_cap: int = laurent.DEFAULT_DEGREE_CAP


# -- schema helpers --------------------------------------------------------------


def _require(value, path: str, kind, what: str):
    if kind is int and isinstance(value, bool):
        raise SchemaError(path, f"expected {what}, got a boolean")
    if not isinstance(value, kind):
        raise SchemaError(path, f"expected {what}")
    return value


def _field(obj: Mapping, key: str, path: str, kind, what: str,
           default=_MISSING):
    if key not in obj:
        if default is _MISSING:
            raise SchemaError(f"{path}.{key}", "required field is missing")
        return default
    return _require(obj[key], f"{path}.{key}", kind, what)


def _int_field(obj, key, path, default=_MISSING) -> int:
    return _field(obj, key, path, int, "an integer", default)


def _str_field(obj, key, path, default=_MISSING) -> str:
    return _field(obj, key, path, str, "a string", default)


def _bool_field(obj, key, path, default=_MISSING) -> bool:
    return _field(obj, key, path, bool, "a boolean", default)


def _list_field(obj, key, path, default=_MISSING) -> list:
    return _field(obj, key, path, list, "an array", default)


def _dict_field(obj, key, path, default=_MISSING) -> Mapping:
    return _field(obj, key, path, dict, "an object", default)


def _poly(value, path: str, zero_ok: bool = False) -> laurent.LaurentPoly:
    """A nonzero polynomial in canonical form; with zero_ok (a matrix entry)
    any polynomial, as written."""
    _require(value, path, str, "a polynomial string")
    try:
        return laurent.parse(value) if zero_ok else laurent.normalize(value)
    except laurent.SpanCapExceeded:
        raise                      # a resource cap, not a schema error
    except ValueError as exc:
        raise SchemaError(path, f"bad polynomial: {exc}") from exc


def _poly_field(obj, key, path) -> laurent.LaurentPoly:
    _str_field(obj, key, path)
    return _poly(obj[key], f"{path}.{key}")


def _polys_field(obj, key, path, default=_MISSING,
                 allow_null: bool = False) -> list:
    raw = _field(obj, key, path, list, "an array of polynomial strings",
                 default)
    return [None if item is None and allow_null
            else _poly(item, f"{path}.{key}[{i}]")
            for i, item in enumerate(raw)]


def _module(value, path: str) -> gmodule.FgGammaModule:
    _require(value, path, dict, 'a module literal {"free": n, "torsion": [...]}')
    free = _int_field(value, "free", path, default=0)
    torsion = _polys_field(value, "torsion", path, default=[])
    try:
        return gmodule.FgGammaModule.from_summands(free, torsion)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _module_list(obj, key, path) -> list:
    raw = _list_field(obj, key, path)
    return [_module(item, f"{path}.{key}[{i}]") for i, item in enumerate(raw)]


def _matrix(value, path: str, cols: Optional[int] = None) -> gmodule.GammaMatrix:
    _require(value, path, list, "an array of rows")
    grid = []
    for r, row in enumerate(value):
        _require(row, f"{path}[{r}]", list, "an array of polynomial strings")
        grid.append([_poly(cell, f"{path}[{r}][{c}]", zero_ok=True)
                     for c, cell in enumerate(row)])
    try:
        return gmodule.GammaMatrix(grid, cols=cols)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _perversity(value, path: str) -> engine.Perversity:
    _require(value, path, list, "an array of perversity values")
    vals = [_require(v, f"{path}[{i}]", int, "an integer")
            for i, v in enumerate(value)]
    try:
        return engine.Perversity(vals)
    except engine.InvalidPerversity as exc:
        raise SchemaError(path, str(exc)) from exc


def _perversity_field(obj, key, path) -> engine.Perversity:
    return _perversity(_list_field(obj, key, path), f"{path}.{key}")


def _complex(value, path: str) -> twisted.TwistedComplex:
    _require(value, path, dict, "a complex literal")
    simplices = _list_field(value, "simplices", path)
    # one type test for all vertices; if it fails, the walk finds the first
    if not (all(type(s) is list for s in simplices) and all(
            type(v) is int for v in itertools.chain.from_iterable(simplices))):
        for i, simplex in enumerate(simplices):
            _require(simplex, f"{path}.simplices[{i}]", list,
                     "an array of vertex indices")
            for j, v in enumerate(simplex):
                _require(v, f"{path}.simplices[{i}][{j}]", int, "an integer")
    monodromy = _dict_field(value, "monodromy", path, default={})
    for key, unit in monodromy.items():
        if not re.fullmatch(r"[0-9]+-[0-9]+", key):
            raise SchemaError(f"{path}.monodromy.{key}",
                              'expected an edge key "u-v" of two vertex indices')
        _require(unit, f"{path}.monodromy.{key}", str, "a unit string")
    stalk = gmodule.FgGammaModule.free(1)
    if "stalk" in value:
        stalk = _module(value["stalk"], f"{path}.stalk")
    return twisted.TwistedComplex(simplices, monodromy, stalk)


def _e2table(value: Mapping, path: str) -> bounds.E2Table:
    entries = {}
    for e, entry in enumerate(_list_field(value, "entries", path, default=[])):
        epath = f"{path}.entries[{e}]"
        _require(entry, epath, dict, "a table entry object")
        key = tuple(_int_field(entry, index, epath) for index in "ipq")
        if key in entries:
            raise SchemaError(epath, f"repeated table entry (i, p, q) = {key}")
        entries[key] = _poly_field(entry, "poly", epath)
    try:
        return bounds.E2Table(entries)
    except ValueError as exc:
        raise SchemaError(path, f"bad table: {exc}") from exc


def _stratification(value, path: str) -> bounds.StratificationData:
    _require(value, path, dict, "a stratification literal")
    n = _int_field(value, "n", path)
    strata = []
    for s, stratum in enumerate(_list_field(value, "strata", path, default=[])):
        spath = f"{path}.strata[{s}]"
        _require(stratum, spath, dict, "a stratum object")
        dim = _int_field(stratum, "dim", spath)
        components = []
        for c, comp in enumerate(
                _list_field(stratum, "components", spath, default=[])):
            cpath = f"{spath}.components[{c}]"
            _require(comp, cpath, dict, "a component object")
            zeta = _polys_field(comp, "zeta", cpath) if "zeta" in comp else None
            components.append(bounds.StratumComponent(
                _polys_field(comp, "xi", cpath, default=[]), zeta))
        strata.append(bounds.Stratum(dim, components))
    try:
        return bounds.StratificationData(n, strata)
    except ValueError as exc:
        raise SchemaError(path, f"bad stratification: {exc}") from exc


def _sorted_primes(primes) -> list[str]:
    return [str(q) for q in sorted(primes, key=lambda q: q.sort_key())]


# -- kind handlers ----------------------------------------------------------------


def _case_factor(payload, opts: RunOptions):
    rep = _poly_field(payload, "poly", "payload")
    pairs = laurent.factor(rep, opts.degree_cap)
    return "pass", {"factors": [[str(q), m] for q, m in pairs]}, []


def _case_snf(payload, opts: RunOptions):
    cols = _int_field(payload, "cols", "payload", default=None)
    if cols is not None and cols < 0:
        raise SchemaError("payload.cols", "expected a non-negative integer")
    m = _matrix(_list_field(payload, "matrix", "payload"),
                "payload.matrix", cols)
    factors, rank = gmodule.smith_normal_form(m)
    cokernel = gmodule.FgGammaModule(m.cols - rank,
                                     [f for f in factors if not f.is_one])
    return "pass", {
        "factors": [str(f) for f in factors],
        "rank": rank,
        "cokernel": cokernel.to_json(),
    }, []


def _case_seq(payload, opts: RunOptions):
    op = _str_field(payload, "op", "payload")
    if op == "check":
        polys = _polys_field(payload, "polys", "payload")
        ok = exactseq.check_alternating_product(polys)
        certificates = [] if ok else [
            {"reason": "alternating product of the orders is not a unit"}]
        return ("pass" if ok else "fail"), {"exact": ok}, certificates
    if op == "subpolynomials":
        polys = _polys_field(payload, "polys", "payload")
        deltas = exactseq.subpolynomials(polys)
        return "pass", {"deltas": [str(d) for d in deltas]}, []
    if op == "solve":
        entries = _polys_field(payload, "polys", "payload", allow_null=True)
        raw = _dict_field(payload, "junctions", "payload", default={})
        junctions = {}
        for key in sorted(raw):
            kpath = f"payload.junctions.{key}"
            if not re.fullmatch(r"[0-9]+", key):
                raise SchemaError(kpath, "expected a junction index of digits")
            if int(key) in junctions:
                raise SchemaError(kpath, f"repeated junction index {int(key)}")
            junctions[int(key)] = _poly(raw[key], kpath)
        polys, splittings = exactseq.solve_missing_third(entries, junctions)
        return "pass", {
            "polys": [str(p) for p in polys],
            "splittings": (None if splittings is None
                           else [str(d) for d in splittings]),
        }, []
    if op == "split":
        modules = _module_list(payload, "modules", "payload")
        raw_maps = _list_field(payload, "maps", "payload", default=[])
        maps = []
        for i, raw in enumerate(raw_maps):
            cols = modules[i + 1].rank if i + 1 < len(modules) else None
            maps.append(_matrix(raw, f"payload.maps[{i}]", cols))
        seq = exactseq.ModuleSequence(modules, maps)
        out = exactseq.split_primary(
            seq, _poly_field(payload, "prime", "payload"), opts.degree_cap)
        return "pass", {
            "modules": [m.to_json() for m in out.modules],
            "maps": [t.to_json() for t in out.maps],
            "orders": [str(q) for q in out.order_polynomials()],
        }, []
    raise SchemaError("payload.op", f"unknown seq operation {op!r}")


def _case_ia_point(payload, opts: RunOptions):
    n = _int_field(payload, "n", "payload")
    data = engine.DiskKnotData(
        n,
        _polys_field(payload, "a", "payload"),
        _polys_field(payload, "b", "payload"),
        _polys_field(payload, "c", "payload"))
    perv = _perversity_field(payload, "perversity", "payload")
    ia = engine.ia_point(data, perv)
    cut = perv.cutoff(n)
    table = []
    for i, q in enumerate(ia):
        branch = "lambda" if i < cut else ("c" if i == cut else "mu")
        table.append({"degree": i, "branch": branch, "value": str(q)})
    return "pass", {"cut": cut, "ia": [row["value"] for row in table],
                    "table": table}, []


def _case_ia_product(payload, opts: RunOptions):
    a_high = _polys_field(payload, "a_high", "payload")
    a = _polys_field(payload, "a", "payload") if "a" in payload else None
    inp = engine.ProductSingularityInput(
        _int_field(payload, "n", "payload"),
        _int_field(payload, "k", "payload"),
        _perversity_field(payload, "perversity", "payload"),
        _module_list(payload, "sigma", "payload"),
        _module_list(payload, "links", "payload"),
        _polys_field(payload, "c", "payload"),
        a_high,
        a)
    _, report = engine.ia_product(inp)
    return "pass", {"ia": [row["value"] for row in report], "report": report}, []


def _case_ia_dual(payload, opts: RunOptions):
    ia = _polys_field(payload, "ia", "payload")
    n = _int_field(payload, "n", "payload")
    dual = engine.superdual_polynomials(ia, n)
    return "pass", {"dual": [str(q) for q in dual]}, []


def _case_verify(payload, opts: RunOptions):
    if "instances" in payload:
        raw = _list_field(payload, "instances", "payload")
        instances = [(item, f"payload.instances[{i}]")
                     for i, item in enumerate(raw)]
    else:
        instances = [(payload, "payload")]
    checked = 0
    failures = []
    for idx, (inst, path) in enumerate(instances):
        _require(inst, path, dict, "an object")
        ia = _polys_field(inst, "ia", path)
        n = _int_field(inst, "n", path)
        super_variant = _bool_field(inst, "super", path, default=False)
        for row in engine.validate_normalization(ia, n, super_variant):
            checked += 1
            if not row["ok"]:
                failures.append({
                    "instance": idx,
                    "degree": row["degree"],
                    "requirement": row["requirement"],
                    "value": row["value"],
                })
    status = "pass" if not failures else "fail"
    return status, {
        "instances": len(instances),
        "checked": checked,
        "failures": len(failures),
    }, failures


def _case_bounds(payload, opts: RunOptions):
    op = _str_field(payload, "op", "payload")
    if op == "allowed":
        if "stratification" in payload:
            allowed = bounds.allowed_primes_general(
                _int_field(payload, "j", "payload"),
                _poly_field(payload, "lambda", "payload"),
                _stratification(payload["stratification"],
                                "payload.stratification"),
                _bool_field(payload, "ordinary", "payload", default=False),
                opts.degree_cap)
        else:
            allowed = bounds.allowed_primes_single(
                _int_field(payload, "i", "payload"),
                _int_field(payload, "n", "payload"),
                _int_field(payload, "k", "payload"),
                _poly_field(payload, "c", "payload"),
                _polys_field(payload, "xi", "payload"),
                opts.degree_cap)
        return "pass", {"allowed": _sorted_primes(allowed)}, []
    if op == "exclude":
        excluded = bounds.exclusion_single(
            _poly_field(payload, "gamma", "payload"),
            _int_field(payload, "i", "payload"),
            _int_field(payload, "k", "payload"),
            _perversity_field(payload, "perversity", "payload"),
            _poly_field(payload, "lambda", "payload"),
            _polys_field(payload, "xi", "payload"),
            opts.degree_cap)
        certificates = [] if excluded else [{
            "reason": "the prime divides lambda or a link polynomial at or "
                      "above the perversity cut"}]
        return ("pass" if excluded else "fail"), {"excluded": excluded}, \
            certificates
    if op == "maxpower":
        bound = bounds.max_power_bound(
            _poly_field(payload, "gamma", "payload"),
            _int_field(payload, "j", "payload"),
            _int_field(payload, "gamma_j", "payload"),
            _e2table(_dict_field(payload, "table", "payload"),
                     "payload.table"),
            _int_field(payload, "n", "payload"),
            _perversity_field(payload, "perversity", "payload"),
            opts.degree_cap)
        return "pass", {"bound": bound}, []
    if op == "check":
        allowed = _polys_field(payload, "allowed", "payload")
        raw = _dict_field(payload, "powers", "payload", default={})
        powers = {}
        for key in sorted(raw):
            prime = _poly(key, f"payload.powers.{key}")
            powers[prime] = _require(raw[key], f"payload.powers.{key}",
                                     int, "an integer")
        result = bounds.check_result(_poly_field(payload, "ia", "payload"),
                                     allowed, powers, opts.degree_cap)
        status = "pass" if result["ok"] else "fail"
        return status, result, ([] if result["ok"] else [dict(result)])
    raise SchemaError("payload.op", f"unknown bounds operation {op!r}")


def _case_homology(payload, opts: RunOptions):
    tc = _complex(payload, "payload")
    homology = twisted.twisted_homology(tc)
    return "pass", {"homology": [h.to_json() for h in homology]}, []


def _case_e2(payload, opts: RunOptions):
    if "base" not in payload:
        raise SchemaError("payload.base", "required field is missing")
    raw_base = payload["base"]
    if isinstance(raw_base, list):
        if not raw_base:
            raise SchemaError("payload.base", "needs at least one complex")
        base = [_complex(item, f"payload.base[{i}]")
                for i, item in enumerate(raw_base)]
        dimension = base[0].dimension
    else:
        base = _complex(raw_base, "payload.base")
        dimension = base.dimension
    links = _module_list(payload, "links", "payload")
    stratum_dim = _int_field(payload, "stratum_dim", "payload", default=0)
    if "cone" in payload:
        cone = _dict_field(payload, "cone", "payload")
        page = twisted.e2_cone_page(
            links,
            _int_field(cone, "codim", "payload.cone"),
            _perversity_field(cone, "perversity", "payload.cone"),
            base, stratum_dim)
    else:
        page = twisted.e2_link_page(base, links, stratum_dim)
    bounds_rows = [
        {"j": j, "bound": str(twisted.abutment_divisor_bound(page, j))}
        for j in range(dimension + len(links))]
    return "pass", {
        "entries": page.to_json()["entries"],
        "bounds": bounds_rows,
    }, []


_HANDLERS = {
    "factor": _case_factor,
    "snf": _case_snf,
    "seq": _case_seq,
    "ia-point": _case_ia_point,
    "ia-product": _case_ia_product,
    "ia-dual": _case_ia_dual,
    "bounds": _case_bounds,
    "homology": _case_homology,
    "e2": _case_e2,
    "verify": _case_verify,
}


# -- execution ---------------------------------------------------------------------


def _error_report(kind: str, code: str, message: str,
                  path: Optional[str] = None) -> dict:
    error = {"code": code, "message": message}
    if path is not None:
        error["path"] = path
    return {"kind": kind, "status": "error", "values": {},
            "certificates": [], "error": error}


def run_case(case, opts: RunOptions) -> tuple[dict, int]:
    """Execute one parsed case file; returns (report, exit code)."""
    kind = "unknown"
    try:
        _require(case, "case", dict, "an object")
        raw_kind = _str_field(case, "kind", "case")
        if raw_kind not in _HANDLERS:
            raise SchemaError("case.kind", f"unknown kind {raw_kind!r}")
        kind = raw_kind
        payload = _dict_field(case, "payload", "case")
        status, values, certificates = _HANDLERS[kind](payload, opts)
    except SchemaError as exc:
        return _error_report(kind, "schema", exc.message, exc.path), 1
    except laurent.DegreeCapExceeded as exc:
        return _error_report(kind, "degree-cap", str(exc)), 2
    except twisted.ComplexTooLarge as exc:
        return _error_report(kind, "complex-size", str(exc)), 2
    except (ValueError, LookupError) as exc:
        return _error_report(kind, "validation", str(exc)), 1
    except Exception as exc:                  # a fault of ialex, not of the case
        return _error_report(kind, "internal", f"{type(exc).__name__}: {exc}"), 1
    report = {"kind": kind, "status": status, "values": values,
              "certificates": certificates}
    return report, 0 if status == "pass" else 1


def _load_case(path: str, display: Optional[str] = None,
               ) -> tuple[Optional[dict], Optional[dict]]:
    """Read and parse a case file; returns (case, None) or (None, report)."""
    name = display or path
    try:
        return json.loads(Path(path).read_text(encoding="utf-8")), None
    except OSError as exc:
        return None, _error_report("unknown", "io", f"cannot read {name}: "
                                   f"{exc.strerror or exc}")
    # not UTF-8, not JSON, nested past the recursion limit, or an integer
    # literal past int's digit limit
    except (ValueError, RecursionError) as exc:
        return None, _error_report("unknown", "schema",
                                   f"invalid JSON in {name}: {exc}")


# -- rendering ---------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "-"
    if isinstance(value, (int, str)):
        return str(value)
    return json.dumps(value, sort_keys=True)


def _text_table(rows: Sequence[Mapping], indent: str) -> list[str]:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {c: max(len(c), *(len(_format_cell(r.get(c))) for r in rows))
              for c in columns}
    lines = [indent + "  ".join(c.ljust(widths[c]) for c in columns).rstrip()]
    for row in rows:
        cells = []
        for c in columns:
            cell = _format_cell(row.get(c))
            if isinstance(row.get(c), int) and not isinstance(row.get(c), bool):
                cells.append(cell.rjust(widths[c]))
            else:
                cells.append(cell.ljust(widths[c]))
        lines.append(indent + "  ".join(cells).rstrip())
    return lines


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (str, int, bool))


def _render_value(lines: list[str], key: str, value):
    if _is_scalar(value):
        lines.append(f"{key}: {_format_cell(value)}")
    elif isinstance(value, list) and not value:
        lines.append(f"{key}: (none)")
    elif isinstance(value, list) and all(_is_scalar(v) for v in value):
        lines.append(f"{key}:")
        width = len(str(len(value) - 1))
        lines.extend(f"  {i:>{width}}  {_format_cell(v)}"
                     for i, v in enumerate(value))
    elif isinstance(value, list) and all(isinstance(v, dict) for v in value):
        lines.append(f"{key}:")
        lines.extend(_text_table(value, "  "))
    else:
        lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")


def _json(value, pad: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True) nested at indent pad.  With
    indent set the stdlib runs its pure-Python encoder, so lists and dicts
    of str keys are written here and the rest is left to json.dumps."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return repr(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        items, ends = [_json(v, inner) for v in value], "[]"
    elif isinstance(value, dict) and all(isinstance(k, str) for k in value):
        items = [f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}"
                 for k in sorted(value)]
        ends = "{}"
    elif isinstance(value, dict):
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    else:
        return json.dumps(value)
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def render_report(report: dict, fmt: str) -> str:
    """Render a report as canonical JSON or as aligned text."""
    if fmt == "json":
        return _json(report, "") + "\n"
    lines = [f"kind: {report['kind']}", f"status: {report['status']}"]
    if "error" in report:
        error = report["error"]
        lines.append(f"error [{error['code']}]: {error['message']}")
        if "path" in error:
            lines.append(f"at: {error['path']}")
    for key, value in report["values"].items():
        _render_value(lines, key, value)
    if report["certificates"]:
        lines.append("certificates:")
        lines.extend(_text_table(report["certificates"], "  "))
    return "\n".join(lines) + "\n"


# -- command line ------------------------------------------------------------------


def _case_command(input_path: str, opts: RunOptions, expect_kind: Optional[str],
                  expect_op: Optional[str]) -> tuple[dict, int]:
    case, load_error = _load_case(input_path)
    if load_error is not None:
        return load_error, 1
    if expect_kind is not None and isinstance(case, dict):
        raw_kind = case.get("kind")
        if raw_kind != expect_kind:
            return _error_report(
                raw_kind if isinstance(raw_kind, str) else "unknown",
                "schema", f"this command runs kind {expect_kind!r}, the case "
                f"file declares {raw_kind!r}", "case.kind"), 1
    if expect_op is not None and isinstance(case, dict) \
            and isinstance(case.get("payload"), dict):
        payload = dict(case["payload"])
        declared = payload.setdefault("op", expect_op)
        if declared != expect_op:
            return _error_report(
                expect_kind or "unknown", "schema",
                f"this command runs op {expect_op!r}, the payload declares "
                f"{declared!r}", "payload.op"), 1
        case = dict(case, payload=payload)
    return run_case(case, opts)


def _corpus(directory: str, opts: RunOptions) -> tuple[dict, int]:
    root = Path(directory)
    if not root.is_dir():
        return _error_report("corpus", "io", f"not a directory: {directory}"), 1
    entries = []
    passed = 0
    for path in sorted(root.glob("*.json"), key=lambda p: p.name):
        case, load_error = _load_case(str(path), display=path.name)
        if load_error is not None:
            entries.append({"file": path.name, "kind": "unknown",
                            "status": "error",
                            "detail": load_error["error"]["message"]})
            continue
        report, code = run_case(case, opts)
        detail = report["error"]["message"] if "error" in report else ""
        entries.append({"file": path.name, "kind": report["kind"],
                        "status": report["status"], "detail": detail})
        if code == 0:
            passed += 1
    status = "pass" if passed == len(entries) else "fail"
    return {"kind": "corpus", "status": status,
            "values": {"total": len(entries), "passed": passed,
                       "cases": entries},
            "certificates": []}, 0 if status == "pass" else 1


# (group, command, kind, op, help): a row with no command opens a group, and
# the commands after it nest under it; `run` and `corpus` pin no kind.
_COMMANDS = (
    (None, "run", None, None, "Run a case file of the kind it declares."),
    (None, "factor", "factor", None, "Factor a polynomial into irreducibles."),
    (None, "snf", "snf", None, "Smith form of a matrix: factors, rank, cokernel."),
    (None, "homology", "homology", None, "Twisted simplicial homology."),
    (None, "e2", "e2", None, "Second page of a stratum, with divisor bounds."),
    ("seq", None, None, None, "Exact sequences of orders and of modules."),
    ("seq", "check", "seq", "check", "Test the alternating-product criterion."),
    ("seq", "subpolynomials", "seq", "subpolynomials", "Junction subpolynomials."),
    ("seq", "solve", "seq", "solve", "Fill the unknown every-third entries."),
    ("seq", "split", "seq", "split", "Restrict to one prime's primary summands."),
    ("ia", None, None, None, "Intersection Alexander polynomials of singular knots."),
    ("ia", "point", "ia-point", None, "Polynomials for a point singularity."),
    ("ia", "product", "ia-product", None, "Polynomials for a product singularity."),
    ("ia", "dual", "ia-dual", None, "Transport a sequence across superduality."),
    ("ia", "verify", "verify", None, "Check the normalization clauses."),
    ("bounds", None, None, None, "Divisor and power bounds for singular sets."),
    ("bounds", "allowed", "bounds", "allowed", "Admissible primes in one degree."),
    ("bounds", "exclude", "bounds", "exclude", "Certify a prime cannot divide."),
    ("bounds", "maxpower", "bounds", "maxpower", "Cap a prime's multiplicity."),
    ("bounds", "check", "bounds", "check", "Check a polynomial against the bounds."),
    (None, "corpus", None, None, "Run every .json case file in DIR and summarize."),
)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as invalid input does: exit code 2 is kept for
    the resource caps.  Options are spelled out in full.  Subparsers are
    built from this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _degree_cap(text: str) -> int:
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parser() -> _Parser:
    parser = _Parser(
        prog="ialex",
        description="Exact intersection Alexander polynomial calculus: each "
        "command reads JSON case files and prints one deterministic report.")
    parser.add_argument("--version", action="version",
                        version=f"ialex {__version__}")
    groups = {None: parser.add_subparsers(dest="command", required=True,
                                          metavar="COMMAND")}
    for group, command, kind, op, help_text in _COMMANDS:
        if command is None:
            sub = groups[None].add_parser(group, help=help_text,
                                          description=help_text)
            groups[group] = sub.add_subparsers(required=True,
                                               metavar="COMMAND")
            continue
        sub = groups[group].add_parser(command, help=help_text,
                                       description=help_text)
        if command == "corpus":
            sub.add_argument("directory", metavar="DIR")
        else:
            sub.add_argument("--input", required=True, metavar="FILE",
                             help="JSON case file to run.")
        sub.add_argument("--json", dest="fmt", action="store_const",
                         const="json", default="json",
                         help="Emit the report as canonical JSON (default).")
        sub.add_argument("--text", dest="fmt", action="store_const",
                         const="text",
                         help="Emit the report as aligned plain text.")
        sub.add_argument("--degree-cap", type=_degree_cap, metavar="N",
                         default=laurent.DEFAULT_DEGREE_CAP,
                         help="Refuse factorizations above this degree "
                              "(default: %(default)s).")
        sub.set_defaults(kind=kind, op=op)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line (default `sys.argv[1:]`): print its report on
    stdout and return the exit code.  A usage error prints usage and the
    message on stderr and exits 1."""
    args = _parser().parse_args(argv)
    opts = RunOptions(args.degree_cap)
    if args.command == "corpus":
        report, code = _corpus(args.directory, opts)
    else:
        report, code = _case_command(args.input, opts, args.kind, args.op)
    sys.stdout.write(render_report(report, args.fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
