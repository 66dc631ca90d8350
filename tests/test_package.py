"""Package-level guarantees that span every module."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ialex
from ialex import bounds, engine, exactseq, gmodule, twisted
from ialex.cli import KINDS
from ialex.laurent import _Record

MODULES = ["ialex"] + [f"ialex.{info.name}"
                       for info in pkgutil.iter_modules(ialex.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    """A stale `__all__` entry breaks `from ialex.x import *` and every tool
    that walks the public names with getattr."""
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


# one small value of every value class; each is compared, and most are
# hashed, so a field reassigned in place would strand it in a set or dict
VALUES = {
    "Perversity": lambda: engine.Perversity([0, 0]),
    "DiskKnotData": lambda: engine.DiskKnotData(4, ["1"], ["t - 1"], ["1"]),
    "ProductSingularityInput": lambda: engine.ProductSingularityInput(
        6, 3, engine.Perversity([0, 0, 0]), [gmodule.FgGammaModule(1)],
        [gmodule.FgGammaModule(0, ["t - 1"])], c=[], a_high=[]),
    "GammaMatrix": lambda: gmodule.GammaMatrix([["t - 1"]]),
    "FgGammaModule": lambda: gmodule.FgGammaModule.cyclic("t - 1"),
    "ModuleSequence": lambda: exactseq.ModuleSequence(
        [gmodule.FgGammaModule.cyclic("t - 1")], []),
    "TwistedComplex": lambda: twisted.TwistedComplex([[0, 1]], {"0-1": "t"}),
    "StratumComponent": lambda: bounds.StratumComponent(["t - 1"]),
    "Stratum": lambda: bounds.Stratum(0, [bounds.StratumComponent(["t - 1"])]),
    "StratificationData": lambda: bounds.StratificationData(3, []),
    "E2Table": lambda: bounds.E2Table({(0, 2, 0): "t - 1"}),
}


@pytest.mark.parametrize("build", VALUES.values(), ids=VALUES.keys())
def test_value_classes_are_immutable(build):
    value = build()
    for name in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)


# records that keep a dict field compare by it but cannot be hashed
UNHASHABLE = {"E2Table", "TwistedComplex"}


def test_values_name_every_record_class():
    """A new record class joins VALUES, and so the tests above and below."""
    assert sorted(cls.__name__ for cls in _Record.__subclasses__()) == sorted(VALUES)


@pytest.mark.parametrize("name", VALUES)
def test_value_classes_compare_by_value(name):
    value, twin = VALUES[name](), VALUES[name]()
    assert value is not twin
    assert value == twin and not value != twin
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    assert value != value._key()
    assert all(value != build() for other, build in VALUES.items() if other != name)


@pytest.mark.parametrize("name", [name for name in VALUES if name != "GammaMatrix"])
def test_record_equality_sees_every_slot(name):
    """A copy that differs from a record in one slot only is a different
    record, so no slot is left out of the key.  GammaMatrix keeps a key of
    its own, turning its row dicts into tuples."""
    value = VALUES[name]()
    slots = type(value).__slots__

    def copy(sentinel_at=None):
        twin = object.__new__(type(value))
        for slot in slots:
            object.__setattr__(twin, slot, object() if slot == sentinel_at
                               else getattr(value, slot))
        return twin

    assert copy() == value
    for slot in slots:
        assert copy(sentinel_at=slot) != value, slot


REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "fixtures" / "corpus"

# Runs `ialex corpus` and `ialex run` on one case file of each kind in one
# interpreter, then reports whether sympy got imported; with "block" as
# argument, any import of sympy or click fails.
SCRIPT = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["sympy"] = None
    sys.modules["click"] = None
from ialex.cli import main
runs = []
for args in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(args), out.getvalue()])
sys.stdout.write(json.dumps({
    "runs": runs, "sympy": sys.modules.get("sympy") is not None}))
"""


def test_cli_runs_without_sympy():
    """sympy is a test-only dependency, and the command line needs no
    package outside the standard library: the corpus and one case of every
    kind give the same bytes when the blocked imports fail."""
    first_of_kind = {}
    for path in sorted(CORPUS.glob("*.json")):
        kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
        first_of_kind.setdefault(kind, path)
    assert sorted(first_of_kind) == sorted(KINDS)
    commands = [["corpus", str(CORPUS)]] + [
        ["run", "--input", str(path)] for path in first_of_kind.values()]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    outputs = {}
    for mode in ("block", "allow"):
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT, mode, json.dumps(commands)],
            capture_output=True, text=True, env=env, cwd=REPO)
        assert proc.returncode == 0, proc.stderr
        outputs[mode] = json.loads(proc.stdout)
    assert outputs["block"] == outputs["allow"]
    assert not outputs["allow"]["sympy"]
    assert all(code == 0 for code, _ in outputs["block"]["runs"])


def test_no_runtime_dependency():
    """The package installs with the standard library alone, and its
    version has one source, `ialex.__version__`."""
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)
    assert re.search(r'^dynamic = \["version"\]$', pyproject, re.M)
    assert 'version = {attr = "ialex.__version__"}' in pyproject


def test_no_assert_statements_in_the_package():
    """Algorithm invariants are explicit checks that raise: `python -O`
    strips assert statements, and a failed one is a bare AssertionError."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((REPO / "src" / "ialex").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in ialex: {found}"


def test_every_import_is_used():
    """A name a module imports is used there, listed in its `__all__`, or
    marked `# noqa: F401` on its line; a stale import hides a dead
    dependency between modules."""
    found = []
    for path in sorted((REPO / "src" / "ialex").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(importlib.import_module(
            f"ialex.{path.stem}" if path.stem != "__init__" else "ialex"),
            "__all__", ()))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"{path.name}:{alias.lineno} {name}")
    assert not found, f"unused imports in ialex: {found}"
