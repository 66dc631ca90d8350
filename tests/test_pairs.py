"""`scripts/pairs.py` times two checkouts only against the same benchmark."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_pairs():
    spec = importlib.util.spec_from_file_location(
        "pairs", ROOT / "scripts" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, compiled: bytes) -> Path:
    """A checkout holding a benchmark and a compiled module, which the
    comparison skips."""
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text('{"end_to_end": []}\n')
    (root / "perfbench" / "run.py").write_text("print('run')\n")
    (root / "perfbench" / "gen.py").write_text("SEED = 1\n")
    (root / "perfbench" / "__pycache__" / "gen.pyc").write_bytes(compiled)
    return root


def test_identical_benchmarks_pass(tmp_path):
    pairs = _load_pairs()
    parent = _checkout(tmp_path / "parent", b"\x00")
    change = _checkout(tmp_path / "change", b"\x01")
    assert pairs.first_benchmark_difference(parent, change) is None


def test_one_changed_byte_is_refused(tmp_path, capsys):
    pairs = _load_pairs()
    parent = _checkout(tmp_path / "parent", b"\x00")
    change = _checkout(tmp_path / "change", b"\x00")
    (change / "perfbench" / "gen.py").write_text("SEED = 2\n")
    assert pairs.first_benchmark_difference(parent, change) == "perfbench/gen.py"
    assert pairs.main(["--parent", str(parent), "--change", str(change),
                       "--workload", "case-mix"]) == 2
    assert "perfbench/gen.py" in capsys.readouterr().err


def test_a_file_on_one_side_only_is_refused(tmp_path):
    pairs = _load_pairs()
    parent = _checkout(tmp_path / "parent", b"\x00")
    change = _checkout(tmp_path / "change", b"\x00")
    (parent / "perfbench" / "extra.py").write_text("")
    assert pairs.first_benchmark_difference(parent, change) == "perfbench/extra.py"


def test_zero_pairs_compare_report_hashes_alone(tmp_path, capsys):
    """With no pair to time, the hash line is printed and the summary has
    no line, where it used to index the first parent run."""
    pairs = _load_pairs()
    parent = _checkout(tmp_path / "parent", b"\x00")
    change = _checkout(tmp_path / "change", b"\x00")
    assert pairs.summary([], [], {}) == []
    assert pairs.main(["--parent", str(parent), "--change", str(change),
                       "--workload", "case-mix", "--pairs", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("report sha256: ")
    assert "0 pairs" in out and "median" not in out


def test_negative_pairs_are_a_usage_error(tmp_path, capsys):
    pairs = _load_pairs()
    parent = _checkout(tmp_path / "parent", b"\x00")
    change = _checkout(tmp_path / "change", b"\x00")
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["--parent", str(parent), "--change", str(change),
                    "--workload", "case-mix", "--pairs", "-1"])
    assert exit_info.value.code == 2
    assert "--pairs must not be negative" in capsys.readouterr().err
