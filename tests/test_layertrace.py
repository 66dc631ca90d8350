"""The contract between the library and the benchmark's layer tracer.

`perfbench/layertrace.py` rebinds the public functions of every layer and
reads `degree` and `is_one` off the ring values they take and return.  One
corpus case of each kind runs under it here; nothing is written.
"""

import importlib.util
import json
from pathlib import Path

from ialex import cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fixtures" / "corpus"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_keeps_reports_and_sizes_ring_values():
    cases = {}
    for path in sorted(CORPUS.glob("*.json")):
        case = json.loads(path.read_text(encoding="utf-8"))
        cases.setdefault(case["kind"], case)
    assert set(cases) == set(cli.KINDS)
    plain = {kind: cli.run_case(case, cli.RunOptions())
             for kind, case in cases.items()}
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        traced = {kind: cli.run_case(case, cli.RunOptions())
                  for kind, case in cases.items()}
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.max_degree > 0
