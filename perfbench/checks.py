"""The benchmark's own checks.

    python3 perfbench/checks.py

Run from the root of a source checkout.  It checks that

- the generators are deterministic for a seed and differ between seeds;
- the answers planted by the generators agree with the library on a small
  draw of every workload;
- the default seed's first-round reports still hash to `digests.json`;
- traced self times add up to the traced case time, within 5 %, and the
  traced reports equal the untraced ones;
- BENCHMARK.json names exactly the metrics `run.py` prints, with the same
  units and directions;
- without a source tree, `run.py` exits with an error and prints no result.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SELF_TIME_TOLERANCE = 0.05


def check_determinism(gen) -> list:
    problems = []
    for workload in gen.WORKLOADS:
        first = gen.round_cases(workload, 5, 3)
        if first != gen.round_cases(workload, 5, 3):
            problems.append(f"{workload}: seed 5 gives two different rounds")
        if first == gen.round_cases(workload, 6, 3):
            problems.append(f"{workload}: seeds 5 and 6 give the same round")
    return problems


def check_answers(cli, gen) -> list:
    problems = []
    for workload in gen.WORKLOADS:
        cases = gen.round_cases(workload, 2, 0)
        if workload == "case-mix":
            cases = run.pass_cases(gen, workload, 2)
        loop = run.run_loop(cli, gen, cases, passes=1)
        if loop.failed:
            problems.append(f"{workload}: {loop.failed} of {loop.attempted} "
                            "reports differ from the planted answers")
    return problems


def check_digests(cli, gen) -> list:
    expected = json.loads((run.HERE / "digests.json").read_text())
    problems = []
    for workload in gen.WORKLOADS:
        loop = run.run_loop(cli, gen, gen.round_cases(
            workload, run.DEFAULT_SEED, 0), passes=1)
        found = run.digest(gen, workload, loop.reports)
        if found != expected.get(workload):
            problems.append(f"{workload}: report digest {found} differs from "
                            "digests.json")
    return problems


def check_trace(cli, gen) -> list:
    result = run.per_layer(cli, gen, "case-mix", 2, 2.0)
    problems = [] if result.correct else ["traced run: " + "; ".join(
        result.lines[:2])]
    if not 1 - SELF_TIME_TOLERANCE <= result.self_share <= 1:
        problems.append(f"traced self times cover {result.self_share:.4f} "
                        "of the case time")
    if set(result.metrics) != set(run.PER_LAYER):
        problems.append("traced run prints other metrics than PER_LAYER")
    return problems


def check_benchmark_json() -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        printed = {name: row[:2] for name, row in table.items()}
        if listed != printed:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(run.ROUNDS_PER_PASS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    return problems


def check_without_source() -> list:
    bare = run.ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "case-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["without a source tree run.py still printed a result"]
    return []


def main() -> int:
    cli = run.load_library()
    import gen

    failed = False
    for name, check in (
            ("generators are deterministic", lambda: check_determinism(gen)),
            ("planted answers agree with the library",
             lambda: check_answers(cli, gen)),
            ("default-seed report digests", lambda: check_digests(cli, gen)),
            ("traced run adds up", lambda: check_trace(cli, gen)),
            ("BENCHMARK.json matches run.py", check_benchmark_json),
            ("no result without a source tree", check_without_source)):
        problems = check()
        failed = failed or bool(problems)
        print(f"{'ok  ' if not problems else 'FAIL'} {name}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
