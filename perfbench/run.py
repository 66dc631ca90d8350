"""Seeded closed-loop benchmark of the ialex case pipeline.

    python3 perfbench/run.py --workload case-mix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ialex is imported from `src/`.
`--workload all` runs every workload in its own process, one after another.

Each workload is a set of generated JSON case files (see `gen.py`), the
first rounds of its seeded stream, sent by one client one at a time (a
closed loop): `json.loads`, then `cli.run_case`, then `cli.render_report`,
the path the command line takes after start-up.  Every report is checked
against the answer the generator planted.  Generation and checking happen
outside the timed region.

On a shared virtual machine the speed of identical work drifts by up to a
third, in phases of milliseconds to minutes (one round of twisted-torus took
6.0 s to 9.8 s in six fresh processes on a 2-vCPU x86-64 VM), and the drift
is mostly machine-wide: a fixed reference loop run between the cases slows
down with them (correlation 0.98 over 10 s windows of case-mix, 0.94 over
passes of ring-highdeg).  So a run replays its set of cases in passes until
`--seconds` seconds have passed and every case has run twice, and after
each case runs the reference loop (`reference`, stdlib integers and a dict,
no ialex code) until it has taken a quarter of the case time so far.  Every
time metric is scaled by REF_NOMINAL_S over the mean time of one reference
loop in that run: it reads as on a machine where the loop takes 1 ms, and a
change to ialex moves it while a change in machine speed does not.  The raw
figures and the scale are printed above the result line.

- cases_per_s: the number of cases over the sum of their scaled times,
  each case's time being its median over the passes;
- latency_p50_ms: the median of those times;
- latency_tail_ms: the highest percentile of those times with ten cases
  beyond it (the set size is fixed per workload, so the percentile is too);
- peak_rss_mb: `ru_maxrss` of the workload process;
- setup_s: the median over seven fresh interpreters of importing
  `ialex.cli` and running one warm-up case of each kind in the workload
  (the same cases for every seed), each scaled by reference loops run just
  before and after it.

With `--trace 1` it runs the passes for half the time untraced, then one
pass under the outside-in tracer (`layertrace.py`), so that counts repeat
exactly, requires identical reports, and reports the per-layer metrics;
spans are written to `.bench_build/perfbench/`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when the run completed,
even if some case failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 7

# The reference loop: REF_STEPS iterations take about REF_NOMINAL_S on a
# 2-vCPU x86-64 VM; a run spends REF_SHARE of its case time on it, and
# SETUP_REF_LOOPS loops before and after each set-up probe.
REF_STEPS = 4000
REF_NOMINAL_S = 0.001
REF_SHARE = 0.25
SETUP_REF_LOOPS = 100

# Rounds of the seeded stream in one pass; with a round's size this fixes the
# number of distinct cases a run measures: 750, 35 and 104.
ROUNDS_PER_PASS = {"case-mix": 30, "twisted-torus": 1, "ring-highdeg": 4}
TAIL_BEYOND = 10

# Spans whose wall-time share shows what each workload is for.
COVERAGE = {"case-mix": ("twisted.",),
            "twisted-torus": ("twisted.homology",),
            "ring-highdeg": ("laurent.", "gmodule.snf")}

END_TO_END = {
    "cases_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# per-layer metric -> (unit, better, end-to-end metric it should move)
PER_LAYER = {
    "laurent.gcd.calls": ("count", "lower", "ring-highdeg cases_per_s, latency_tail_ms"),
    "laurent.gcd.self_s": ("s", "lower", "ring-highdeg cases_per_s, latency_tail_ms"),
    "laurent.division.calls": ("count", "lower", "ring-highdeg cases_per_s, latency_tail_ms"),
    "laurent.division.self_s": ("s", "lower", "ring-highdeg cases_per_s, latency_tail_ms"),
    "laurent.max_degree": ("degree", "lower", "ring-highdeg cases_per_s"),
    "laurent.factor.calls": ("count", "lower", "ring-highdeg latency_tail_ms"),
    "laurent.factor.self_s": ("s", "lower", "ring-highdeg latency_tail_ms"),
    "laurent.parse.calls": ("count", "lower", "case-mix latency_p50_ms"),
    "laurent.parse.self_s": ("s", "lower", "case-mix latency_p50_ms"),
    "laurent.normalize.calls": ("count", "lower", "case-mix latency_p50_ms"),
    "laurent.normalize.self_s": ("s", "lower", "case-mix latency_p50_ms"),
    "gmodule.snf.calls": ("count", "lower", "twisted-torus and ring-highdeg cases_per_s"),
    "gmodule.snf.self_s": ("s", "lower", "twisted-torus and ring-highdeg cases_per_s"),
    "gmodule.snf.max_cells": ("cells", "lower", "twisted-torus cases_per_s"),
    "gmodule.snf.unit_factor_frac": ("frac", "higher", "twisted-torus and ring-highdeg cases_per_s"),
    "gmodule.kernel_solve.self_s": ("s", "lower", "twisted-torus cases_per_s"),
    "gmodule.kunneth.calls": ("count", "lower", "case-mix latency_p50_ms"),
    "gmodule.kunneth.self_s": ("s", "lower", "case-mix latency_p50_ms"),
    "gmodule.module.self_s": ("s", "lower", "case-mix latency_p50_ms"),
    "engine.calls": ("count", "lower", "case-mix latency_p50_ms"),
    "engine.self_s": ("s", "lower", "case-mix latency_p50_ms"),
    "exactseq.calls": ("count", "lower", "case-mix latency_p50_ms"),
    "exactseq.self_s": ("s", "lower", "case-mix latency_p50_ms"),
    "bounds.calls": ("count", "lower", "case-mix latency_p50_ms"),
    "bounds.self_s": ("s", "lower", "case-mix latency_p50_ms"),
    "cli.run_case.self_s": ("s", "lower", "case-mix latency_p50_ms"),
    "cli.render.self_s": ("s", "lower", "case-mix latency_p50_ms"),
    "twisted.homology.calls": ("count", "lower", "twisted-torus cases_per_s, latency_tail_ms"),
    "twisted.homology.self_s": ("s", "lower", "twisted-torus cases_per_s, latency_tail_ms"),
    "twisted.homology.max_simplices": ("simplices", "lower", "twisted-torus latency_tail_ms"),
    "twisted.homology.repeat_frac": ("frac", "lower", "twisted-torus cases_per_s"),
    "twisted.e2.calls": ("count", "lower", "twisted-torus cases_per_s, latency_tail_ms"),
    "twisted.e2.self_s": ("s", "lower", "twisted-torus cases_per_s, latency_tail_ms"),
    "trace.overhead_frac": ("frac", "lower", "none (tracing cost)"),
}


class Unavailable(Exception):
    """The checkout holds no ialex source tree to benchmark."""


def load_library():
    if not (SRC / "ialex" / "__init__.py").is_file():
        raise Unavailable(f"no ialex package under {SRC}")
    sys.path.insert(0, str(SRC))
    from ialex import cli

    if Path(cli.__file__).resolve().parent != SRC / "ialex":
        raise Unavailable(f"imported ialex from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Result:
    """What one run prints: summary lines, then the JSON result line."""

    lines: list
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    self_share: float = 1.0  # traced runs: summed self time / case time


def reference() -> int:
    """Fixed interpreter work, independent of ialex: integer arithmetic and
    dict updates."""
    total, table = 0, {}
    for i in range(REF_STEPS):
        total += i * i % 7
        table[i % 61] = table.get(i % 61, 0) + total
    return total


class Pace:
    """Machine speed, sampled by running the reference loop."""

    def __init__(self):
        self.loops = 0
        self.spent = 0.0

    def run(self, loops: int = 1):
        clock = time.perf_counter
        for _ in range(loops):
            start = clock()
            reference()
            self.spent += clock() - start
            self.loops += 1

    def keep_up(self, case_time: float):
        """Run loops until they have taken REF_SHARE of `case_time`."""
        while self.spent < REF_SHARE * case_time:
            self.run()

    def scale(self) -> float:
        """Factor turning a measured time into one at nominal speed."""
        return REF_NOMINAL_S * self.loops / self.spent


class Loop:
    """Outcome of a closed loop over one pass of cases, replayed."""

    def __init__(self, size: int):
        self.passes = 0
        self.times = [[] for _ in range(size)]  # each case's time per pass
        self.attempted = 0
        self.failed = 0
        self.timed = 0.0               # seconds of case time, all passes
        self.pace = Pace()
        self.reports = []              # rendered reports of the first pass

    def case_times(self) -> list:
        """Each case's median time over the passes, scaled."""
        scale = self.pace.scale()
        return [statistics.median(t) * scale for t in self.times]


def pass_cases(gen, workload: str, seed: int) -> list:
    """The distinct cases of one pass: the workload's first rounds."""
    return [case for index in range(ROUNDS_PER_PASS[workload])
            for case in gen.round_cases(workload, seed, index)]


def run_loop(cli, gen, cases: list, seconds: float = 0.0,
             passes: int | None = None, tracer=None) -> Loop:
    """Replay the cases until `seconds` have passed, stopping between two
    cases once every case has run twice, or exactly `passes` times; the
    reference loop runs after every case."""
    opts = cli.RunOptions()
    clock = time.perf_counter
    loop = Loop(len(cases))
    began = clock()
    while passes is None or loop.passes < passes:
        for index, (text, expect) in enumerate(cases):
            if passes is None and loop.passes >= 2 and \
                    clock() - began >= seconds:
                return loop
            if tracer is not None:
                tracer.case = loop.attempted
            start = clock()
            try:
                report, code = cli.run_case(json.loads(text), opts)
                rendered = cli.render_report(report, "json")
            except Exception as exc:  # an escaping exception fails the case
                elapsed = clock() - start
                report, code = None, None
                rendered = f"{type(exc).__name__}: {exc}"
            else:
                elapsed = clock() - start
            loop.timed += elapsed
            loop.times[index].append(elapsed)
            loop.attempted += 1
            if report is None or not gen.matches(report, code, expect):
                loop.failed += 1
            if loop.passes == 0:
                loop.reports.append(rendered)
            loop.pace.keep_up(loop.timed)
        loop.passes += 1
    return loop


def warm_up_cases(gen, workload: str) -> list:
    """The shortest case of each kind in the default seed's first round: the
    same cases for every seed, because the cost of high-degree cases varies
    with the seed and set-up should do the same work in every run."""
    chosen: dict = {}
    for text, expect in gen.round_cases(workload, DEFAULT_SEED, 0):
        kind = json.loads(text).get("kind")
        if kind not in chosen or len(text) < len(chosen[kind][0]):
            chosen[kind] = (text, expect)
    return [chosen[kind] for kind in sorted(chosen, key=str)]


def warm_up(cli, cases: list):
    opts = cli.RunOptions()
    for text, _ in cases:
        report, _ = cli.run_case(json.loads(text), opts)
        cli.render_report(report, "json")


def measure_setup(cases: list) -> tuple[list, list, bool]:
    """Raw and scaled wall times of SETUP_REPEATS fresh interpreters doing
    the set-up, each between two samples of the reference loop."""
    raw, scaled, ok = [], [], True
    payload = json.dumps(cases)
    for _ in range(SETUP_REPEATS):
        pace = Pace()
        pace.run(SETUP_REF_LOOPS)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC)],
            input=payload, capture_output=True, text=True, timeout=120,
            check=False)
        raw.append(time.perf_counter() - start)
        pace.run(SETUP_REF_LOOPS)
        scaled.append(raw[-1] * pace.scale())
        try:
            ok = ok and done.returncode == 0 and \
                json.loads(done.stdout.splitlines()[-1])["ok"]
        except (IndexError, ValueError, KeyError):
            ok = False
    return raw, scaled, ok


def tail(times: list) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND cases beyond it, and the
    percentile."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100 * rank / len(ordered)


def digest(gen, workload: str, reports: list) -> str:
    """sha256 of the default seed's first-round reports of valid cases."""
    h = hashlib.sha256()
    for (_, expect), rendered in zip(gen.round_cases(workload, DEFAULT_SEED,
                                                     0), reports):
        if expect["status"] != "error":
            h.update(rendered.encode())
    return h.hexdigest()


def probe_defects(cli, gen) -> str:
    """Known defect kept out of the timed stream (ROADMAP item 5)."""
    case, expect = gen.ZERO_DENOMINATOR
    try:
        report, code = cli.run_case(case, cli.RunOptions())
    except Exception as exc:  # the defect: the exception escapes run_case
        return f"zero-denominator input escapes run_case ({type(exc).__name__})"
    verdict = "typed error report" if gen.matches(report, code, expect) \
        else f"unexpected report {json.dumps(report, sort_keys=True)}"
    return f"zero-denominator input gives a {verdict}"


def end_to_end(cli, gen, workload: str, seed: int, seconds: float):
    warm = warm_up_cases(gen, workload)
    setup_raw, setup_scaled, setup_ok = measure_setup(warm)
    warm_up(cli, warm)
    loop = run_loop(cli, gen, pass_cases(gen, workload, seed), seconds)
    times = loop.case_times()
    tail_value, percentile = tail(times)
    scale = loop.pace.scale()
    metrics = {
        "cases_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1000,
        "latency_tail_ms": tail_value * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_scaled),
    }
    correct = setup_ok and loop.failed == 0
    lines = [f"workload {workload} seed {seed}: {len(times)} cases, "
             f"{loop.passes} passes, {loop.timed:.3f} s of case time",
             f"failed_frac {loop.failed / loop.attempted:.6f} "
             f"({loop.failed} of {loop.attempted} cases run)",
             f"reference loop {1000 / scale * REF_NOMINAL_S:.4f} ms on "
             f"average over {loop.pace.loops} loops: times scaled by "
             f"{scale:.4f}",
             f"raw cases_per_s {len(times) / sum(times) * scale:.6g}, "
             f"latency_p50_ms {metrics['latency_p50_ms'] / scale:.6g}, "
             f"latency_tail_ms {tail_value * 1000 / scale:.6g}",
             f"latency_tail_ms is p{percentile:.4g}, {TAIL_BEYOND} of "
             f"{len(times)} cases beyond it",
             "setup_s runs, raw: " + ", ".join(f"{t:.4f}" for t in setup_raw)
             + "; scaled: " + ", ".join(f"{t:.4f}" for t in setup_scaled)
             + ("" if setup_ok else " (a warm-up report was wrong)")]
    if seed == DEFAULT_SEED:
        expected = json.loads((HERE / "digests.json").read_text())[workload]
        found = digest(gen, workload, loop.reports)
        correct = correct and found == expected
        lines.append(f"default-seed report digest "
                     f"{'matches' if found == expected else 'DIFFERS: ' + found}")
    if workload == "case-mix":
        lines.append("defect probe: " + probe_defects(cli, gen))
    return Result(lines, correct, loop.attempted, loop.failed, metrics)


def per_layer(cli, gen, workload: str, seed: int, seconds: float):
    from layertrace import Tracer

    warm_up(cli, warm_up_cases(gen, workload))
    cases = pass_cases(gen, workload, seed)
    plain = run_loop(cli, gen, cases, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(cli, gen, cases, passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    wall = traced.timed
    totals = tracer.totals()

    def calls(group):
        return totals.get(group, [0, 0.0])[0]

    def self_s(*groups):
        return sum(totals.get(g, [0, 0.0])[1] for g in groups)

    metrics = {
        "laurent.gcd.calls": calls("laurent.gcd"),
        "laurent.gcd.self_s": self_s("laurent.gcd"),
        "laurent.division.calls": calls("laurent.division"),
        "laurent.division.self_s": self_s("laurent.division"),
        "laurent.max_degree": tracer.max_degree,
        "laurent.factor.calls": calls("laurent.factor"),
        "laurent.factor.self_s": self_s("laurent.factor"),
        "laurent.parse.calls": calls("laurent.parse"),
        "laurent.parse.self_s": self_s("laurent.parse"),
        "laurent.normalize.calls": calls("laurent.normalize"),
        "laurent.normalize.self_s": self_s("laurent.normalize"),
        "gmodule.snf.calls": calls("gmodule.snf"),
        "gmodule.snf.self_s": self_s("gmodule.snf"),
        "gmodule.snf.max_cells": tracer.max_cells,
        "gmodule.snf.unit_factor_frac":
            tracer.snf_units / tracer.snf_rank if tracer.snf_rank else 0.0,
        "gmodule.kernel_solve.self_s": self_s("gmodule.kernel_solve"),
        "gmodule.kunneth.calls": calls("gmodule.kunneth"),
        "gmodule.kunneth.self_s": self_s("gmodule.kunneth"),
        "gmodule.module.self_s": self_s("gmodule.module"),
        "engine.calls": calls("engine"),
        "engine.self_s": self_s("engine"),
        "exactseq.calls": calls("exactseq"),
        "exactseq.self_s": self_s("exactseq"),
        "bounds.calls": calls("bounds"),
        "bounds.self_s": self_s("bounds"),
        "cli.run_case.self_s": self_s("cli.run_case"),
        "cli.render.self_s": self_s("cli.render"),
        "twisted.homology.calls": calls("twisted.homology"),
        "twisted.homology.self_s": self_s("twisted.homology"),
        "twisted.homology.max_simplices": tracer.max_simplices,
        "twisted.homology.repeat_frac":
            tracer.homology_repeats / tracer.homology_calls
            if tracer.homology_calls else 0.0,
        "twisted.e2.calls": calls("twisted.e2"),
        "twisted.e2.self_s": self_s("twisted.e2"),
        "trace.overhead_frac":
            sum(traced.case_times()) / sum(plain.case_times()) - 1,
    }
    same = traced.reports == plain.reports
    own = sum(v[1] for v in totals.values())
    share = tracer.covered(COVERAGE[workload]) / wall
    lines = [f"workload {workload} seed {seed} traced: {len(cases)} cases, "
             f"{traced.passes} passes, {len(tracer.spans)} spans, "
             f"{wall:.3f} s traced case time",
             f"traced reports {'equal' if same else 'DIFFER FROM'} the "
             f"untraced ones",
             f"self times add up to {own / wall:.4f} of traced case time",
             f"spans under {'+'.join(COVERAGE[workload])} cover "
             f"{share:.4f} of traced case time"]
    lines += [f"  {name} -> {PER_LAYER[name][2]}" for name in PER_LAYER]
    out = ROOT / ".bench_build" / "perfbench" / f"spans-{workload}-{seed}.jsonl"
    tracer.write(out)
    lines.append(f"spans written to {out.relative_to(ROOT)}")
    return Result(lines, same and plain.failed == 0 and traced.failed == 0,
                  plain.attempted + traced.attempted,
                  plain.failed + traced.failed, metrics, own / wall)


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ROUNDS_PER_PASS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ROUNDS_PER_PASS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        cli = load_library()
    except Unavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import gen

    measure = per_layer if args.trace else end_to_end
    result = measure(cli, gen, args.workload, args.seed, args.seconds)
    print("\n".join(result.lines))
    table = PER_LAYER if args.trace else END_TO_END
    for name, value in result.metrics.items():
        print(f"  {name:34s} {value:.6g} {table[name][0]}")
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": {name: {"value": value,
                                         "unit": table[name][0]}
                                  for name, value in result.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
