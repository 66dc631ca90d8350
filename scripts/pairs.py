"""Alternate parent/change runs of the benchmark and compare them.

    python3 scripts/pairs.py --parent ../parent --change . \
        --workload twisted-torus --seed 7321 --pairs 10 --seconds 25

Each of the N pairs runs `perfbench/run.py` once in the parent checkout and
once in the change checkout, one after the other, so slow drift of the
machine hits both sides alike; the side that goes first alternates from
pair to pair.  Every run's end-to-end metrics are printed as it finishes.
At the end, for each metric: the parent and change medians, the parent's
interquartile range with both sides' quartiles, and the number of pairs
the change won, "won" meaning better in the direction `BENCHMARK.json`
gives; a positive gain is better.
A run that does not finish or reports a failed case is shown and stops the
script with exit code 1.

Before the timed pairs, each checkout runs five passes of the workload's
cases at the given seed, in its own process so that its own `src/` is
imported, and one line gives the sha256 of each side's rendered reports
(from the first pass), whether they match, and each side's least pass
time: the least over the five passes of the sum of the case times, in
seconds, not scaled.  The least pass time is for reading only and cannot
compare two trees: processes fall into fast and slow modes, and on
case-mix one tree's least pass read 0.2017 s in one run and 0.1241 s in
the next.  The pairs are timed either way, and `--pairs 0` compares the
hashes alone.

Runs write no bytecode, and the script refuses to start when one checkout
holds `__pycache__` directories under `src/` or `perfbench/` and the other
does not: compiled modules cut the side that has them short in `setup_s`.
Remove them from both checkouts (or leave them in both) and start again.
It also refuses to start, naming the first file that differs, when the two
checkouts do not hold the same `BENCHMARK.json` and the same files under
`perfbench/` (outside `__pycache__`): a gain counts only against an
unchanged benchmark.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one benchmark run in the given checkout."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"run in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"run in {checkout} failed {result['failed']} of "
                           f"{result['attempted']} cases")
    return {name: m["value"] for name, m in result["metrics"].items()}


# five passes of a workload's cases; prints the sha256 of the first pass's
# reports and the least sum of case times over the passes
REPORTS = """\
import hashlib, sys
sys.path.insert(0, "perfbench")
import run
cli = run.load_library()
import gen
cases = run.pass_cases(gen, sys.argv[1], int(sys.argv[2]))
loop = run.run_loop(cli, gen, cases, passes=5)
print(hashlib.sha256("\\n".join(loop.reports).encode()).hexdigest(),
      min(map(sum, zip(*loop.times))))
"""


def report_hash(checkout: Path, workload: str, seed: int) -> str:
    """The sha256 of the rendered reports in the given checkout and its
    least pass time, or why there are none."""
    done = subprocess.run(
        [sys.executable, "-c", REPORTS, workload, str(seed)],
        cwd=checkout, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    words = done.stdout.split()
    if done.returncode != 0 or len(words) < 2:
        return f"none (exit {done.returncode})"
    return f"{words[-2]} (least pass {float(words[-1]):.4f} s)"


def has_bytecode(checkout: Path) -> bool:
    return any(next((checkout / d).rglob("__pycache__"), None) is not None
               for d in ("src", "perfbench"))


def benchmark_files(checkout: Path) -> dict:
    """The bytes of `BENCHMARK.json` and of every file under `perfbench/`
    outside `__pycache__`, by path relative to the checkout."""
    paths = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    return {path.relative_to(checkout).as_posix(): path.read_bytes()
            for path in paths if path.is_file()
            and "__pycache__" not in path.relative_to(checkout).parts}


def first_benchmark_difference(parent: Path, change: Path):
    """The first benchmark file, by path, that the two checkouts do not
    hold alike, or None when they hold the same benchmark."""
    a, b = benchmark_files(parent), benchmark_files(change)
    return next((name for name in sorted(a.keys() | b.keys())
                 if a.get(name) != b.get(name)), None)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(parent: list, change: list, better: dict) -> list:
    """One line per metric: medians, parent IQR, both sides' quartiles
    and pairs won; no line when no pair ran."""
    lines = []
    for name in parent[0] if parent else ():
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1 if better.get(name, "lower") == "higher" else -1
        won = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        mp, mc = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        c1, c3 = quartiles(c)
        gain = sign * (mc - mp) / mp if mp else 0.0
        lines.append(f"{name:18s} median {mp:.4g} -> {mc:.4g} (gain "
                     f"{gain:+.1%}), parent IQR {q3 - q1:.4g}, quartiles "
                     f"{q1:.4g}..{q3:.4g} -> {c1:.4g}..{c3:.4g}, change won "
                     f"{won}/{len(p)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if args.pairs < 0:
        parser.error("--pairs must not be negative")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    cached = [side for side, path in sides.items() if has_bytecode(path)]
    if len(cached) == 1:
        print(f"only the {cached[0]} checkout holds __pycache__ directories; "
              "remove them so that both sides compile alike", file=sys.stderr)
        return 2
    differs = first_benchmark_difference(args.parent, args.change)
    if differs is not None:
        print(f"the checkouts differ in the benchmark file {differs}; a gain "
              "counts only against an unchanged benchmark", file=sys.stderr)
        return 2
    hashes = {side: report_hash(path, args.workload, args.seed)
              for side, path in sides.items()}
    digests = {side: text.split()[0] for side, text in hashes.items()}
    same = digests["parent"] == digests["change"] and \
        not hashes["parent"].startswith("none")
    print(f"report sha256: parent {hashes['parent']}, change "
          f"{hashes['change']}, {'identical' if same else 'DIFFERENT'}",
          flush=True)
    runs: dict[str, list] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                metrics = run_once(sides[side], args.workload, args.seed,
                                   args.seconds)
            except RuntimeError as exc:
                print(f"pair {i + 1} {side}: {exc}", file=sys.stderr)
                return 1
            runs[side].append(metrics)
            print(f"pair {i + 1} {side:6s} " + " ".join(
                f"{name}={value:.4g}" for name, value in metrics.items()),
                flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs")
    for line in summary(runs["parent"], runs["change"], better):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
