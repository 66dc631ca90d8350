"""Set-up probe, run in a fresh interpreter by `run.py` to measure setup_s.

It imports `ialex.cli` (and with it sympy on first factorization) from the
source tree given as the only argument, then runs the warm-up cases it reads
on standard input as a JSON list of [case text, expected outcome] pairs.  It
prints {"ok": true} when every warm-up report is the expected one.
"""

import json
import sys


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from ialex import cli

    import gen

    opts = cli.RunOptions()
    ok = True
    for text, expect in json.load(sys.stdin):
        report, code = cli.run_case(json.loads(text), opts)
        cli.render_report(report, "json")
        ok = ok and gen.matches(report, code, expect)
    print(json.dumps({"ok": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
