"""Compare the CLI reports of two properaffine source trees.

    python3 tools/report_diff.py PARENT_CHECKOUT CHANGE_CHECKOUT [--command ARGS]...

Runs each command of COMMANDS (or each --command, a CLI argument string such
as "spectrum --catalog margulis_positive_n1 --ball 2") with the package
imported from each tree's src/, one BLAS thread, and compares the two JSON
reports.  Every JSON path whose value differs outside the top-level "timing"
block is printed with both values, and the absolute difference when both are
numbers; so is a differing exit code.  Exit status: 0 when no report
differs, 1 otherwise.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

# the benchmark workloads at three seeds, then reports that reach every block
# type on each catalog family
COMMANDS = [
    "%s --seed %d" % (base, seed)
    for base in ("spectrum --catalog margulis_positive_n1 --ball 7",
                 "scorecard --catalog margulis_positive_n1 --ball 5",
                 "scorecard --catalog block_n2 --ball 1")
    for seed in (101, 102, 103)
] + [
    "scorecard --catalog block_n2 --ball 3",
    "scorecard --catalog mixed_sign_n1 --ball 4",
    "scorecard --catalog linear_only --ball 3",
    "scorecard --catalog margulis_positive_n1 --ball 4",
    "proximality --catalog block_n2 --ball 2",
    "spectrum --catalog margulis_positive_n1 --ball 7",
    # ||A||_2 reaches 2^32, where orientation determinants are smallest
    "spectrum --catalog margulis_positive_n1 --ball 8",
    # the n = 1 certificate path in a report without a scorecard
    "proximality --catalog margulis_positive_n1 --ball 3",
    # longer correctors: some cancel into the word, some products reduce to
    # the identity, conjugators grow longer, and n = 2 runs several rounds
    "scorecard --catalog margulis_positive_n1 --ball 4 --search 2",
    "scorecard --catalog block_n2 --ball 2 --search 2",
    # the other two JSON writers: the check summary and a catalog document
    "check --catalog block_n2",
    "catalog margulis_positive_n1",
]


def run(tree, command):
    """(exit code, parsed JSON report or raw stdout) of one CLI run in tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src")),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "properaffine.cli",
                           *shlex.split(command)],
                          cwd=tree, env=env, capture_output=True, check=False)
    try:
        out = json.loads(proc.stdout)
    except ValueError:
        out = proc.stdout.decode(errors="replace")
    return proc.returncode, out


def differences(a, b, path=""):
    """(path, a value, b value) for every leaf where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            sub = "%s.%s" % (path, key) if path else key
            if key not in a or key not in b:
                out.append((sub, a.get(key, "<missing>"), b.get(key, "<missing>")))
            else:
                out += differences(a[key], b[key], sub)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += differences(x, y, "%s[%d]" % (path, i))
        return out
    return [] if a == b and type(a) is type(b) else [(path, a, b)]


def report_differences(parent, change):
    """differences of two reports, ignoring their top-level timing blocks."""
    if isinstance(parent, dict) and isinstance(change, dict):
        parent = {k: v for k, v in parent.items() if k != "timing"}
        change = {k: v for k, v in change.items() if k != "timing"}
    return differences(parent, change)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent source tree")
    parser.add_argument("change", help="changed source tree")
    parser.add_argument("--command", action="append",
                        help="CLI arguments to run instead of the fixed list")
    args = parser.parse_args(argv)
    total = 0
    for command in args.command or COMMANDS:
        code_a, out_a = run(args.parent, command)
        code_b, out_b = run(args.change, command)
        found = report_differences(out_a, out_b)
        if code_a != code_b:
            found.insert(0, ("<exit code>", code_a, code_b))
        print("%s: %d difference(s)" % (command, len(found)))
        for path, x, y in found:
            line = "  %s: %r -> %r" % (path, x, y)
            if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (x, y)):
                line += "  (abs %.3g)" % abs(x - y)
            print(line)
        total += len(found)
    return 0 if total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
