"""Compare two source trees op kind by op kind, in process.

    python3 tools/kind_ab.py TREE_A TREE_B [--workload W] [--seed S]
                             [--rounds N] [--pairs P] [--json]

Builds the plan of ``perfbench/workloads.py`` (this repository's copy,
so both trees run the same inputs) at seed S in a temporary folder.  Then
it starts P pairs of fresh interpreters, alternating A and B, each running
the warm-up and N rounds of the plan through ``periodrel.cli.dispatch`` of
its tree, with each op timed alone.  For every op of a round it keeps the
least time over all rounds and runs of a tree, and for each op kind it
prints the mean of those minima in ms for A and for B, and B/A.  The
minimum over many runs of the same op is what a code change moves; drift
of the machine mostly moves the rest.  ``--json`` prints the figures as
one JSON object instead of a table.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child(tree: str, workload: str, seed: int, rounds: int) -> None:
    """Run one tree's warm-up and rounds; print each round op's least time in s."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(ROOT, "perfbench")]
    from periodrel.cli import dispatch
    from workloads import build

    with tempfile.TemporaryDirectory() as folder, contextlib.chdir(folder):
        plan = build(workload, seed, ".")
        for op in plan.warmup:
            with contextlib.redirect_stdout(io.StringIO()):
                dispatch(op["argv"])
        best = [float("inf")] * len(plan.round)
        for _ in range(rounds):
            for i, op in enumerate(plan.round):
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = perf_counter()
                    dispatch(op["argv"])
                    best[i] = min(best[i], perf_counter() - t0)
    print(json.dumps({"kinds": [op["kind"] for op in plan.round], "best": best}))


def compare(a: str, b: str, workload: str, seed: int, rounds: int, pairs: int) -> dict:
    """{kind: {"a_ms", "b_ms", "ratio"}} over ``pairs`` alternating runs of each tree."""
    best = {}
    for _ in range(pairs):
        for tree in (a, b):
            argv = [sys.executable, __file__, "--child", tree, workload, str(seed), str(rounds)]
            run = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
            kinds, old = run["kinds"], best.get(tree, run["best"])
            best[tree] = [min(x, y) for x, y in zip(old, run["best"])]
    out = {}
    for kind in sorted(set(kinds)):
        ms = [1000 * sum(t for k, t in zip(kinds, best[tree]) if k == kind) / kinds.count(kind) for tree in (a, b)]
        out[kind] = {"a_ms": round(ms[0], 4), "b_ms": round(ms[1], 4), "ratio": round(ms[1] / ms[0], 3)}
    return out


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))
        sys.exit()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--workload", default="series")
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    figures = compare(os.path.abspath(args.a), os.path.abspath(args.b), args.workload, args.seed, args.rounds, args.pairs)
    if args.json:
        print(json.dumps(figures, sort_keys=True))
    else:
        print(f"{args.workload} seed {args.seed}, {args.pairs} x {args.rounds} rounds per tree: least ms per op")
        print(f"{'kind':<16}{'A':>10}{'B':>10}{'B/A':>8}")
        for kind, f in figures.items():
            print(f"{kind:<16}{f['a_ms']:>10.3f}{f['b_ms']:>10.3f}{f['ratio']:>8.3f}")
