"""Print the peak RSS of fixed rounds of one benchmark workload, in process.

    python3 tools/peak_rss.py WORKLOAD [SEED] [ROUNDS]    (defaults: 1, 30)

Builds the plan of ``perfbench/workloads.py`` at SEED in a temporary folder,
runs its warm-up and then ROUNDS rounds through ``periodrel.cli.dispatch``,
keeping no per-op record, and prints ``ru_maxrss`` in MB after the warm-up
and at the end.  Two trees compared at equal rounds show the program's own
peak apart from how many ops a timed run gets through.
"""

import contextlib
import io
import os
import resource
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from periodrel.cli import dispatch  # noqa: E402
from workloads import build  # noqa: E402


def run(ops: list) -> float:
    """Dispatch each op, dropping its report; the peak RSS so far in MB."""
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            dispatch(op["argv"])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    workload, seed, rounds = sys.argv[1], int((sys.argv[2:] or [1])[0]), int((sys.argv[3:] or [30])[0])
    with tempfile.TemporaryDirectory() as folder, contextlib.chdir(folder):
        plan = build(workload, seed, ".")  # relative paths, as tools/report_hashes.py
        print(f"{workload} seed {seed}: after warm-up {run(plan.warmup):.2f} MB", flush=True)
        print(f"{workload} seed {seed}: after {rounds} rounds {run(plan.round * rounds):.2f} MB")
