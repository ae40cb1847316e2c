"""Print one SHA-256 per benchmark workload, and one per op kind, over the
reports of its plans.

    python3 tools/report_hashes.py [SEED ...]        (default: seeds 1-20)

For each workload of ``perfbench/workloads.py`` and each seed, builds the
plan in a temporary folder and runs every warm-up and round op through
``periodrel.cli.dispatch`` there, hashing each exit code and stdout in
order.  The line ``WORKLOAD HASH`` covers every op; each line
``WORKLOAD/KIND HASH`` below it covers the ops of one kind (a warm-up op
counts with its kind), so a format change shows which report kinds moved.
Two trees that print the same hashes give byte-identical reports.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from periodrel.cli import dispatch  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

if __name__ == "__main__":
    for workload in WORKLOADS:
        digest, kinds = hashlib.sha256(), {}
        for seed in [int(s) for s in sys.argv[1:]] or range(1, 21):
            with tempfile.TemporaryDirectory() as folder, contextlib.chdir(folder):
                plan = build(workload, seed, ".")  # relative paths keep each manifest's argv stable
                for op in plan.warmup + plan.round:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = dispatch(op["argv"])
                    report = f"{code}\n{buf.getvalue()}\n".encode()
                    digest.update(report)
                    kinds.setdefault(op["kind"], hashlib.sha256()).update(report)
        print(workload, digest.hexdigest())
        for kind, kind_digest in sorted(kinds.items()):
            print(f"{workload}/{kind}", kind_digest.hexdigest())
