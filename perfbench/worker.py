"""One benchmark process: import periodrel, warm up, then a closed loop.

Started by run.py in a fresh interpreter for every run and every set-up
probe.  It prints ``ready`` on its own stdout once set-up is done; run.py
times set-up up to that line.  The timed loop is a single caller in a single
thread: it sends the next command only after ``periodrel.cli.dispatch`` has
returned the previous report.  Reports are captured, kept, and checked by
run.py after the process ends, outside the timed region.

After ``ready`` the worker prints ``speed S``, the median time of
SETUP_KERNELS reference-kernel calls (speed.py), which scales its set-up
time.  An untraced loop also samples the kernel every speed.INTERVAL_S; the
worker keeps each op's start and end and the samples, and run.py takes the
samples' time out of the ops they interrupted.

    python3 perfbench/worker.py PLAN RESULTS SECONDS TRACE MODE

MODE is ``setup`` (stop after warm-up) or ``load``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_KERNELS = 9


def _call(dispatch, argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = dispatch(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback: the op failed, the loop goes on
            return 99, json.dumps({"exception": f"{type(exc).__name__}: {exc}"})
    return code, buf.getvalue()


def main() -> None:
    plan_path, results_path, seconds, trace, mode = sys.argv[1:6]
    seconds, trace = float(seconds), trace == "1"
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import periodrel.cli as cli
    import speed

    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    outputs: dict[str, int] = {}

    def keep(text: str) -> int:
        return outputs.setdefault(text, len(outputs))

    warm = []
    for op in plan["warmup"]:
        code, text = _call(cli.dispatch, op["argv"])
        warm.append([code, keep(text)])
    print("ready", flush=True)
    print(f"speed {speed.median_sample(SETUP_KERNELS)!r}", flush=True)
    if mode == "setup":
        return
    if tracer:
        tracer.reset()

    # Whole rounds only, so every run holds the same mix of ops.  The run
    # stops at the round boundary nearest to SECONDS, once it holds min_ops.
    # A traced run takes no samples, so its spans hold no kernel time.
    ops = []  # [index in round, start s, end s, exit code, output id]
    rounds = 0
    sampler = speed.Sampler()
    with contextlib.nullcontext() if tracer else sampler:
        start = perf_counter()
        while True:
            for k, op in enumerate(plan["round"]):
                t0 = perf_counter()
                code, text = _call(cli.dispatch, op["argv"])
                ops.append([k, t0, perf_counter(), code, keep(text)])
            rounds += 1
            elapsed = perf_counter() - start - sum(s[2] for s in sampler.samples)
            if elapsed + elapsed / rounds / 2 >= seconds and len(ops) >= plan["min_ops"]:
                break

    out = {
        "warmup": warm,
        "ops": ops,
        "samples": sampler.samples,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": sorted(outputs, key=outputs.get),
    }
    if tracer:
        out["layers"] = tracer.summary()
        out["spans"] = tracer.span_records()
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
