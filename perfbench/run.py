"""Benchmark for periodrel's certificate engine, driven through its CLI.

    python3 perfbench/run.py --workload ideal|relations|series --seed N \
        --seconds S --trace 0|1

Run from the root of a periodrel checkout.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A summary for people goes to stderr; the full result and,
when traced, the spans go to ``.perfbench_out/``.

The run builds its inputs from the seed, times set-up in several fresh
interpreters, runs the closed loop in one more (worker.py), then checks every
report with checks.py and feeds one corrupted report per op kind back
through the same checks, which must reject it.  Every time it reports is
scaled to a fixed reference speed of the machine, measured by speed.py
while the run lasts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
from checks import WrongOutput, check, corrupt, rejects  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SETUP_PROBES = 6  # extra fresh interpreters that only set up; setup_s is the median over them and the loaded one
CHILD_TIMEOUT_S = 150
P90_MIN_OPS = 100

# Layer spans reported by a traced run, per round of the workload.
LAYER_METRICS = [
    ("cli.dispatch", ("calls", "self_s")),
    ("trivial_ideal.membership", ("total_s",)),
    ("trivial_ideal.radicality_certificate", ("total_s",)),
    ("trivial_ideal.jacobian_rank_at", ("total_s",)),
    ("polyalg.groebner_basis", ("calls", "self_s")),
    ("polyalg.normal_form", ("calls", "self_s")),
    ("polyalg.MultiPoly.partial", ("self_s",)),
    ("polyalg.MultiPoly.evaluate", ("calls", "self_s")),
    ("polyalg.adjugate", ("self_s",)),
    ("polyalg.determinant", ("self_s",)),
    ("polyalg.MultiPoly.substitute", ("self_s",)),
    ("polyalg.MultiPoly.to_json", ("self_s",)),
    ("symplectic.sample_symplectic", ("calls", "self_s")),
    ("matrices.rank", ("calls", "self_s")),
    ("matrices.mat_mul", ("calls", "self_s")),
    ("matrices.inverse", ("self_s",)),
    ("relations.build_nonarch_relation", ("self_s",)),
    ("relations.synthesize_period_data", ("self_s",)),
    ("relations.build_case3_relation", ("self_s",)),
    ("relations.generator_transform_scalar", ("total_s",)),
    ("scalars.is_squarefree", ("calls", "self_s")),
    ("series.compose", ("calls", "self_s")),
    ("series.reciprocal", ("self_s",)),
    ("series.TruncatedSeries.__mul__", ("calls", "self_s")),
    ("series.compositional_inverse", ("total_s",)),
    ("series.globally_bounded_scan", ("self_s",)),
    ("series.eval_with_tail_bound", ("self_s",)),
    ("gfun.derive_G", ("self_s",)),
    ("gfun.check_period_equation", ("self_s",)),
]
STRUCTURED_WITNESSES = 4  # (I,0), (I,I), (I,diag), (I,ones): membership tries these before samples


def _spawn(tmp: str, seconds: float, trace: bool, mode: str) -> tuple[float, float, dict | None]:
    """Start a worker, return (set-up seconds, the worker's median kernel
    seconds just after set-up, results or None for a probe)."""
    results = os.path.join(tmp, f"results-{mode}.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(tmp, "plan.json"),
            results, str(seconds), "1" if trace else "0", mode]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        speed_line = proc.stdout.readline().split()
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if ready.strip() != "ready" or speed_line[:1] != ["speed"] or proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    kernel_s = float(speed_line[1])
    if mode == "setup":
        return setup, kernel_s, None
    with open(results, encoding="utf-8") as fh:
        return setup, kernel_s, json.load(fh)


def _percentile(values: list, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _deciles(values: list) -> list:
    """[p10, p50, p90] rounded to 0.01, for the human summary."""
    if len(values) < 2:
        return [round(values[0], 2)] * 3
    q = statistics.quantiles(values, n=10, method="inclusive")
    return [round(q[0], 2), round(q[4], 2), round(q[8], 2)]


def _check_all(plan: dict, res: dict) -> tuple[int, dict, list]:
    """Check every report; returns (failed ops, failed per kind, op kinds whose
    corrupted report was rejected).  Raises WrongOutput on a wrong report."""
    outputs = res["outputs"]
    verdicts: dict = {}  # (op key, exit code, output id) -> verdict
    accepted: dict = {}  # op kind -> [(op, output id)] of its accepted reports

    def verdict(key, op: dict, code: int, out_id: int) -> str:
        if (key, code, out_id) not in verdicts:
            try:
                v = check(op["check"], code, outputs[out_id])
            except WrongOutput as exc:
                raise WrongOutput(f"{op['kind']} {' '.join(op['argv'])}: {exc}") from None
            verdicts[key, code, out_id] = v
            if v == "ok":
                accepted.setdefault(op["kind"], []).append((op, out_id))
        return verdicts[key, code, out_id]

    for k, (op, (code, out_id)) in enumerate(zip(plan["warmup"], res["warmup"])):
        verdict(("warmup", k), op, code, out_id)
    failed, by_kind = 0, {}
    for k, _, _, code, out_id in res["ops"]:
        op = plan["round"][k]
        if verdict(("round", k), op, code, out_id) == "failed":
            failed += 1
            by_kind[op["kind"]] = by_kind.get(op["kind"], 0) + 1

    rejected = []
    for kind, reports in accepted.items():
        for op, out_id in reports:
            bad = corrupt(op["check"], json.loads(outputs[out_id]))
            if bad is not None:
                if not rejects(op["check"], bad):
                    raise WrongOutput(f"self-test: a corrupted {kind} report passed its check")
                rejected.append(kind)
                break
    return failed, by_kind, rejected


def _layer_metrics(plan: dict, res: dict) -> dict:
    rounds = res["rounds"]
    layers = res["layers"]
    out = {}
    for name, fields in LAYER_METRICS:
        for field in fields:
            unit = "count" if field == "calls" else "s"
            out[f"{name}.{field}"] = {"value": layers[name][field] / rounds, "unit": unit}
    # sampled points that a membership or radicality query evaluated, over
    # the sampled points it built
    used = 0
    for k, _, _, code, out_id in res["ops"]:
        if plan["round"][k]["check"]["type"] == "member" and code == 0:
            tested = json.loads(res["outputs"][out_id])["result"]["samples_tested"]
            used += max(0, tested - STRUCTURED_WITNESSES)
    radicals = sum(1 for k, *_ in res["ops"] if plan["round"][k]["check"]["type"] == "radical")
    used += layers["trivial_ideal.jacobian_rank_at"]["calls"] - radicals
    built = layers["symplectic.sample_symplectic"]["calls"]
    out["trivial_ideal.points_used_ratio"] = {"value": used / built if built else 0.0, "unit": "ratio"}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "periodrel", "cli.py")):
        print("run.py: no periodrel sources under ./src; run it from the root of a checkout", file=sys.stderr)
        return 2
    tmp = os.path.join(root, ".perfbench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        plan_obj = build(args.workload, args.seed, tmp)
        plan = {**plan_obj.to_json(), "min_ops": P90_MIN_OPS}
        with open(os.path.join(tmp, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        # probes before and after the loaded process, so the median spans the run;
        # each entry is (set-up seconds, that process's kernel seconds)
        setups = [_spawn(tmp, args.seconds, False, "setup")[:2] for _ in range(SETUP_PROBES // 2)]
        setup, kernel_s, res = _spawn(tmp, args.seconds, bool(args.trace), "load")
        setups.append((setup, kernel_s))
        setups += [_spawn(tmp, args.seconds, False, "setup")[:2] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        t_check = perf_counter()
        try:
            failed, failed_by_kind, selftest = _check_all(plan, res)
            correct, problem = True, None
        except WrongOutput as exc:
            failed, failed_by_kind, selftest = 0, {}, []
            correct, problem = False, str(exc)
        t_check = perf_counter() - t_check
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(tmp))

    # Every time is reported at the reference speed (speed.py): an op's
    # latency is scaled by the kernel samples taken around it, a set-up time
    # by its own process's kernel samples.  The raw figures go to the summary.
    # A traced run has no samples; it reports only per-layer figures.
    spans = [op[1:3] for op in res["ops"]]
    if res["samples"]:
        lat_s, ref_s = speed.latencies(spans, res["samples"])
    else:
        lat_s = ref_s = [t1 - t0 for t0, t1 in spans]
    lat_ms = [t * 1000.0 for t in lat_s]
    ref_ms = [t * 1000.0 for t in ref_s]
    ref_setups = [t * speed.REF_KERNEL_S / k for t, k in setups]
    ops_per_s = len(ref_ms) / sum(ref_s)
    if args.trace:
        metrics = _layer_metrics(plan, res)
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(ref_ms), "unit": "ms"},
            "op_p90_ms": {"value": _percentile(ref_ms, 90), "unit": "ms"},
            "setup_s": {"value": statistics.median(ref_setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    per_kind: dict = {}
    per_kind_ref: dict = {}
    for op, t, r in zip(res["ops"], lat_ms, ref_ms):
        kind = plan["round"][op[0]]["kind"]
        per_kind.setdefault(kind, []).append(t)
        per_kind_ref.setdefault(kind, []).append(r)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": res["rounds"],
        "ops_per_round": len(plan["round"]),
        "elapsed_s": res["elapsed_s"],
        "speed_factor": sum(ref_s) / sum(lat_s),
        "raw": {
            "ops_per_s": len(lat_ms) / res["elapsed_s"],
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": _percentile(lat_ms, 90),
            "setup_s": statistics.median(t for t, _ in setups),
        },
        "setup_samples_s": [t for t, _ in setups],
        "setup_kernel_ms": [k * 1000.0 for _, k in setups],
        "check_s": t_check,
        "failed_by_kind": failed_by_kind,
        "selftest_rejected": selftest,
        "problem": problem,
        "op_ms_by_kind": {k: [len(v)] + _deciles(v) for k, v in sorted(per_kind.items())},
        "op_ref_ms_by_kind": {k: [len(v)] + _deciles(v) for k, v in sorted(per_kind_ref.items())},
    }
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": correct, "attempted": len(res["ops"]), "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "summary": summary}, fh, indent=1)
    if args.trace:
        with open(os.path.join(out_dir, f"trace-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"layers": res["layers"], "spans": res["spans"]}, fh)
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
