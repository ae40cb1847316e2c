"""Spans around the calls into periodrel's layers, recorded from outside.

``Tracer.install()`` wraps each function named in ``TARGETS``.  periodrel's
modules import one another's functions by name (``trivial_ideal`` holds its
own binding of ``sample_symplectic``, ``cli`` of ``membership``), so a wrapper
replaces every ``periodrel.*`` module attribute bound to the wrapped function
object, not only the defining one.  Methods are replaced on their class.

Every call updates per-name totals: calls, total time (outermost call of a
name only) and self time (span minus the time its child spans cover).  Spans
down to ``SPAN_DEPTH`` are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# The functions behind every metric in run.LAYER_METRICS, plus the two entry
# points (generators, build_nonarch_certificate) whose remaining work would
# otherwise count as CLI self time.
TARGETS = {
    "cli": ["dispatch"],
    "trivial_ideal": ["generators", "membership", "radicality_certificate", "jacobian_rank_at"],
    "polyalg": [
        "groebner_basis",
        "normal_form",
        "adjugate",
        "determinant",
        "MultiPoly.partial",
        "MultiPoly.evaluate",
        "MultiPoly.substitute",
        "MultiPoly.to_json",
    ],
    "symplectic": ["sample_symplectic"],
    "matrices": ["rank", "mat_mul", "inverse"],
    "relations": [
        "build_nonarch_certificate",
        "build_nonarch_relation",
        "synthesize_period_data",
        "build_case3_relation",
        "generator_transform_scalar",
    ],
    "scalars": ["is_squarefree"],
    "series": [
        "TruncatedSeries.__mul__",
        "compose",
        "reciprocal",
        "compositional_inverse",
        "globally_bounded_scan",
        "eval_with_tail_bound",
    ],
    "gfun": ["derive_G", "check_period_equation"],
}

SPAN_DEPTH = 2  # keep dispatch spans and their direct children


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.active: list[int] = []  # open calls per name, for recursion
        self.stack: list[list] = []  # [name index, child time]
        self.spans: list[tuple] = []  # (name index, start, end, depth)

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.active.append(0)
        stack, active, spans = self.stack, self.active, self.spans
        calls, total, self_time = self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            frame = [idx, 0.0]
            stack.append(frame)
            active[idx] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                active[idx] -= 1
                calls[idx] += 1
                self_time[idx] += dur - frame[1]
                if not active[idx]:
                    total[idx] += dur
                if stack:
                    stack[-1][1] += dur
                if len(stack) < SPAN_DEPTH:
                    spans.append((idx, t0, t1, len(stack)))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items() if k.startswith("periodrel.") and v is not None}
        for short, attrs in TARGETS.items():
            mod = mods[f"periodrel.{short}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(f"{short}.{attr}", cls.__dict__[meth]))
                    continue
                fn = getattr(mod, attr)
                traced = self.wrap(f"{short}.{attr}", fn)
                for other in mods.values():
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, key, traced)

    def reset(self) -> None:
        """Forget what the warm-up recorded; the timed part starts clean."""
        n = len(self.names)
        self.calls[:] = [0] * n
        self.total[:] = [0.0] * n
        self.self_time[:] = [0.0] * n
        self.spans.clear()

    def summary(self) -> dict:
        return {
            name: {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.self_time[i]}
            for i, name in enumerate(self.names)
        }

    def span_records(self) -> list:
        return [[self.names[i], t0, t1, depth] for i, t0, t1, depth in self.spans]
