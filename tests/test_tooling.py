"""The benchmark's layer tracer wraps periodrel functions by name; a rename
on either side would leave ``perfbench/run.py --trace 1`` broken."""

import importlib
import runpy
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_layertrace_targets_resolve_on_periodrel():
    targets = runpy.run_path(str(LAYERTRACE))["TARGETS"]  # compiled from source, nothing written
    missing = []
    for module, names in targets.items():
        for name in names:
            obj = importlib.import_module(f"periodrel.{module}")
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{name}")
    assert missing == []
