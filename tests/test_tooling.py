"""Repository invariants: the benchmark's layer tracer wraps periodrel
functions by name (a rename on either side would leave
``perfbench/run.py --trace 1`` broken), the runtime imports only the
standard library, but not ``dataclasses`` (with ``inspect``, ``ast`` and
``dis`` behind it, about 1.1 MB resident), each runtime name has one
import path, its module, and the per-kind A/B harness runs."""

import importlib
import json
import runpy
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


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


def test_runtime_imports_only_the_standard_library():
    # -I -S: no site-packages, no PYTHONPATH, no user site; src is the only addition
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import json, periodrel, periodrel.cli; "
        "print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "periodrel" in loaded
    assert [m for m in loaded if m not in sys.stdlib_module_names and m not in ("periodrel", "__main__")] == []


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import periodrel.cli; print(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [m for m in ("dataclasses", "inspect") if f"'{m}'" in proc.stdout] == []


def test_the_package_root_binds_no_public_name_but_its_submodules():
    import periodrel
    import periodrel.cli  # noqa: F401  (binds the submodules the CLI imports)

    extra = [
        name
        for name, value in vars(periodrel).items()
        if not name.startswith("_")
        and not (isinstance(value, ModuleType) and value.__name__ == f"periodrel.{name}")
    ]
    assert extra == []


def test_kind_ab_compares_two_trees_op_kind_by_op_kind():
    # one round per tree, the repository as both trees: every op kind of the
    # plan gets a time for each and their ratio
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kind_ab.py"), str(ROOT), str(ROOT), "--rounds", "1", "--pairs", "1", "--json"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    figures = json.loads(proc.stdout)
    assert set(figures) == {"eval_p", "gb_scan", "gfun_check", "gfun_derive", "invert_q5_30", "invert_z120", "invert_z60"}
    for f in figures.values():
        assert f["a_ms"] > 0 and f["b_ms"] > 0 and f["ratio"] == pytest.approx(f["b_ms"] / f["a_ms"], abs=0.01)
    assert elapsed < 5.0
