"""The benchmark's bindings to chainwave stay valid.

``perfbench/`` traces chainwave functions by name and builds its
workloads from the public API; a rename that breaks either would
otherwise show only in the separate benchmark self-test.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = _load("tracing")
    # the benchmark has imported every traced module before it traces
    for module, _ in tracing.TARGETS.values():
        importlib.import_module(module)
    assert tracing.Tracer().missing == []


def test_every_workload_builds(tmp_path):
    workloads = _load("workloads")
    assert len(workloads.WORKLOADS) == 4
    for name, cls in workloads.WORKLOADS.items():
        assert cls(501, tmp_path).tasks, name
