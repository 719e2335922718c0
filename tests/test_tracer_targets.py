"""Every function the benchmark tracer wraps still exists under its name.

The tracer replaces each TARGETS entry by name when a traced benchmark
run starts, so a renamed or deleted function would otherwise surface only
as a crash of that run. runpy reads benchmarks/tracer.py without writing
anything next to it.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"
TARGETS = runpy.run_path(str(TRACER))["TARGETS"]


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _, _ in TARGETS], ids=lambda v: v)
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        # the tracer reads methods from the class __dict__, not inherited ones
        cls_name, method = attr.split(".")
        assert callable(getattr(module, cls_name).__dict__.get(method))
    else:
        assert callable(getattr(module, attr, None))
