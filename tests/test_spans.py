"""Every function the benchmark's tracer wraps still exists.

A traced benchmark run looks each ``SPANS`` name up with ``getattr``, so
renaming or deleting one of them crashes the run. ``perfbench/`` is not a
package; its ``tracing.py`` is loaded by path.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("qual", _spans())
def test_span_resolves(qual):
    module, func = qual.split(".")
    assert callable(getattr(importlib.import_module(f"repro.core.{module}"), func))
