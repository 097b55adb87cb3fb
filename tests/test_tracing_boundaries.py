"""The benchmark's tracer (perfbench/tracing.py) swaps package functions by
module attribute name; every name it lists must exist and be callable, or a
traced benchmark run fails on lookup."""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import BOUNDARIES  # noqa: E402


@pytest.mark.parametrize("module_name, attr, layer", BOUNDARIES)
def test_boundary_attribute_is_callable(module_name, attr, layer):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
