"""Every name the benchmark tracer wraps still exists in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = tracing.TRACED + tracing.VALIDATORS


@pytest.mark.parametrize("span,module,attribute", TARGETS, ids=[span for span, _, _ in TARGETS])
def test_traced_name_resolves(span, module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))
