"""The benchmark tracer (perfbench/spans.py) patches pipeline functions by
module attribute name; a renamed or removed name would leave that stage
untraced.  This checks every name it wraps still resolves to a callable."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    named = [(module, attr) for module, attr, _span, _count in spans.TARGETS]
    layers = [("dmmaction.neural", n) for n in ("conv3d_forward", "maxpool3d", "run_layers")]
    return named + layers


@pytest.mark.parametrize("module, attr", _tracer_targets())
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
