"""The traced benchmark's wrap targets (perfbench/spans.TARGETS) resolve."""
import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, path) for module, path, *_ in spans.TARGETS]


@pytest.mark.parametrize("module, path", _targets())
def test_span_target_resolves(module, path):
    mod = importlib.import_module(f"blmhd.{module}")
    if "." in path:
        # methods are wrapped on the class that defines them
        cls_name, attr = path.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(attr))
    else:
        assert callable(getattr(mod, path, None))
