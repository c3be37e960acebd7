"""The traced benchmark's wrap targets (perfbench/spans.TARGETS) resolve,
and the names it gives to what they time match the code they wrap."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from blmhd.grid import GridSpec
from blmhd.pde import Physics, TimeTower

from conftest import perturbed_state

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets():
    return [(module, path) for module, path, *_ in _spans().TARGETS]


@pytest.mark.parametrize("module, path", _targets())
def test_span_target_resolves(module, path):
    mod = importlib.import_module(f"blmhd.{module}")
    if "." in path:
        # methods are wrapped on the class that defines them
        cls_name, attr = path.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(attr))
    else:
        assert callable(getattr(mod, path, None))


def test_tower_level_spans_name_the_level_being_built(monkeypatch):
    # the traced run names each TimeTower._next_level span by the level it
    # builds (spans._tower_level_name), which the namer reads from the
    # tower's list of built levels
    (namer,) = [n for _, path, _, n, _ in _spans().TARGETS if path == "TimeTower._next_level"]
    names = []
    build = TimeTower._next_level

    def named(self):
        names.append(namer((self,)))
        return build(self)

    monkeypatch.setattr(TimeTower, "_next_level", named)
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0)
    TimeTower(perturbed_state(grid), max_depth=3, physics=Physics()).level(3)
    assert names == [f"pde.tower_level_{i}" for i in (1, 2, 3)]
