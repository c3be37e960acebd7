"""In-memory span recorder for the benchmark's traced run.

The tracer wraps functions of the `blmhd` modules from outside the package:
each wrapped call records one span (name, start, end, parent) in flat
arrays, and every span of a process belongs to one pass id.  A function is
replaced under every name its callers look it up by, so `dx` is wrapped in
`solver`, `pde`, `state`, `norms`, ... and not only in `operators`.
Methods are replaced on their class.

Self time is a span's duration minus the time its child spans cover; calls
nest strictly (one thread), so the covered time is the sum of the direct
children's durations.  Inclusive time of a name counts only its outermost
spans, so a function reached again below itself is not counted twice.

Standard library only.
"""
from __future__ import annotations

import csv
import gzip
import importlib
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "blmhd"


class Tracer:
    """Spans of one pass, kept in memory until `write` is called."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self._undo: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.nested.append(self._depth[nid] > 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._depth[self.name[i]] -= 1

    @contextmanager
    def span(self, name: str):
        i = self._open(self.name_id(name))
        self.start[i] = perf_counter()
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str, namer=None, hook=None):
        """A function that records a span around each call of fn.

        namer(args) gives a per-call span name; hook(tracer, args, result)
        runs after the span closes and may add to the counters."""
        fixed = self.name_id(name) if namer is None else None
        start = self.start

        def wrapper(*args, **kwargs):
            nid = fixed if namer is None else self.name_id(namer(args))
            i = self._open(nid)
            start[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target: (module, attribute path, span name, namer, hook).

        A dotted attribute path names a method, replaced on its class; a
        plain name is replaced in every loaded module of the package that
        holds the same function object."""
        for module, path, name, namer, hook in targets:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self.wrap(orig, name, namer, hook))
                continue
            orig = getattr(mod, path)
            wrapper = self.wrap(orig, name, namer, hook)
            for mod_name, m in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- results ------------------------------------------------------------

    def stats(self) -> dict:
        """{name: {"calls", "s", "self_s"}} over all recorded spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - covered[i]
            if not self.nested[i]:
                rec["s"] += dur[i]
        return out

    def write(self, path: str) -> None:
        """All spans as gzip-compressed CSV, one row per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["pass_id", "span_id", "parent_id", "name", "start_s", "end_s"])
            for i in range(len(self.start)):
                w.writerow(
                    [
                        self.pass_id,
                        i,
                        self.parent[i],
                        self.names[self.name[i]],
                        repr(self.start[i]),
                        repr(self.end[i]),
                    ]
                )


# ---------------------------------------------------------------------------
# What the traced run wraps
# ---------------------------------------------------------------------------

_THOMAS_ARRAYS = 9  # lo, di, up, rhs read; cp, dp written and read back; out written


def _thomas_hook(tracer, args, result):
    rows = args[3].size
    tracer.count("solver.thomas_batched.rows", rows)
    tracer.count("solver.thomas_batched.bytes_computed", _THOMAS_ARRAYS * 8 * rows)


def _io_hook(tracer, args, result):
    tracer.count("io.bytes_written", os.path.getsize(args[0]))


def _tower_level_name(args):
    # _next_level(self) builds level len(self._levels)
    return f"pde.tower_level_{len(args[0]._levels)}"


def _plain(module, *functions):
    return [(module, f, f"{module}.{f}", None, None) for f in functions]


TARGETS = (
    [
        ("solver", "thomas_batched", "solver.thomas_batched", None, _thomas_hook),
    ]
    + _plain(
        "solver",
        "periodic_thomas_batched",
        "_explicit_terms",
        "_substep",
        "step",
        "_solve_x_cn",
        "_solve_y_implicit",
        "monitor",
        "run",
    )
    + [("grid", "Field.__post_init__", "grid.Field", None, None)]
    + _plain("state", "derive_secondary")
    + _plain("operators", "dx", "d2x", "dy", "d2y", "z2", "integrate_y")
    + [("sources", "SourceBundle.fields", "sources.SourceBundle.fields", None, None)]
    + _plain("sources", "bootstrap_time_derivatives")
    + [
        ("pde", "TimeTower.__init__", "pde.TimeTower", None, None),
        ("pde", "TimeTower.level", "pde.TimeTower.level", None, None),
        ("pde", "TimeTower._next_level", "pde.tower_level", _tower_level_name, None),
    ]
    + _plain(
        "norms", "conormal_norm", "conormal_linf", "weighted_l2", "weighted_linf", "b_norms"
    )
    + _plain("energy", "_slice_functionals", "trajectory_report")
    + _plain(
        "cancellation", "cancellation_residual", "good_unknowns", "norm_equivalence_check"
    )
    + _plain(
        "inequalities",
        "heat_solve",
        "_kernel_convolve",
        "hardy_check",
        "sobolev_check",
        "moser_check",
    )
    + _plain("experiments", "eps_sweep", "stability_pair", "diff_good_unknowns", "_diff_norm")
    + [
        ("io", f, f"io.{f}", None, _io_hook)
        for f in ("write_csv", "write_json", "write_snapshot")
    ]
    + _plain("config", "load_config")
)
