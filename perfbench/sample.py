"""One benchmark sample: a fresh process that sets up one workload, runs one
timed pass and prints its measurements as one JSON line on stdout.

    python3 perfbench/sample.py --workload solve --seed 3 --size full --trace 0

run.py starts one such process per sample, from the root of a checkout,
with `src` on PYTHONPATH and BLAS/OpenMP pinned to one thread.  The pass
drives `blmhd` from outside: the CLI verbs in-process through
`blmhd.cli.main`, plus the public diagnostic API.  With `--trace 1` the
pass runs under the span tracer of spans.py, which is installed after
set-up and writes its spans under `.perfbench/spans/` at exit.

Set-up (`setup_s`) runs from the first line of this file to the start of
the pass: imports, config parse, initial state, source bootstrap and, for
`diagnose`, the trajectory the pass analyses.  Interpreter start-up before
the first line is not included.  A fixed calibration loop, timed just
before and just after the pass, gives the machine's momentary speed (see
run.py for how it is used).
"""
import time

_T0 = time.perf_counter()

import argparse
import contextlib
import csv
import json
import os
import resource
import shutil
import sys
import traceback

import numpy as np
import scipy
import sympy

import blmhd
from blmhd import cancellation, cli, energy
from blmhd.config import load_config
from blmhd.grid import Field
from blmhd.solver import run
from blmhd.sources import bootstrap_time_derivatives
from blmhd.state import MultiIndex

import spans

WORK_DIR = os.path.join(".perfbench", "work")

# Grid and run length per workload; "smoke" is the tiny grid of the
# benchmark's own test.
SIZES = {
    "solve": {
        "full": dict(nx=64, ny=128, t_end=0.06, output_stride=20),
        "smoke": dict(nx=16, ny=48, t_end=0.004, output_stride=2),
    },
    "diagnose": {
        "full": dict(nx=64, ny=128, t_end=0.008, output_stride=2),
        "smoke": dict(nx=16, ny=48, t_end=0.002, output_stride=1),
    },
    "ladder": {
        "full": dict(nx=32, ny=96, t_end=0.04, output_stride=10),
        "smoke": dict(nx=16, ny=48, t_end=0.004, output_stride=2),
    },
}

# Small enough that no seed's perturbed data breaches the density monitor
# (|rho - 1| <= amplitude < (2l - 1) delta^2 / 2 = 0.0234 at l = 2, delta0 = 0.25).
AMPLITUDE = 0.02

RESIDUAL_ALPHAS = ((0, 2), (1, 1), (2, 0))
RESIDUAL_UNKNOWNS = ("rho_m", "u_m", "h_m")


def _ini(nx, ny, t_end, output_stride, m=2, x_scheme="fd4", scheme="imex-cn"):
    return (
        f"[grid]\nnx = {nx}\nny = {ny}\nx_scheme = {x_scheme}\n\n"
        f"[physics]\neps = 0.01\n\n"
        f"[solver]\ndt = 0.001\nt_end = {t_end}\nscheme = {scheme}\n"
        f"output_stride = {output_stride}\n\n"
        f"[experiment]\nm = {m}\ninitial = perturbed\namplitude = {AMPLITUDE}\n"
    )


def _physical_triple(state):
    grid = state.grid
    E = np.exp(-grid.y)[None, :]
    return (
        Field(state.rho_shift.values + 1.0, grid),
        Field(state.u_shift.values + 1.0 - E, grid),
        Field(state.h_shift.values + 1.0, grid),
    )


def _steps(cfg):
    return max(1, int(round(cfg.solver.t_end / cfg.solver.dt)))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _num(cell):
    if cell in ("true", "false"):
        return 1.0 if cell == "true" else 0.0
    return float(cell)


class Workload:
    """Set-up, one timed pass and the outputs the parent checks.

    Set-up parses the config and builds the initial state (and sources) that
    the verbs build again inside the pass, so that their cost is measured on
    its own in `setup_s`; work a change moves into a first call then shows in
    `setup_s` or `wall_s` of the same fresh process."""

    def __init__(self, size, seed, span):
        self.size = SIZES[self.name][size]
        self.seed = seed
        self.span = span
        # outputs of an earlier sample must not pass for this one's
        self.dir = os.path.join(WORK_DIR, f"{self.name}-{size}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.exit_codes = {}

    def config(self, tag, text):
        path = os.path.join(self.dir, f"{tag}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path, load_config(path)

    def verb(self, verb, ini):
        out = os.path.join(self.dir, verb)
        with self.span(f"cli.{verb}"):
            self.exit_codes[verb] = cli.main(
                [verb, "--config", ini, "--out", out, "--seed", str(self.seed)]
            )
        return out


class Solve(Workload):
    """`simulate` at 64x128 (fd4, imex-cn): the solver's cost dominates."""

    name = "solve"

    def setup(self):
        self.ini, cfg = self.config("simulate", _ini(**self.size))
        state = cli.build_initial_state(cfg, self.seed)
        rho, u1, h1 = _physical_triple(state)
        bootstrap_time_derivatives(rho, u1, h1, m=1, mu=cfg.solver.mu, kappa=cfg.solver.kappa)
        self.cell_steps = cfg.grid.nx * cfg.grid.ny * _steps(cfg)

    def run_pass(self):
        self.out = self.verb("simulate", self.ini)

    def outputs(self):
        rows = _read_csv(os.path.join(self.out, "energy.csv"))
        self.slices = len(rows) - 1
        return {f"energy.{c}": _num(v) for c, v in zip(rows[0], rows[-1])}


class Diagnose(Workload):
    """The diagnostics on a stored 64x128 trajectory; no time stepping."""

    name = "diagnose"

    def setup(self):
        _, cfg = self.config("trajectory", _ini(**self.size))
        self.ini3, _ = self.config("m3", _ini(**self.size, m=3))
        state = cli.build_initial_state(cfg, self.seed)
        rho, u1, h1 = _physical_triple(state)
        bundle = bootstrap_time_derivatives(
            rho, u1, h1, m=1, mu=cfg.solver.mu, kappa=cfg.solver.kappa
        )
        self.traj = run(state, cfg.solver, bundle, output_stride=cfg.output_stride)
        if self.traj.breached:
            raise RuntimeError("set-up trajectory breached its monitors")
        self.l = cfg.solver.l
        self.slices = len(self.traj.states)
        self.cell_steps = 0

    def run_pass(self):
        # called through their modules, so that the traced run sees them
        self.reports = energy.trajectory_report(self.traj, m=2, l=self.l)
        self.residuals = {}
        for a in RESIDUAL_ALPHAS:
            for which in RESIDUAL_UNKNOWNS:
                series = cancellation.cancellation_residual(
                    self.traj, MultiIndex(a[0], a[1], 0), which
                )
                self.residuals[f"{a[0]}{a[1]}.{which}"] = [f.max_abs() for f in series]
        self.outs = {v: self.verb(v, self.ini3) for v in ("norms", "cancellation", "verify-inequalities")}

    def outputs(self):
        out = {
            f"report.{c}": float(v) for c, v in zip(energy.CSV_COLUMNS, self.reports[-1].row())
        }
        for key, series in self.residuals.items():
            out[f"residual.{key}.max"] = max(series)
        for name, value in _read_csv(os.path.join(self.outs["norms"], "norms.csv"))[1:]:
            out[f"norms.{name}"] = float(value)
        for check, quantity, value, _ in _read_csv(
            os.path.join(self.outs["cancellation"], "cancellation.csv")
        )[1:]:
            out[f"cancellation.{check}.{quantity}"] = float(value)
        rows = _read_csv(os.path.join(self.outs["verify-inequalities"], "inequalities.csv"))
        for ineq, fn, param, ratio, _ in rows[1:]:
            out[f"inequality.{ineq}.{fn}.{param}"] = float(ratio)
        return out


class Ladder(Workload):
    """`sweep` then `stability` at 32x96 (spectral, imex-be): many short runs."""

    name = "ladder"

    def setup(self):
        self.ini, cfg = self.config(
            "ladder", _ini(**self.size, x_scheme="spectral", scheme="imex-be")
        )
        cli.build_initial_state(cfg, self.seed)
        runs = len(cfg.ladder) + 2
        steps = _steps(cfg)
        self.cell_steps = cfg.grid.nx * cfg.grid.ny * steps * runs
        self.slices = runs * (steps // cfg.output_stride + (steps % cfg.output_stride > 0) + 1)

    def run_pass(self):
        self.outs = {v: self.verb(v, self.ini) for v in ("sweep", "stability")}

    def outputs(self):
        sweep = _read_json(os.path.join(self.outs["sweep"], "summary.json"))
        stab = _read_json(os.path.join(self.outs["stability"], "summary.json"))
        out = {f"sweep.final_diffs.{k}": v for k, v in enumerate(sweep["final_diffs"])}
        out.update({f"sweep.rates.{k}": v for k, v in enumerate(sweep["rates"])})
        out["stability.gronwall_c"] = stab["gronwall_c"]
        out["stability.final_diff_norm_sq"] = stab["final_diff_norm_sq"]
        out["stability.envelope_ok"] = float(stab["envelope_ok"])
        return out


WORKLOADS = {w.name: w for w in (Solve, Diagnose, Ladder)}


def calibrate(n=1_000_000):
    """Seconds a fixed pure-Python loop takes: the machine's momentary speed.

    The loop runs no blmhd or numpy code, so no change to the program can
    move it."""
    t = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return time.perf_counter() - t


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=("full", "smoke"))
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)

    pass_id = f"{args.workload}-{args.size}-seed{args.seed}-pid{os.getpid()}"
    tracer = spans.Tracer(pass_id) if args.trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    wl = WORKLOADS[args.workload](args.size, args.seed, span)
    wl.setup()
    setup_s = time.perf_counter() - _T0

    calibration_s = [calibrate()]
    if tracer:
        tracer.install(spans.TARGETS)
    t, cpu = time.perf_counter(), time.process_time()
    error = None
    try:
        with span("pass"):
            wl.run_pass()
    except Exception:  # a failed pass is reported, not raised
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t
    cpu_s = time.process_time() - cpu
    if tracer:
        tracer.uninstall()
    calibration_s.append(calibrate())

    result = {
        "pass_id": pass_id,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calibration_s": calibration_s,
        "exit_codes": wl.exit_codes,
        "error": error,
        "cell_steps": wl.cell_steps,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "sympy": sympy.__version__,
            "blmhd": blmhd.__version__,
        },
    }
    if error is None:
        result["outputs"] = wl.outputs()
        result["slices"] = wl.slices
    if tracer:
        result["layers"] = tracer.stats()
        result["counters"] = tracer.counters
        result["spans"] = len(tracer.start)
        tracer.write(os.path.join(".perfbench", "spans", f"{args.workload}-{args.size}.csv.gz"))
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
