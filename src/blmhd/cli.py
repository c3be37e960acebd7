"""Command-line surface: configuration loading, experiment orchestration,
and artifact output.

Verbs: simulate, verify-inequalities, cancellation, sweep, stability,
norms.  Every verb reads an INI config (see config.py), writes its
artifacts (CSV series, JSON summary, optional binary snapshots) plus a
manifest.json into --out, and exits 0 iff all of its assertions pass;
failures are listed machine-readably in the summary JSON.  A verb stopped
by data outside the paper's hypotheses (a DensityFloorError, HFloorError
or SolverError) writes both JSON files with that error as its failure and
exits 1.

The initial data are the config's `initial` family of blmhd.data, except
for cancellation, which always analyses data.perturbed at the amplitude
(on the equilibrium every check reads 0) with one tower of the solver's
physics.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, data
from .cancellation import HFloorError, good_unknowns, norm_equivalence_check
from .config import ConfigError, RunConfig, canonical_text, load_config
from .energy import CSV_COLUMNS, instantaneous_functionals, trajectory_report
from .grid import Field
from .inequalities import (
    hardy_check,
    heat_bound_check,
    moser_check,
    sobolev_check,
)
from .io import RunManifest, config_digest, write_csv, write_json, write_snapshot
from .norms import b_norms
from .pde import DensityFloorError, TimeTower
from .sources import bootstrap_time_derivatives
from .solver import SolverError, run
from .state import MultiIndex, State, initial_state
from .experiments import eps_sweep, stability_pair

VERBS = (
    "simulate",
    "verify-inequalities",
    "cancellation",
    "sweep",
    "stability",
    "norms",
)


def build_initial_state(cfg: RunConfig, seed: int) -> State:
    """The config's `initial` family of blmhd.data, at seed."""
    if cfg.initial == "equilibrium":
        return data.equilibrium(cfg.grid)
    return data.perturbed(cfg.grid, seed, cfg.amplitude)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def _verb_simulate(cfg: RunConfig, out: str, seed: int, strict: bool):
    state = build_initial_state(cfg, seed)
    bundle = bootstrap_time_derivatives(
        *data.physical(state), m=1, mu=cfg.solver.mu, kappa=cfg.solver.kappa
    )
    traj = run(state, cfg.solver, bundle, output_stride=cfg.output_stride)
    reports = trajectory_report(traj, m=cfg.m, l=cfg.solver.l)
    write_csv(os.path.join(out, "energy.csv"), CSV_COLUMNS, [r.row() for r in reports])
    write_snapshot(os.path.join(out, "final.bin"), traj.states[-1])
    failures = []
    if traj.breached:
        failures.append("monitor breach before t_end")
    theta = [r.theta_ml for r in reports]
    if any(b < a - 1e-10 * max(1.0, a) for a, b in zip(theta, theta[1:])):
        failures.append("theta series not monotone")
    if strict:
        # every step's monitors, not only the stored ones
        if not traj.every_step.rho_band_ok:
            failures.append("density left the [1/2, 3/2] band")
        if traj.every_step.source_flag:
            failures.append("source terms exceeded 1% of transport")
    summary = {
        "final_time": reports[-1].time,
        "final": dict(zip(CSV_COLUMNS, reports[-1].row())),
        "monitor_history": [
            {
                "h_floor": m.h_floor,
                "rho_sup": m.rho_sup,
                "shear_sup": m.shear_sup,
                "rho_band_ok": m.rho_band_ok,
                "breached": m.breached,
            }
            for m in traj.monitors
        ],
        "breached": traj.breached,
        "failures": failures,
    }
    return summary, failures, ["energy.csv", "final.bin"]


def _inequality_corpus(cfg: RunConfig):
    grid = cfg.grid
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    fns = {
        "y_exp": Field(Y * np.exp(-Y), grid),
        "y_gauss_cos": Field(Y * np.exp(-(Y**2)) * (1.0 + 0.3 * np.cos(X)), grid),
        "y2_gauss_sin": Field(Y**2 * np.exp(-(Y**2)) * np.sin(X), grid),
    }
    rows = []
    for name, f in fns.items():
        for lam in (0.0, 0.5, 1.0):
            rep = hardy_check(f, lam)
            rows.append(["hardy", name, f"lam={lam}", rep.ratio, rep.passed])
    for name, f in fns.items():
        rep = sobolev_check(f)
        rows.append(["sobolev", name, "cstar=2", rep.ratio, rep.passed])
    times = np.linspace(0.0, 1.0, 3)
    f_series = [
        Field(np.exp(-t) * Y * np.exp(-(Y**2)) * np.cos(X), grid) for t in times
    ]
    g_series = [
        Field(np.exp(-t) * np.exp(-(Y**2)) * np.sin(X), grid) for t in times
    ]
    rep = moser_check(
        f_series,
        g_series,
        times,
        beta=MultiIndex(0, 1, 0),
        gamma=MultiIndex(0, 1, 0),
        m=2,
        l=2.0,
        l1=1.0,
    )
    rows.append(["moser", "gauss_pair", "m=2,l=2,l1=1", rep.ratio, rep.passed])
    x = np.linspace(0.0, 12.0, 241)
    f0 = x * np.exp(-x)
    forcing = lambda s, xs: np.sin(s) * xs * np.exp(-xs)
    rep = heat_bound_check(x, f0, forcing)
    rows.append(["heat_bound", "x_exp", "eps ladder", rep.ratio, rep.passed])
    return rows


def _verb_inequalities(cfg: RunConfig, out: str, seed: int, strict: bool):
    rows = _inequality_corpus(cfg)
    write_csv(
        os.path.join(out, "inequalities.csv"),
        ["inequality", "function", "parameter", "ratio", "passed"],
        rows,
    )
    failures = [
        f"{r[0]}/{r[1]}/{r[2]}: ratio {r[3]:.4g}" for r in rows if not r[4]
    ]
    summary = {
        "checks": len(rows),
        "passed": len(rows) - len(failures),
        "failures": failures,
    }
    return summary, failures, ["inequalities.csv"]


def _verb_cancellation(cfg: RunConfig, out: str, seed: int, strict: bool):
    state = data.perturbed(cfg.grid, seed, cfg.amplitude)
    tower = TimeTower(state, physics=cfg.solver)
    delta = cfg.solver.delta0 / 2.0
    alpha1 = MultiIndex(0, cfg.m, 0)
    gu = good_unknowns(state, alpha1, delta, tower=tower)
    defect = gu.h_m.values - (gu.z_h.values - gu.eta_h.values * gu.z_psi.values)
    recon = float(np.max(np.abs(defect)))
    checks = norm_equivalence_check(
        state, MultiIndex(0, 1, 0), l=cfg.solver.l, delta=delta, tower=tower
    )
    rows = [["reconstruction", "max_abs_defect", recon, recon <= 1e-12]]
    for name, c in checks.items():
        rows.append([name, "ratio", c["ratio"], c["passed"]])
    write_csv(
        os.path.join(out, "cancellation.csv"),
        ["check", "quantity", "value", "passed"],
        rows,
    )
    failures = [f"{r[0]}: {r[2]:.4g}" for r in rows if not r[3]]
    summary = {"checks": rows, "failures": failures}
    return summary, failures, ["cancellation.csv"]


def _verb_sweep(cfg: RunConfig, out: str, seed: int, strict: bool):
    state = build_initial_state(cfg, seed)
    result = eps_sweep(
        state,
        cfg.solver,
        ladder=cfg.ladder,
        output_stride=cfg.output_stride,
    )
    rows = []
    for k, row in enumerate(result.pairwise_diffs):
        for j, d in enumerate(row):
            rows.append(
                [
                    result.eps_ladder[k],
                    result.eps_ladder[k + 1],
                    result.times[j],
                    d,
                ]
            )
    write_csv(
        os.path.join(out, "sweep.csv"),
        ["eps_hi", "eps_lo", "time", "diff_norm"],
        rows,
    )
    failures = []
    if not all(result.valid):
        failures.append("a ladder run breached its monitors")
    finals = [row[-1] for row in result.pairwise_diffs]
    if len(finals) >= 2 and any(b >= a for a, b in zip(finals, finals[1:])):
        failures.append("pairwise differences not strictly decreasing")
    summary = {
        "eps_ladder": list(result.eps_ladder),
        "rates": list(result.rates) if result.rates is not None else "not computed",
        "final_diffs": finals,
        "failures": failures,
    }
    return summary, failures, ["sweep.csv"]


def _verb_stability(cfg: RunConfig, out: str, seed: int, strict: bool):
    s1 = build_initial_state(cfg, seed)
    grid = cfg.grid
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    bump = cfg.perturbation * np.cos(X) * np.exp(-(Y**2))
    s2 = initial_state(
        grid,
        rho_shift=Field(s1.rho_shift.values + bump, grid),
        u_shift=s1.u_shift,
        h_shift=s1.h_shift,
    )
    result = stability_pair(s1, s2, cfg.solver, output_stride=cfg.output_stride)
    write_csv(
        os.path.join(out, "stability.csv"),
        ["time", "diff_norm_sq"],
        list(zip(result.times, result.norms_sq)),
    )
    failures = []
    if result.breached:
        failures.append("a stability run breached its monitors")
    if not result.envelope_ok:
        failures.append("difference norm violated the fitted growth envelope")
    summary = {
        "gronwall_c": result.gronwall_c,
        "envelope_ok": result.envelope_ok,
        "final_diff_norm_sq": result.norms_sq[-1],
        "failures": failures,
    }
    return summary, failures, ["stability.csv"]


def _verb_norms(cfg: RunConfig, out: str, seed: int, strict: bool):
    state = build_initial_state(cfg, seed)
    bar, hat, details = b_norms(
        *data.physical(state), m=cfg.m, l=cfg.solver.l, mu=cfg.solver.mu, kappa=cfg.solver.kappa
    )
    rep = instantaneous_functionals(
        state, m=cfg.m, l=cfg.solver.l, delta0=cfg.solver.delta0, physics=cfg.solver
    )
    rows = [
        ["b_bar", bar],
        ["b_hat", hat],
        ["e_ml", rep.e_ml],
        ["q_inst", rep.q_inst],
        ["x_ml", rep.x_ml],
        ["y_ml", rep.y_ml],
    ]
    write_csv(os.path.join(out, "norms.csv"), ["functional", "value"], rows)
    failures = [r[0] for r in rows if not np.isfinite(r[1])]
    summary = {
        "values": {r[0]: r[1] for r in rows},
        "b_bar_detail": {
            k: v for k, v in details.items() if isinstance(v, float)
        },
        "failures": failures,
    }
    return summary, failures, ["norms.csv"]


_DISPATCH = {
    "simulate": _verb_simulate,
    "verify-inequalities": _verb_inequalities,
    "cancellation": _verb_cancellation,
    "sweep": _verb_sweep,
    "stability": _verb_stability,
    "norms": _verb_norms,
}


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take nonnegative integers only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blmhd",
        description="Numerical laboratory for 2D inhomogeneous MHD boundary layers",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="path to the INI config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=_seed, default=0, help="perturbation seed (>= 0)")
        p.add_argument(
            "--strict",
            action="store_true",
            help="treat advisory monitor flags as failures",
        )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"blmhd: configuration error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    digest = config_digest(canonical_text(cfg))
    manifest = RunManifest.start(args.verb, digest, __version__)
    try:
        summary, failures, outputs = _DISPATCH[args.verb](cfg, args.out, args.seed, args.strict)
    except (DensityFloorError, HFloorError, SolverError) as exc:
        failures = [f"{type(exc).__name__}: {exc}"]
        summary, outputs = {"failures": failures}, []
    write_json(os.path.join(args.out, "summary.json"), summary)
    manifest.outputs = outputs + ["summary.json"]
    manifest.finish(passed=not failures, failures=failures)
    write_json(os.path.join(args.out, "manifest.json"), manifest.to_dict())
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
