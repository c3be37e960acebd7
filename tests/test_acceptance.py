"""End-to-end acceptance checks.

Each test exercises one headline capability at stated tolerances and
prints a single [PASS]/[FAIL] line before asserting, so the verdicts
survive in the captured output of a full run.
"""
import time

import numpy as np

from blmhd.cancellation import cancellation_residual, good_unknowns, norm_equivalence_check
from blmhd.data import equilibrium, physical
from blmhd.energy import instantaneous_functionals
from blmhd.experiments import eps_sweep, stability_pair
from blmhd.grid import Field, GridSpec, field_from_function
from blmhd.inequalities import HeatProblem, hardy_check, heat_bound_check, heat_solve
from blmhd.manufactured import ManufacturedSolution
from blmhd.norms import weighted_l2
from blmhd.pde import Physics, TimeTower, time_derivative_via_pde
from blmhd.solver import SolverConfig, Trajectory, monitor, run
from blmhd.sources import bootstrap_time_derivatives
from blmhd.state import MultiIndex, initial_state

from conftest import perturbed_state


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def _triple_l2(a, b):
    return float(
        np.sqrt(
            weighted_l2(a.rho_shift - b.rho_shift, 0.0) ** 2
            + weighted_l2(a.u_shift - b.u_shift, 0.0) ** 2
            + weighted_l2(a.h_shift - b.h_shift, 0.0) ** 2
        )
    )


# ---------------------------------------------------------------------------
# 1. Weighted Hardy inequality on a 12-function corpus
# ---------------------------------------------------------------------------


def test_criterion_1_hardy_corpus():
    t0 = time.perf_counter()
    corpus = [
        lambda x, y: y * np.exp(-y),
        lambda x, y: y**2 * np.exp(-y),
        lambda x, y: y * np.exp(-(y**2)),
        lambda x, y: y**2 * np.exp(-(y**2)),
        lambda x, y: y**3 * np.exp(-(y**2)),
        lambda x, y: y * np.exp(-2 * y),
        lambda x, y: np.tanh(y) * np.exp(-y),
        lambda x, y: (1.0 - np.exp(-y)) * np.exp(-y),
        lambda x, y: y * np.exp(-y) * (1.0 + 0.5 * np.cos(x)),
        lambda x, y: y**2 * np.exp(-(y**2)) * np.sin(x) ** 2,
        lambda x, y: y * np.exp(-(y**2)) * (1.0 + 0.3 * np.sin(2 * x)),
        lambda x, y: y**2 * np.exp(-y) * np.cos(x),
    ]
    lambdas = (0.0, 1.0, 2.0)
    levels = (512, 1024, 2048)
    worst_final = 0.0
    excess_ok = True
    for fn in corpus:
        for lam in lambdas:
            excesses = []
            for ny in levels:
                grid = GridSpec(nx=8, ny=ny, y_max=15.0, stretch=0.0)
                rep = hardy_check(field_from_function(grid, fn), lam)
                excesses.append(max(rep.ratio - 1.0, 0.0))
            worst_final = max(worst_final, excesses[-1] + 1.0)
            for a, b in zip(excesses, excesses[1:]):
                if b > a / 2.0 + 1e-15:
                    excess_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst_final <= 1.01 and excess_ok and elapsed < 10.0
    _report(
        1,
        "Hardy ratio <= 1.01 on 12-function corpus with vanishing excess",
        ok,
        f"worst ratio {worst_final:.6f}, excess halving {excess_ok}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Norm-equivalence inequalities on a 10-state corpus
# ---------------------------------------------------------------------------


def test_criterion_2_norm_equivalence_corpus():
    t0 = time.perf_counter()
    grid = GridSpec(nx=24, ny=128, y_max=15.0, stretch=2.0)
    states = [equilibrium(grid)]
    amps = [
        (0.002, 0.01, 0.02),
        (0.005, 0.03, 0.05),
        (0.004, 0.02, 0.08),
        (0.001, 0.05, 0.03),
        (0.006, 0.01, 0.06),
        (0.003, 0.04, 0.04),
        (0.0, 0.03, 0.05),
        (0.005, 0.0, 0.05),
        (0.005, 0.03, 0.0),
    ]
    for a_rho, a_u, a_h in amps:
        states.append(perturbed_state(grid, a_rho=a_rho, a_u=a_u, a_h=a_h))
    worst = 0.0
    ok = True
    for st in states:
        for alpha1 in (MultiIndex(0, 1, 0), MultiIndex(0, 2, 0)):
            tower = TimeTower(st, physics=Physics())
            out = norm_equivalence_check(tower, alpha1, l=2.0, delta=0.5)
            for rep in out.values():
                worst = max(worst, rep["ratio"])
                ok = ok and rep["passed"]
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 1.01 and elapsed < 30.0
    _report(
        2,
        "norm-equivalence ratios <= 1.01 on 10-state corpus (delta=0.5, l=2)",
        ok,
        f"worst ratio {worst:.6f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Diffusion-uniform heat bound and maximum principle
# ---------------------------------------------------------------------------


def test_criterion_3_heat_bound_uniformity():
    t0 = time.perf_counter()
    x = np.linspace(0.0, 12.0, 241)
    force = lambda s, xs: np.sin(s) * xs * np.exp(-xs)
    problems = [
        (x * np.exp(-x), None),
        (x**2 * np.exp(-x), None),
        (x * np.exp(-(x**2)), None),
        (x * (1.0 - x) * np.exp(-x), None),
        (np.tanh(x) * np.exp(-x), None),
        (x * np.exp(-x), force),
    ]
    worst_spread = 0.0
    ok = True
    for f0, forcing in problems:
        rep = heat_bound_check(x, f0, forcing)
        worst_spread = max(worst_spread, rep.metadata["spread"])
        ok = ok and rep.passed
    ok = ok and worst_spread <= 4.0
    # maximum principle for the unforced problems at every eps
    max_violation = 0.0
    for f0, forcing in problems:
        if forcing is not None:
            continue
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            p = HeatProblem(eps=eps, x=x, f0=f0)
            _, F = heat_solve(p)
            max_violation = max(
                max_violation, float(np.max(np.abs(F)) - np.max(np.abs(f0)))
            )
    ok = ok and max_violation <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 20.0
    _report(
        3,
        "heat bound spread <= 4 over eps in {1e-1..1e-4} and max principle",
        ok,
        f"spread {worst_spread:.3f}, principle slack {max_violation:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Discrete steady state over 1000 steps
# ---------------------------------------------------------------------------


def test_criterion_4_equilibrium_energy_drift():
    t0 = time.perf_counter()
    grid = GridSpec(nx=64, ny=128, y_max=15.0, stretch=2.0)
    st = equilibrium(grid)
    cfg = SolverConfig(eps=0.01, dt=1e-3, t_end=1.0)
    traj = run(st, cfg, output_stride=1000)
    e0, e1 = (
        instantaneous_functionals(TimeTower(s, physics=Physics()), 2, 2.0, 0.25).e_ml
        for s in (traj.states[0], traj.states[-1])
    )
    drift = abs(e1 - e0)
    elapsed = time.perf_counter() - t0
    ok = not traj.breached and drift <= 1e-8 and elapsed < 60.0
    _report(
        4,
        "equilibrium E_{2,2} drift <= 1e-8 over 1000 steps at 64x128",
        ok,
        f"drift {drift:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Manufactured-solution convergence order
# ---------------------------------------------------------------------------


def test_criterion_5_manufactured_convergence():
    t0 = time.perf_counter()
    levels = ((16, 48, 4e-3), (32, 96, 2e-3), (64, 192, 1e-3))
    orders = {}
    for eps in (0.0, 0.01):
        ms = ManufacturedSolution(eps=eps)
        errs = []
        for nx, ny, dt in levels:
            grid = GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)
            cfg = SolverConfig(eps=eps, dt=dt, t_end=0.04, delta0=0.6)
            init = ms.state_at(grid, 0.0)
            traj = run(init, cfg, forcing=ms, output_stride=10_000)
            assert not traj.breached
            exact = ms.state_at(grid, traj.states[-1].time)
            errs.append(_triple_l2(traj.states[-1], exact))
        slopes = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        orders[eps] = min(slopes)
    elapsed = time.perf_counter() - t0
    ok = all(o >= 1.8 for o in orders.values()) and elapsed < 300.0
    _report(
        5,
        "manufactured-solution order >= 1.8 over 3 levels for eps in {0, 0.01}",
        ok,
        f"orders {orders}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. x-independent channel against the 1D heat eigen-expansion
# ---------------------------------------------------------------------------


def test_criterion_6_heat_eigenmode_oracle():
    t0 = time.perf_counter()
    grid = GridSpec(nx=64, ny=256, y_max=15.0, stretch=0.0)
    w0 = 0.1 * np.sin(np.pi * grid.y / 15.0)
    E = np.exp(-grid.y)[None, :]
    u = Field(np.broadcast_to(E + w0[None, :], (grid.nx, grid.ny)).copy(), grid)
    st = initial_state(grid, u_shift=u)
    cfg = SolverConfig(eps=0.0, mu=1.0, dt=1e-3, t_end=0.5)
    traj = run(st, cfg, output_stride=500)
    t_end = traj.states[-1].time
    w_exact = 0.1 * np.exp(-((np.pi / 15.0) ** 2) * t_end) * np.sin(
        np.pi * grid.y / 15.0
    )
    w_num = traj.states[-1].u_shift.values - E
    err = float(
        np.sqrt(np.mean((w_num - w_exact[None, :]) ** 2))
        / np.sqrt(np.mean(w_exact**2))
    )
    elapsed = time.perf_counter() - t0
    ok = not traj.breached and err <= 1e-4 and elapsed < 60.0
    _report(
        6,
        "x-independent profile matches 1D heat eigenmode to 1e-4 at t=0.5",
        ok,
        f"rel L2 error {err:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. Good-unknown reconstruction and residual convergence
# ---------------------------------------------------------------------------


def test_criterion_7_cancellation_reconstruction_and_residual():
    t0 = time.perf_counter()
    grid = GridSpec(nx=32, ny=128, y_max=15.0, stretch=2.0)
    st = perturbed_state(grid)
    gu = good_unknowns(TimeTower(st, physics=Physics()), MultiIndex(0, 2, 0), 0.125)
    recon = max(
        np.max(np.abs(gu.rho_m.values + gu.eta_rho.values * gu.z_psi.values - gu.z_rho.values)),
        np.max(np.abs(gu.u_m.values + gu.eta_u.values * gu.z_psi.values - gu.z_u.values)),
        np.max(np.abs(gu.h_m.values + gu.eta_h.values * gu.z_psi.values - gu.z_h.values)),
    )
    cfg = SolverConfig(eps=0.05, kappa=0.8, mu=1.0)
    errs = {which: [] for which in ("rho_m", "u_m", "h_m")}
    for nx, ny in ((24, 96), (48, 192), (96, 384)):
        g = GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)
        s = perturbed_state(g)
        traj = Trajectory(
            states=[s],
            monitors=[monitor(s, cfg.delta0, cfg.l)],
            config=cfg,
            bundle=None,
            forcing=None,
        )
        # the three unknowns in turn share one evaluation of the trajectory
        for which in errs:
            res = cancellation_residual(traj, MultiIndex(0, 2, 0), which)
            errs[which].append(res[0].max_abs())
    orders = {
        which: min(np.log2(a / b) for a, b in zip(e, e[1:])) for which, e in errs.items()
    }
    elapsed = time.perf_counter() - t0
    ok = recon <= 1e-13 and all(o >= 1.8 for o in orders.values()) and elapsed < 300.0
    _report(
        7,
        "reconstruction machine-exact; residual converges at scheme order",
        ok,
        f"recon defect {recon:.1e}, orders {orders}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Persistence interval uniform over eps
# ---------------------------------------------------------------------------


def test_criterion_8_persistence_uniform_in_eps():
    t0 = time.perf_counter()
    grid = GridSpec(nx=32, ny=96, y_max=15.0, stretch=2.0)
    intervals = []
    h_floor_ok = True
    for eps in (0.1, 0.01, 0.001):
        st = perturbed_state(grid, a_rho=0.005, a_u=0.03, a_h=0.05)
        h_floor_ok = h_floor_ok and float(
            (st.h_shift.values + 1.0).min()
        ) >= 2.0 * 0.25
        cfg = SolverConfig(eps=eps, dt=2e-3, t_end=0.12, delta0=0.25)
        traj = run(st, cfg, output_stride=10)
        intervals.append(0.0 if traj.breached else float(traj.times[-1]))
    spread = (max(intervals) - min(intervals)) / max(intervals)
    elapsed = time.perf_counter() - t0
    ok = (
        h_floor_ok
        and min(intervals) >= 0.1
        and spread <= 0.2
        and elapsed < 300.0
    )
    _report(
        8,
        "monitored interval >= 0.1 varying <= 20% over eps in {0.1, 0.01, 0.001}",
        ok,
        f"intervals {intervals}, spread {spread:.2%}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. Cauchy property down a 4-rung diffusion ladder
# ---------------------------------------------------------------------------


def test_criterion_9_eps_ladder_cauchy():
    t0 = time.perf_counter()
    grid = GridSpec(nx=24, ny=64, y_max=15.0, stretch=2.0)
    ok = True
    details = []
    for seed in (1, 7):
        rng = np.random.default_rng(seed)
        st = perturbed_state(
            grid,
            a_rho=rng.uniform(0.004, 0.008),
            a_u=rng.uniform(0.02, 0.05),
            a_h=rng.uniform(0.02, 0.05),
        )
        cfg = SolverConfig(dt=2e-3, t_end=0.05)
        out = eps_sweep(st, cfg, ladder=(0.1, 0.05, 0.025, 0.0125), output_stride=5)
        finals = [row[-1] for row in out.pairwise_diffs]
        decreasing = all(b < a for a, b in zip(finals, finals[1:]))
        ok = ok and all(out.valid) and decreasing
        details.append([f"{f:.3e}" for f in finals])
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _report(
        9,
        "pairwise H2-conormal diffs strictly decrease down a 4-rung eps ladder",
        ok,
        f"finals {details}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 10. Two-solution stability with a refinement-stable Gronwall constant
# ---------------------------------------------------------------------------


def _bumped(state, grid, amp):
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    bump = amp * np.cos(X) * Y**2 * np.exp(-(Y**2))
    return initial_state(
        grid,
        rho_shift=state.rho_shift,
        u_shift=Field(state.u_shift.values + bump, grid),
        h_shift=state.h_shift,
    )


def test_criterion_10_stability_gronwall():
    t0 = time.perf_counter()
    grid0 = GridSpec(nx=24, ny=96, y_max=15.0, stretch=2.0)
    base0 = perturbed_state(grid0, a_rho=0.005, a_u=0.04, a_h=0.05)
    cfg0 = SolverConfig(eps=0.01, dt=2e-3, t_end=0.2)
    same = stability_pair(base0, base0, cfg0, output_stride=10)
    identical_ok = max(same.norms_sq) <= 1e-12

    constants = []
    envelopes = []
    for nx, ny, dt in ((24, 96, 2e-3), (48, 192, 1e-3)):
        grid = GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)
        base = perturbed_state(grid, a_rho=0.005, a_u=0.04, a_h=0.05)
        pert = _bumped(base, grid, 1e-6)
        cfg = SolverConfig(eps=0.01, dt=dt, t_end=0.2)
        out = stability_pair(base, pert, cfg, output_stride=int(round(0.02 / dt)))
        constants.append(out.gronwall_c)
        envelopes.append(out.envelope_ok and not out.breached)
    c_spread = abs(constants[0] - constants[1]) / max(abs(c) for c in constants)
    elapsed = time.perf_counter() - t0
    ok = identical_ok and all(envelopes) and c_spread <= 0.3 and elapsed < 600.0
    _report(
        10,
        "identical data <= 1e-12; fitted Gronwall constant stable within 30%",
        ok,
        f"C {constants[0]:.4f} vs {constants[1]:.4f} ({c_spread:.1%}), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 11. Compatibility sources: exact vanishing and initial-tendency agreement
# ---------------------------------------------------------------------------


def _compatible_datum(grid):
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    E = np.exp(-grid.y)[None, :]
    gauss = np.exp(-(Y**2))
    rho = Field(0.02 * np.cos(X) * gauss, grid)
    u = Field(E + 0.05 * np.sin(X) * Y**3 * gauss, grid)
    h = Field(0.05 * np.cos(X) * (Y**2 - (2.0 / 3.0) * Y**4) * gauss, grid)
    return rho, u, h


def test_criterion_11_source_bootstrap():
    t0 = time.perf_counter()
    # constant outer state: every source level vanishes identically
    grid0 = GridSpec(nx=8, ny=48, y_max=15.0, stretch=2.0)
    ones = Field(np.ones((grid0.nx, grid0.ny)), grid0)
    bundle0 = bootstrap_time_derivatives(ones, ones, ones, m=2, mu=1.0, kappa=1.0)
    zero_exact = all(c.max_abs() == 0.0 for lvl in bundle0.levels for c in lvl)

    # initial-tendency agreement: the eps-regularized run with sources has
    # the same t -> 0 derivative as the unregularized equations
    errs = []
    for nx, ny, dt in ((16, 64, 2e-3), (32, 128, 1e-3), (64, 256, 5e-4)):
        grid = GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)
        init = initial_state(grid, *_compatible_datum(grid))
        bundle = bootstrap_time_derivatives(*physical(init), m=2, mu=1.0, kappa=1.0)
        cfg = SolverConfig(eps=0.01, dt=dt, t_end=2 * dt)
        traj = run(init, cfg, bundle=bundle, output_stride=1)
        assert not traj.breached and len(traj.states) == 3
        err = 0.0
        for name in ("rho", "u", "h"):
            w0, w1, w2 = (
                getattr(s, f"{name}_shift").values for s in traj.states
            )
            fd = (-3.0 * w0 + 4.0 * w1 - w2) / (2.0 * dt)
            exact = time_derivative_via_pde(
                init, name, order=1, physics=Physics(eps=0.0)
            ).values
            err = max(err, float(np.sqrt(np.mean((fd - exact) ** 2))))
        errs.append(err)
    slopes = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    elapsed = time.perf_counter() - t0
    ok = zero_exact and min(slopes) >= 1.8 and elapsed < 60.0
    _report(
        11,
        "constant state gives exactly zero sources; initial tendencies agree at scheme order",
        ok,
        f"errors {[f'{e:.2e}' for e in errs]}, orders {[f'{s:.2f}' for s in slopes]}, {elapsed:.1f}s",
    )
