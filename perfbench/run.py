"""The blmhd benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload solve --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke      # each workload once on a tiny grid
    python3 perfbench/run.py --record     # rewrite perfbench/reference.json

Run from the root of a checkout (the directory holding `src/blmhd`).  The
load is a closed loop: one sample at a time, each a fresh process
(sample.py) that does its set-up and then one timed pass, so per-process
caches are paid on every sample as a CLI user pays them on every run.
Samples start until `--seconds` would be exceeded (at least three).

Times are corrected for the machine's momentary speed.  On a shared host
the same pass takes anywhere from 1x to 2x its idle time, in phases that
last for minutes, and CPU time tracks wall time, so raw medians of two runs
a few minutes apart differ by up to 70%.  Each sample times a fixed
pure-Python loop (no program code) just before and just after its pass;
every time it reports is multiplied by CAL_REF_S / (mean loop time), which
gives the time the sample would have taken with the loop at CAL_REF_S.
The raw medians and the calibration are printed and stored alongside.

With `--trace 0` the result holds every end-to-end metric of
BENCHMARK.json, as medians over the samples.  With `--trace 1` traced and
untraced samples alternate; the result holds every per-layer metric, as
medians over the traced samples, and `trace.overhead_s` is the traced minus
the untraced median pass time.  Counts must repeat exactly across the
traced samples.

Every sample's outputs are checked against perfbench/reference.json, recorded
for input seeds 0..REFERENCE_SEEDS-1; the inputs of `--seed n` come from
seed n mod REFERENCE_SEEDS, so every seed has a reference.  A verb that does
not exit 0 fails its check.  `attempted` and `failed` in the result count
checks, so check_fail_ratio = failed / attempted.

The last line of stdout is the result JSON; the lines before it name every
metric with its unit, and the provenance.  Each run also writes its samples
and provenance to `.perfbench/results/`.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = 32
RESULTS_DIR = os.path.join(ROOT, ".perfbench", "results")
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Calibration loop time of this machine type when idle (sample.calibrate;
# Intel Xeon, 2.1 GHz, Python 3.11).  A fixed scale, never re-measured, so
# that corrected times compare across runs and commits.
CAL_REF_S = 0.075
MIN_SAMPLES = 3
HARD_LIMIT_S = 170.0

# (key prefix, relative, absolute tolerance) of the output checks, first
# match wins.  Swapping the Python-loop tridiagonal solve for a banded LAPACK
# solve moved the outputs by at most 5e-10 relative (energy dy_ml and the
# stability growth constant), so 1e-8 admits round-off reordering with a
# margin of 20.  The reconstruction defect is zero in exact arithmetic; the
# cancellation verb itself accepts it up to 1e-12.
TOLERANCES = (
    ("cancellation.reconstruction.", 0.0, 1e-12),
    ("", 1e-8, 0.0),
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, no reference)."""


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.update(THREAD_PINS)
    return env


def run_sample(workload: str, seed: int, size: str, trace: bool, timeout: float) -> dict:
    """One fresh-process sample; a crash or timeout comes back as {"crash": ...}."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "sample.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"timed out after {timeout:.0f} s", "traced": trace}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": proc.stderr[-2000:] or f"exit {proc.returncode}", "traced": trace}
    try:
        sample = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"crash": "unparsable sample output: " + lines[-1][:200], "traced": trace}
    sample["traced"] = trace
    return sample


def collect(workload, seed, size, seconds, trace) -> list:
    """Samples until the next one would overrun `seconds` (at least MIN_SAMPLES;
    with tracing, at least two traced and one untraced)."""
    start = time.monotonic()
    samples = []
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        n_traced = sum(1 for s in samples if s["traced"])
        enough = len(samples) >= MIN_SAMPLES and (
            not trace or (n_traced >= 2 and len(samples) - n_traced >= 1)
        )
        if enough and elapsed + last > seconds:
            break
        if elapsed + last > HARD_LIMIT_S:
            break
        traced = bool(trace) and len(samples) % 2 == 0
        t = time.monotonic()
        samples.append(run_sample(workload, seed, size, traced, HARD_LIMIT_S - elapsed))
        last = time.monotonic() - t
    return samples


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _close(key: str, got: float, want: float) -> bool:
    rtol, atol = next(t[1:] for t in TOLERANCES if key.startswith(t[0]))
    return abs(got - want) <= rtol * max(abs(got), abs(want)) + atol


def check_sample(sample: dict, ref: dict) -> list:
    """[(check name, passed, detail)] for one sample against its reference."""
    if "crash" in sample:
        return [("sample ran", False, sample["crash"])]
    checks = [(f"verb {v} exit 0", code == 0, f"exit {code}") for v, code in sample["exit_codes"].items()]
    if sample["error"] is not None:
        return checks + [("pass raised no exception", False, sample["error"])]
    out = sample["outputs"]
    for key, want in ref.items():
        got = out.get(key)
        if got is None:
            checks.append((key, False, "missing"))
            continue
        checks.append((key, _close(key, got, want), f"got {got!r}, reference {want!r}"))
    return checks


def check_counts(layer_rows: list, exact: list) -> list:
    """Every count of the traced samples repeats exactly."""
    checks = []
    for row in layer_rows[1:]:
        for name in exact:
            same = row[name] == layer_rows[0][name]
            checks.append((f"{name} repeats", same, f"{row[name]} vs {layer_rows[0][name]}"))
    return checks


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _pct_beyond(values: list, n_beyond: int = 10):
    """Highest percentile with at least n_beyond samples above it, or None."""
    n = len(values)
    if n <= n_beyond:
        return None
    k = n - n_beyond - 1
    return 100.0 * (k + 1) / n, sorted(values)[k]


def speed_scale(sample: dict) -> float:
    """Factor that corrects the sample's times to the reference machine speed."""
    return CAL_REF_S / statistics.fmean(sample["calibration_s"])


def end_to_end(samples: list) -> dict:
    wall = statistics.median(s["wall_s"] * speed_scale(s) for s in samples)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(s["setup_s"] * speed_scale(s) for s in samples),
        "slices_per_s": samples[0]["slices"] / wall,
        "peak_rss_mib": statistics.median(s["rss_kib"] for s in samples) / 1024.0,
    }


def layer_metrics(sample: dict, names: list) -> dict:
    """Every per-layer metric but trace.overhead_s from one traced sample."""
    layers, counters = sample["layers"], sample["counters"]
    scale = speed_scale(sample)

    def stat(span, key):
        value = layers.get(span, {}).get(key, 0)
        return value if key == "calls" else value * scale

    thomas_calls = stat("solver.thomas_batched", "calls")
    rows = counters.get("solver.thomas_batched.rows", 0)
    steps = stat("solver.step", "calls")
    levels = sum(rec["calls"] for name, rec in layers.items() if name.startswith("pde.tower_level_"))
    special = {
        "solver.thomas_batched.rows": rows,
        "solver.thomas_batched.ns_per_row": 1e9 * stat("solver.thomas_batched", "self_s") / rows if rows else 0.0,
        "solver.thomas_batched.bytes_per_call_computed": (
            counters.get("solver.thomas_batched.bytes_computed", 0) / thomas_calls if thomas_calls else 0.0
        ),
        "solver.substeps_per_step": stat("solver._substep", "calls") / steps if steps else 0.0,
        "solver.cell_steps": sample["cell_steps"],
        "pde.TimeTower.builds": stat("pde.TimeTower", "calls"),
        "pde.levels_built_per_slice": levels / sample["slices"],
        "io.bytes_written": counters.get("io.bytes_written", 0),
        "trace.spans": sample["spans"],
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name != "trace.overhead_s":
            span, key = name.rsplit(".", 1)
            out[name] = stat(span, key)
    return out


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(bench: dict, workload: str, seed: int, input_seed: int, samples: list) -> dict:
    versions = next((s["versions"] for s in samples if "versions" in s), {})
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    return {
        "git_sha": _git_sha(),
        "versions": versions or {"python": platform.python_version()},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "input_seed": input_seed,
        "workload": workload,
        "why": why.get(workload),
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def _load(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {what} {path}: {exc}") from exc


def _require_program() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "blmhd", "__init__.py")):
        raise BenchError(f"no blmhd sources under {os.path.join(ROOT, 'src')}")


def bench(args) -> int:
    bench_spec = _load(os.path.join(ROOT, "BENCHMARK.json"), "benchmark spec")
    reference = _load(REFERENCE, "reference outputs")
    names = [w["name"] for w in bench_spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    input_seed = args.seed % REFERENCE_SEEDS
    ref = reference["full"][args.workload].get(str(input_seed))
    if ref is None:
        raise BenchError(f"no reference for {args.workload} input seed {input_seed}")

    samples = collect(args.workload, input_seed, "full", args.seconds, args.trace)
    good = [s for s in samples if "crash" not in s and s["error"] is None]
    checks = [c for s in samples for c in check_sample(s, ref)]
    if not good:
        for s in samples:
            print(s.get("crash") or s.get("error"), file=sys.stderr)
        raise BenchError("no sample completed its pass")

    spec = bench_spec["per_layer"] if args.trace else bench_spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    if not untraced or (args.trace and not traced):
        raise BenchError("no traced or no untraced sample completed its pass")
    if args.trace:
        rows = [layer_metrics(s, list(units)) for s in traced]
        exact = [n for n, u in units.items() if u not in ("s", "ns")]
        checks += check_counts(rows, exact)
        values = {n: statistics.median(r[n] for r in rows) for n in rows[0]}
        values["trace.overhead_s"] = statistics.median(
            s["wall_s"] * speed_scale(s) for s in traced
        ) - statistics.median(s["wall_s"] * speed_scale(s) for s in untraced)
    else:
        values = end_to_end(untraced)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}

    failed = [c for c in checks if not c[1]]
    prov = provenance(bench_spec, args.workload, args.seed, input_seed, samples)
    print(
        f"workload {args.workload}: seed {args.seed} (inputs of seed {input_seed}), "
        f"{len(samples)} samples ({len(untraced)} untraced), trace {args.trace}"
    )
    for n, m in metrics.items():
        print(f"  {n} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        walls = [s["wall_s"] * speed_scale(s) for s in untraced]
        tail = _pct_beyond(walls)
        print(
            f"  wall_s: n = {len(walls)}, "
            + (f"p{tail[0]:.0f} = {tail[1]:.6g} s" if tail else "no percentile has 10 samples beyond it")
        )
        print(
            f"  uncorrected medians: wall_s = {statistics.median(s['wall_s'] for s in untraced):.6g} s, "
            f"setup_s = {statistics.median(s['setup_s'] for s in untraced):.6g} s; calibration loop "
            f"median {statistics.median(statistics.fmean(s['calibration_s']) for s in untraced):.6g} s "
            f"(reference {CAL_REF_S} s)"
        )
        if good[0]["cell_steps"]:
            print(f"  cell_steps_per_s = {good[0]['cell_steps'] / values['wall_s']:.6g} 1/s")
    print(f"  check_fail_ratio = {len(failed)}/{len(checks)} = {len(failed) / len(checks):.6g}")
    for name, _, detail in failed[:20]:
        print(f"  FAILED {name}: {detail}")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "metrics": metrics, "samples": samples, "failed_checks": failed}, fh, indent=1)

    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def smoke(args) -> int:
    """Each workload once, traced, on the tiny grid, with its checks."""
    reference = _load(REFERENCE, "reference outputs")
    ok = True
    for workload, refs in reference["smoke"].items():
        sample = run_sample(workload, 0, "smoke", True, HARD_LIMIT_S)
        checks = check_sample(sample, refs["0"])
        failed = [c for c in checks if not c[1]]
        spans_n = sample.get("spans", 0)
        if not spans_n:
            failed.append(("spans recorded", False, "no spans"))
        print(f"{workload}: {len(checks) - len(failed)}/{len(checks)} checks passed, {spans_n} spans")
        for name, _, detail in failed:
            print(f"  FAILED {name}: {detail}")
        ok = ok and not failed
    return 0 if ok else 1


def record(args) -> int:
    """Rewrite reference.json from the program as it stands."""
    names = [w["name"] for w in _load(os.path.join(ROOT, "BENCHMARK.json"), "benchmark spec")["workloads"]]
    reference = {"full": {}, "smoke": {}}
    plan = [("full", w, s) for w in names for s in range(REFERENCE_SEEDS)]
    plan += [("smoke", w, 0) for w in names]
    for size, workload, seed in plan:
        sample = run_sample(workload, seed, size, False, HARD_LIMIT_S)
        if "crash" in sample or sample["error"] is not None or any(sample["exit_codes"].values()):
            raise BenchError(f"{size} {workload} seed {seed} failed: {sample}")
        reference[size].setdefault(workload, {})[str(seed)] = sample["outputs"]
        print(f"recorded {size} {workload} seed {seed}", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true", help="tiny-grid run of each workload")
    mode.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = p.parse_args(argv)
    try:
        _require_program()
        if args.smoke:
            return smoke(args)
        if args.record:
            return record(args)
        if args.workload is None:
            p.error("--workload is required")
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
