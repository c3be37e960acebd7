"""Check every benchmark workload against perfbench/reference.json at every
input seed.

    python3 tools/check_reference_seeds.py                 # all workloads, seeds 0-31
    python3 tools/check_reference_seeds.py ladder solve    # some workloads

Run from anywhere; the samples run from the root of the checkout that holds
this file.  Each (workload, input seed) pair is one untraced fresh-process
sample of perfbench/run.py's run_sample, judged by its check_sample, so the
tolerances are the benchmark's own.  A benchmark run checks one input seed
per workload; a change whose drift passes at some seeds can fail at others.
Prints, per workload, the worst relative drift from the reference and every
failed check, and exits 1 if any check failed.  Standard library only.
"""
from __future__ import annotations

import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench_run():
    """perfbench/run.py as a module (it is a script, not a package member)."""
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _drift(got: float, want: float) -> float:
    scale = max(abs(got), abs(want))
    return abs(got - want) / scale if scale else 0.0


def main(argv=None) -> int:
    bench = _perfbench_run()
    with open(bench.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["full"]
    workloads = (argv if argv is not None else sys.argv[1:]) or sorted(reference)
    failed = 0
    for workload in workloads:
        worst = (0.0, None, None)
        for seed in range(bench.REFERENCE_SEEDS):
            ref = reference[workload][str(seed)]
            sample = bench.run_sample(workload, seed, "full", False, bench.HARD_LIMIT_S)
            for name, ok, detail in bench.check_sample(sample, ref):
                if not ok:
                    failed += 1
                    print(f"FAILED {workload} seed {seed} {name}: {detail}", flush=True)
            for key, want in ref.items():
                got = sample.get("outputs", {}).get(key)
                if got is not None and _drift(got, want) > worst[0]:
                    worst = (_drift(got, want), seed, key)
        print(f"{workload}: worst relative drift {worst[0]:.3g} (seed {worst[1]}, {worst[2]})", flush=True)
    print(f"{failed} failed checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
