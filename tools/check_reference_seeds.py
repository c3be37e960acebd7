"""Check every benchmark workload against perfbench/reference.json at every
input seed, and optionally against another checkout's outputs.

    python3 tools/check_reference_seeds.py                 # all workloads, seeds 0-31
    python3 tools/check_reference_seeds.py ladder solve    # some workloads
    python3 tools/check_reference_seeds.py --against ../parent   # and diff the outputs

Run from anywhere; the samples run from the root of the checkout that holds
this file.  Each (workload, input seed) pair is one untraced fresh-process
sample of perfbench/run.py's run_sample, judged by its check_sample, so the
tolerances are the benchmark's own.  A benchmark run checks one input seed
per workload; a change whose drift passes at some seeds can fail at others.
Prints, per workload, the worst relative drift from the reference and every
failed check, and exits 1 if any check failed.

With --against DIR the same pair also runs in the checkout at DIR, through
DIR's own perfbench/run.py, and every output, exit code or error that is not
exactly equal (same repr, so bit for bit) between the two is printed; any
such difference exits 1 too.  This is the check behind a claim that a change
leaves every output bitwise unchanged.  Standard library only.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench_run(root: str = ROOT, name: str = "perfbench_run"):
    """root/perfbench/run.py as a module (it is a script, not a package
    member); its samples run from root, on root's sources."""
    path = os.path.join(root, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _drift(got: float, want: float) -> float:
    scale = max(abs(got), abs(want))
    return abs(got - want) / scale if scale else 0.0


def _differences(here: dict, there: dict) -> list:
    """[(what, value here, value there)] for every entry of the two samples'
    outputs, exit codes, error and crash that is not exactly equal."""
    out = []
    for part in ("crash", "error"):
        if repr(here.get(part)) != repr(there.get(part)):
            out.append((part, here.get(part), there.get(part)))
    for part in ("exit_codes", "outputs"):
        mine, theirs = here.get(part, {}), there.get(part, {})
        for key in sorted(set(mine) | set(theirs)):
            if repr(mine.get(key)) != repr(theirs.get(key)):
                out.append((f"{part}.{key}", mine.get(key), theirs.get(key)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", help="workloads to check (default: all)")
    parser.add_argument(
        "--against", metavar="DIR", help="another checkout whose outputs must be equal bit for bit"
    )
    args = parser.parse_args(argv)
    bench = _perfbench_run()
    other = None
    if args.against is not None:
        if not os.path.isfile(os.path.join(args.against, "perfbench", "run.py")):
            parser.error(f"no perfbench/run.py under {args.against}")
        other = _perfbench_run(os.path.abspath(args.against), "perfbench_run_other")
    with open(bench.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["full"]
    workloads = args.workloads or sorted(reference)
    failed = 0
    differing = 0
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
            if other is not None:
                theirs = other.run_sample(workload, seed, "full", False, other.HARD_LIMIT_S)
                for what, mine, their in _differences(sample, theirs):
                    differing += 1
                    print(
                        f"DIFFERS {workload} seed {seed} {what}: {mine!r} here, {their!r} there",
                        flush=True,
                    )
        print(
            f"{workload}: worst relative drift {worst[0]:.3g} (seed {worst[1]}, {worst[2]})",
            flush=True,
        )
    print(f"{failed} failed checks")
    if other is not None:
        print(f"{differing} differing outputs against {os.path.abspath(args.against)}")
    return 1 if failed or differing else 0


if __name__ == "__main__":
    sys.exit(main())
