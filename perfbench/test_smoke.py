"""The benchmark's own tests.

    python -m pytest perfbench
"""
import os
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_time_subtracts_children_and_nesting_counts_once():
    tracer = spans.Tracer("test")

    def leaf():
        time.sleep(0.01)

    def mid(depth):
        if depth:
            wrapped_mid(depth - 1)
        wrapped_leaf()

    wrapped_leaf = tracer.wrap(leaf, "leaf")
    wrapped_mid = tracer.wrap(mid, "mid")
    with tracer.span("pass"):
        wrapped_mid(1)
    st = tracer.stats()
    assert st["mid"]["calls"] == 2 and st["leaf"]["calls"] == 2
    # the inner mid lies inside the outer one: inclusive time counts it once
    assert st["mid"]["s"] < st["pass"]["s"]
    assert st["mid"]["s"] >= st["leaf"]["s"]
    # everything below pass is covered by its one child
    assert st["pass"]["self_s"] < 0.005
    total_self = sum(rec["self_s"] for rec in st.values())
    assert abs(total_self - st["pass"]["s"]) < 1e-9


def test_smoke_runs_every_workload_with_its_checks():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("checks passed") == 3
