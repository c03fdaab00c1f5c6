"""Smoke test of the benchmark at tiny world sizes.

    python3 perfbench/test_smoke.py

Run from the repository root.  For every workload it runs the driver
twice untraced and once traced on tiny worlds, and checks that
BENCHMARK.json agrees with metrics.py, that every named metric is
printed, that every run's outputs pass their checks, and that the
deterministic metrics repeat exactly from one invocation to the next.
Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

# End-to-end metrics that are exact functions of (workload, seed).
DETERMINISTIC_E2E = {"alloc_words_per_event", "ops_failed_share",
                     "sim_latency_p50_ms", "sim_latency_p99_ms"}


def result(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace",
           str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def fail(msg):
    print("FAIL " + msg)
    sys.exit(1)


def main():
    errors = metrics.check(os.path.join(os.path.dirname(HERE),
                                        "BENCHMARK.json"))
    if errors:
        fail("BENCHMARK.json: " + "; ".join(errors))
    e2e = [m[0] for m in metrics.END_TO_END]
    layer = [m[0] for m in metrics.PER_LAYER]
    for workload, _ in metrics.WORKLOADS:
        a, b = result(workload, 0), result(workload, 0)
        t = result(workload, 1)
        for r, names in ((a, e2e), (b, e2e), (t, layer)):
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 3:
                fail("%s: runs incorrect or failed: %s" % (workload, r))
            if sorted(r["metrics"]) != sorted(names):
                fail("%s: metric names %s" % (workload, sorted(r["metrics"])))
        for name in DETERMINISTIC_E2E:
            if a["metrics"][name] != b["metrics"][name]:
                fail("%s: %s differs between invocations" % (workload, name))
        t2 = result(workload, 1)
        for name in layer:
            if name in metrics.HOST_LAYER:
                continue
            if t["metrics"][name] != t2["metrics"][name]:
                fail("%s: %s differs between invocations" % (workload, name))
        print("ok %s" % workload)


if __name__ == "__main__":
    main()
