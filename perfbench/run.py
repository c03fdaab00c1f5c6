"""Benchmark driver: build, run one workload repeatedly, report medians.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from the repository root.  Builds perfbench/bench.exe with dune, then
starts it again and again, a fresh process per run, until --seconds have
passed (at least three runs).  Each run builds the seed's world, simulates
it to its horizon and checks its outputs; metrics.py defines every field.

--trace 0 prints the end-to-end metrics: host figures are the median over
the runs, simulated ones must be identical in every run.  --trace 1
alternates traced and untraced runs and prints the per-layer metrics;
spans of the last traced run go to perfbench/out/.  Either way every
run's digest of simulated outputs must match.

The last line of stdout is one JSON object: `correct`, `attempted` and
`failed` count whole runs (one world built and simulated); operations
lost inside the simulated network are a measured outcome,
ops_failed_share, not a failure of the benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT = os.path.join("perfbench", "out")
MIN_RUNS = 3
PROCESS_TIMEOUT_S = 120


def build():
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "./perfbench/bench.exe"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout)
        sys.exit("perfbench: build failed")


def run_once(workload, seed, size, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--size", size,
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans",
                os.path.join(OUT, "spans-%s-%d.json" % (workload, seed))]
    t0 = time.monotonic()
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=PROCESS_TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        sys.exit("perfbench: bench.exe exited with %d" % r.returncode)
    run = json.loads(r.stdout.strip().splitlines()[-1])
    return run, r.stderr, time.monotonic() - t0


def median(runs, key, section="host"):
    return statistics.median(run[section][key] for run in runs)


def end_to_end(untraced):
    first = untraced[0]["sim"]
    values = {name: median(untraced, name)
              for name in ("wall_s", "setup_s", "sim_s", "cpu_s",
                           "events_per_s", "alloc_words_per_event",
                           "peak_heap_mb")}
    values["ops_failed_share"] = first["ops_failed"] / first["ops_attempted"]
    values["sim_latency_p50_ms"] = first["sim_latency_p50_ms"]
    values["sim_latency_p99_ms"] = first["sim_latency_p99_ms"]
    return values


def per_layer(traced, untraced):
    values = dict(traced[0]["sim"])
    for name in ("netsim.slice_s_max", "workload.build_s", "net.routes_s",
                 "netsim.pending_max"):
        values[name] = median(traced, name, "traced")
    values["trace.overhead_s"] = (median(traced, "wall_s")
                                  - median(untraced, "wall_s"))
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w[0] for w in metrics.WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    a = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    traced, untraced, notes, took = [], [], [], []
    start = time.monotonic()
    # One more run only if the slowest run so far still fits the budget.
    while True:
        want_trace = a.trace == 1 and len(traced) <= len(untraced)
        run, err, secs = run_once(a.workload, a.seed, a.size, want_trace)
        (traced if want_trace else untraced).append(run)
        notes.extend(line for line in err.splitlines() if line)
        took.append(secs)
        runs = traced + untraced
        elapsed = time.monotonic() - start
        enough = (len(untraced) >= MIN_RUNS
                  and (a.trace == 0 or len(traced) >= MIN_RUNS))
        if enough and elapsed + max(took) > a.seconds:
            break

    digests = {r["digest"] for r in runs}
    incorrect = sum(1 for r in runs if not r["correct"])
    correct = incorrect == 0 and len(digests) == 1
    sim = untraced[0]["sim"]
    checks = untraced[0]["checks"]
    print("workload %s seed %d: %d untraced + %d traced runs in %.1f s"
          % (a.workload, a.seed, len(untraced), len(traced), elapsed))
    print("ops_attempted %d  ops_failed %d  latency samples %d"
          % (sim["ops_attempted"], sim["ops_failed"], sim["latency_samples"]))
    print("checks %s" % " ".join("%s=%s" % kv for kv in checks.items()))
    print("digest %s%s" % (untraced[0]["digest"],
                           "" if len(digests) == 1 else
                           "  DIVERGED across runs: %s" % sorted(digests)))
    for line in sorted(set(notes)):
        print("engine: " + line)

    if a.trace == 0:
        values, table = end_to_end(untraced), metrics.END_TO_END
    else:
        values, table = per_layer(traced, untraced), metrics.PER_LAYER
    out = {}
    for m in table:
        name, unit = m[0], m[1]
        out[name] = {"value": values[name], "unit": unit}
        print("%-28s %18.6f %s" % (name, values[name], unit))
    print(json.dumps({"correct": correct, "attempted": len(runs),
                      "failed": incorrect, "metrics": out}))


if __name__ == "__main__":
    main()
