#!/usr/bin/env python3
"""Steadiness self-check for perfbench: one command over every workload.

Runs two interleaved sets of the same build on every workload, five runs
a set, each run with its own seed and BENCHMARK.json's run_seconds, and
prints for each end-to-end metric its median in each set, the
set-to-set drift (the share by which the second median is worse than
the first) and each set's quartile spread (the distance between the
first and third quartile, over the median), against the metric's bound
in BENCHMARK.json. Then one traced run per workload prints the
per-layer metrics. Every run also records `machine.spin_s`, a fixed ALU
loop that moves only with the host.

    python3 perfbench/steady.py

Besides the workloads BENCHMARK.json gates, it runs the ungated
`vo_threads` (see README.md): its runs must pass their correctness
checks, and its spreads are printed but never decide the exit code.

Runs execute at the repository root. The exit code is
  0  every check passed and every gated metric repeats within a tenth;
  1  a run failed a correctness check, or a gated metric drifted past
     its bound or spread past it (`setup_s` is held to drift only);
  2  every check passed and every gated metric is within its bound, but
     some gated metric spread past a tenth: the host was noisy.
"""

import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Runs per set and workload.
RUNS = 5
# The first run's seed; every later run takes the next one.
FIRST_SEED = 1
# A metric should repeat within this share of its median.
STEADY = 0.10
# Generous: the first run in a fresh checkout compiles the benchmark.
RUN_TIMEOUT_S = 1200
# Workloads the binary runs that BENCHMARK.json does not gate: the
# threaded window loop's wall time follows the host's load too closely
# to repeat within a bound.
UNGATED = ["vo_threads"]


def run(command, workload, seed, seconds, trace):
    """One benchmark run: its result object, spin canary and stdout."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        print(f"{workload} seed {seed}: exit {proc.returncode}, no result")
        sys.exit(1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    result = json.loads(lines[-1])
    spin = None
    for line in lines:
        m = re.match(r"\s*machine\.spin_s\s+(\S+)", line)
        if m:
            spin = float(m.group(1))
    return result, spin, proc.stdout


def spread(values):
    """Interquartile distance over the median, as the contract takes it."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse(first, second, better):
    """Share by which `second` is worse than `first`."""
    d = (second - first) / first
    return d if better == "lower" else -d


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    command = spec["command"]
    seconds = spec["run_seconds"]
    gated = [w["name"] for w in spec["workloads"]]
    workloads = gated + UNGATED

    failed = False
    noisy = False
    sets = {w: {"A": [], "B": []} for w in workloads}
    spins = {w: [] for w in workloads}
    seed = FIRST_SEED
    for i in range(RUNS):
        for w in workloads:
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                result, spin, _ = run(command, w, seed, seconds, 0)
                values = " ".join(f"{k}={v['value']:.6g}"
                                  for k, v in result["metrics"].items())
                print(f"{w:<10} set {s} seed {seed:<4} "
                      f"{result['failed']}/{result['attempted']} checks failed "
                      f"spin={spin} {values}", flush=True)
                if not result["correct"] or result["failed"]:
                    failed = True
                sets[w][s].append(result["metrics"])
                spins[w].append(spin)
                seed += 1

    print()
    print(f"{'workload':<10} {'metric':<13} {'unit':<5} {'bound':>5} "
          f"{'median A':>14} {'median B':>14} {'drift':>7} {'sprd A':>7} "
          f"{'sprd B':>7} {'sprd all':>8}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[name]["value"] for r in sets[w]["A"]]
            b = [r[name]["value"] for r in sets[w]["B"]]
            drift = worse(statistics.median(a), statistics.median(b),
                          m["better"])
            spreads = [spread(a), spread(b), spread(a + b)]
            gates_spread = name != "setup_s"
            verdict = "ok"
            if gates_spread and max(spreads) > bound / 3:
                verdict = "wide"
            if max(spreads) > STEADY:
                verdict = "noisy"
                noisy = noisy or w in gated
            if drift > bound or (gates_spread and max(spreads) > bound):
                verdict = "FAIL"
                failed = failed or w in gated
            if w not in gated and verdict != "ok":
                verdict += " (ungated)"
            print(f"{w:<10} {name:<13} {m['unit']:<5} {bound:>5} "
                  f"{statistics.median(a):>14.6g} {statistics.median(b):>14.6g} "
                  f"{drift:>+7.3f} {spreads[0]:>7.3f} {spreads[1]:>7.3f} "
                  f"{spreads[2]:>8.3f}  {verdict}")
        s = [x for x in spins[w] if x is not None]
        if len(s) >= 2:
            print(f"{w:<10} {'machine.spin_s':<13} {'s':<5} {'':>5} "
                  f"{statistics.median(s):>14.6g} {'':>14} {'':>7} {'':>7} "
                  f"{'':>7} {spread(s):>8.3f}  canary")

    for w in workloads:
        result, _, stdout = run(command, w, FIRST_SEED, seconds, 1)
        print()
        print(stdout.rstrip().rsplit("\n", 1)[0])
        if not result["correct"] or result["failed"]:
            failed = True
    print()
    if failed:
        print("FAILED: a correctness check, or a gated bound (see FAIL above)")
        return 1
    if noisy:
        print("correct and within bounds, but a gated spread passed a tenth "
              "(see noisy above; compare machine.spin_s)")
        return 2
    print("steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
