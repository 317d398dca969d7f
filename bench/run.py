"""Benchmark of uwjam: one workload per call, each round in a fresh process.

    python3 bench/run.py --workload {equilibrium,replay,degenerate}
                         --seed N --seconds S --trace {0,1}

With --trace 0 the run repeats rounds (set-up, job, checks, each in a
new single-threaded process) until the jobs have taken S seconds and it
holds MIN_ROUNDS rounds, then adds set-up-only rounds until it holds
SETUP_SAMPLES set-up times. It reports the medians of job_s and setup_s,
scaled to a reference machine speed by a calibration kernel timed
around the rounds, and the median of peak_rss_mb. With --trace 1 it
runs one traced round and reports its per-layer metrics, its wall job
time and the tracer's own share of it. The last line of standard output
is one JSON object with correct, attempted, failed and metrics. See
README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH, "worker.py")
CALIBRATE = os.path.join(BENCH, "calibrate.py")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("equilibrium", "replay", "degenerate")
# a degenerate round is short (~3.5 s of job), so a run takes the median
# of several; an equilibrium or replay round is long enough alone
MIN_ROUNDS = {"equilibrium": 1, "replay": 1, "degenerate": 5}
SETUP_SAMPLES = 3
# calibration pass time (bench/calibrate.py) that defines the reference
# speed: times are scaled to what they would be on a machine where one
# pass takes this long
REFERENCE_PASS_S = 0.3
DEADLINE_S = 170
# one thread per process: the figures must not depend on how many cores
# a BLAS library finds, and rounds must not compete with each other
SINGLE_THREAD = {name: "1" for name in
                 ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class RoundFailed(Exception):
    pass


def run_round(workload, seed, deadline, *flags):
    """One worker process; returns its record with setup_s added."""
    env = dict(os.environ, **SINGLE_THREAD)
    out = os.path.join(OUT, workload)
    argv = [sys.executable, WORKER, workload, "--seed", str(seed), "--out", out, *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} round passed the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RoundFailed(f"{workload} round exited {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["job_start"] - spawned
    return record


def calibration_pass(deadline):
    """Seconds one calibration kernel pass takes now, in a fresh process."""
    proc = subprocess.run([sys.executable, CALIBRATE], capture_output=True, text=True,
                          env=dict(os.environ, **SINGLE_THREAD),
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RoundFailed(f"calibration exited {proc.returncode}")
    return float(proc.stdout.split()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, deadline):
    # the machine's speed drifts by tens of percent over minutes; times are
    # scaled by a fixed kernel timed before, between and after the rounds,
    # which takes out most of that drift (see README.md)
    calibration = [calibration_pass(deadline)]
    rounds = []
    while len(rounds) < MIN_ROUNDS[workload] or sum(r["job_s"] for r in rounds) < seconds:
        rounds.append(run_round(workload, seed, deadline))
    calibration.append(calibration_pass(deadline))
    setups = [r["setup_s"] for r in rounds]
    if len(setups) < SETUP_SAMPLES:
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_round(workload, seed, deadline, "--setup-only")["setup_s"])
        calibration.append(calibration_pass(deadline))
    scale = REFERENCE_PASS_S / statistics.mean(calibration)
    job_s = statistics.median(r["job_s"] for r in rounds)
    setup_s = statistics.median(setups)
    metrics = {
        "job_s": metric(job_s * scale, "s"),
        "setup_s": metric(setup_s * scale, "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    print(f"{workload}: {len(rounds)} rounds, wall job_s "
          f"{[round(r['job_s'], 3) for r in rounds]}, wall setup_s "
          f"{[round(s, 3) for s in setups]}, calibration "
          f"{', '.join(f'{c:.4f} s' for c in calibration)}")
    return rounds, metrics


def trace(workload, seed, deadline):
    traced = run_round(workload, seed, deadline, "--trace")
    metrics = {name: metric(value, unit_of(name)) for name, value in traced["layers"].items()}
    metrics["trace.job_s"] = metric(traced["job_s"], "s")
    return [traced], metrics


def unit_of(name):
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            rounds, metrics = trace(args.workload, args.seed, deadline)
        else:
            rounds, metrics = measure(args.workload, args.seed, args.seconds, deadline)
    except RoundFailed as exc:
        sys.exit(f"benchmark failed: {exc}")
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
