"""One round of one benchmark workload, in a fresh process.

    python3 bench/worker.py WORKLOAD --seed N --out DIR [--setup-only] [--trace]

A round imports uwjam from the checkout's src/, builds the workload's
inputs (set-up), runs its job, and checks the outputs. The last line of
standard output is one JSON object: the monotonic time at which the job
started (the caller subtracts its own spawn time to get set-up time), the
job's wall time, the process's peak resident memory at the end of the
job, the operations attempted and failed, the problems the checks found
and, with --trace, per-layer metrics from spans around calls into uwjam.
"""

import argparse
import contextlib
import csv
import json
import math
import os
import random
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import uwjam  # noqa: E402  (set-up time includes this import)
from uwjam import analysis, cli, solver  # noqa: E402

DISTANCES = (20.0, 60.0, 150.0)
REPLAY_DISTANCES = (20.0, 60.0)
SIMULATE_AT = 60.0
REPLAY_RUNS = 10_000
SENSITIVITY_RUNS = 1000
SIGMAS = ("0", "0.05", "0.1")
PER_PAIRS = ((0.0, 0.0), (0.0, 0.7), (0.0, 1.0), (0.3, 0.7), (0.3, 1.0), (1.0, 1.0))
HORIZONS = ((1, 1.0), (4, 1.0), (math.inf, 0.9))

# The degenerate-pivot fault: the stored strategy at (12, 11) has a
# best-response gap of 4.3e-4. Certification failures of this game are
# counted as failed operations; a failure of any other game is an error.
KNOWN_FAULTS = {
    solver.GameConfig(k=2, b_t0=12, b_j0=12, alpha=0.5, p_clear=0.0,
                      p_blocked=1.0, horizon=4),
}

# The check_* functions import checks (and with it scipy.optimize) only
# after the job, so that import stays out of setup_s.

# equilibrium: states checked against HiGHS on every table, plus a few
# drawn from the seed
HIGHS_STATES = [(b_t, b_j) for b_t in (4, 5, 7, 8, 9, 16, 101, 200)
                for b_j in (0, 1, 6, 7, 8, 100, 200)]
HIGHS_SEEDED = 8


def _label(d):
    return f"d{d:g}m"


# ---------------------------------------------------------------------------
# equilibrium: full-scale solves, exported and loaded back


def setup_equilibrium(seed, out):
    scenario = cli.ScenarioConfig()
    rng = random.Random(seed)
    states = HIGHS_STATES + [(rng.randint(scenario.k, scenario.b_t0),
                              rng.randint(0, scenario.b_j0))
                             for _ in range(HIGHS_SEEDED)]
    return {
        "configs": {d: cli.game_config_for(scenario, d) for d in DISTANCES},
        "paths": {d: os.path.join(out, f"eq_{_label(d)}.json") for d in DISTANCES},
        "states": states,
    }


def job_equilibrium(inputs, span):
    solved, loaded = {}, {}
    for d, cfg in inputs["configs"].items():
        with span("solve." + _label(d)):
            solved[d] = solver.solve_full_game(cfg)
        solver.export_table(solved[d], inputs["paths"][d],
                            meta={"d_jr": d, "per_mode": "uncoded"})
        loaded[d] = solver.load_table(inputs["paths"][d])
    return {"solved": solved, "loaded": loaded}


def check_equilibrium(inputs, outputs):
    import checks
    problems = []
    for d, table in outputs["solved"].items():
        cfg = table.config
        found = (checks.certify(table)
                 + checks.highs_problems(table, inputs["states"])
                 + checks.lifetime_success_problems(analysis.analyze(table), cfg.k, cfg.b_t0)
                 + checks.same_table(table, outputs["loaded"][d]))
        problems += [f"{_label(d)}: {p}" for p in found]
    # export determinism is a property of export_table; one table shows it
    path = inputs["paths"][60.0]
    again = path + ".again"
    solver.export_table(outputs["solved"][60.0], again,
                        meta={"d_jr": 60.0, "per_mode": "uncoded"})
    with open(path, "rb") as a, open(again, "rb") as b:
        if a.read() != b.read():
            problems.append("two exports of the 60 m table differ")
    os.remove(again)
    return len(DISTANCES), 0, problems


# ---------------------------------------------------------------------------
# replay: solved tables scored through the CLI, in process


def setup_replay(seed, out):
    scenario = cli.ScenarioConfig(horizon=1)
    scenario_path = os.path.join(out, "replay_scenario.json")
    with open(scenario_path, "w") as fh:
        json.dump({"horizon": 1}, fh)
    empirical = scenario.replace(
        empirical_path=os.path.join(ROOT, "data", "lake_per_example.csv"))
    tables, pairs = {}, {}
    for d in REPLAY_DISTANCES:
        tables[d] = os.path.join(out, f"replay_{_label(d)}.json")
        solver.export_table(solver.solve_full_game(cli.game_config_for(scenario, d)),
                            tables[d], meta={"d_jr": d, "per_mode": "uncoded"})
        pairs[d] = {"coded": cli.resolve_error_model(scenario, d, "coded"),
                    "empirical": cli.resolve_error_model(empirical, d, "empirical")}
    return {"scenario": scenario, "scenario_path": scenario_path, "out": out,
            "tables": tables, "pairs": pairs, "seed": seed}


def _csv(inputs, name):
    return os.path.join(inputs["out"], f"replay_{name}.csv")


def job_replay(inputs, span):
    common = ["--config", inputs["scenario_path"]]
    seed = ["--seed", str(inputs["seed"])]
    tables = inputs["tables"]
    codes = {}
    argv = ["evaluate", *common, "--out", _csv(inputs, "evaluate")]
    for path in tables.values():
        argv += ["--table", path]
    codes["evaluate"] = cli.main(argv)
    mismatch = {}
    for d, path in tables.items():
        lab = _label(d)
        if d == SIMULATE_AT:
            codes["simulate_" + lab] = cli.main(
                ["simulate", *common, "--table", path, "--runs", str(REPLAY_RUNS), *seed,
                 "--out", _csv(inputs, "simulate_" + lab)])
        sigma_args = [a for s in SIGMAS for a in ("--sigma", s)]
        codes["sensitivity_" + lab] = cli.main(
            ["sensitivity", *common, "--table", path, "--runs", str(SENSITIVITY_RUNS),
             *seed, *sigma_args, "--out", _csv(inputs, "sensitivity_" + lab)])
        codes["mismatch_" + lab] = cli.main(
            ["mismatch", *common, "--d-jr", f"{d:g}", "--solve-model", "dummy",
             "--true-model", "uncoded", "--out", _csv(inputs, "mismatch_" + lab)])
        table = solver.load_table(path)
        mismatch[d] = {name: analysis.mismatch_evaluation(table, pair)
                       for name, pair in inputs["pairs"][d].items()}
    return {"codes": codes, "mismatch": mismatch}


def read_report(path):
    """Rows of a CLI report CSV, numeric fields as floats."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = []
    for row in csv.DictReader(lines):
        rows.append({key: (float(val) if val not in ("", None) and key not in
                           ("solve_model", "true_model", "gamma") else val)
                     for key, val in row.items()})
    return rows


def check_replay(inputs, outputs):
    import checks
    attempted = len(outputs["codes"]) + sum(len(m) for m in outputs["mismatch"].values())
    problems = [f"{name} exited {code}" for name, code in outputs["codes"].items() if code]
    if problems:
        return attempted, 0, problems
    closed = {row["distance_m"]: row for row in read_report(_csv(inputs, "evaluate"))}
    for d, path in inputs["tables"].items():
        lab = _label(d)
        ref = closed[d]
        sweep = read_report(_csv(inputs, "sensitivity_" + lab))
        samples = [(SENSITIVITY_RUNS, r) for r in sweep if r["sigma"] == 0.0]
        if d == SIMULATE_AT:
            (mc,) = read_report(_csv(inputs, "simulate_" + lab))
            samples.append((REPLAY_RUNS, mc))
        for n, mc in samples:
            problems += checks.monte_carlo_problems(
                f"{lab} lifetime, {n} runs", ref["lifetime"], mc["lifetime"],
                mc["lifetime_ci"], n)
            problems += checks.monte_carlo_problems(
                f"{lab} success, {n} runs", ref["psucc"], mc["psucc"], mc["psucc_ci"], n)
        table = solver.load_table(path)
        plain = analysis.simulate(table, SENSITIVITY_RUNS, seed=inputs["seed"])
        problems += [f"{lab}: {p}" for p in checks.sensitivity_problems(sweep, plain)]
        for name, report in outputs["mismatch"][d].items():
            if report.lifetime != ref["lifetime"]:
                problems.append(f"{lab} {name}: mismatch lifetime {report.lifetime!r}, "
                                f"solved {ref['lifetime']!r}")
            problems += [f"{lab} {name}: {p}" for p in checks.lifetime_success_problems(
                report, table.config.k, table.config.b_t0)]
        dummy = solver.solve_vs_fixed_jammer(cli.game_config_for(inputs["scenario"], d))
        problems += [f"{lab}: {p}" for p in checks.dummy_jammer_problems(dummy)]
        (row,) = read_report(_csv(inputs, "mismatch_" + lab))
        want = analysis.analyze(dummy)
        if (row["lifetime"], row["psucc"]) != (want.lifetime, want.success):
            problems.append(f"{lab}: dummy mismatch row {row['lifetime']!r}, {row['psucc']!r} "
                            f"vs table {want.lifetime!r}, {want.success!r}")
    return attempted, 0, problems


# ---------------------------------------------------------------------------
# degenerate: 486 small games with saturated PERs and corner parameters


def degenerate_configs():
    return [solver.GameConfig(k=k, b_t0=12, b_j0=b_j0, alpha=alpha, p_clear=p_clear,
                              p_blocked=p_blocked, horizon=horizon, discount=discount)
            for k in (1, 2, 3)
            for p_clear, p_blocked in PER_PAIRS
            for alpha in (0.0, 0.5, 1.0)
            for horizon, discount in HORIZONS
            for b_j0 in (0, 3, 12)]


def setup_degenerate(seed, out):
    configs = degenerate_configs()
    random.Random(seed).shuffle(configs)
    return {"configs": configs}


def job_degenerate(inputs, span):
    return {"tables": [solver.solve_full_game(cfg) for cfg in inputs["configs"]]}


def check_degenerate(inputs, outputs):
    import checks
    failed, problems = 0, []
    for table in outputs["tables"]:
        found = checks.certify(table)
        if found and table.config in KNOWN_FAULTS:
            failed += 1
        elif found:
            problems += [f"{table.config}: {p}" for p in found]
    return len(outputs["tables"]), failed, problems


WORKLOADS = {
    "equilibrium": (setup_equilibrium, job_equilibrium, check_equilibrium),
    "replay": (setup_replay, job_replay, check_replay),
    "degenerate": (setup_degenerate, job_degenerate, check_degenerate),
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if os.path.dirname(os.path.abspath(uwjam.__file__)) != os.path.join(SRC, "uwjam"):
        sys.exit(f"uwjam imported from {uwjam.__file__}, not from {SRC}")
    setup, job, check = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    os.makedirs(args.out, exist_ok=True)

    inputs = setup(args.seed, args.out)
    job_start = time.monotonic()
    if args.setup_only:
        print(json.dumps({"job_start": job_start}))
        return
    outputs = job(inputs, span)
    job_s = time.monotonic() - job_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {"job_start": job_start, "job_s": job_s, "peak_rss_mb": peak_rss_mb}
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        with open(os.path.join(args.out, f"{args.workload}.spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    record["attempted"], record["failed"], record["problems"] = check(inputs, outputs)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
