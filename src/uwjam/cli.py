"""Command-line harness.

Subcommands cover the full offline workflow: inspect the PER model over
a distance sweep, solve games to strategy tables, evaluate tables
analytically, replay them in Monte Carlo, stress them against PER
perturbations, and score model-mismatch baselines.

Every command is deterministic given its config and seed. CSV outputs
start with a '# config: {...}' comment echoing the effective scenario,
then a header row; floats are written in shortest round-trip form.

Exit codes: 0 success, 2 configuration error, 3 I/O error,
4 table/config consistency error, 5 solver failure.
"""

import argparse
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, fields

from . import analysis, solver
from .analysis import DEFAULT_SEED, SensitivitySpec
from .channel import (AcousticEnvironment, EmpiricalPerTable, RsCode, TxParams,
                      error_model_for_distance)
from .errors import ConfigError, SolverError, TableError
from .solver import GameConfig, GameState, _check_field_types

__all__ = ["ScenarioConfig", "main"]

DEFAULT_SWEEP = tuple(float(d) for d in range(20, 181, 10))

PER_MODES = ("uncoded", "coded", "empirical")
SOLVE_MODELS = PER_MODES + ("dummy",)

REPORT_COLUMNS = ["distance_m", "alpha", "gamma", "lifetime", "lifetime_ci",
                  "psucc", "psucc_ci", "sigma", "solve_model", "true_model",
                  "psucc_first_frame"]


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and evaluate games, with the default
    values of the reference scenario (26 kHz carrier, 16 kHz bandwidth,
    1 kbit/s, 64-byte packets, 180 dB re uPa sources, 78 m link, frames
    of 8 slots, 200-quanta batteries). The fields it shares with
    AcousticEnvironment, TxParams, RsCode (prefixed rs_) and GameConfig
    take those classes' defaults and build them by field name."""

    frequency_khz: float = AcousticEnvironment.frequency_khz
    bandwidth_hz: float = AcousticEnvironment.bandwidth_hz
    spreading_exp: float = AcousticEnvironment.spreading_exp
    shipping: float = AcousticEnvironment.shipping
    wind_speed: float = AcousticEnvironment.wind_speed
    power_t_db: float = TxParams.power_t_db
    power_j_db: float = TxParams.power_j_db
    packet_bits: int = TxParams.packet_bits
    bit_rate: float = TxParams.bit_rate
    d_tr: float = 78.0
    d_jr: float = None
    sweep: tuple = DEFAULT_SWEEP
    per_mode: str = "uncoded"
    rs_n: int = RsCode.n
    rs_k: int = RsCode.k
    rs_sym_bits: int = RsCode.sym_bits
    empirical_path: str = None
    empirical_per_clear: float = 0.04
    k: int = 4
    b_t0: int = 200
    b_j0: int = 200
    alpha: float = 0.4
    horizon: float = GameConfig.horizon
    discount: float = GameConfig.discount

    def __post_init__(self):
        _check_field_types(self)
        if self.per_mode not in PER_MODES:
            raise ConfigError(f"per_mode must be one of {PER_MODES}, got {self.per_mode!r}")
        # a NaN distance compares false both ways, so test finiteness too
        if not (math.isfinite(self.d_tr) and self.d_tr > 0):
            raise ConfigError("d_tr must be a positive finite distance")
        if not self.sweep or not all(_is_number(d) and math.isfinite(d) and d > 0
                                     for d in self.sweep):
            raise ConfigError("sweep must be a nonempty list of positive finite distances")
        if self.d_jr is not None and not (math.isfinite(self.d_jr) and self.d_jr > 0):
            raise ConfigError("d_jr must be a positive finite distance")

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("scenario config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(data)
        if merged.get("horizon") == "inf":
            merged["horizon"] = math.inf
        try:
            if "sweep" in merged:
                if not isinstance(merged["sweep"], (list, tuple)):
                    raise ConfigError("sweep must be a list of distances")
                merged["sweep"] = tuple(float(d) if _is_number(d) else d
                                        for d in merged["sweep"])
            return cls(**merged)
        except (TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad scenario config: {exc}") from None

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["sweep"] = list(self.sweep)
        if self.horizon == math.inf:
            out["horizon"] = "inf"
        return out

    def replace(self, **kwargs):
        merged = self.to_dict()
        merged.update(kwargs)
        return ScenarioConfig.from_dict(merged)

    def _build(self, cls, prefix="", **given):
        """A cls dataclass whose fields not given take the values of this
        scenario's fields of the same names after prefix."""
        return cls(**{f.name: getattr(self, prefix + f.name)
                      for f in fields(cls) if f.name not in given}, **given)

    def empirical_table(self):
        if self.empirical_path is None:
            raise ConfigError("empirical PER mode requires empirical_path")
        try:
            return EmpiricalPerTable.from_csv(self.empirical_path, self.empirical_per_clear)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def resolve_error_model(cfg, d_jr, mode=None):
    """(per_clear, per_blocked) at a jammer distance under a PER mode."""
    mode = cfg.per_mode if mode is None else mode
    table = cfg.empirical_table() if mode == "empirical" else None
    try:
        return error_model_for_distance(
            d_jr, cfg.d_tr, cfg._build(AcousticEnvironment), cfg._build(TxParams),
            mode=mode, code=cfg._build(RsCode, "rs_"), table=table)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except ArithmeticError as exc:
        raise ConfigError(f"the channel parameters overflow the PER model at "
                          f"d_jr = {d_jr:g} m: {exc!r}") from None


def game_config_for(cfg, d_jr, mode=None):
    """GameConfig for one jammer distance."""
    p_clear, p_blocked = resolve_error_model(cfg, d_jr, mode)
    return cfg._build(GameConfig, p_clear=p_clear, p_blocked=p_blocked)


def _games(cfg, distances, mode=None):
    """{GameConfig: indices into distances}, in first-seen order: distances
    whose PER pairs coincide play the same game, so it is solved once, one
    table in memory at a time."""
    games = {}
    for i, d_jr in enumerate(distances):
        games.setdefault(game_config_for(cfg, d_jr, mode), []).append(i)
    return games


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(out_path, columns, rows, cfg):
    lines = ["# config: " + json.dumps(cfg.to_dict(), sort_keys=True)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        # a failed write leaves any earlier file at out_path as it was
        with solver._replacing(out_path, "x") as fh:
            fh.write(text)


def _log(msg):
    print(msg, file=sys.stderr)


def _load_scenario(args):
    data = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigError(f"{args.config}: not UTF-8 JSON: {exc}") from None
    cfg = ScenarioConfig.from_dict(data)
    overrides = {name: value for name in ("per_mode", "d_jr", "alpha")
                 if (value := getattr(args, name, None)) is not None}
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


def _resolve_seed(args):
    if args.seed is None:
        _log(f"seed not given, using default {DEFAULT_SEED}")
        return DEFAULT_SEED
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    return args.seed


def _gamma_label(cfg):
    return "inf" if cfg.horizon == math.inf else int(cfg.horizon)


def _report_row(cfg, d_jr, result, solve_model, true_model):
    """REPORT_COLUMNS row from a closed-form AnalysisReport or a Monte
    Carlo SimulationResult; columns the result has no value for stay
    empty."""
    row = {"distance_m": d_jr, "alpha": cfg.alpha, "gamma": _gamma_label(cfg),
           "solve_model": solve_model, "true_model": true_model}
    if isinstance(result, analysis.SimulationResult):
        row.update(lifetime=result.mean_lifetime, lifetime_ci=result.lifetime_ci,
                   psucc=result.success_rate, psucc_ci=result.success_ci,
                   sigma=result.sigma)
    else:
        row.update(lifetime=result.lifetime, psucc=result.success,
                   psucc_first_frame=result.first_frame)
    return row


def _verify_table(table, cfg):
    """Check a loaded table against the scenario before using it."""
    meta = table.meta if isinstance(table.meta, dict) else {}
    if "d_jr" not in meta:
        raise TableError("table carries no jammer distance metadata; "
                         "re-export it with the solve command")
    d_jr = meta["d_jr"]
    # an integer past the float range fails this without converting
    if (isinstance(d_jr, bool) or not isinstance(d_jr, (int, float))
            or not 0 < d_jr < sys.float_info.max):
        raise TableError(f"table metadata d_jr must be a positive distance, got {d_jr!r}")
    mode = meta.get("per_mode", cfg.per_mode)
    if mode not in PER_MODES:
        raise TableError(f"table metadata per_mode must be one of {PER_MODES}, got {mode!r}")
    expected = game_config_for(cfg, d_jr, mode)
    if expected != table.config:
        diffs = []
        for f in fields(GameConfig):
            a = getattr(expected, f.name)
            b = getattr(table.config, f.name)
            if a != b:
                diffs.append(f"{f.name}: scenario {a!r} vs table {b!r}")
        raise TableError("table inconsistent with scenario config: " + "; ".join(diffs))
    return d_jr, mode


# ---------------------------------------------------------------------------
# subcommands


def _cmd_per_sweep(args):
    cfg = _load_scenario(args)
    rows = []
    for d in cfg.sweep:
        p_clear, p_blocked = resolve_error_model(cfg, d)
        rows.append({"distance_m": d, "per_clear": p_clear, "per_blocked": p_blocked})
    _write_csv(args.out, ["distance_m", "per_clear", "per_blocked"], rows, cfg)
    return 0


def _cmd_solve(args):
    cfg = _load_scenario(args)
    if args.sweep_all:
        if args.out_dir is None:
            raise ConfigError("--sweep requires --out-dir")
        # distances that {d:g} renders alike would write one file
        names = {}
        for d in cfg.sweep:
            other = names.setdefault(f"{d:g}", d)
            if other != d:
                raise ConfigError(f"sweep distances {other!r} and {d!r} "
                                  f"both write table_djr{d:g}m.json")
        os.makedirs(args.out_dir, exist_ok=True)
        outputs = [(d, os.path.join(args.out_dir, f"table_djr{d:g}m.json")) for d in cfg.sweep]
    else:
        if cfg.d_jr is None:
            raise ConfigError("no jammer distance: pass --d-jr or set d_jr in the config")
        if args.out is None:
            raise ConfigError("solve requires --out (or --sweep with --out-dir)")
        outputs = [(cfg.d_jr, args.out)]
    for game_cfg, indices in _games(cfg, [d for d, _ in outputs]).items():
        group = [outputs[i] for i in indices]
        t0 = time.perf_counter()
        table = solver.solve_full_game(game_cfg)
        elapsed = time.perf_counter() - t0
        label = ", ".join(f"{d:g}" for d, _ in group)
        _log(f"solved d_jr={label} m: {table.n_states} states in {elapsed:.1f}s, "
             f"initial value {table.value(game_cfg.initial_state):.6f}")
        for d, path in group:
            solver.export_table(table, path, meta={"d_jr": d, "per_mode": cfg.per_mode})
            _log(f"wrote {path}")
    return 0


def _score(args, cfg, paths, score):
    """Report rows of every result of score(table), table by table, each
    checked against the scenario first and dropped before the next
    loads; written sorted by distance (a stable sort)."""
    rows = []
    for path in paths:
        table = solver.load_table(path)
        d_jr, mode = _verify_table(table, cfg)
        rows += [_report_row(cfg, d_jr, result, mode, mode) for result in score(table)]
        del table  # scored: the next load holds no earlier table
    rows.sort(key=lambda row: row["distance_m"])
    _write_csv(args.out, REPORT_COLUMNS, rows, cfg)
    return 0


def _cmd_evaluate(args):
    return _score(args, _load_scenario(args), args.table,
                  lambda table: [analysis.analyze(table)])


def _cmd_sensitivity(args):
    if args.runs < 1:
        raise ConfigError(f"--runs must be at least 1, got {args.runs}")
    sigmas = tuple(args.sigma) if args.sigma else SensitivitySpec().sigmas
    for sigma in sigmas:
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ConfigError(f"--sigma must be a finite nonnegative number, got {sigma}")
    cfg = _load_scenario(args)
    seed = _resolve_seed(args)
    spec = SensitivitySpec(sigmas=sigmas, runs=args.runs)
    return _score(args, cfg, [args.table],
                  lambda table: analysis.sensitivity_sweep(table, spec, seed=seed))


def _cmd_mismatch(args):
    cfg = _load_scenario(args)
    solve_model = args.solve_model
    true_model = args.true_model
    distances = [cfg.d_jr] if cfg.d_jr is not None else list(cfg.sweep)
    # non-strategic jammer baseline: T best-responds under the true
    # channel, J blindly spends k + 1 quanta per frame
    model = true_model if solve_model == "dummy" else solve_model
    true_pairs = [resolve_error_model(cfg, d_jr, true_model) for d_jr in distances]
    rows = [None] * len(distances)
    # grouped by the solve side's PER pairs
    for game_cfg, indices in _games(cfg, distances, model).items():
        if solve_model == "dummy":
            table = solver.solve_vs_fixed_jammer(game_cfg)
        else:
            table = solver.solve_full_game(game_cfg)
        # the rows load_table checks: near-degenerate stage games leave
        # strategy rows that are not distributions (ROADMAP item 1)
        fault = solver._row_fault(table)
        if fault:
            label = ", ".join(f"{distances[i]:g}" for i in indices)
            raise SolverError(f"d_jr={label} m: the solved table's {fault} (ROADMAP item 1)")
        for i in indices:
            d_jr = distances[i]
            report = analysis.mismatch_evaluation(table, true_pairs[i])
            rows[i] = _report_row(cfg, d_jr, report, solve_model, true_model)
            _log(f"mismatch d_jr={d_jr:g} m: lifetime {report.lifetime:.2f}, "
                 f"success {report.success:.4f}")
    _write_csv(args.out, REPORT_COLUMNS, rows, cfg)
    return 0


def _cmd_inspect_table(args):
    table = solver.load_table(args.table)
    cfg = table.config
    print(f"format: {solver.TABLE_FORMAT} v{solver.TABLE_VERSION}")
    print(f"config: {json.dumps(cfg.to_dict(), sort_keys=True)}")
    if table.meta:
        print(f"meta: {json.dumps(table.meta, sort_keys=True)}")
    print(f"states: {table.n_states}")
    init = cfg.initial_state
    print(f"initial state ({init.b_t}, {init.b_j}): value {table.value(init)!r}")
    if args.state:
        try:
            b_t, b_j = (int(x) for x in args.state.split(","))
            state = GameState(b_t, b_j)
            st = table.strategy_t(state)
            sj = table.strategy_j(state)
        except ValueError as exc:
            raise ConfigError(f"bad --state: {exc}") from None
        print(f"state ({b_t}, {b_j}): value {table.value(state)!r}")
        print("  send:", {a: round(p, 6) for a, p in zip(st.support, st.probs)})
        print("  jam: ", {a: round(p, 6) for a, p in zip(sj.support, sj.probs)})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="uwjam",
        description="Equilibrium strategies for the underwater jamming game")
    sub = parser.add_subparsers(dest="command", required=True)

    overrides = {"per_mode": dict(choices=PER_MODES, help="override the PER mode"),
                 "alpha": dict(type=float, help="override the energy weight"),
                 "d_jr": dict(type=float, help="override the jammer distance (m)")}

    def common(p, *reads, seed=False, table=False, out=True):
        p.add_argument("--config", help="scenario config JSON")
        for name in reads:
            p.add_argument("--" + name.replace("_", "-"), **overrides[name])
        if out:
            p.add_argument("--out", help="output CSV path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, help="RNG seed")
            p.add_argument("--runs", type=int, default=1000,
                           help="Monte Carlo runs (default 1000)")
        if table:
            p.add_argument("--table", required=True, help="strategy table JSON")

    p = sub.add_parser("per-sweep", help="PER pairs over the distance sweep")
    common(p, "per_mode")
    p.set_defaults(func=_cmd_per_sweep)

    p = sub.add_parser("solve", help="solve one game to a strategy table")
    common(p, "per_mode", "alpha", "d_jr", out=False)
    p.add_argument("--out", help="output table path")
    p.add_argument("--sweep", dest="sweep_all", action="store_true",
                   help="solve every sweep distance")
    p.add_argument("--out-dir", help="directory for --sweep tables")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("evaluate", help="closed-form evaluation of tables")
    common(p, "per_mode", "alpha")
    p.add_argument("--table", action="append", required=True,
                   help="strategy table JSON (repeatable)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="Monte Carlo replay of a table")
    common(p, "per_mode", "alpha", seed=True, table=True)
    # the sensitivity sweep at sigma = 0 alone (a float: the column reads 0.0)
    p.set_defaults(func=_cmd_sensitivity, sigma=[0.0])

    p = sub.add_parser("sensitivity", help="PER-perturbation sweep")
    common(p, "per_mode", "alpha", seed=True, table=True)
    p.add_argument("--sigma", action="append", type=float,
                   help="perturbation std-dev (repeatable; default 0, 0.05, 0.1)")
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("mismatch", help="solve under one model, score under another")
    common(p, "alpha", "d_jr")
    p.add_argument("--solve-model", required=True, choices=SOLVE_MODELS)
    p.add_argument("--true-model", required=True, choices=PER_MODES)
    p.set_defaults(func=_cmd_mismatch)

    p = sub.add_parser("inspect-table", help="summarize a table file")
    p.add_argument("--table", required=True)
    p.add_argument("--state", help="battery pair 'B_T,B_J' to print")
    p.set_defaults(func=_cmd_inspect_table)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2
    except OSError as exc:
        _log(f"I/O error: {exc}")
        return 3
    except TableError as exc:
        _log(f"table error: {exc}")
        return 4
    except SolverError as exc:
        _log(f"solver error: {exc}")
        return 5


if __name__ == "__main__":
    sys.exit(main())
