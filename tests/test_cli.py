"""End-to-end command line runs, in process via main(argv)."""

import csv
import io
import json
import math
import os
import weakref

import pytest

import uwjam.solver
from uwjam.cli import (DEFAULT_SWEEP, REPORT_COLUMNS, ScenarioConfig, _write_csv, main,
                       resolve_error_model)
from uwjam.errors import ConfigError
from uwjam.solver import export_table, load_table


SMALL_SCENARIO = {
    "k": 2,
    "b_t0": 12,
    "b_j0": 8,
    "horizon": 3,
    "sweep": [50, 60],
}


def _read_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# config:")
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return lines[0], reader.fieldnames, list(reader)


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "scenario.json"
    path.write_text(json.dumps(SMALL_SCENARIO))
    return str(path)


@pytest.fixture(scope="module")
def tables_dir(tmp_path_factory, scenario):
    out = tmp_path_factory.mktemp("tables")
    rc = main(["solve", "--config", scenario, "--sweep", "--out-dir", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# per-sweep


def test_per_sweep_stdout(capsys):
    assert main(["per-sweep"]) == 0
    comment, header, rows = _read_csv(capsys.readouterr().out)
    assert header == ["distance_m", "per_clear", "per_blocked"]
    assert len(rows) == len(DEFAULT_SWEEP)
    for row in rows:
        pc, pb = float(row["per_clear"]), float(row["per_blocked"])
        assert 0.0 <= pc <= 1.0 and 0.0 <= pb <= 1.0
        assert pb >= pc


def test_per_sweep_to_file(tmp_path, scenario):
    out = tmp_path / "sweep.csv"
    assert main(["per-sweep", "--config", scenario, "--out", str(out)]) == 0
    comment, header, rows = _read_csv(out.read_text())
    assert [float(r["distance_m"]) for r in rows] == [50.0, 60.0]
    # the config comment reproduces the resolved scenario
    cfg = ScenarioConfig.from_dict(json.loads(comment[len("# config: "):]))
    assert cfg.k == 2 and cfg.sweep == (50, 60)


def test_failed_csv_write_keeps_previous_file(tmp_path, scenario):
    out = tmp_path / "sweep.csv"
    assert main(["per-sweep", "--config", scenario, "--out", str(out)]) == 0
    before = out.read_bytes()
    # a row the file's encoding cannot write: the write itself raises
    rows = [{"distance_m": 50.0}, {"distance_m": "\ud800"}]
    with pytest.raises(UnicodeEncodeError):
        _write_csv(str(out), ["distance_m"], rows, ScenarioConfig.from_dict(SMALL_SCENARIO))
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["sweep.csv"]


def test_per_sweep_empirical(tmp_path):
    curve = tmp_path / "curve.csv"
    curve.write_text(
        "# measured lake run\n"
        "distance_m,per_blocked\n"
        "40,0.9\n"
        "80,0.5\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sweep": [40, 60, 80],
        "per_mode": "empirical",
        "empirical_path": str(curve),
        "empirical_per_clear": 0.02,
    }))
    out = tmp_path / "out.csv"
    assert main(["per-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, _, rows = _read_csv(out.read_text())
    assert [float(r["per_clear"]) for r in rows] == [0.02] * 3
    assert [float(r["per_blocked"]) for r in rows] == [0.9, 0.7, 0.5]


def test_per_sweep_per_mode_override(tmp_path, scenario):
    out = tmp_path / "coded.csv"
    assert main(["per-sweep", "--config", scenario, "--per-mode", "coded",
                 "--out", str(out)]) == 0
    comment, _, rows = _read_csv(out.read_text())
    cfg = ScenarioConfig.from_dict(SMALL_SCENARIO)
    coded = [resolve_error_model(cfg, d, "coded") for d in cfg.sweep]
    assert coded != [resolve_error_model(cfg, d) for d in cfg.sweep]
    assert [(float(r["per_clear"]), float(r["per_blocked"])) for r in rows] == coded
    assert json.loads(comment[len("# config: "):])["per_mode"] == "coded"


@pytest.mark.parametrize("argv", [
    ["per-sweep", "--d-jr", "60"],
    ["per-sweep", "--alpha", "0.2"],
    ["evaluate", "--table", "table.json", "--d-jr", "60"],
    ["simulate", "--table", "table.json", "--d-jr", "60"],
    ["sensitivity", "--table", "table.json", "--d-jr", "60"],
    ["mismatch", "--solve-model", "coded", "--true-model", "uncoded", "--per-mode", "coded"],
])
def test_overrides_a_subcommand_does_not_read_exit_2(argv, capsys):
    # rows come from the sweep, each table's meta or the two model flags:
    # an override they would ignore is refused, as argparse refuses flags
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve and inspect


def test_solve_single(tmp_path, scenario):
    out = tmp_path / "table.json"
    rc = main(["solve", "--config", scenario, "--d-jr", "60", "--out", str(out)])
    assert rc == 0
    table = load_table(out)
    assert table.meta == {"d_jr": 60.0, "per_mode": "uncoded"}
    assert table.config.k == 2 and table.config.b_t0 == 12

    # an infinite horizon with discounting solves and evaluates; gamma
    # reads inf
    endless = tmp_path / "endless.json"
    endless.write_text(json.dumps({**SMALL_SCENARIO, "horizon": "inf", "discount": 0.9}))
    assert main(["solve", "--config", str(endless), "--d-jr", "60", "--out", str(out)]) == 0
    assert math.isinf(load_table(out).config.horizon)
    report = tmp_path / "report.csv"
    assert main(["evaluate", "--config", str(endless), "--table", str(out),
                 "--out", str(report)]) == 0
    comment, _, rows = _read_csv(report.read_text())
    assert json.loads(comment[len("# config: "):])["horizon"] == "inf"
    assert [row["gamma"] for row in rows] == ["inf"]


def test_solve_needs_distance_and_out(scenario):
    assert main(["solve", "--config", scenario, "--d-jr", "60"]) == 2
    assert main(["solve", "--config", scenario, "--out", "x.json"]) == 2
    assert main(["solve", "--config", scenario, "--sweep"]) == 2


def test_solve_sweep_writes_one_table_per_distance(tables_dir):
    names = sorted(p.name for p in tables_dir.iterdir())
    assert names == ["table_djr50m.json", "table_djr60m.json"]
    for name in names:
        load_table(tables_dir / name)


def test_solve_sweep_refuses_distances_that_share_a_file(tmp_path, monkeypatch, capsys):
    # 60 and 60.0000001 both render as table_djr60m.json; nothing is
    # solved or written
    monkeypatch.setattr(uwjam.solver, "solve_full_game", None)
    path = tmp_path / "collide.json"
    path.write_text(json.dumps({**SMALL_SCENARIO, "sweep": [50, 60, 70, 60.0000001]}))
    out = tmp_path / "sweep"
    assert main(["solve", "--config", str(path), "--sweep", "--out-dir", str(out)]) == 2
    assert "60.0 and 60.0000001" in capsys.readouterr().err
    assert not out.exists()


def test_solve_sweep_allows_exact_repeats(tmp_path):
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps({**SMALL_SCENARIO, "sweep": [60, 50, 60.0]}))
    out = tmp_path / "sweep"
    assert main(["solve", "--config", str(path), "--sweep", "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["table_djr50m.json", "table_djr60m.json"]


def test_solve_sweep_solves_each_distinct_game_once(tmp_path, monkeypatch):
    # the coded model saturates both PERs at several far distances, so
    # the 17 default sweep distances give 14 distinct games
    path = tmp_path / "coded.json"
    path.write_text(json.dumps({**SMALL_SCENARIO, "sweep": list(DEFAULT_SWEEP),
                                "per_mode": "coded"}))
    calls = []
    real = uwjam.solver.solve_full_game
    monkeypatch.setattr(uwjam.solver, "solve_full_game",
                        lambda cfg: calls.append(cfg) or real(cfg))
    out = tmp_path / "sweep"
    assert main(["solve", "--config", str(path), "--sweep", "--out-dir", str(out)]) == 0
    assert len(calls) == len(set(calls)) == 14
    assert len(list(out.iterdir())) == len(DEFAULT_SWEEP)
    for d in DEFAULT_SWEEP:
        single = tmp_path / "single.json"
        assert main(["solve", "--config", str(path), "--d-jr", f"{d:g}",
                     "--out", str(single)]) == 0
        assert (out / f"table_djr{d:g}m.json").read_bytes() == single.read_bytes(), d


def test_inspect_table(tables_dir, capsys):
    path = str(tables_dir / "table_djr60m.json")
    assert main(["inspect-table", "--table", path]) == 0
    out = capsys.readouterr().out
    assert "uwjam-strategy-table" in out
    assert "states: " in out
    assert "initial state (12, 8)" in out

    assert main(["inspect-table", "--table", path, "--state", "12,8"]) == 0
    out = capsys.readouterr().out
    assert "state (12, 8)" in out and "send:" in out and "jam: " in out

    assert main(["inspect-table", "--table", path, "--state", "banana"]) == 2


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_sorts_by_distance(tmp_path, scenario, tables_dir):
    out = tmp_path / "report.csv"
    rc = main(["evaluate", "--config", scenario,
               "--table", str(tables_dir / "table_djr60m.json"),
               "--table", str(tables_dir / "table_djr50m.json"),
               "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out.read_text())
    assert header == REPORT_COLUMNS
    assert [float(r["distance_m"]) for r in rows] == [50.0, 60.0]
    for row in rows:
        assert 0.0 <= float(row["psucc"]) <= 1.0
        assert 0.0 <= float(row["psucc_first_frame"]) <= 1.0
        assert float(row["lifetime"]) > 0.0
        # closed-form rows carry no Monte Carlo fields
        assert row["sigma"] == "" and row["lifetime_ci"] == ""


def test_evaluate_holds_one_table_at_a_time(tmp_path, scenario, tables_dir, monkeypatch):
    # each table is scored as it loads: no earlier table is alive when
    # the next load starts, and the rows still come out by distance
    tables, alive = [], []
    load = uwjam.solver.load_table

    def spy(path):
        alive.append(sum(table() is not None for table in tables))
        table = load(path)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(uwjam.solver, "load_table", spy)
    out = tmp_path / "report.csv"
    names = ["table_djr60m.json", "table_djr50m.json", "table_djr60m.json"]
    argv = ["evaluate", "--config", scenario, "--out", str(out)]
    for name in names:
        argv += ["--table", str(tables_dir / name)]
    assert main(argv) == 0
    assert alive == [0, 0, 0]
    _, _, rows = _read_csv(out.read_text())
    assert [float(r["distance_m"]) for r in rows] == [50.0, 60.0, 60.0]


def test_evaluate_rejects_mismatched_scenario(tmp_path, scenario, tables_dir):
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(SMALL_SCENARIO, alpha=0.8)))
    rc = main(["evaluate", "--config", str(other),
               "--table", str(tables_dir / "table_djr50m.json")])
    assert rc == 4


# ---------------------------------------------------------------------------
# simulate and sensitivity


def test_simulate(tmp_path, scenario, tables_dir, capsys):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--config", scenario,
               "--table", str(tables_dir / "table_djr50m.json"),
               "--runs", "50", "--seed", "7", "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out.read_text())
    assert header == REPORT_COLUMNS
    assert len(rows) == 1
    row = rows[0]
    assert row["psucc_first_frame"] == ""  # simulation has no per-frame split
    assert float(row["lifetime_ci"]) >= 0.0
    assert row["sigma"] == "0.0"


def test_simulate_default_seed_warns(scenario, tables_dir, capsys):
    rc = main(["simulate", "--config", scenario,
               "--table", str(tables_dir / "table_djr50m.json"),
               "--runs", "20"])
    assert rc == 0
    assert "12345" in capsys.readouterr().err


def test_sensitivity(tmp_path, scenario, tables_dir):
    out = tmp_path / "sens.csv"
    rc = main(["sensitivity", "--config", scenario,
               "--table", str(tables_dir / "table_djr50m.json"),
               "--sigma", "0.0", "--sigma", "0.1",
               "--runs", "30", "--seed", "11", "--out", str(out)])
    assert rc == 0
    _, _, rows = _read_csv(out.read_text())
    assert [r["sigma"] for r in rows] == ["0.0", "0.1"]
    # action draws are independent of the jitter, so lifetimes agree
    assert rows[0]["lifetime"] == rows[1]["lifetime"]


def test_simulate_is_the_sensitivity_sweep_at_sigma_0(tmp_path, scenario, tables_dir):
    # 1,500 runs span two Monte Carlo chunks
    common = ["--config", scenario, "--table", str(tables_dir / "table_djr50m.json"),
              "--runs", "1500", "--seed", "7"]
    simulated, swept = tmp_path / "sim.csv", tmp_path / "sens.csv"
    assert main(["simulate", *common, "--out", str(simulated)]) == 0
    assert main(["sensitivity", *common, "--sigma", "0", "--out", str(swept)]) == 0
    assert simulated.read_bytes() == swept.read_bytes()


# ---------------------------------------------------------------------------
# mismatch


def test_mismatch_single_distance(tmp_path, scenario):
    out = tmp_path / "mm.csv"
    rc = main(["mismatch", "--config", scenario, "--d-jr", "50",
               "--solve-model", "uncoded", "--true-model", "uncoded",
               "--out", str(out)])
    assert rc == 0
    _, _, rows = _read_csv(out.read_text())
    assert len(rows) == 1
    assert rows[0]["solve_model"] == "uncoded"
    assert rows[0]["true_model"] == "uncoded"


def test_mismatch_dummy_jammer_baseline(tmp_path, scenario):
    out = tmp_path / "mm.csv"
    rc = main(["mismatch", "--config", scenario, "--d-jr", "50",
               "--solve-model", "dummy", "--true-model", "uncoded",
               "--out", str(out)])
    assert rc == 0
    _, _, rows = _read_csv(out.read_text())
    assert rows[0]["solve_model"] == "dummy"
    assert 0.0 <= float(rows[0]["psucc"]) <= 1.0


def test_mismatch_sweep_solves_each_distinct_game_once(tmp_path, monkeypatch):
    # 17 coded distances, 14 distinct games (see the solve --sweep test);
    # every distance still gets its own row, scored under its true pair,
    # in sweep order, which here splits the saturated far distances
    sweep = DEFAULT_SWEEP[::2] + DEFAULT_SWEEP[1::2]
    path = tmp_path / "coded.json"
    path.write_text(json.dumps({**SMALL_SCENARIO, "sweep": sweep}))
    args = ["mismatch", "--config", str(path), "--solve-model", "coded",
            "--true-model", "uncoded"]
    calls = []
    real = uwjam.solver.solve_full_game
    monkeypatch.setattr(uwjam.solver, "solve_full_game",
                        lambda cfg: calls.append(cfg) or real(cfg))
    out = tmp_path / "sweep.csv"
    assert main([*args, "--out", str(out)]) == 0
    assert len(calls) == len(set(calls)) == 14
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + len(sweep)
    # the per-distance runs differ only in the d_jr of the config line
    for d, line in zip(sweep, lines[2:]):
        single = tmp_path / "single.csv"
        assert main([*args, "--d-jr", f"{d:g}", "--out", str(single)]) == 0
        assert single.read_text().splitlines()[1:] == [lines[1], line], d


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("d_jr", ["29", "30"])
def test_mismatch_exits_0_in_the_near_degenerate_band(tmp_path, d_jr):
    # the float simplex leaves strategy rows that miss 1, which the row
    # check refuses as a solver error, exit code 5
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"b_t0": 20, "b_j0": 20}))
    assert main(["mismatch", "--config", str(path), "--d-jr", d_jr,
                 "--solve-model", "uncoded", "--true-model", "uncoded",
                 "--out", str(tmp_path / "mm.csv")]) == 0


@pytest.mark.parametrize("d_jr", ["29", "30"])
def test_mismatch_in_the_near_degenerate_band_maps_to_an_exit_code(tmp_path, d_jr, capsys):
    # the solved table's rows go through load_table's row check: rows that
    # are not distributions are a solver error, not a ValueError traceback
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"b_t0": 20, "b_j0": 20}))
    rc = main(["mismatch", "--config", str(path), "--d-jr", d_jr,
               "--solve-model", "uncoded", "--true-model", "uncoded",
               "--out", str(tmp_path / "mm.csv")])
    assert rc in (0, 5)
    if rc == 5:
        assert f"d_jr={d_jr} m" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_solve_exits_0_at_alpha_0_2_and_33_m(tmp_path):
    # on the default scenario one stage game cycles under the 1e-12 pivot
    # tolerance until the simplex gives up: a solver error, exit code 5
    assert main(["solve", "--alpha", "0.2", "--d-jr", "33",
                 "--out", str(tmp_path / "table.json")]) == 0


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_exit_codes(tmp_path, scenario, tables_dir):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert main(["per-sweep", "--config", str(bad_json)]) == 2
    # a scenario file that is not UTF-8
    bad_json.write_bytes(b"\xff\xfe{}")
    assert main(["per-sweep", "--config", str(bad_json)]) == 2

    # a PER mode outside the known ones, and channel parameters the PER
    # model rejects
    for doc in ({"per_mode": "psychic"}, {"frequency_khz": -1}, {"packet_bits": 0}):
        bad_json.write_text(json.dumps(doc))
        assert main(["per-sweep", "--config", str(bad_json)]) == 2, doc

    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"granularity": 5}))
    assert main(["per-sweep", "--config", str(unknown_key)]) == 2

    no_path = tmp_path / "emp.json"
    no_path.write_text(json.dumps({"per_mode": "empirical"}))
    assert main(["per-sweep", "--config", str(no_path)]) == 2

    # a measured PER curve with a NaN distance or a row of one field
    for rows in ("20,0.9\nnan,0.5\n60,0.1\n", "20,0.9\n60\n"):
        curve = tmp_path / "curve.csv"
        curve.write_text("distance_m,per_blocked\n" + rows)
        empirical = tmp_path / "emp.json"
        empirical.write_text(json.dumps({"per_mode": "empirical", "empirical_path": str(curve)}))
        assert main(["per-sweep", "--config", str(empirical)]) == 2, rows
        assert main(["solve", "--config", str(empirical), "--d-jr", "20",
                     "--out", str(tmp_path / "emp_table.json")]) == 2, rows
    assert not (tmp_path / "emp_table.json").exists()

    # a scenario that is not an object, or a sweep that is not a list
    for doc in (["k"], "k", 5, {"sweep": "abc"}, {"sweep": 5}, {"sweep": "60"},
                {"sweep": {"60": 1}}, {"sweep": [50, "far"]}):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(doc))
        assert main(["per-sweep", "--config", str(malformed)]) == 2, doc

    assert main(["per-sweep", "--config", str(tmp_path / "missing.json")]) == 3
    assert main(["inspect-table", "--table", str(tmp_path / "missing.json")]) == 3

    fake = tmp_path / "fake.json"
    fake.write_text(json.dumps({"format": "nope"}))
    assert main(["inspect-table", "--table", str(fake)]) == 4
    # a table file that is not UTF-8, or whose config is not an object or
    # not a valid game config
    fake.write_bytes(b"\xff\xfe{}")
    assert main(["inspect-table", "--table", str(fake)]) == 4
    doc = json.loads((tables_dir / "table_djr50m.json").read_text())
    for config in ([1], {**doc["config"], "k": "4"}):
        fake.write_text(json.dumps({**doc, "config": config}))
        assert main(["inspect-table", "--table", str(fake)]) == 4, config
    # a table without its checksum
    fake.write_text(json.dumps({name: value for name, value in doc.items() if name != "checksum"}))
    assert main(["inspect-table", "--table", str(fake)]) == 4

    # meta sits outside the checksum; a bad one is a table fault
    table = load_table(tables_dir / "table_djr50m.json")
    for meta in ({"d_jr": "sixty"}, {"d_jr": -5}, {"d_jr": True}, {"d_jr": float("nan")},
                 {"d_jr": 50.0, "per_mode": "psychic"}, ["d_jr"]):
        bad_meta = tmp_path / "bad_meta.json"
        export_table(table, bad_meta, meta=meta)
        assert main(["evaluate", "--config", scenario, "--table", str(bad_meta)]) == 4, meta

    # a Monte Carlo run count below 1, a negative or non-finite sigma or
    # a negative seed is a configuration error, not a traceback
    good = str(tables_dir / "table_djr50m.json")
    for argv in (["simulate", "--runs", "0"], ["simulate", "--runs", "-3"],
                 ["sensitivity", "--runs", "0"], ["sensitivity", "--sigma", "-1"],
                 ["sensitivity", "--sigma", "0", "--sigma", "-0.1"],
                 ["sensitivity", "--sigma", "nan"], ["sensitivity", "--sigma", "inf"]):
        assert main([*argv, "--config", scenario, "--table", good, "--seed", "1"]) == 2, argv
    for command in ("simulate", "sensitivity"):
        argv = [command, "--runs", "5", "--config", scenario, "--table", good, "--seed", "-1"]
        assert main(argv) == 2, argv

    # a non-finite distance (NaN used to hang the PER model) or a game
    # size that is not an integer is a configuration error
    out = tmp_path / "table.json"
    for d_jr in ("nan", "inf", "-inf"):
        argv = ["solve", "--config", scenario, f"--d-jr={d_jr}", "--out", str(out)]
        assert main(argv) == 2, d_jr
    # as is a game parameter that is NaN where an integer is due, a bool
    # or not a number at all
    for edit in ({"d_tr": float("nan")}, {"d_tr": float("inf")}, {"sweep": [50, float("nan")]},
                 {"b_t0": 20.5}, {"k": 2.0}, {"b_j0": True}, {"k": "2"},
                 {"horizon": float("nan")}, {"horizon": "30"}, {"horizon": True},
                 {"horizon": float("-inf"), "discount": 0.9},
                 {"alpha": "0.4"}, {"alpha": False}, {"p_clear": "0"}, {"discount": "1"},
                 {"discount": True}):
        bad_scenario = tmp_path / "bad_scenario.json"
        bad_scenario.write_text(json.dumps({**SMALL_SCENARIO, **edit}))
        assert main(["solve", "--config", str(bad_scenario), "--d-jr", "60",
                     "--out", str(out)]) == 2, edit
    assert not out.exists()


def test_solver_failure_exit_code(tmp_path, scenario, monkeypatch):
    monkeypatch.setattr("uwjam.solver._SIMPLEX_MAX_ITER", 1)
    out = tmp_path / "table.json"
    assert main(["solve", "--config", scenario, "--d-jr", "60", "--out", str(out)]) == 5
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    {"d_tr": True}, {"d_jr": False}, {"sweep": [True, "60"]}, {"sweep": ["60"]},
    {"power_t_db": True}, {"frequency_khz": "26"}, {"bit_rate": None},
    {"packet_bits": 512.5}, {"packet_bits": True}, {"rs_n": 127.0}, {"rs_k": "78"},
    {"rs_sym_bits": False}, {"sweep": [10 ** 400]},
    {"per_mode": "empirical", "empirical_path": 0}, {"per_mode": ["uncoded"]},
])
def test_scenario_fields_must_have_their_types(tmp_path, edit):
    # a bool or a numeric string used to pass as a number, and a number
    # as an empirical path (read as a file descriptor)
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(edit)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(edit))
    assert main(["per-sweep", "--config", str(path)]) == 2


def test_scenario_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"granularity": 5})
