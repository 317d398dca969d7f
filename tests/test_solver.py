"""Matrix-game LP, battery-state dynamic program, table persistence."""

import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uwjam.solver
from uwjam import analysis
from uwjam.cli import ScenarioConfig, game_config_for
from uwjam.errors import ConfigError, SolverError, TableError
from uwjam.solver import (
    GameConfig,
    GameState,
    MixedStrategy,
    action_sets,
    export_table,
    is_terminal,
    load_table,
    solve_full_game,
    solve_matrix_game,
    solve_vs_fixed_jammer,
    _levels,
    _minimax_batch,
    _next_values,
)
from uwjam.subgame import SubgameParams, payoff_matrix, subgame_payoff

import oracles
from oracles import build_payoff_matrix, deployed_matrix


# ---------------------------------------------------------------------------
# matrix-game solver


def test_matching_pennies():
    value, x, y = solve_matrix_game(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert value == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(y, [0.5, 0.5], atol=1e-9)


def test_saddle_point_game():
    # column 0 dominates for the minimizer; (1, 0) is a saddle at 2
    mat = np.array([[3.0, 6.0], [2.0, 4.0], [1.0, 5.0]])
    value, x, y = solve_matrix_game(mat)
    assert value == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(x, [1.0, 0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-9)


def test_single_row_and_column():
    value, x, y = solve_matrix_game(np.array([[4.0, -2.0, 7.0]]))
    assert value == pytest.approx(-2.0, abs=1e-9)
    np.testing.assert_allclose(y, [0.0, 1.0, 0.0], atol=1e-9)
    value, x, y = solve_matrix_game(np.array([[1.0], [9.0], [3.0]]))
    assert value == pytest.approx(9.0, abs=1e-9)
    np.testing.assert_allclose(x, [0.0, 1.0, 0.0], atol=1e-9)


def test_constant_matrices():
    for c in (0.0, 1.0, -5.0):
        value, x, y = solve_matrix_game(np.full((3, 4), c))
        assert value == pytest.approx(c, abs=1e-9)
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        assert y.sum() == pytest.approx(1.0, abs=1e-12)


def test_random_games_against_lp_reference():
    rng = np.random.default_rng(987)
    for trial in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        if trial % 2:
            mat = rng.normal(size=(m, n))
        else:
            # low-entropy payoffs provoke degenerate ties
            mat = rng.integers(0, 2, size=(m, n)).astype(float)
        value, x, y = solve_matrix_game(mat)
        ref_value, _, _ = oracles.solve_game_linprog(mat)
        assert value == pytest.approx(ref_value, abs=1e-7), mat
        assert x.shape == (m,) and y.shape == (n,)
        assert (x >= -1e-12).all() and (y >= -1e-12).all()
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        assert y.sum() == pytest.approx(1.0, abs=1e-9)
        row_gap, col_gap = oracles.best_response_gaps(mat, x, y, value)
        assert row_gap <= 1e-9 and col_gap <= 1e-9, mat


def test_solver_deterministic():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(5, 6))
    a = solve_matrix_game(mat)
    b = solve_matrix_game(mat.copy())
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[2], b[2])


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_matrix_game(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        solve_matrix_game(np.zeros(4))
    # a non-finite entry used to come back as a NaN value or strategy;
    # +inf columns stay a convention of the solver's own stage games
    for bad in ([[1, np.nan], [0, 1]], [[-np.inf, 1], [0, 2]], [[np.inf, 1], [np.inf, 2]]):
        with pytest.raises(ValueError, match="finite"):
            solve_matrix_game(bad)


# ---------------------------------------------------------------------------
# states, configs, strategies


def test_batched_solves_match_single_solves_bit_for_bit():
    rng = np.random.default_rng(11)
    # saturated PERs and energy weights at their ends give degenerate,
    # tie-ridden matrices
    mats = [np.array(payoff_matrix(SubgameParams(k=2, alpha=alpha, p_clear=pc,
                                                 p_blocked=pb)))
            for alpha in (0.0, 0.5, 1.0)
            for pc, pb in ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.7))]
    mats += [m + 0.9 * rng.integers(-2, 3, size=m.shape) for m in mats[:6]]
    mats += [rng.normal(size=(3, 4)) for _ in range(12)]
    mats += [np.full((3, 4), -1.5), mats[1], mats[4], mats[-1]]   # duplicates
    batch = np.stack(mats)
    alone = [_minimax_batch(m[None]) for m in mats]
    for order in (np.arange(len(mats)), np.arange(len(mats))[::-1]):
        together = _minimax_batch(batch[order])
        for pos, b in enumerate(order):
            for got, want in zip(together, alone[b]):
                assert got[pos].tobytes() == want[0].tobytes(), b


def _padding_cases(rng):
    """Games of 1-5 rows and 1-6 columns: random, 0/1, with repeated
    rows and columns, single columns, and saturated-PER frame payoffs
    cut to their first jam counts as the solver's stage games are."""
    def shape():
        return int(rng.integers(1, 6)), int(rng.integers(1, 7))
    games = [rng.normal(size=shape()) for _ in range(40)]
    games += [rng.integers(0, 2, size=shape()).astype(float) for _ in range(40)]
    for _ in range(20):
        g = rng.integers(-1, 2, size=shape()).astype(float)
        g = g[rng.integers(0, len(g), size=len(g) + 1)]         # repeated rows
        games.append(g[:, rng.integers(0, g.shape[1], size=g.shape[1] + 1)])
    games += [rng.normal(size=(m, 1)) for m in range(1, 6)]
    games += [np.full((3, 1), 2.0), np.zeros((4, 2))]
    for k in (1, 2, 3):
        for alpha in (0.0, 0.5, 1.0):
            for pc, pb in ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
                full = payoff_matrix(SubgameParams(k=k, alpha=alpha, p_clear=pc, p_blocked=pb))
                games += [full[:, :n] for n in range(1, 2 * k + 1)]
    return games


@pytest.mark.parametrize("trailing", [True, False])
def test_absent_columns_change_no_pivot(trailing):
    # an all-+inf column is an action the minimizer lacks: a game padded
    # with such columns, batched with games of other widths, gives the
    # bits of its own solve, and +0.0 on the padded columns
    rng = np.random.default_rng(31 + trailing)
    width = 8
    by_rows = {}
    for game in _padding_cases(rng):
        m, n = game.shape
        real = np.arange(n) if trailing else np.sort(rng.choice(width, n, replace=False))
        padded = np.full((m, width), np.inf)
        padded[:, real] = game
        by_rows.setdefault(m, []).append((game, padded, real))
    for cases in by_rows.values():
        values, rows, cols = _minimax_batch(np.stack([p for _, p, _ in cases]))
        for b, (game, _, real) in enumerate(cases):
            want_value, want_rows, want_cols = _minimax_batch(game[None])
            assert values[b].tobytes() == want_value[0].tobytes(), game
            assert rows[b].tobytes() == want_rows[0].tobytes(), game
            assert cols[b, real].tobytes() == want_cols[0].tobytes(), game
            absent = np.delete(cols[b], real)
            assert absent.tobytes() == np.zeros_like(absent).tobytes(), game


def test_simplex_stall_raises_solver_error(monkeypatch):
    monkeypatch.setattr(uwjam.solver, "_SIMPLEX_MAX_ITER", 1)
    with pytest.raises(SolverError, match="stalled"):
        solve_matrix_game(np.array([[3.0, 0.0, 1.0], [0.0, 3.0, 1.0]]))
    assert issubclass(SolverError, RuntimeError)


# one 5 x 8 stage game of the default scenario's full-scale solve at
# alpha = 0.2 and 33 m, captured where the simplex gave up on it: its rows
# agree to about 1e-15 in their first columns
STALLING_GAME = [
    [-0.3333333333333318, -0.6761902365002825, -0.9047615851749246, -1.0419044742763959,
     -1.1104759987227102, -1.1333332534343865, -1.1333333333304703, -1.133333333329962],
    [-0.3333333333333319, -0.3333333333333319, -0.5619044423179493, -0.8361899009340807,
     -1.0419041866480983, -1.13333301374479, -1.1333333333306796, -1.133333333329962],
    [-0.3333333333333317, -0.3333333333333317, -0.3333333333333318, -0.5619042825247113,
     -0.9047609460014698, -1.133332534365466, -1.133333333330608, -1.1333333333312325],
    [-0.3333333333333318, -0.3333333333333318, -0.3333333333333318, -0.33333333333333204,
     -0.6761895174307118, -1.1333317353992762, -1.1333333333299804, -1.133333333333332],
    [-0.3333333333333319, -0.3333333333333319, -0.3333333333333319, -0.33333333333333204,
     -0.3333333333333319, -1.133330536951667, -1.133333333327467, -1.133333333333332],
]


@pytest.mark.xfail(strict=True, raises=SolverError, reason="ROADMAP item 1")
def test_near_degenerate_stage_game_is_certified():
    # solved alone, this game cycles under the 1e-12 pivot tolerance until
    # the simplex gives up after _SIMPLEX_MAX_ITER pivots
    values, rows, cols = _minimax_batch(np.array(STALLING_GAME)[None])
    row_gap, col_gap = oracles.best_response_gaps(STALLING_GAME, rows[0], cols[0], values[0])
    assert row_gap <= 1e-9 and col_gap <= 1e-9
    assert abs(rows[0].sum() - 1.0) <= 1e-12 and abs(cols[0].sum() - 1.0) <= 1e-12


def test_largest_reduced_cost_enters(monkeypatch):
    # the entering column is the one with the largest reduced cost: on
    # this batch no chunk needs more than 12 pivot rounds, while the
    # lowest-index improving column (Bland's rule) needs 16
    games = np.random.default_rng(0).random((2000, 5, 8))
    monkeypatch.setattr(uwjam.solver, "_SIMPLEX_MAX_ITER", 12)
    values, rows, cols = _minimax_batch(games)
    for b in range(0, len(games), 97):
        row_gap, col_gap = oracles.best_response_gaps(games[b], rows[b], cols[b], values[b])
        assert row_gap <= 1e-12 and col_gap <= 1e-12


def test_game_state_basics():
    s = GameState(8, 6)
    assert (s.b_t, s.b_j) == (8, 6)
    assert s == GameState(8, 6)
    assert GameState(7, 0) < GameState(8, 0) < GameState(8, 1)
    with pytest.raises(ValueError):
        GameState(-1, 4)
    assert is_terminal(GameState(3, 9), 4)
    assert not is_terminal(GameState(4, 0), 4)


def test_game_config_validation():
    good = dict(k=4, b_t0=200, b_j0=200, alpha=0.4, p_clear=0.04, p_blocked=0.8)
    GameConfig(**good)
    for bad in (
        dict(good, k=0),
        dict(good, b_t0=-1),
        dict(good, alpha=1.5),
        dict(good, p_blocked=-0.2),
        dict(good, discount=1.25),
        dict(good, horizon=0),
        dict(good, horizon=math.inf),  # needs discount < 1
        dict(good, k=2.0),
        dict(good, b_t0=20.5),
        dict(good, b_j0=True),
        dict(good, k="4"),
        dict(good, horizon=math.nan),
        dict(good, horizon=-math.inf, discount=0.9),
        dict(good, horizon=True),
        dict(good, alpha="0.4"),
        dict(good, discount=False),
    ):
        with pytest.raises(ConfigError):
            GameConfig(**bad)
    GameConfig(**good, horizon=math.inf, discount=0.9)
    GameConfig(**dict(good, b_t0=np.int64(200), alpha=np.float64(0.4), horizon=np.int64(8)))


def test_effective_horizon_battery_cap():
    cfg = GameConfig(k=4, b_t0=200, b_j0=200, alpha=0.4,
                     p_clear=0.04, p_blocked=0.8, horizon=100)
    assert cfg.effective_horizon() == 50
    cfg = GameConfig(k=4, b_t0=200, b_j0=200, alpha=0.4,
                     p_clear=0.04, p_blocked=0.8, horizon=math.inf,
                     discount=0.95)
    assert cfg.effective_horizon() == 50


def test_config_dict_round_trip():
    cfg = GameConfig(k=3, b_t0=30, b_j0=24, alpha=0.2,
                     p_clear=0.01, p_blocked=0.93, horizon=7, discount=0.99)
    assert GameConfig.from_dict(cfg.to_dict()) == cfg
    inf_cfg = GameConfig(k=2, b_t0=10, b_j0=10, alpha=0.5,
                         p_clear=0.1, p_blocked=0.6,
                         horizon=math.inf, discount=0.9)
    d = inf_cfg.to_dict()
    assert d["horizon"] == "inf"
    assert json.loads(json.dumps(d)) == d
    assert GameConfig.from_dict(d) == inf_cfg
    with pytest.raises(ConfigError):
        GameConfig.from_dict(dict(d, surprise=1))
    # every field in declaration order, the horizon an int or "inf", and a
    # missing horizon takes the field's default
    cfg = GameConfig(k=3, b_t0=30, b_j0=24, alpha=0.2, p_clear=0.01, p_blocked=0.93)
    d = cfg.to_dict()
    assert list(d) == [f.name for f in dataclasses.fields(GameConfig)]
    assert d == dataclasses.asdict(cfg) and type(d["horizon"]) is int
    del d["horizon"]
    assert GameConfig.from_dict(d) == cfg


def test_mixed_strategy():
    ms = MixedStrategy((4, 6), (0.25, 0.75))
    assert ms.prob_of(6) == 0.75
    assert ms.prob_of(5) == 0.0
    for support, probs in (
        ((1, 2), (0.5,)),
        ((1, 2), (-0.1, 1.1)),
        ((1, 2), (0.4, 0.4)),
        ((2, 2), (0.5, 0.5)),           # a repeated action
        ((2,), (math.nan,)),            # NaN passes < 0 and the sum check
        ((1, 2), (math.inf, -math.inf)),
    ):
        with pytest.raises(ValueError):
            MixedStrategy(support, probs)


def test_action_sets():
    n_ts, n_js = action_sets(GameState(9, 3), 4)
    assert n_ts == [4, 5, 6, 7, 8]
    assert n_js == [0, 1, 2, 3]
    n_ts, n_js = action_sets(GameState(200, 200), 4)
    assert n_ts == [4, 5, 6, 7, 8]
    assert n_js == list(range(8))
    with pytest.raises(ValueError):
        action_sets(GameState(3, 5), 4)


def test_level_successors():
    k, b_t0 = 4, 21
    blocks = list(_levels(k, b_t0))
    # levels k .. 2k-1 alone, then blocks of k levels up to b_t0
    assert [(lo, hi, m) for lo, hi, m, _ in blocks] == (
        [(4, 5, 1), (5, 6, 2), (6, 7, 3), (7, 8, 4)]
        + [(8, 12, 5), (12, 16, 5), (16, 20, 5), (20, 22, 5)])
    lo, hi, m, succ_bt = blocks[4]
    # from b_t=9, n_t=4 leaves 5 and n_t=6 drains below k: the game ends
    assert succ_bt[1, 0] == 5 and succ_bt[1, 0] >= k
    assert succ_bt[1, 2] < k
    grid = np.arange(22 * 4, dtype=float).reshape(22, 4) + 1.0
    grid[:k] = 0.0
    nxt = _next_values(grid, k, succ_bt)
    assert nxt.shape == (4, 4, 5, 8)
    # (9, 3) sending 4 and jamming 3 leads to (5, 0)
    assert nxt[1, 3, 0, 3] == grid[5, 0]
    assert nxt[1, 3, 2, 0] == 0.0
    # jam counts the jammer cannot afford read b_j' = 0
    assert nxt[1, 3, 0, 7] == grid[5, 0]
    # leading axes of the grid carry through
    stacked = _next_values(np.stack([grid, 2 * grid]), k, succ_bt)
    np.testing.assert_array_equal(stacked, np.stack([nxt, 2 * nxt]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("b_j0", [0, 9])
def test_next_values_equals_one_gather(k, b_j0):
    b_t0 = 5 * k + 2
    grid = np.random.default_rng(k).random((3, b_t0 + 1, b_j0 + 1)) - 0.5
    grid[0, k, 0] = -0.0
    grid[:, :k] = 0.0
    for _, _, _, succ_bt in _levels(k, b_t0):
        for g in (grid[0], grid):
            got = _next_values(g, k, succ_bt)
            want = oracles.next_values_reference(g, k, succ_bt)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


# a dozen grids: each k with every lookahead kind, jammer batteries of
# 0, 3 and 12 quanta, and transmitter batteries of 12 and 7 quanta
MEMO_CONFIGS = [
    GameConfig(k=k, b_t0=b_t0, b_j0=b_j0, alpha=0.4, p_clear=0.1, p_blocked=0.8,
               horizon=horizon, discount=discount)
    for k, b_t0, b_j0, (horizon, discount) in [
        (1, 12, 0, (1, 1.0)), (1, 12, 3, (4, 1.0)), (1, 7, 12, (math.inf, 0.9)),
        (2, 12, 12, (1, 1.0)), (2, 7, 0, (4, 1.0)), (2, 12, 3, (math.inf, 0.9)),
        (3, 12, 3, (1, 1.0)), (3, 12, 12, (4, 1.0)), (3, 7, 0, (math.inf, 0.9)),
        (1, 12, 12, (4, 1.0)), (2, 12, 0, (math.inf, 0.9)), (3, 7, 12, (1, 1.0)),
    ]
]
SHAPE_MEMOS = [uwjam.solver._levels, uwjam.solver._jams, uwjam.solver._tableau]


def _solved_bytes(cfg):
    """Bytes of a config's equilibrium and dummy-jammer tables and of the
    equilibrium's lifetime and success maps."""
    tables = [solve_full_game(cfg), solve_vs_fixed_jammer(cfg)]
    arrays = [getattr(table, name) for table in tables
              for name in ("t_probs", "j_probs", "values", "horizon_values")]
    arrays += [analysis._lifetime_map(tables[0]), analysis._success_map(tables[0])]
    return [array.tobytes() for array in arrays]


def test_shape_constants_carry_no_grid_into_another():
    # the memos hold arrays shared by every solve of the same shapes: from
    # empty memos and in the reverse order, each solve gives the same bytes
    first = [_solved_bytes(cfg) for cfg in MEMO_CONFIGS]
    for memo in SHAPE_MEMOS:
        memo.cache_clear()
    again = [_solved_bytes(cfg) for cfg in reversed(MEMO_CONFIGS)]
    assert again[::-1] == first
    assert all(memo.cache_info().currsize for memo in SHAPE_MEMOS)


def test_shape_constants_are_read_only():
    k = 3
    shared = [*uwjam.solver._tableau(k + 1, 2 * k), *uwjam.solver._jams(13, 2 * k)]
    for _, _, _, succ_bt in _levels(k, 12):
        shared.append(succ_bt)
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_grids_hold_positive_zeros_below_k():
    # a frame that ends the game reads the grid's rows b_t < k
    # (_next_values): every grid it reads holds +0.0 there, never -0.0
    for cfg in MEMO_CONFIGS:
        tables = [solve_full_game(cfg), solve_vs_fixed_jammer(cfg)]
        for table in tables:
            for grid in (table.horizon_values, analysis._lifetime_map(table),
                         analysis._success_map(table)):
                below = grid[..., :cfg.k, :]
                assert below.tobytes() == bytes(below.nbytes), cfg


@pytest.mark.parametrize("solve", [solve_full_game, solve_vs_fixed_jammer])
def test_solved_values_are_the_deepest_horizon_row(solve):
    # the walk returns the grid's deepest lookahead as the deployed
    # values, so a solved table holds them once; the dummy jammer's play
    # is written by the step that plays it, one-hot at every playable level
    for cfg in [*MEMO_CONFIGS, dataclasses.replace(MEMO_CONFIGS[0], k=3, b_t0=2)]:
        table = solve(cfg)
        assert np.shares_memory(table.values, table.horizon_values), cfg
        assert table.values.tobytes() == table.horizon_values[-1].tobytes(), cfg
        if solve is solve_vs_fixed_jammer:
            k = cfg.k
            want = np.zeros_like(table.j_probs)
            want[k:] = np.eye(2 * k)[[min(k + 1, 2 * k - 1, b_j) for b_j in range(cfg.b_j0 + 1)]]
            assert table.j_probs.tobytes() == want.tobytes(), cfg


@pytest.mark.parametrize("cfg", [
    game_config_for(ScenarioConfig(b_t0=12, b_j0=12), 20.0),
    game_config_for(ScenarioConfig(b_t0=12, b_j0=12), 60.0),
    # the game the degenerate bench workload lists as a known fault
    GameConfig(k=2, b_t0=12, b_j0=12, alpha=0.5, p_clear=0.0, p_blocked=1.0, horizon=4),
    pytest.param(game_config_for(ScenarioConfig(b_t0=20, b_j0=20), 33.0),
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
], ids=["20m", "60m", "known_fault", "33m"])
def test_every_horizon_value_is_its_stage_game_value(cfg):
    # every lookahead depth a state stores, not just the deployed one:
    # horizon_values[g] at a state is the HiGHS value of the g-frame stage
    # game over horizon_values[g - 1]; equal matrices are solved once.
    # HiGHS at its default tolerances is up to 6e-8 off on some
    # near-degenerate 33 m games, so where it disagrees, support
    # enumeration's deviation-proof value decides
    table = solve_full_game(cfg)
    grid = table.horizon_values
    solved = {}
    for b_t in range(cfg.k, cfg.b_t0 + 1):
        for g in range(1, min(grid.shape[0] - 1, b_t // cfg.k) + 1):
            for b_j in range(cfg.b_j0 + 1):
                mat = build_payoff_matrix(GameState(b_t, b_j), cfg,
                                          continuation=lambda s: grid[g - 1, s.b_t, s.b_j])
                key = (mat.shape, mat.tobytes())
                if key not in solved:
                    solved[key] = oracles.solve_game_linprog(mat)[0]
                value = grid[g, b_t, b_j]
                if abs(solved[key] - value) > 1e-9:
                    solved[key] = oracles.support_enumeration_solve(mat)[0]
                assert abs(solved[key] - value) <= 1e-9, (g, b_t, b_j)


def test_build_payoff_matrix():
    cfg = GameConfig(k=2, b_t0=8, b_j0=6, alpha=0.4,
                     p_clear=0.1, p_blocked=0.7, horizon=3)
    one_shot = build_payoff_matrix(GameState(8, 6), cfg)
    assert one_shot.shape == (3, 4)
    for i, n_t in enumerate((2, 3, 4)):
        for j in range(4):
            assert one_shot[i, j] == subgame_payoff(cfg.subgame, n_t, j)
    # truncated action sets near empty batteries
    assert build_payoff_matrix(GameState(3, 1), cfg).shape == (2, 2)
    # continuation adds the successor value, zero on game end
    cont = {GameState(6, 6): 10.0, GameState(6, 5): 20.0}
    mat = build_payoff_matrix(GameState(8, 6), cfg,
                              continuation=lambda s: cont.get(s, 0.0))
    assert mat[0, 0] == pytest.approx(one_shot[0, 0] + 10.0)
    assert mat[0, 1] == pytest.approx(one_shot[0, 1] + 20.0)
    # n_t=4 from b_t=8 leaves b_t=4 -> not in cont -> bare frame payoff
    assert mat[2, 0] == pytest.approx(one_shot[2, 0])


# ---------------------------------------------------------------------------
# full-game dynamic program


@pytest.fixture(scope="module")
def small_game():
    cfg = GameConfig(k=2, b_t0=8, b_j0=6, alpha=0.4,
                     p_clear=0.1, p_blocked=0.7, horizon=3)
    return cfg, solve_full_game(cfg)


def test_table_shape_and_state_iteration(small_game):
    cfg, table = small_game
    states = list(table.states())
    assert len(states) == table.n_states == 7 * 7
    assert all(s.b_t >= cfg.k for s in states)
    assert GameState(8, 6) in states


def test_stored_strategies_solve_their_deployed_matrix(small_game):
    cfg, table = small_game
    for state in table.states():
        mat = deployed_matrix(table, state)
        value, x, y = solve_matrix_game(mat)
        assert table.value(state) == pytest.approx(value, abs=1e-10), state
        sx = table.strategy_t(state)
        sy = table.strategy_j(state)
        row_gap, col_gap = oracles.best_response_gaps(
            mat, np.array([sx.prob_of(a) for a in action_sets(state, cfg.k)[0]]),
            np.array([sy.prob_of(a) for a in action_sets(state, cfg.k)[1]]),
            table.value(state))
        assert row_gap <= 1e-9 and col_gap <= 1e-9, state


# the degenerate-pivot regression: PERs of 0 and 1 tie many ratios, and
# a ratio test on a perturbed right-hand side left the stored strategy at
# (12, 11) 4.3e-4 off a best response and the depth-3 value at (9, 8)
# 9.2e-4 off
DEGENERATE_CASE = GameConfig(k=2, b_t0=12, b_j0=12, alpha=0.5, p_clear=0.0, p_blocked=1.0,
                             horizon=4)


def _deployed(table, state):
    """(deployed matrix, send and jam probabilities, value) at a state."""
    mat = deployed_matrix(table, state)
    m, n = mat.shape
    return (mat, table.t_probs[state.b_t, state.b_j, :m], table.j_probs[state.b_t, state.b_j, :n],
            table.values[state.b_t, state.b_j])


def test_degenerate_state_is_an_equilibrium():
    table = solve_full_game(DEGENERATE_CASE)
    mat, x, y, value = _deployed(table, GameState(12, 11))
    row_gap, col_gap = oracles.best_response_gaps(mat, x, y, value)
    assert row_gap <= 1e-9 and col_gap <= 1e-9
    assert value == pytest.approx(oracles.solve_game_linprog(mat)[0], abs=1e-9)
    # every lookahead value, deployed or not, is its game's value
    for state in table.states():
        for g in range(1, table.deployed_depth(state) + 1):
            mat = oracles.build_payoff_matrix(
                state, DEGENERATE_CASE,
                continuation=lambda s: table.horizon_value(s, g - 1))
            want = oracles.support_enumeration_solve(mat)[0]
            assert abs(table.horizon_value(state, g) - want) <= 1e-8, (state, g)


# 486 small games with PERs of 0 or 1 and corner parameters (the bench's
# degenerate workload)
DEGENERATE_CONFIGS = [
    GameConfig(k=k, b_t0=12, b_j0=b_j0, alpha=alpha, p_clear=p_clear, p_blocked=p_blocked,
               horizon=horizon, discount=discount)
    for k in (1, 2, 3)
    for p_clear, p_blocked in ((0.0, 0.0), (0.0, 0.7), (0.0, 1.0), (0.3, 0.7), (0.3, 1.0),
                               (1.0, 1.0))
    for alpha in (0.0, 0.5, 1.0)
    for horizon, discount in ((1, 1.0), (4, 1.0), (math.inf, 0.9))
    for b_j0 in (0, 3, 12)]


@pytest.fixture(scope="module")
def degenerate_tables():
    assert len(DEGENERATE_CONFIGS) == 486
    return [solve_full_game(cfg) for cfg in DEGENERATE_CONFIGS]


def test_degenerate_grid_is_solved_at_every_state(degenerate_tables):
    # every stored strategy is a best response to the other, and each
    # distinct deployed matrix has the value support enumeration finds
    values = {}
    for table in degenerate_tables:
        for state in table.states():
            mat, x, y, value = _deployed(table, state)
            row_gap, col_gap = oracles.best_response_gaps(mat, x, y, value)
            assert row_gap <= 1e-9 and col_gap <= 1e-9, (table.config, state)
            values.setdefault(mat.tobytes(), (mat, value, table.config, state))
    for mat, value, cfg, state in values.values():
        assert abs(oracles.support_enumeration_solve(mat)[0] - value) <= 1e-8, (cfg, state)


def test_every_lp_certifies(monkeypatch):
    # the shallower lookahead games feed the deeper ones, so every game
    # the kernel solves must be an equilibrium, not only the deployed ones
    real, solved = uwjam.solver._minimax_batch, []

    def certifying(matrices):
        values, rows, cols = real(matrices)
        absent = np.isinf(matrices[:, 0])
        finite = np.where(absent[:, None, :], 0.0, matrices)
        row_gap = np.einsum("bij,bj->bi", finite, cols).max(axis=1) - values
        col_gain = np.where(absent, np.inf, np.einsum("bi,bij->bj", rows, finite))
        col_gap = values - col_gain.min(axis=1)
        assert (row_gap <= 1e-9).all() and (col_gap <= 1e-9).all(), (
            row_gap.max(), col_gap.max())
        assert (rows >= 0).all() and (cols >= 0).all() and (cols[absent] == 0).all()
        solved.append(len(matrices))
        return values, rows, cols

    monkeypatch.setattr(uwjam.solver, "_minimax_batch", certifying)
    for cfg in DEGENERATE_CONFIGS:
        solve_full_game(cfg)
    degenerate = len(solved)
    assert degenerate > 0
    solve_full_game(game_config_for(ScenarioConfig(b_t0=40, b_j0=40), 60.0))
    assert len(solved) > degenerate


def test_horizon_values(small_game):
    cfg, table = small_game
    s0 = GameState(8, 6)
    assert table.horizon_value(s0, 0) == 0.0
    # depth 1 equals the one-shot matrix game value
    v1, _, _ = solve_matrix_game(build_payoff_matrix(s0, cfg))
    assert table.horizon_value(s0, 1) == pytest.approx(v1, abs=1e-10)
    # lookahead saturates at the battery-limited depth
    assert table.deployed_depth(s0) == 3
    assert table.horizon_value(s0, 99) == table.value(s0)
    # an infinite lookahead reads the deepest stored one
    assert table.horizon_value(s0, 10 ** 6) == table.value(s0)
    assert table.horizon_value(s0, math.inf) == table.value(s0)
    assert table.value(GameState(1, 6)) == 0.0     # terminal
    with pytest.raises(ValueError):
        table.horizon_value(s0, -1)
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        table.horizon_value(s0, math.nan)


def test_horizon_value_is_zero_at_terminal_states(small_game):
    cfg, table = small_game
    for state in (GameState(0, 0), GameState(cfg.k - 1, cfg.b_j0)):
        for gamma in (0, 1, math.inf):
            assert table.horizon_value(state, gamma) == 0.0


def test_lookahead_saturates_when_battery_runs_short():
    cfg = GameConfig(k=2, b_t0=8, b_j0=6, alpha=0.4,
                     p_clear=0.1, p_blocked=0.7, horizon=10)
    assert cfg.effective_horizon() == 4
    table = solve_full_game(cfg)
    s0 = GameState(8, 6)
    assert table.horizon_value(s0, 4) == table.value(s0)


def test_unjammable_game_is_pure_minimum_send():
    # no jam budget and a perfect channel: sending k wins every frame,
    # and anything more just burns battery
    cfg = GameConfig(k=2, b_t0=10, b_j0=0, alpha=0.4,
                     p_clear=0.0, p_blocked=0.9, horizon=5)
    table = solve_full_game(cfg)
    for state in table.states():
        st = table.strategy_t(state)
        assert st.prob_of(2) == pytest.approx(1.0, abs=1e-12), state


# configs where the transmitter's 2kg spending cap copies levels: every
# block from b_t = 3k on (gamma = 1), several capped depths (k = 1), and an
# infinite horizon whose depth grows with b_t
TRANSMITTER_CAPPED = [
    GameConfig(k=2, b_t0=13, b_j0=7, alpha=0.4, p_clear=0.1, p_blocked=0.7, horizon=1),
    GameConfig(k=1, b_t0=20, b_j0=8, alpha=0.4, p_clear=0.1, p_blocked=0.7, horizon=6),
    GameConfig(k=2, b_t0=20, b_j0=9, alpha=0.4, p_clear=0.05, p_blocked=0.6,
               horizon=math.inf, discount=0.9),
]


@pytest.mark.parametrize("cfg", [
    # b_j0 below, between and above the jammer's g(2k-1) spending caps
    GameConfig(k=1, b_t0=9, b_j0=0, alpha=0.4, p_clear=0.1, p_blocked=0.7, horizon=3),
    GameConfig(k=1, b_t0=9, b_j0=6, alpha=0.4, p_clear=0.1, p_blocked=0.7, horizon=3),
    GameConfig(k=2, b_t0=11, b_j0=2, alpha=0.5, p_clear=0.0, p_blocked=1.0, horizon=4),
    GameConfig(k=2, b_t0=11, b_j0=7, alpha=0.4, p_clear=0.1, p_blocked=0.7, horizon=4),
    GameConfig(k=2, b_t0=11, b_j0=16, alpha=0.4, p_clear=0.1, p_blocked=0.7, horizon=4),
    GameConfig(k=3, b_t0=13, b_j0=4, alpha=0.4, p_clear=0.05, p_blocked=0.6,
               horizon=math.inf, discount=0.9),
    GameConfig(k=3, b_t0=13, b_j0=12, alpha=1.0, p_clear=0.0, p_blocked=1.0,
               horizon=math.inf, discount=0.9),
    GameConfig(k=3, b_t0=13, b_j0=24, alpha=0.4, p_clear=0.05, p_blocked=0.6,
               horizon=math.inf, discount=0.9),
    *TRANSMITTER_CAPPED,
], ids=lambda c: f"k{c.k}-bj{c.b_j0}-h{c.horizon}")
def test_solve_full_game_matches_per_state_reference(cfg, monkeypatch):
    # one-instance chunks send every stage batch through the
    # neighbour-repeat path, which full-scale batches take
    monkeypatch.setattr(uwjam.solver, "_SIMPLEX_CHUNK", 1)
    table = solve_full_game(cfg)
    want = oracles.backward_induction_reference(cfg)
    got = (table.horizon_values, table.t_probs, table.j_probs, table.values)
    for name, g, w in zip(("horizon_values", "t_probs", "j_probs", "values"), got, want):
        assert np.array_equal(g, w), name
        assert g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("cfg", TRANSMITTER_CAPPED,
                         ids=lambda c: f"k{c.k}-bt{c.b_t0}-h{c.horizon}")
def test_horizon_values_repeat_above_transmitter_cap(cfg):
    # g frames spend at most 2kg quanta, so a larger battery changes no
    # g-frame value; checked on the uncapped reference and on the solver
    ref_values = oracles.backward_induction_reference(cfg)[0]
    k = cfg.k
    capped = 0
    for hv in (ref_values, solve_full_game(cfg).horizon_values):
        for g in range(1, hv.shape[0]):
            for x in range(2 * k * g, cfg.b_t0 + 1):
                assert hv[g, x].tobytes() == hv[g, 2 * k * g].tobytes(), (g, x)
                capped += 1
    assert capped


@pytest.mark.parametrize("cfg", [
    GameConfig(k=3, b_t0=40, b_j0=60, alpha=0.4, p_clear=0.05, p_blocked=0.6, horizon=6),
    GameConfig(k=2, b_t0=15, b_j0=2, alpha=0.4, p_clear=0.05, p_blocked=0.6, horizon=3),
    GameConfig(k=4, b_t0=50, b_j0=40, alpha=0.4, p_clear=0.05, p_blocked=0.6,
               horizon=math.inf, discount=0.9),
    GameConfig(k=4, b_t0=200, b_j0=200, alpha=0.4, p_clear=0.05, p_blocked=0.6, horizon=1),
], ids=lambda c: f"k{c.k}-bj{c.b_j0}")
def test_solve_full_game_solves_each_capped_game_once(cfg, monkeypatch):
    # games are built over every b_j; the neighbour-repeat rule, which
    # one-instance chunks switch on, must pivot no more of them than the
    # games up to the jammer's spending cap
    built, seen = [], {"calls": 0, "instances": 0}
    real_stage, real_kernel = uwjam.solver._solve_stage_batch, uwjam.solver._minimax_batch

    def building(stage):
        built.append(stage.shape[:3])
        return real_stage(stage)

    def counting(matrices):
        seen["calls"] += 1
        seen["instances"] += len(matrices)
        return real_kernel(matrices)

    monkeypatch.setattr(uwjam.solver, "_solve_stage_batch", building)
    monkeypatch.setattr(uwjam.solver, "_minimax_batch", counting)
    monkeypatch.setattr(uwjam.solver, "_SIMPLEX_CHUNK", 1)
    solve_full_game(cfg)
    k, full = cfg.k, 2 * cfg.k - 1
    # level blocks (first level, level count): levels k .. 2k-1 alone,
    # then blocks of k levels
    blocks = [(b_t, 1) for b_t in range(k, min(2 * k, cfg.b_t0 + 1))]
    blocks += [(lo, min(k, cfg.b_t0 + 1 - lo)) for lo in range(2 * k, cfg.b_t0 + 1, k)]
    want, shapes = 0, []
    for lo, levels in blocks:
        depth = min(cfg.effective_horizon(), lo // k)
        # a depth g the transmitter cannot exhaust from level lo - 1
        # (2kg <= lo - 1) repeats that level and is not solved
        low = min(depth, (lo - 1) // (2 * k))
        if low < depth:
            shapes.append((depth - low, levels, cfg.b_j0 + 1))
        # truncated columns b_j < 2k-1 at every depth, then the full-width
        # columns up to the jammer's spending cap g(2k-1) at depth g
        want += levels * sum(min(full, cfg.b_j0 + 1) + max(0, min(cfg.b_j0, g * full) - full + 1)
                             for g in range(low + 1, depth + 1))
    assert built == shapes
    assert 0 < seen["instances"] <= want
    # one call per block with a depth left to solve
    assert seen["calls"] == len(shapes)


def test_stage_batch_pivots_neighbour_repeats_once(monkeypatch):
    rng = np.random.default_rng(5)
    # (depths, levels, b_j, m, n)
    stage = rng.normal(size=(2, 4, 7, 3, 4))
    shallow = stage[0]
    shallow[1, 2] = shallow[0, 2]        # the same b_j one level down
    shallow[2, 2] = shallow[1, 2]        # ... twice: a chain
    shallow[0, 4] = shallow[0, 3]        # b_j - 1 on the level
    shallow[0, 5] = shallow[0, 4]
    shallow[1, 5] = shallow[0, 5]        # both ways
    shallow[3, 6] = shallow[3, 5]
    shallow[3, 0] = shallow[2, 6]        # equal, but neither neighbour
    shallow[2, 1] = 0.0
    shallow[2, 0] = -0.0                 # equal values, other bytes
    stage[1, 0, 0] = stage[0, 0, 0]      # equal across depths: not a neighbour
    stage[1, 3, 6] = stage[0, 3, 6]      # ... nor for a game that repeats on its own depth
    sent = []
    real = uwjam.solver._minimax_batch

    def counting(matrices):
        sent.append(len(matrices))
        return real(matrices)

    monkeypatch.setattr(uwjam.solver, "_minimax_batch", counting)
    monkeypatch.setattr(uwjam.solver, "_SIMPLEX_CHUNK", 1)
    got = uwjam.solver._solve_stage_batch(stage)
    assert sent == [2 * 4 * 7 - 6]
    for out, want in zip(got, real(stage.reshape(-1, 3, 4))):
        assert out.tobytes() == want.tobytes()
    # a batch of at most one chunk goes to the kernel whole
    monkeypatch.setattr(uwjam.solver, "_SIMPLEX_CHUNK", 2 * 4 * 7)
    uwjam.solver._solve_stage_batch(stage)
    assert sent[-1] == 2 * 4 * 7


@pytest.mark.parametrize("cfg", [
    # equal PERs: the jammer changes nothing, so games repeat along b_j
    GameConfig(k=2, b_t0=40, b_j0=30, alpha=0.4, p_clear=0.2, p_blocked=0.2, horizon=8),
    # saturated PERs and a lookahead past the point where the
    # continuation values stop changing below the 2kg cap
    GameConfig(k=2, b_t0=40, b_j0=30, alpha=0.5, p_clear=0.0, p_blocked=1.0, horizon=12),
    GameConfig(k=3, b_t0=45, b_j0=40, alpha=0.4, p_clear=0.05, p_blocked=0.6, horizon=15),
    GameConfig(k=1, b_t0=30, b_j0=12, alpha=1.0, p_clear=1.0, p_blocked=1.0,
               horizon=math.inf, discount=0.9),
], ids=lambda c: f"k{c.k}-pc{c.p_clear}-pb{c.p_blocked}-h{c.horizon}")
def test_neighbour_repeats_keep_the_solve_bit_equal(cfg, monkeypatch):
    seen = {"built": 0, "pivoted": 0}
    real_stage, real_kernel = uwjam.solver._solve_stage_batch, uwjam.solver._minimax_batch

    def built(stage):
        seen["built"] += stage.size // (stage.shape[-2] * stage.shape[-1])
        return real_stage(stage)

    def pivoted(matrices):
        seen["pivoted"] += len(matrices)
        return real_kernel(matrices)

    monkeypatch.setattr(uwjam.solver, "_solve_stage_batch", built)
    monkeypatch.setattr(uwjam.solver, "_minimax_batch", pivoted)
    monkeypatch.setattr(uwjam.solver, "_SIMPLEX_CHUNK", 1)
    repeats = solve_full_game(cfg)
    assert seen["pivoted"] < seen["built"]
    monkeypatch.setattr(uwjam.solver, "_SIMPLEX_CHUNK", 10 ** 9)
    whole = solve_full_game(cfg)
    for name in ("horizon_values", "t_probs", "j_probs", "values"):
        assert getattr(repeats, name).tobytes() == getattr(whole, name).tobytes(), name


# blocks of up to 16 lookahead depths of 404 games each: more than one
# depth group, each over one kernel chunk
GROUPED = GameConfig(k=4, b_t0=100, b_j0=100, alpha=0.4, p_clear=0.02, p_blocked=0.6,
                     horizon=30)


def test_depth_groups_keep_the_solve_bit_equal(monkeypatch):
    sent = []
    real = uwjam.solver._minimax_batch

    def counting(matrices):
        sent.append(len(matrices))
        return real(matrices)

    monkeypatch.setattr(uwjam.solver, "_minimax_batch", counting)
    grouped = solve_full_game(GROUPED)
    calls, instances = len(sent), sum(sent)
    tables = []
    # one depth per group, then each block in one group
    for games in (1, 10 ** 9):
        monkeypatch.setattr(uwjam.solver, "_GROUP_GAMES", games)
        sent.clear()
        tables.append(solve_full_game(GROUPED))
    # each block in one group, as before depth groups: the same 49,953
    # instances in fewer kernel calls
    assert sum(sent) == instances == 49953 and len(sent) < calls
    for table in tables:
        for name in ("horizon_values", "t_probs", "j_probs", "values"):
            assert getattr(table, name).tobytes() == getattr(grouped, name).tobytes(), name


def test_solve_memory_does_not_grow_with_the_grid():
    # stage games are built and pivoted a few lookahead depths at a time,
    # so a solve's working memory beyond the arrays it returns stays about
    # the same from 100 x 100 to 200 x 200 quanta
    peaks = []
    for quanta in (100, 200):
        cfg = dataclasses.replace(GROUPED, b_t0=quanta, b_j0=quanta)
        tracemalloc.start()
        try:
            table = solve_full_game(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # values is a view of horizon_values: it allocates nothing of its own
        peaks.append(peak - sum(getattr(table, name).nbytes for name in (
            "horizon_values", "t_probs", "j_probs")))
    assert peaks[1] < 1.3 * peaks[0]


def test_table_state_bounds_checks(small_game):
    _, table = small_game
    with pytest.raises(ValueError):
        table.value(GameState(9, 6))
    with pytest.raises(ValueError):
        table.strategy_t(GameState(1, 3))


# ---------------------------------------------------------------------------
# the dummy jammer baseline


def test_solve_vs_fixed_jammer(small_game):
    cfg, ne_table = small_game
    table = solve_vs_fixed_jammer(cfg)
    k = cfg.k
    for state in table.states():
        # the dummy jammer jams k + 1 slots while it can
        sj = table.strategy_j(state)
        assert sj.prob_of(min(k + 1, 2 * k - 1, state.b_j)) == 1.0
        st = table.strategy_t(state)
        assert max(st.probs) == 1.0  # best response is pure
    # best response against a fixed opponent does at least as well as
    # the equilibrium guarantee
    s0 = GameState(8, 6)
    assert table.value(s0) >= ne_table.value(s0) - 1e-12


def _cfg(k, b_t0, b_j0, **over):
    base = dict(alpha=0.4, p_clear=0.1, p_blocked=0.7, horizon=4)
    base.update(over)
    return GameConfig(k=k, b_t0=b_t0, b_j0=b_j0, **base)


INF = dict(horizon=math.inf, discount=0.9)


def _assert_dummy_best_response(cfg):
    # the walk's arrays against the per-state oracle, which calls the
    # dummy jammer's policy at every state
    k = cfg.k

    def dummy(state):
        return min(k + 1, 2 * k - 1, state.b_j)

    table = solve_vs_fixed_jammer(cfg)
    want_hv, want_t = oracles.fixed_play_reference(cfg, dummy)
    np.testing.assert_allclose(table.horizon_values, want_hv, rtol=0, atol=1e-12)
    np.testing.assert_allclose(table.values, want_hv[-1], rtol=0, atol=1e-12)
    # the best response is the reference's first maximal row exactly
    np.testing.assert_array_equal(table.t_probs, want_t)
    np.testing.assert_array_equal(table.j_probs,
                                  oracles.forced_play_table(cfg, lambda s: k, dummy).j_probs)


@pytest.mark.parametrize("cfg", [
    pytest.param(_cfg(1, 7, 3, horizon=3), id="k1-best-response"),
    pytest.param(_cfg(2, 11, 0, alpha=0.5, p_clear=0.0, p_blocked=1.0), id="bj0-best-response"),
    pytest.param(_cfg(2, 11, 7), id="k2-best-response"),
    pytest.param(_cfg(3, 13, 8, p_clear=0.05, p_blocked=0.6, **INF), id="inf-best-response"),
    # b_t0 well above 2k gamma = 8: levels from b_t = 9 up copy the level
    # below, and the oracle solves each of them
    pytest.param(_cfg(2, 20, 9, horizon=2), id="capped-best-response"),
])
def test_policy_sweep_matches_per_state_reference(cfg):
    _assert_dummy_best_response(cfg)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("b_t0, b_j0", [(13, 0), (13, 1), (13, 30), (0, 30)])
def test_dummy_jammer_array_equals_policy_calls(k, b_t0, b_j0):
    # b_t0 = 0 < k: no state is playable
    _assert_dummy_best_response(_cfg(k, b_t0, b_j0))


def test_best_response_memory_does_not_grow_with_the_grid():
    # the best response takes the solve's walk, a few lookahead depths
    # at a time in one reused buffer, so its working memory beyond the
    # arrays it returns stays small at 200 x 200 quanta
    tracemalloc.start()
    try:
        table = solve_vs_fixed_jammer(dataclasses.replace(GROUPED, b_t0=200, b_j0=200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # values is a view of horizon_values: it allocates nothing of its own
    peak -= sum(getattr(table, name).nbytes for name in ("horizon_values", "t_probs", "j_probs"))
    assert peak <= 8 * 2 ** 20


# ---------------------------------------------------------------------------
# persistence


def test_export_load_round_trip(tmp_path, small_game):
    cfg, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path, meta={"d_jr": 60.0, "per_mode": "uncoded"})
    loaded = load_table(path)
    assert loaded.config == cfg
    assert loaded.meta == {"d_jr": 60.0, "per_mode": "uncoded"}
    np.testing.assert_array_equal(loaded.values, table.values)
    np.testing.assert_array_equal(loaded.t_probs, table.t_probs)
    np.testing.assert_array_equal(loaded.j_probs, table.j_probs)
    # lookahead slices are deliberately not persisted
    with pytest.raises(TableError):
        loaded.horizon_value(GameState(8, 6), 2)
    # re-export of the loaded table is byte-identical
    path2 = tmp_path / "again.json"
    export_table(loaded, path2, meta=loaded.meta)
    h1 = hashlib.sha256(path.read_bytes()).hexdigest()
    h2 = hashlib.sha256(path2.read_bytes()).hexdigest()
    assert h1 == h2


def test_load_rejects_corruption(tmp_path, small_game):
    _, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path)
    doc = json.loads(path.read_text())

    def dump(d, name):
        p = tmp_path / name
        p.write_text(json.dumps(d))
        return p

    with pytest.raises(TableError, match="not a"):
        load_table(dump(dict(doc, format="something-else"), "fmt.json"))
    with pytest.raises(TableError, match="version"):
        load_table(dump(dict(doc, version=99), "ver.json"))

    tampered = json.loads(path.read_text())
    tampered["states"][0]["value"] = 0.123
    with pytest.raises(TableError, match="checksum"):
        load_table(dump(tampered, "tamper.json"))

    truncated = json.loads(path.read_text())
    truncated["states"] = truncated["states"][:-1]
    with pytest.raises(TableError, match="checksum"):
        load_table(dump(truncated, "trunc.json"))

    (tmp_path / "garbage.json").write_text("{not json")
    with pytest.raises(TableError, match="not a valid"):
        load_table(tmp_path / "garbage.json")

    with pytest.raises(OSError):
        load_table(tmp_path / "missing.json")


def test_load_rejects_bad_distributions(tmp_path, small_game):
    _, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path)
    doc = json.loads(path.read_text())
    doc["states"][0]["strat_t"] = [0.9] * len(doc["states"][0]["strat_t"])
    # recompute the checksum so only the distribution check can fire
    payload = json.dumps(doc["states"], sort_keys=True,
                         separators=(",", ":")).encode()
    doc["checksum"] = hashlib.sha256(payload).hexdigest()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(TableError, match="distribution"):
        load_table(bad)


def test_failed_export_keeps_previous_table(tmp_path, small_game, monkeypatch):
    _, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        export_table(table, path, meta={"solved_by": object()})

    def disk_full(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", disk_full)
    with pytest.raises(OSError, match="no space"):
        export_table(table, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    np.testing.assert_array_equal(load_table(path).values, table.values)
    assert [p.name for p in tmp_path.iterdir()] == ["table.json"]


@pytest.mark.parametrize("field, index, bad", [
    ("value", None, math.nan),
    ("strat_t", 0, math.nan),
    ("strat_j", 1, math.inf),
    ("value", None, -math.inf),
])
def test_load_rejects_non_finite_entries(tmp_path, small_game, field, index, bad):
    _, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path)
    doc = json.loads(path.read_text())
    rec = doc["states"][-1]
    if index is None:
        rec[field] = bad
    else:
        rec[field][index] = bad
    # recompute the checksum so only the finiteness check can fire
    payload = json.dumps(doc["states"], sort_keys=True,
                         separators=(",", ":")).encode()
    doc["checksum"] = hashlib.sha256(payload).hexdigest()
    path.write_text(json.dumps(doc))
    with pytest.raises(TableError, match="NaN or infinity"):
        load_table(path)


def _resum(doc):
    payload = json.dumps(doc["states"], sort_keys=True, separators=(",", ":")).encode()
    doc["checksum"] = hashlib.sha256(payload).hexdigest()
    return doc


def _edit(field, bad):
    def edit(states):
        states[5][field] = bad
    return edit


BAD_RECORDS = [
    (_edit("b_t", 9), "outside the grid"),
    (_edit("b_t", 1), "outside the grid"),
    (_edit("b_j", -1), "outside the grid"),
    (lambda s: s[5]["strat_t"].append(0.0), "wrong strategy length"),
    (lambda s: s[5]["strat_j"].pop(), "wrong strategy length"),
    (lambda s: s.pop(), "states, expected"),
    (lambda s: s.append(dict(s[0])), "states, expected"),
    (lambda s: s[5].pop("value"), "malformed"),
    (_edit("b_t", 2.0), "malformed"),
    (_edit("b_j", "3"), "malformed"),
    (_edit("value", "high"), "malformed"),
    (_edit("strat_j", 7), "malformed"),
    (lambda s: s[5]["strat_t"].__setitem__(0, [1.0]), "malformed"),
    (lambda s: s.__setitem__(5, [1, 2]), "malformed"),
]


@pytest.mark.parametrize("edit, match", BAD_RECORDS)
def test_load_rejects_bad_records(tmp_path, small_game, edit, match):
    _, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path)
    doc = json.loads(path.read_text())
    edit(doc["states"])
    # recompute the checksum so only the record checks can fire
    path.write_text(json.dumps(_resum(doc)))
    with pytest.raises(TableError, match=match):
        load_table(path)


@pytest.mark.parametrize("field", ["b_t0", "b_j0"])
@pytest.mark.parametrize("indent", [None, 1])
def test_load_counts_records_before_sizing_the_grid(tmp_path, small_game, field, indent):
    # the checksum covers the records, not the config: a header claiming
    # a battery of 10^9 quanta fails on the record count (both as written
    # and reformatted) instead of allocating a grid of over 100 GiB
    _, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path)
    text = path.read_text()
    old = f'"{field}":{getattr(table.config, field)},'
    assert text.count(old) == 1
    text = text.replace(old, f'"{field}":1000000000,')
    path.write_text(text if indent is None else json.dumps(json.loads(text), indent=indent))
    with pytest.raises(TableError, match="states, expected"):
        load_table(path)


@pytest.mark.parametrize("field", ["k", "b_j0"])
def test_load_sizes_nothing_from_a_table_without_records(tmp_path, field):
    # a grid with no playable state lists no records, so its header can
    # claim any size: such a table loads as zeros without allocating them
    cfg = GameConfig(k=2, b_t0=1, b_j0=3, alpha=0.4, p_clear=0.1, p_blocked=0.7, horizon=4)
    path = tmp_path / "table.json"
    export_table(solve_full_game(cfg), path, meta={"d_jr": 60.0})
    text = path.read_text()
    old = f'"{field}":{getattr(cfg, field)},'
    assert text.count(old) == 1
    path.write_text(text.replace(old, f'"{field}":1000000000,'))
    tracemalloc.start()
    try:
        table = load_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert getattr(table.config, field) == 10 ** 9 and table.n_states == 0
    for name in ("values", "t_probs", "j_probs"):
        got = getattr(table, name)
        assert got.shape[:2] == (2, table.config.b_j0 + 1)
        # a corner of at most 3 entries per axis: the whole is 10^9 wide
        corner = got[tuple(slice(3) for _ in got.shape)]
        assert (corner == 0.0).all() and not np.signbit(corner).any()


@pytest.mark.parametrize("indent", [None, 1])
def test_load_refuses_a_grid_its_records_cannot_fill(tmp_path, indent):
    # a header of k = b_t0 = 10^9 and b_j0 = 0 lists one legal record
    # under a correct checksum, yet its arrays would hold 3 x 10^18
    # entries: a grid of more entries than the file has bytes is a table
    # error, from the piece reader as from the whole-document reader
    config = GameConfig(k=10 ** 9, b_t0=10 ** 9, b_j0=0, alpha=0.4, p_clear=0.1, p_blocked=0.7)
    states = [{"b_t": 10 ** 9, "b_j": 0, "strat_t": [1.0], "strat_j": [1.0], "value": 0.0}]
    doc = _resum({"format": "uwjam-strategy-table", "version": 1, "config": config.to_dict(),
                  "checksum": None, "states": states})
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc, separators=(",", ":"), indent=indent) + "\n")
    if indent is None:
        with open(path, "rb") as fh, pytest.raises(TableError, match="cannot fill"):
            uwjam.solver._read_layout(fh)
    with pytest.raises(TableError, match="bytes cannot fill a grid of 1000000001 x 1 states"):
        load_table(path)


def test_load_ignores_record_order(tmp_path, small_game):
    _, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path)
    doc = json.loads(path.read_text())
    doc["states"].reverse()
    path.write_text(json.dumps(_resum(doc)))
    loaded = load_table(path)
    np.testing.assert_array_equal(loaded.values, table.values)
    np.testing.assert_array_equal(loaded.t_probs, table.t_probs)
    np.testing.assert_array_equal(loaded.j_probs, table.j_probs)


# every layout below loads through one of two checksum paths: the file's
# own states text, or the parsed records encoded again by _checksum
EXPORT_CONFIGS = [
    GameConfig(k=1, b_t0=6, b_j0=4, alpha=0.5, p_clear=0.0, p_blocked=1.0, horizon=1),
    GameConfig(k=2, b_t0=9, b_j0=0, alpha=0.3, p_clear=0.1, p_blocked=0.7, horizon=4),
    GameConfig(k=3, b_t0=10, b_j0=7, alpha=0.4, p_clear=0.0, p_blocked=0.0,
               horizon=math.inf, discount=0.9),
    GameConfig(k=2, b_t0=8, b_j0=6, alpha=0.6, p_clear=1.0, p_blocked=1.0,
               horizon=math.inf, discount=0.9),
    GameConfig(k=3, b_t0=2, b_j0=3, alpha=0.4, p_clear=0.1, p_blocked=0.7, horizon=4),
]
EXPORT_METAS = [
    None,
    {"site": "Lago di Garda, fondale \u00e8 \u6c34\u4e0b", "d_jr": 60.0},
    {"note": ',"states":[{"b_t":'},
    {"states": [{"b_t": 4, "b_j": 0}], "d_jr": 20.0},
]


@pytest.fixture(scope="module", params=EXPORT_CONFIGS,
                ids=[f"k{c.k}-bj{c.b_j0}-p{c.p_clear:g}{c.p_blocked:g}-g{c.horizon:g}"
                     for c in EXPORT_CONFIGS])
def export_game(request):
    return solve_full_game(request.param)


def _spy_checksum(monkeypatch, fail=False):
    """Count calls of the re-encoding checksum; with fail, refuse them."""
    calls = []
    real = uwjam.solver._checksum

    def spy(states):
        calls.append(len(states))
        if fail:
            raise AssertionError("records encoded again")
        return real(states)

    monkeypatch.setattr(uwjam.solver, "_checksum", spy)
    return calls


@pytest.mark.parametrize("meta", EXPORT_METAS, ids=["none", "non-ascii", "states-text", "states-key"])
def test_export_equals_two_encode_reference(tmp_path, export_game, meta, monkeypatch):
    path = tmp_path / "table.json"
    export_table(export_game, path, meta=meta)
    assert path.read_bytes() == oracles.export_text_reference(export_game, meta).encode()
    # a fresh export loads without encoding its records again, one
    # distinct record at a time
    assert _read_per_record(path) == (export_game.n_states > 0)
    _spy_checksum(monkeypatch, fail=True)
    loaded = load_table(path)
    assert loaded.meta == meta
    for name in ("values", "t_probs", "j_probs"):
        assert getattr(loaded, name).tobytes() == getattr(export_game, name).tobytes()


# states per block: one level (7 states) per block, blocks of 5 levels
# that cut the table, and one block for the whole table
@pytest.mark.parametrize("block", [1, 40, 333])
def test_export_and_load_cut_the_states_text_between_records(tmp_path, small_game, block,
                                                              monkeypatch):
    _, table = small_game
    monkeypatch.setattr(uwjam.solver, "_IO_STATES", block)
    path = tmp_path / "table.json"
    export_table(table, path, meta={"d_jr": 60.0})
    assert path.read_bytes() == oracles.export_text_reference(table, {"d_jr": 60.0}).encode()
    _spy_checksum(monkeypatch, fail=True)
    assert _read_per_record(path)
    loaded = load_table(path)
    for name in ("values", "t_probs", "j_probs"):
        assert getattr(loaded, name).tobytes() == getattr(table, name).tobytes()


def test_export_memory_is_bounded_by_the_block(tmp_path):
    # the export works one block of levels at a time, so its peak does
    # not grow with the number of states
    peaks = []
    for b_t0 in (100, 400):
        cfg = game_config_for(ScenarioConfig(horizon=1, b_t0=b_t0), 60.0)
        table = solve_full_game(cfg)
        tracemalloc.start()
        try:
            export_table(table, tmp_path / "table.json", meta={"d_jr": 60.0})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_export_bytes_pinned(tmp_path, small_game):
    # sha256 of this export; it moves only when the solver's output moves
    _, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path, meta={"d_jr": 60.0, "per_mode": "uncoded"})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "86ae109553bff262f511b4f9fce0ce8a5b9546e214f6597f221a0cb98abd79e9")


@pytest.fixture(scope="module", params=[20.0, 60.0], ids=["d20m", "d60m"])
def full_scale_gamma1(request):
    cfg = game_config_for(ScenarioConfig(horizon=1), request.param)
    return solve_full_game(cfg), {"d_jr": request.param, "per_mode": "uncoded"}


def test_full_scale_export_bytes_pinned(tmp_path, full_scale_gamma1):
    # sha256 of the 200x200 gamma = 1 exports; they move only when the
    # solver's output moves
    table, meta = full_scale_gamma1
    path = tmp_path / "table.json"
    export_table(table, path, meta=meta)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == {
        20.0: "37bd32d3e11996b5a1c81b7c7f1eb8f6a0ef036685099a1f9985622d3fcedfba",
        60.0: "7e1857fe7fd692ae39bd68b2c92a09a6bd800aebcd1a787765b3d7321176d7ee",
    }[meta["d_jr"]]


def _keys_reversed(doc):
    doc["states"] = [dict(reversed(rec.items())) for rec in doc["states"]]
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _records_reversed(doc):
    doc["states"].reverse()
    return json.dumps(_resum(doc))


def _long_half(doc):
    text, edits = re.subn(r"(?<=[\[,:])0\.5(?=[,\]}])", "0.50",
                          json.dumps(doc, separators=(",", ":")) + "\n")
    assert edits
    return text


@pytest.mark.parametrize("rewrite", [
    lambda doc: json.dumps(doc, indent=2),
    _records_reversed,
    _keys_reversed,
    _long_half,
], ids=["indent", "records-reversed", "keys-reversed", "0.50"])
def test_load_falls_back_on_other_layouts(tmp_path, small_game, rewrite, monkeypatch):
    # the same records laid out otherwise; all but the reordered records
    # keep the original checksum
    _, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path, meta={"d_jr": 60.0})
    path.write_text(rewrite(json.loads(path.read_text())))
    calls = _spy_checksum(monkeypatch)
    loaded = load_table(path)
    assert calls == [table.n_states]
    assert loaded.meta == {"d_jr": 60.0}
    for name in ("values", "t_probs", "j_probs"):
        assert getattr(loaded, name).tobytes() == getattr(table, name).tobytes()
    assert _loads_as_reference(path)


def test_load_reads_the_states_key_the_parser_keeps(tmp_path, small_game):
    # a second "states" key after the first: the parser keeps the second,
    # so the first one's text must not settle the checksum
    _, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path)
    text = path.read_text()
    states = json.loads(text)["states"]
    states[0]["value"] = 0.123
    path.write_text(text[:-2] + ',"states":' + json.dumps(states, separators=(",", ":")) + "}\n")
    with pytest.raises(TableError, match="checksum"):
        load_table(path)


# ---------------------------------------------------------------------------
# table I/O one distinct record at a time, against the whole-document
# writer and reader in oracles


def _loads_as_reference(path):
    """Whether oracles.load_reference accepts path; load_table must agree,
    with bit-equal arrays and equal config and meta. The checksum
    load_table reads from a whole file's own text is the oracle's too."""
    text = path.read_text(encoding="utf-8")
    assert uwjam.solver._text_digest(text) == oracles._file_digest(text)
    try:
        want = oracles.load_reference(path)
    except TableError:
        with pytest.raises(TableError):
            load_table(path)
        return False
    got = load_table(path)
    assert (got.config, got.meta) == (want.config, want.meta)
    for name in ("values", "t_probs", "j_probs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    return True


def _read_per_record(path):
    """Whether load_table reads path through export_table's layout, one
    distinct record body at a time, rather than parsing the whole
    document."""
    with open(path, "rb") as fh:
        return uwjam.solver._read_layout(fh) is not None


def _check_round_trip(path, table, meta=None):
    export_table(table, path, meta=meta)
    assert path.read_bytes() == oracles.export_text_reference(table, meta).encode()
    assert _loads_as_reference(path)
    # an empty states list has no records to read one at a time
    assert _read_per_record(path) == (table.n_states > 0)


def test_table_io_equals_reference_on_export_configs(tmp_path, export_game):
    _check_round_trip(tmp_path / "table.json", export_game, {"d_jr": 60.0})


def test_table_io_equals_reference_at_full_scale(tmp_path, full_scale_gamma1):
    _check_round_trip(tmp_path / "table.json", *full_scale_gamma1)


def test_table_io_equals_reference_on_degenerate_grid(tmp_path, degenerate_tables):
    # records of these games repeat heavily
    for table in degenerate_tables:
        _check_round_trip(tmp_path / "table.json", table)


def test_export_keeps_signed_zeros_apart(tmp_path, small_game):
    # records equal but for the sign of a zero are encoded apart
    cfg, table = small_game
    values = np.zeros_like(table.values)
    values[:, ::2] = -0.0
    t_probs = np.zeros_like(table.t_probs)
    t_probs[..., 0] = 1.0
    t_probs[:, 1::3, 1] = -0.0
    signed = uwjam.solver.StrategyTable(cfg, t_probs, table.j_probs, values)
    path = tmp_path / "table.json"
    _check_round_trip(path, signed)
    assert '"value":-0.0' in path.read_text() and '"value":0.0' in path.read_text()


def _mark(field, literal, index=5):
    """An edit writing literal, raw, as a record's field; with several
    literals, as the field of that record and the ones after it."""
    literals = [literal] if isinstance(literal, str) else literal

    def edit(states):
        for rec in states[index:index + len(literals)]:
            rec[field] = "@mark"
    return edit, literals


def _compact_file(path, table, edit, literals=None, own_checksum=True):
    """Write table as export_table lays it out, with edit applied to its
    records and the members edit marked written as the literals, in
    order. The checksum is the hash of the file's own states text or of
    its records encoded again; a file that is not JSON takes the first."""
    export_table(table, path)
    doc = json.loads(path.read_text())
    edit(doc["states"])
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    for raw in literals or ():
        text = text.replace('"@mark"', raw, 1)
    try:
        checksum = (oracles._file_digest(text)[0] if own_checksum
                    else oracles._checksum(json.loads(text)["states"]))
    except ValueError:
        checksum = oracles._file_digest(text)[0]
    path.write_text(text.replace(doc["checksum"], checksum))


HAND_MADE = [
    (lambda s: s[5].update(extra=1), None),
    (lambda s: s.__setitem__(5, {"extra": 1, **s[5]}), None),
    (lambda s: s[5]["strat_t"].__setitem__(0, "0.5"), None),
    (lambda s: s[5]["strat_t"].__setitem__(0, repr(s[5]["strat_t"][0])), None),
    (lambda s: s[5]["strat_j"].__setitem__(0, [s[5]["strat_j"][0]]), None),
    (lambda s: s[5]["strat_t"].__setitem__(0, 1) if s[5]["strat_t"] == [1.0] else None, None),
    _mark("value", "1e400"),
    _mark("value", " 0.25"),
    _mark("value", "true"),
    _mark("value", "NaN"),
    _mark("value", "1"),
    _mark("b_t", "02"),
    _mark("b_j", "5.0"),
    _mark("strat_j", "[]"),
    _mark("strat_t", '["]"]'),
    # strings that would join two rows if the texts were parsed together
    _mark("strat_t", ('["]', '[",0.5]')),
    # a record the member split does not see, first or in the middle
    _mark("b_t", " 2", 0),
    _mark("b_t", " 2"),
]


@pytest.mark.parametrize("own_checksum", [True, False], ids=["own-text", "re-encoded"])
@pytest.mark.parametrize("edit, literals", HAND_MADE, ids=[
    "extra-last", "extra-first", "string-entry", "numeric-string-entry", "nested-list",
    "int-entry", "value-1e400", "value-space", "value-true", "value-nan",
    "value-int", "b_t-leading-zero", "b_j-float", "strat-empty", "strat-bracket-string",
    "strat-spanning-string",
    "spaced-first-record", "spaced-record"])
def test_hand_made_files_load_as_reference(tmp_path, small_game, edit, literals, own_checksum):
    path = tmp_path / "table.json"
    _compact_file(path, small_game[1], edit, literals, own_checksum)
    _loads_as_reference(path)


def test_repeated_records_with_one_edited_load_as_reference(tmp_path):
    # a table whose records repeat heavily; one copy of the most common
    # record is edited and the checksum recomputed both ways
    cfg = GameConfig(k=2, b_t0=12, b_j0=12, alpha=0.5, p_clear=0.0, p_blocked=0.0, horizon=4)
    table = solve_full_game(cfg)
    path = tmp_path / "table.json"
    export_table(table, path)
    states = json.loads(path.read_text())["states"]
    texts = [json.dumps([rec["strat_t"], rec["strat_j"], rec["value"]]) for rec in states]
    common = max(set(texts), key=texts.count)
    copies = [i for i, text in enumerate(texts) if text == common]
    assert len(copies) > 20
    victim = copies[len(copies) // 2]

    def shift_value(s):
        s[victim]["value"] += 0.25

    def negate_a_zero(s):
        row = s[victim]["strat_t"] if 0.0 in s[victim]["strat_t"] else s[victim]["strat_j"]
        row[row.index(0.0)] = -0.0

    def cell(table, i):
        state = states[i]["b_t"], states[i]["b_j"]
        return b"".join(a[state].tobytes() for a in (table.values, table.t_probs, table.j_probs))

    for edit in (shift_value, negate_a_zero):
        for own_checksum in (True, False):
            _compact_file(path, table, edit, own_checksum=own_checksum)
            assert _loads_as_reference(path)
            # both checksums agree on a compact file with shortest floats
            assert _read_per_record(path)
            # the edited copy no longer reads as its twins
            loaded = load_table(path)
            assert cell(loaded, victim) != cell(loaded, copies[0]) == cell(table, copies[0])


def test_load_rejects_integer_values_beyond_float(tmp_path, small_game):
    # the whole-document loader let the OverflowError out
    path = tmp_path / "table.json"
    _compact_file(path, small_game[1], *_mark("value", "1" + "0" * 400))
    with pytest.raises(OverflowError):
        oracles.load_reference(path)
    with pytest.raises(TableError, match="malformed"):
        load_table(path)


def test_merged_records_load_as_reference(tmp_path, small_game):
    # record 0 without its value and closing brace: its members and
    # record 1's read as one object with repeated keys
    path = tmp_path / "table.json"
    export_table(small_game[1], path)
    text = re.sub(r',"value":[^}]*\},\{', ",", path.read_text(), count=1)
    for checksum in (oracles._file_digest(text)[0],
                     oracles._checksum(json.loads(text)["states"])):
        path.write_text(re.sub(r'"checksum":"\w+"', f'"checksum":"{checksum}"', text))
        assert not _loads_as_reference(path)


def test_load_rejects_unreadable_files(tmp_path, small_game):
    path = tmp_path / "table.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(TableError, match="not a valid table file"):
        load_table(path)
    export_table(small_game[1], path)
    doc = json.loads(path.read_text())
    for config, match in (([1], "config must be a JSON object"), ("k", "JSON object"),
                          (None, "JSON object"), ({"k": "x"}, "bad game config"),
                          ({**doc["config"], "extra": 1}, "bad game config"),
                          ({**doc["config"], "horizon": True}, "horizon must be a number")):
        path.write_text(json.dumps({**doc, "config": config}, separators=(",", ":")) + "\n")
        with pytest.raises(TableError, match=match):
            load_table(path)


# ---------------------------------------------------------------------------
# table reads a piece at a time


def _table_files(tmp_path, table):
    """Files load_table must read alike whatever its piece sizes: table
    as exported with a non-ASCII meta, cut short, and corrupt or hand-made
    in the ways the tests above make them, plus an empty states list."""
    def write(data):
        path = tmp_path / f"file{len(files)}.json"
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        files.append(path)

    files = []
    export = tmp_path / "export.json"
    export_table(table, export, meta=EXPORT_METAS[1])
    text = export.read_text()
    doc = json.loads(text)
    write(text)
    # the meta written unescaped, whole and cut inside a character
    raw = (json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n").encode()
    write(raw)
    for cut in (len(raw) // 2, len(raw) - 2, raw.index("水".encode()) + 1):
        write(raw[:cut])
    write(text.encode().replace(b'"value":', b'"value":\xff', 1))
    write(b"\xff\xfe{}")
    for edit in ({"format": "something-else"}, {"version": 99}, {"config": [1]},
                 {"config": {**doc["config"], "b_t0": 10 ** 9}}):
        write(json.dumps({**doc, **edit}, separators=(",", ":")) + "\n")
    write(text.replace('"value":', '"value":0.123,"x":', 1))
    write(text[:-2] + ',"states":[]}\n')
    for edit, _ in BAD_RECORDS:
        states = json.loads(text)
        edit(states["states"])
        write(json.dumps(_resum(states), separators=(",", ":")) + "\n")
    for (edit, literals), own_checksum in itertools.product(HAND_MADE, (True, False)):
        _compact_file(export, table, edit, literals, own_checksum)
        write(export.read_text())
    empty = GameConfig(k=3, b_t0=2, b_j0=3, alpha=0.4, p_clear=0.1, p_blocked=0.7, horizon=4)
    export_table(solve_full_game(empty), export)
    write(export.read_text())
    return files


def _outcome(path):
    """What load_table makes of path: its message, or the loaded table's
    config, meta and array bytes."""
    try:
        table = load_table(path)
    except TableError as exc:
        return str(exc)
    return (table.config, table.meta,
            *(getattr(table, name).tobytes() for name in ("values", "t_probs", "j_probs")))


# one level (7 states) or the whole table per block; reads of one byte,
# of a few bytes that cut records and characters, or of a record or two
@pytest.mark.parametrize("states, size", [(1, 1), (1, 7), (10 ** 9, 1), (10 ** 9, 7),
                                          (40, 100), (10 ** 9, 1 << 16)])
def test_load_does_not_depend_on_the_piece(tmp_path, small_game, states, size, monkeypatch):
    files = _table_files(tmp_path, small_game[1])
    want = [_outcome(path) for path in files]
    assert sum(isinstance(got, str) for got in want) > len(files) // 2
    monkeypatch.setattr(uwjam.solver, "_IO_STATES", states)
    monkeypatch.setattr(uwjam.solver, "_READ_BYTES", size)
    assert _read_per_record(files[0])
    assert [_outcome(path) for path in files] == want


def test_layout_reader_stops_at_the_first_stray_block(tmp_path, monkeypatch):
    # records in reverse order: the first block strays at its first
    # record, so the piece reader gives up there and the whole-document
    # reader loads the file
    cfg = game_config_for(ScenarioConfig(horizon=1, b_t0=60, b_j0=60), 60.0)
    table = solve_full_game(cfg)
    assert table.n_states > 2 * uwjam.solver._IO_STATES
    path = tmp_path / "table.json"
    export_table(table, path)
    doc = json.loads(path.read_text())
    doc["states"].reverse()
    path.write_text(json.dumps(_resum(doc), separators=(",", ":")) + "\n")
    monkeypatch.setattr(uwjam.solver, "_READ_BYTES", 256)
    # the reader checks a block's first record before it takes the rest
    head = path.read_bytes().index(b'"states":[') + len(b'"states":')
    with open(path, "rb") as fh:
        assert uwjam.solver._read_layout(fh) is None
        assert fh.tell() < head + 4 * 256
    assert _loads_as_reference(path)


# texts around and inside the marker, with characters of 2 to 4 bytes
# that reads of 5 or 7 bytes cut
_PIECE_TEXT = st.text(st.sampled_from('"b_t:{},é水𝄞'), max_size=12)


@given(parts=st.lists(_PIECE_TEXT, max_size=6), size=st.sampled_from([1, 5, 7]),
       bad=st.integers(0, 10 ** 6))
@settings(max_examples=200)
def test_pieces_cut_the_text_at_every_marker(parts, size, bad):
    # '"b_t":'.join of texts that may hold markers of their own, or
    # none at all: the pieces are the text split at every marker, so
    # they join back to it and the first is the text before the first
    text = '"b_t":'.join(parts)
    data = text.encode()
    with mock.patch.object(uwjam.solver, "_READ_BYTES", size):
        assert list(uwjam.solver._pieces(io.BytesIO(data))) == text.split('"b_t":')
        # a byte that no UTF-8 text holds, anywhere in the file
        at = bad % (len(data) + 1)
        with pytest.raises(UnicodeDecodeError):
            list(uwjam.solver._pieces(io.BytesIO(data[:at] + b"\xff" + data[at:])))


def test_load_memory_is_bounded_by_the_piece(tmp_path):
    # a load reads and parses one piece of the file at a time, so its
    # peak above the arrays it returns does not grow with the table
    peaks = []
    for b_t0 in (100, 400):
        cfg = game_config_for(ScenarioConfig(horizon=1, b_t0=b_t0), 60.0)
        export_table(solve_full_game(cfg), tmp_path / "table.json", meta={"d_jr": 60.0})
        tracemalloc.start()
        try:
            table = load_table(tmp_path / "table.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append(peak - sum(a.nbytes for a in (table.values, table.t_probs, table.j_probs)))
    assert peaks[1] < 1.5 * peaks[0]


def test_load_reads_a_crlf_copy_through_the_layout(tmp_path, small_game, monkeypatch):
    # a copy whose final newline became "\r\n" reads as a text-mode read
    # would see it: one distinct record at a time, checksum from its text
    path = tmp_path / "table.json"
    export_table(small_game[1], path, meta={"d_jr": 60.0})
    path.write_bytes(path.read_bytes()[:-1] + b"\r\n")
    assert _read_per_record(path)
    _spy_checksum(monkeypatch, fail=True)
    loaded = load_table(path)
    for name in ("values", "t_probs", "j_probs"):
        assert getattr(loaded, name).tobytes() == getattr(small_game[1], name).tobytes()


def test_load_hashes_a_crlf_file_as_text_mode_reads_it(tmp_path, small_game):
    # one record a line, lines ending "\r\n", and the checksum of the
    # file's own text as a text-mode read sees it: the whole-document
    # reader hashes the text it read, so the file loads as the reference
    # loads it
    path = tmp_path / "table.json"
    export_table(small_game[1], path)
    text = path.read_text().replace("},{", "},\n{")
    text = text.replace(json.loads(text)["checksum"], oracles._file_digest(text)[0])
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert not _read_per_record(path)
    assert _loads_as_reference(path)


@pytest.mark.xfail(strict=True, raises=TableError, reason="ROADMAP item 1")
@pytest.mark.parametrize("d_jr", [28.0, 33.0, 38.0])
def test_near_degenerate_band_tables_load(tmp_path, d_jr):
    # a clear PER of 0 and a blocked PER just below 1 (1 - p_blocked from
    # 3.4e-12 to 7.1e-4 here) leave the stage games near-degenerate: the
    # float simplex loses the low digits of its strategies, whose rows
    # then miss 1 by more than the loader allows
    path = tmp_path / "table.json"
    export_table(solve_full_game(game_config_for(ScenarioConfig(b_t0=20, b_j0=20), d_jr)), path)
    load_table(path)
