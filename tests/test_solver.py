"""Matrix-game LP, battery-state dynamic program, table persistence."""

import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

import uwjam.solver
from uwjam.errors import ConfigError, SolverError, TableError
from uwjam.solver import (
    GameConfig,
    GameState,
    MixedStrategy,
    action_sets,
    dummy_jammer_policy,
    export_table,
    fixed_policy_table,
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
    assert [(lo, hi, m) for lo, hi, m, _, _ in blocks] == (
        [(4, 5, 1), (5, 6, 2), (6, 7, 3), (7, 8, 4)]
        + [(8, 12, 5), (12, 16, 5), (16, 20, 5), (20, 22, 5)])
    lo, hi, m, safe_bt, alive = blocks[4]
    # from b_t=9, n_t=4 leaves 5 and n_t=6 drains below k: the game ends
    assert safe_bt[1, 0] == 5 and alive[1, 0]
    assert not alive[1, 2]
    grid = np.arange(22 * 4, dtype=float).reshape(22, 4) + 1.0
    nxt = _next_values(grid, k, safe_bt, alive)
    assert nxt.shape == (4, 4, 5, 8)
    # (9, 3) sending 4 and jamming 3 leads to (5, 0)
    assert nxt[1, 3, 0, 3] == grid[5, 0]
    assert nxt[1, 3, 2, 0] == 0.0
    # jam counts the jammer cannot afford read b_j' = 0
    assert nxt[1, 3, 0, 7] == grid[5, 0]
    # leading axes of the grid carry through
    stacked = _next_values(np.stack([grid, 2 * grid]), k, safe_bt, alive)
    np.testing.assert_array_equal(stacked, np.stack([nxt, 2 * nxt]))


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
    assert table.value(GameState(1, 6)) == 0.0     # terminal
    with pytest.raises(ValueError):
        table.horizon_value(s0, -1)


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
    # counted where the stage batches are built, before neighbour
    # repeats are dropped
    seen = {"calls": 0, "instances": 0}
    real = uwjam.solver._solve_stage_batch

    def counting(stage):
        seen["calls"] += 1
        seen["instances"] += stage.shape[0] * stage.shape[1]
        return real(stage)

    monkeypatch.setattr(uwjam.solver, "_solve_stage_batch", counting)
    solve_full_game(cfg)
    k, full = cfg.k, 2 * cfg.k - 1
    # level blocks (first level, level count): levels k .. 2k-1 alone,
    # then blocks of k levels
    blocks = [(b_t, 1) for b_t in range(k, min(2 * k, cfg.b_t0 + 1))]
    blocks += [(lo, min(k, cfg.b_t0 + 1 - lo)) for lo in range(2 * k, cfg.b_t0 + 1, k)]
    want, solved = 0, 0
    for lo, levels in blocks:
        depth = min(cfg.effective_horizon(), lo // k)
        # a depth g the transmitter cannot exhaust from level lo - 1
        # (2kg <= lo - 1) repeats that level and is not solved
        low = min(depth, (lo - 1) // (2 * k))
        solved += low < depth
        # truncated columns b_j < 2k-1 at every depth, then the full-width
        # columns up to the jammer's spending cap g(2k-1) at depth g
        want += levels * sum(min(full, cfg.b_j0 + 1) + max(0, min(cfg.b_j0, g * full) - full + 1)
                             for g in range(low + 1, depth + 1))
    assert seen["instances"] == want
    # one call per block with a depth left to solve
    assert seen["calls"] == solved


def test_stage_batch_pivots_neighbour_repeats_once(monkeypatch):
    rng = np.random.default_rng(5)
    stage = rng.normal(size=(4, 7, 3, 4))
    stage[1, 2] = stage[0, 2]            # the same pair one level down
    stage[2, 2] = stage[1, 2]            # ... twice: a chain
    stage[0, 4] = stage[0, 3]            # the previous pair on the level
    stage[0, 5] = stage[0, 4]
    stage[1, 5] = stage[0, 5]            # both ways
    stage[3, 6] = stage[3, 5]
    stage[3, 0] = stage[2, 6]            # equal, but neither neighbour
    stage[2, 1] = 0.0
    stage[2, 0] = -0.0                   # equal values, other bytes
    sent = []
    real = uwjam.solver._minimax_batch

    def counting(matrices):
        sent.append(len(matrices))
        return real(matrices)

    monkeypatch.setattr(uwjam.solver, "_minimax_batch", counting)
    monkeypatch.setattr(uwjam.solver, "_SIMPLEX_CHUNK", 1)
    got = uwjam.solver._solve_stage_batch(stage)
    assert sent == [4 * 7 - 6]
    for out, want in zip(got, real(stage.reshape(-1, 3, 4))):
        assert out.tobytes() == want.tobytes()
    # a batch of at most one chunk goes to the kernel whole
    monkeypatch.setattr(uwjam.solver, "_SIMPLEX_CHUNK", stage.shape[0] * stage.shape[1])
    uwjam.solver._solve_stage_batch(stage)
    assert sent[-1] == 4 * 7


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
        seen["built"] += stage.shape[0] * stage.shape[1]
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


def test_table_state_bounds_checks(small_game):
    _, table = small_game
    with pytest.raises(ValueError):
        table.value(GameState(9, 6))
    with pytest.raises(ValueError):
        table.strategy_t(GameState(1, 3))


# ---------------------------------------------------------------------------
# fixed and dummy policies


def test_dummy_jammer_policy():
    cfg = GameConfig(k=4, b_t0=40, b_j0=40, alpha=0.4,
                     p_clear=0.04, p_blocked=0.8, horizon=3)
    policy = dummy_jammer_policy(cfg)
    assert policy(GameState(40, 40)) == 5
    assert policy(GameState(40, 3)) == 3
    assert policy(GameState(40, 0)) == 0


def test_solve_vs_fixed_jammer(small_game):
    cfg, ne_table = small_game
    table = solve_vs_fixed_jammer(cfg)
    policy = dummy_jammer_policy(cfg)
    for state in table.states():
        sj = table.strategy_j(state)
        assert sj.prob_of(policy(state)) == 1.0
        st = table.strategy_t(state)
        assert max(st.probs) == 1.0  # best response is pure
    # best response against a fixed opponent does at least as well as
    # the equilibrium guarantee
    s0 = GameState(8, 6)
    assert table.value(s0) >= ne_table.value(s0) - 1e-12


def test_fixed_jammer_rejects_illegal_policy():
    cfg = GameConfig(k=2, b_t0=8, b_j0=6, alpha=0.4,
                     p_clear=0.1, p_blocked=0.7, horizon=3)
    with pytest.raises(ValueError):
        solve_vs_fixed_jammer(cfg, jammer_policy=lambda s: 5)


def test_fixed_policy_table_pure_play():
    cfg = GameConfig(k=2, b_t0=8, b_j0=8, alpha=0.4,
                     p_clear=0.1, p_blocked=0.7, horizon=3)
    table = fixed_policy_table(cfg, lambda s: 2, lambda s: 0)
    # deterministic play: exactly 3 frames of u(2, 0) remain from (8, 8)
    u = subgame_payoff(cfg.subgame, 2, 0)
    assert table.value(GameState(8, 8)) == pytest.approx(3 * u, abs=1e-12)
    assert table.value(GameState(5, 8)) == pytest.approx(2 * u, abs=1e-12)
    assert table.strategy_t(GameState(8, 8)).prob_of(2) == 1.0


def test_fixed_policy_table_mixed_play():
    cfg = GameConfig(k=2, b_t0=4, b_j0=2, alpha=0.4,
                     p_clear=0.1, p_blocked=0.7, horizon=3)
    mix = MixedStrategy((2, 3), (0.5, 0.5))
    table = fixed_policy_table(cfg, lambda s: mix if s.b_t >= 4 else 2,
                               lambda s: 0)
    u2 = subgame_payoff(cfg.subgame, 2, 0)
    u3 = subgame_payoff(cfg.subgame, 3, 0)
    # n_t=2 leaves one more frame, n_t=3 ends the game
    want = 0.5 * (u2 + u2) + 0.5 * u3
    assert table.value(GameState(4, 2)) == pytest.approx(want, abs=1e-12)


def test_fixed_policy_table_rejects_illegal_action():
    cfg = GameConfig(k=2, b_t0=4, b_j0=2, alpha=0.4,
                     p_clear=0.1, p_blocked=0.7, horizon=3)
    with pytest.raises(ValueError):
        fixed_policy_table(cfg, lambda s: 7, lambda s: 0)
    with pytest.raises(ValueError):
        fixed_policy_table(cfg, lambda s: 2, lambda s: 3)


def _mixed_sends(state):
    sends = tuple(range(2, min(4, state.b_t) + 1))          # k = 2
    weights = np.arange(1.0, len(sends) + 1.0)
    return MixedStrategy(sends, tuple(weights / weights.sum()))


def _mixed_jams(state):
    jams = tuple(range(min(3, state.b_j) + 1))
    return MixedStrategy(jams, (1.0 / len(jams),) * len(jams))


def _cfg(k, b_t0, b_j0, **over):
    base = dict(alpha=0.4, p_clear=0.1, p_blocked=0.7, horizon=4)
    base.update(over)
    return GameConfig(k=k, b_t0=b_t0, b_j0=b_j0, **base)


INF = dict(horizon=math.inf, discount=0.9)


# (config, jammer policy, transmitter policy or None for the best response)
@pytest.mark.parametrize("cfg, j_policy, t_policy", [
    pytest.param(_cfg(1, 7, 3, horizon=3), lambda s: min(1, s.b_j), None,
                 id="k1-best-response"),
    pytest.param(_cfg(1, 7, 3, horizon=3), lambda s: min(1, s.b_j),
                 lambda s: 1 if s.b_t % 2 else min(2, s.b_t), id="k1-fixed"),
    pytest.param(_cfg(2, 11, 0, alpha=0.5, p_clear=0.0, p_blocked=1.0), lambda s: 0, None,
                 id="bj0-best-response"),
    pytest.param(_cfg(2, 11, 7), lambda s: min(3, s.b_j), None, id="k2-best-response"),
    pytest.param(_cfg(2, 11, 7), _mixed_jams, _mixed_sends, id="k2-mixed"),
    pytest.param(_cfg(3, 13, 8, p_clear=0.05, p_blocked=0.6, **INF), lambda s: min(4, s.b_j),
                 None, id="inf-best-response"),
    pytest.param(_cfg(2, 11, 7, p_clear=0.05, p_blocked=0.6, **INF), _mixed_jams,
                 _mixed_sends, id="inf-mixed"),
])
def test_policy_sweep_matches_per_state_reference(cfg, j_policy, t_policy):
    if t_policy is None:
        table = solve_vs_fixed_jammer(cfg, j_policy)
    else:
        table = fixed_policy_table(cfg, t_policy, j_policy)
    want_hv, want_t = oracles.fixed_play_reference(cfg, j_policy, t_policy)
    np.testing.assert_allclose(table.horizon_values, want_hv, rtol=0, atol=1e-12)
    np.testing.assert_allclose(table.values, want_hv[-1], rtol=0, atol=1e-12)
    # the best response is the reference's first maximal row exactly
    np.testing.assert_array_equal(table.t_probs, want_t)


def test_best_response_to_mixed_jammer():
    # rounding may split exact ties between rows against a mixed jammer,
    # so only the values are compared; they show each reply is a best row
    cfg = _cfg(2, 11, 7)
    table = solve_vs_fixed_jammer(cfg, _mixed_jams)
    want_hv, _ = oracles.fixed_play_reference(cfg, _mixed_jams)
    np.testing.assert_allclose(table.horizon_values, want_hv, rtol=0, atol=1e-12)
    assert (table.t_probs[cfg.k:].max(axis=2) == 1.0).all()


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


@pytest.mark.parametrize("edit, match", [
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
])
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
    # a fresh export loads without encoding its records again
    _spy_checksum(monkeypatch, fail=True)
    loaded = load_table(path)
    assert loaded.meta == meta
    for name in ("values", "t_probs", "j_probs"):
        assert getattr(loaded, name).tobytes() == getattr(export_game, name).tobytes()


@pytest.mark.parametrize("block", [1, 40, 333])
def test_export_and_load_cut_the_states_text_between_records(tmp_path, small_game, block,
                                                              monkeypatch):
    _, table = small_game
    monkeypatch.setattr(uwjam.solver, "_BLOCK", block)
    path = tmp_path / "table.json"
    export_table(table, path, meta={"d_jr": 60.0})
    assert path.read_bytes() == oracles.export_text_reference(table, {"d_jr": 60.0}).encode()
    _spy_checksum(monkeypatch, fail=True)
    assert load_table(path).values.tobytes() == table.values.tobytes()


def test_export_bytes_pinned(tmp_path, small_game):
    # sha256 of this export as written by the two-encode writer
    _, table = small_game
    path = tmp_path / "table.json"
    export_table(table, path, meta={"d_jr": 60.0, "per_mode": "uncoded"})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "3eb98804f51cfc707a5b11a312e215ef4fb914d03e1382292aa287241b8a2353")


def test_export_falls_back_when_records_are_not_rewritten(tmp_path, small_game, monkeypatch):
    _, table = small_game
    monkeypatch.setattr(uwjam.solver, "_SWAPPED_MEMBERS", re.compile("(x)(x)(x)(x)"))
    calls = _spy_checksum(monkeypatch)
    path = tmp_path / "table.json"
    export_table(table, path)
    assert calls == [table.n_states]
    assert path.read_bytes() == oracles.export_text_reference(table).encode()


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
