"""Acceptance suite: full-scale checks, one test per shipping criterion.

Runs the production scenario (K=4, 200-quantum batteries, 30-frame
lookahead, 26 kHz link at 78 m) end to end. Criteria with explicit
runtime budgets assert wall-clock time; the rest only assert results.
"""

import hashlib
import time

import numpy as np
import pytest
import scipy.stats

from uwjam.analysis import (
    DEFAULT_SEED,
    SensitivitySpec,
    expected_lifetime,
    sensitivity_sweep,
    simulate,
    success_probability,
)
from uwjam.cli import DEFAULT_SWEEP, ScenarioConfig, game_config_for, resolve_error_model
from uwjam.solver import (
    GameConfig,
    GameState,
    action_sets,
    export_table,
    solve_full_game,
)
from uwjam.subgame import blocked_count_distribution

import oracles

SCENARIO = ScenarioConfig()
ALPHAS = (0.2, 0.4, 0.8)
MC_DISTANCES = (20.0, 40.0, 60.0, 100.0, 150.0)

_solve_cache = {}


@pytest.fixture(scope="module")
def solved():
    """Full-scale equilibrium tables, solved once per distance."""

    def get(d_jr):
        if d_jr not in _solve_cache:
            cfg = game_config_for(SCENARIO, d_jr)
            t0 = time.perf_counter()
            table = solve_full_game(cfg)
            _solve_cache[d_jr] = (table, time.perf_counter() - t0)
        return _solve_cache[d_jr]

    return get


def test_criterion_1_lifetime_bounds(criterion):
    with criterion(1):
        # equilibrium lifetime sits between the pure extremes everywhere;
        # the recursion is float arithmetic 50 frames deep, so the bound
        # gets a round-off allowance (observed excess is ~5e-13)
        tol = 1e-9
        for alpha in ALPHAS:
            scen = SCENARIO.replace(alpha=alpha, horizon=1)
            for d in DEFAULT_SWEEP:
                table = solve_full_game(game_config_for(scen, d))
                life = expected_lifetime(table)
                assert 25.0 - tol <= life <= 50.0 + tol, (d, alpha, life)
        # forced pure policies hit the extremes exactly
        cfg = game_config_for(SCENARIO.replace(horizon=1), 60.0)
        slow = oracles.forced_play_table(cfg, lambda s: 4, lambda s: 0)
        assert expected_lifetime(slow) == 50.0
        fast = oracles.forced_play_table(cfg, lambda s: min(8, s.b_t), lambda s: 0)
        assert expected_lifetime(fast) == 25.0


def test_criterion_2_per_distance_profile(criterion):
    with criterion(2):
        pers = {d: resolve_error_model(SCENARIO, d) for d in DEFAULT_SWEEP}
        blocked = [pers[d][1] for d in DEFAULT_SWEEP]
        for nearer, farther in zip(blocked, blocked[1:]):
            assert farther <= nearer + 1e-15
        assert pers[20][1] >= 0.9
        assert pers[120][1] <= 0.1
        assert pers[30][1] > 0.5
        assert pers[100][1] < 0.5


def test_criterion_3_far_jammer_regime(criterion, solved):
    table, _ = solved(150.0)
    with criterion(3):
        st = table.strategy_t(GameState(200, 200))
        assert st.prob_of(4) >= 0.99
        assert success_probability(table) >= 0.98
        assert expected_lifetime(table) >= 49.0


def test_criterion_4_near_jammer_regime(criterion, solved):
    table, _ = solved(20.0)
    with criterion(4):
        cfg = table.config
        assert cfg.p_clear == 0.0
        assert success_probability(table) < 0.10


def test_criterion_5_reduced_game_equilibrium(criterion):
    with criterion(5):
        cfg = GameConfig(k=2, b_t0=20, b_j0=20, alpha=0.4,
                         p_clear=0.04, p_blocked=0.8, horizon=5)
        t0 = time.perf_counter()
        table = solve_full_game(cfg)
        for state in table.states():
            mat = oracles.deployed_matrix(table, state)
            n_ts, n_js = action_sets(state, cfg.k)
            x = np.array([table.strategy_t(state).prob_of(a) for a in n_ts])
            y = np.array([table.strategy_j(state).prob_of(a) for a in n_js])
            value = table.value(state)
            # no pure deviation gains more than eps for either side
            row_gap, col_gap = oracles.best_response_gaps(mat, x, y, value)
            assert row_gap <= 1e-6 and col_gap <= 1e-6, state
            ref = oracles.support_enumeration_solve(mat)
            assert ref is not None, state
            assert abs(value - ref[0]) <= 1e-8, state
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_simulation_agrees_with_analytics(criterion, solved):
    tables = {d: solved(d)[0] for d in MC_DISTANCES}
    with criterion(6):
        runs = 10_000
        t_crit = scipy.stats.t.ppf(0.975, runs - 1)
        for d, table in tables.items():
            res = simulate(table, runs=runs, seed=DEFAULT_SEED)
            life_se = res.lifetime_ci / t_crit
            succ_se = res.success_ci / t_crit
            life_gap = abs(res.mean_lifetime - expected_lifetime(table))
            succ_gap = abs(res.success_rate - success_probability(table))
            assert life_gap <= 3.0 * life_se + 1e-9, (d, life_gap, life_se)
            assert succ_gap <= 3.0 * succ_se + 1e-9, (d, succ_gap, succ_se)


def test_criterion_7_collision_combinatorics(criterion):
    with criterion(7):
        worst = 0.0
        for k in (2, 3, 4):
            for n_t in range(k, 2 * k + 1):
                for n_j in range(0, 2 * k):
                    got = blocked_count_distribution(k, n_t, n_j)
                    ref = oracles.blocked_count_exhaustive(k, n_t, n_j)
                    worst = max(worst, float(np.abs(got - ref).max()))
        assert worst < 1e-12


def test_criterion_8_perturbation_stability(criterion, solved):
    table, _ = solved(60.0)
    with criterion(8):
        spec = SensitivitySpec(sigmas=(0.0, 0.05, 0.1), runs=1000)
        rows = sensitivity_sweep(table, spec=spec, seed=DEFAULT_SEED)
        baseline = simulate(table, runs=1000, seed=DEFAULT_SEED)
        assert rows[0] == baseline  # sigma=0 is the unperturbed run, bit for bit
        for row in rows[1:]:
            assert row.mean_lifetime == baseline.mean_lifetime
            assert row.lifetime_ci == baseline.lifetime_ci


def test_criterion_9_solve_time_and_reproducibility(criterion, solved, tmp_path):
    table_a, elapsed_a = solved(60.0)
    with criterion(9):
        assert elapsed_a < 600.0
        assert table_a.n_states == 197 * 201
        cfg = game_config_for(SCENARIO, 60.0)
        t0 = time.perf_counter()
        table_b = solve_full_game(cfg)
        elapsed_b = time.perf_counter() - t0
        assert elapsed_b < 600.0
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        export_table(table_a, path_a)
        export_table(table_b, path_b)
        digest_a = hashlib.sha256(path_a.read_bytes()).hexdigest()
        digest_b = hashlib.sha256(path_b.read_bytes()).hexdigest()
        assert digest_a == digest_b
        # the gamma = 30 bytes, pinned: they move only when the solver's
        # output moves
        assert digest_a == "9961c18c028332ddf2832fb47642d5f4757973ad610568e52f92c0868edc8621"
