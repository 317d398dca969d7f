"""Each benchmark check passes correct output and rejects a deliberately
wrong one.

    python3 -m pytest bench/tests
"""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
from uwjam import analysis, solver  # noqa: E402

CONFIG = solver.GameConfig(k=2, b_t0=16, b_j0=10, alpha=0.4, p_clear=0.1,
                           p_blocked=0.8, horizon=3)


@pytest.fixture(scope="module")
def table():
    return solver.solve_full_game(CONFIG)


def _copy(table):
    return solver.StrategyTable(table.config, table.t_probs.copy(), table.j_probs.copy(),
                                table.values.copy(), table.horizon_values.copy())


def _mixed_state(table):
    """A state where both players mix, so moving mass changes the game."""
    k = table.config.k
    for b_t in range(table.config.b_t0, k - 1, -1):
        for b_j in range(table.config.b_j0, -1, -1):
            if (table.t_probs[b_t, b_j] > 1e-3).sum() > 1 and \
                    (table.j_probs[b_t, b_j] > 1e-3).sum() > 1:
                return b_t, b_j
    raise AssertionError("no mixed state in the test game")


def test_certify_passes_solved_table(table):
    assert checks.certify(table) == []


def _move_mass(row, size):
    """Shift up to 0.3 of probability from the likeliest action to the next."""
    hi = int(row[:size].argmax())
    shift = min(0.3, row[hi])
    row[hi] -= shift
    row[(hi + 1) % size] += shift


@pytest.mark.parametrize("player", ["t_probs", "j_probs"])
def test_certify_rejects_strategy_moved_off_equilibrium(table, player):
    bad = _copy(table)
    b_t, b_j = _mixed_state(table)
    m = min(2 * CONFIG.k, b_t) - CONFIG.k + 1
    n = min(2 * CONFIG.k - 1, b_j) + 1
    _move_mass(getattr(bad, player)[b_t, b_j], m if player == "t_probs" else n)
    assert [p for p in checks.certify(bad) if p.startswith(f"state ({b_t}, {b_j})")]


def test_certify_rejects_nan_strategy(table):
    bad = _copy(table)
    bad.t_probs[CONFIG.k, 0, 0] = np.nan
    assert checks.certify(bad) == [f"state ({CONFIG.k}, 0): certificate error nan > 1e-06"]


def test_highs_agrees_and_rejects_shifted_value(table):
    states = [(16, 10), (5, 3), (2, 0)]
    assert checks.highs_problems(table, states) == []
    bad = _copy(table)
    bad.values[5, 3] += 1e-7
    assert len(checks.highs_problems(bad, states)) == 1


def test_same_table_rejects_changed_probability_row(table, tmp_path):
    path = tmp_path / "t.json"
    solver.export_table(table, path)
    loaded = solver.load_table(path)
    assert checks.same_table(table, loaded) == []
    b_t, b_j = _mixed_state(table)
    loaded.t_probs[b_t, b_j, :2] = loaded.t_probs[b_t, b_j, 1::-1]
    assert checks.same_table(table, loaded) == ["t_probs differs after export and load"]


def test_lifetime_success_bounds(table):
    report = analysis.analyze(table)
    assert checks.lifetime_success_problems(report, CONFIG.k, CONFIG.b_t0) == []
    too_long = analysis.AnalysisReport(
        lifetime=CONFIG.b_t0 / CONFIG.k + 1e-6, success=report.success,
        first_frame=report.first_frame, value=report.value,
        error_pair=report.error_pair, config=report.config)
    assert len(checks.lifetime_success_problems(too_long, CONFIG.k, CONFIG.b_t0)) == 1


def test_monte_carlo_rejects_mean_shifted_by_ten_standard_errors():
    runs, ci = 10_000, 0.02
    se = checks.standard_error(ci, runs)
    assert checks.monte_carlo_problems("lifetime", 40.0, 40.0 + 4.9 * se, ci, runs) == []
    assert len(checks.monte_carlo_problems("lifetime", 40.0, 40.0 + 10 * se, ci, runs)) == 1
    assert len(checks.monte_carlo_problems("lifetime", 40.0, 40.0 - 10 * se, ci, runs)) == 1


def test_monte_carlo_without_spread_needs_equality():
    assert checks.monte_carlo_problems("lifetime", 50.0, 50.0, 0.0, 100) == []
    assert len(checks.monte_carlo_problems("lifetime", 50.0, 49.99, 0.0, 100)) == 1


def _rows(result, sigmas, lifetimes=None):
    lifetimes = lifetimes or [result.mean_lifetime] * len(sigmas)
    return [{"sigma": s, "lifetime": life, "lifetime_ci": result.lifetime_ci,
             "psucc": result.success_rate, "psucc_ci": result.success_ci}
            for s, life in zip(sigmas, lifetimes)]


def test_sensitivity_rejects_lifetimes_that_differ_across_sigma(table):
    plain = analysis.simulate(table, 50, seed=3)
    sigmas = (0.0, 0.05, 0.1)
    assert checks.sensitivity_problems(_rows(plain, sigmas), plain) == []
    life = plain.mean_lifetime
    problems = checks.sensitivity_problems(_rows(plain, sigmas, [life, life, life + 0.02]), plain)
    assert len(problems) == 1 and "lifetimes differ" in problems[0]


def test_sensitivity_rejects_sigma_zero_that_differs_from_plain(table):
    plain = analysis.simulate(table, 50, seed=3)
    other = analysis.simulate(table, 50, seed=4)
    problems = checks.sensitivity_problems(_rows(other, (0.0, 0.1)), plain)
    assert any("sigma = 0" in p for p in problems)


def test_dummy_jammer_check():
    dummy = solver.solve_vs_fixed_jammer(CONFIG)
    assert checks.dummy_jammer_problems(dummy) == []
    dummy.j_probs[9, 5] = np.roll(dummy.j_probs[9, 5], 1)
    assert len(checks.dummy_jammer_problems(dummy)) == 1
