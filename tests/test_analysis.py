"""Closed-form lifetime/success evaluation and the Monte Carlo simulator."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

import uwjam.analysis
from uwjam.analysis import (
    AnalysisReport,
    SensitivitySpec,
    SimulationResult,
    _ci_half_width,
    _t975,
    analyze,
    expected_lifetime,
    first_frame_success,
    mismatch_evaluation,
    sensitivity_sweep,
    simulate,
    success_probability,
)
from uwjam.solver import (
    GameConfig,
    GameState,
    MixedStrategy,
    StrategyTable,
    solve_full_game,
)
from uwjam.subgame import expected_success

from oracles import forced_play_table, simulate_reference, t975_reference


def _cfg(**over):
    base = dict(k=2, b_t0=8, b_j0=6, alpha=0.4,
                p_clear=0.1, p_blocked=0.7, horizon=3)
    base.update(over)
    return GameConfig(**base)


@pytest.fixture(scope="module")
def ne_table():
    return solve_full_game(_cfg())


# ---------------------------------------------------------------------------
# closed-form evaluation


def test_lifetime_pure_minimum_send():
    cfg = _cfg(k=4, b_t0=200, b_j0=200, horizon=1)
    table = forced_play_table(cfg, lambda s: 4, lambda s: 0)
    assert expected_lifetime(table) == 50.0
    # min() keeps the policy legal at off-path low-battery states
    table = forced_play_table(cfg, lambda s: min(8, s.b_t), lambda s: 0)
    assert expected_lifetime(table) == 25.0


def test_lifetime_hand_check_mixed():
    # from b_t=5 (k=2): pure n_t=2 lasts 2 frames
    cfg = _cfg(b_t0=5, b_j0=0)
    pure = forced_play_table(cfg, lambda s: 2, lambda s: 0)
    assert expected_lifetime(pure) == 2.0
    # half the time n_t=4 ends the game after one frame: E = .5*2 + .5*1
    mix = MixedStrategy((2, 4), (0.5, 0.5))
    mixed = forced_play_table(cfg, lambda s: mix if s.b_t == 5 else 2,
                              lambda s: 0)
    assert expected_lifetime(mixed) == pytest.approx(1.5, abs=1e-12)
    assert expected_lifetime(mixed, GameState(3, 0)) == 1.0


def test_success_hand_check():
    # deterministic two-frame game, each frame wins with 0.7^2
    cfg = _cfg(b_t0=4, b_j0=0, p_clear=0.3)
    table = forced_play_table(cfg, lambda s: 2, lambda s: 0)
    chi = expected_success(cfg.subgame, 2, 0)
    assert chi == pytest.approx(0.49, abs=1e-15)
    assert success_probability(table) == pytest.approx(chi, abs=1e-12)
    assert first_frame_success(table) == pytest.approx(chi, abs=1e-12)


def test_success_bounded_when_rows_overshoot_one():
    # strategy rows may sum to 1 within a few ulp; on a channel that wins
    # every frame the weighted sums then land just above 1
    cfg = _cfg(b_t0=4, b_j0=0, p_clear=0.0, p_blocked=0.0)
    over = np.nextafter(np.nextafter(1.0, 2.0), 2.0)  # 1 + 2 ulp
    t_probs = np.zeros((5, 1, 3))
    t_probs[2:, :, 0] = over
    j_probs = np.zeros((5, 1, 4))
    j_probs[2:, :, 0] = 1.0
    table = StrategyTable(cfg, t_probs, j_probs, np.zeros((5, 1)))
    assert expected_success(cfg.subgame, 2, 0) == 1.0
    assert uwjam.analysis._success_map(table)[4, 0] > 1.0
    assert success_probability(table) == 1.0
    assert first_frame_success(table) == 1.0
    assert analyze(table).success == analyze(table).first_frame == 1.0


def test_success_error_pair_override(ne_table):
    # a perfect channel wins every frame no matter the strategy
    assert success_probability(ne_table, error_pair=(0.0, 0.0)) == pytest.approx(1.0)
    base = success_probability(ne_table)
    worse = success_probability(ne_table, error_pair=(0.5, 0.95))
    assert worse < base
    ff = first_frame_success(ne_table, error_pair=(0.0, 0.0))
    assert ff == pytest.approx(1.0)


def test_terminal_states_score_zero(ne_table):
    # from b_t < k no frame is played, so none succeeds
    k, b_j0 = ne_table.config.k, ne_table.config.b_j0
    for state in (GameState(0, 0), GameState(k - 1, b_j0)):
        assert expected_lifetime(ne_table, state) == 0.0
        assert success_probability(ne_table, state) == 0.0
        assert first_frame_success(ne_table, state) == 0.0


def test_analyze_report(ne_table):
    rep = analyze(ne_table)
    assert isinstance(rep, AnalysisReport)
    assert rep.lifetime == expected_lifetime(ne_table)
    assert rep.success == success_probability(ne_table)
    assert rep.first_frame == first_frame_success(ne_table)
    assert rep.value == ne_table.value(GameState(8, 6))
    assert rep.error_pair == (0.1, 0.7)
    assert rep.config == ne_table.config


def test_mismatch_evaluation(ne_table):
    rep = mismatch_evaluation(ne_table, (0.0, 1.0))
    # lifetime depends only on the strategies, not the channel truth
    assert rep.lifetime == expected_lifetime(ne_table)
    assert rep.success == success_probability(ne_table, error_pair=(0.0, 1.0))
    assert rep.error_pair == (0.0, 1.0)
    # a harsher true channel cannot raise the success probability
    easy = mismatch_evaluation(ne_table, (0.0, 0.0))
    assert rep.success <= easy.success


# ---------------------------------------------------------------------------
# Monte Carlo simulator


def test_simulate_deterministic(ne_table):
    a = simulate(ne_table, runs=200, seed=42)
    b = simulate(ne_table, runs=200, seed=42)
    assert a == b
    c = simulate(ne_table, runs=200, seed=43)
    assert c != a


def test_simulate_pure_game_exact():
    cfg = _cfg(b_t0=8, b_j0=8)
    table = forced_play_table(cfg, lambda s: 2, lambda s: 0)
    res = simulate(table, runs=64, seed=1)
    assert res.mean_lifetime == 4.0
    assert res.lifetime_ci == 0.0
    assert res.runs == 64 and res.seed == 1 and res.sigma == 0.0


def test_simulate_matches_analytics(ne_table):
    runs = 4000
    res = simulate(ne_table, runs=runs, seed=9)
    t_crit = scipy.stats.t.ppf(0.975, runs - 1)
    life_se = res.lifetime_ci / t_crit
    succ_se = res.success_ci / t_crit
    assert abs(res.mean_lifetime - expected_lifetime(ne_table)) <= 5 * life_se + 1e-12
    assert abs(res.success_rate - success_probability(ne_table)) <= 5 * succ_se + 1e-12
    assert 0.0 <= res.success_rate <= 1.0


def test_simulate_error_pair_override(ne_table):
    res = simulate(ne_table, runs=100, seed=3, error_pair=(0.0, 0.0))
    assert res.success_rate == pytest.approx(1.0, abs=1e-12)


def test_simulate_validation(ne_table):
    with pytest.raises(ValueError):
        simulate(ne_table, runs=0)
    with pytest.raises(ValueError):
        simulate(ne_table, runs=10, sigma=-0.1)


@pytest.mark.parametrize("pair", [(-0.5, 2.0), (1.5, 0.2), (0.1, math.nan)])
def test_error_pair_validated_alike(ne_table, pair):
    # a PER outside [0, 1] is rejected by the closed form and the
    # simulator alike
    with pytest.raises(ValueError):
        analyze(ne_table, error_pair=pair)
    with pytest.raises(ValueError):
        simulate(ne_table, 20, error_pair=pair)


def test_sensitivity_sweep_lifetime_invariant(ne_table):
    spec = SensitivitySpec(sigmas=(0.0, 0.05, 0.1), runs=300)
    rows = sensitivity_sweep(ne_table, spec=spec, seed=7)
    assert [r.sigma for r in rows] == [0.0, 0.05, 0.1]
    assert all(isinstance(r, SimulationResult) for r in rows)
    # jitter only moves the packet-error coins, never the action draws,
    # so every sigma sees the same battery trajectory
    assert rows[0].mean_lifetime == rows[1].mean_lifetime == rows[2].mean_lifetime
    assert rows[0].lifetime_ci == rows[1].lifetime_ci
    # sigma zero is the plain simulation, bit for bit
    assert rows[0] == simulate(ne_table, runs=300, seed=7)
    assert rows[1].success_rate != rows[0].success_rate


def test_ci_half_width():
    assert _ci_half_width(np.array([3.0])) == 0.0
    assert _ci_half_width(np.array([2.0, 2.0, 2.0])) == 0.0
    samples = np.array([1.0, 2.0, 4.0, 8.0])
    want = scipy.stats.t.ppf(0.975, 3) * samples.std(ddof=1) / 2.0
    assert _ci_half_width(samples) == pytest.approx(want, rel=1e-12)
    for n in (2, 30, 1000, 10_000):
        samples = np.arange(n, dtype=float) ** 2
        want = float(t975_reference(n - 1) * samples.std(ddof=1) / math.sqrt(n))
        assert _ci_half_width(samples) == want
        # scipy's quantile reads the float 0.975, 2.2e-17 below the level,
        # and is itself 1-2 ulp off: 6 ulp apart at n = 2, 3 at the others
        scipy_t = float(scipy.special.stdtrit(n - 1, 0.975))
        assert abs(_t975(n - 1) - scipy_t) <= 6 * math.ulp(scipy_t)


@pytest.mark.parametrize("nu", [*range(1, 201), 999, 9999])
def test_t975_correctly_rounded(nu):
    assert _t975(nu) == t975_reference(nu)


@given(st.integers(1, 10 ** 7))
@settings(max_examples=30, deadline=None)
def test_t975_correctly_rounded_sampled(nu):
    assert _t975(nu) == t975_reference(nu)


def _python(code):
    """Run code in a fresh interpreter that imports the uwjam under test;
    fail on a nonzero exit, showing its standard error."""
    src = os.path.dirname(os.path.dirname(uwjam.analysis.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out


def test_intervals_without_scipy():
    # the Monte Carlo intervals need nothing beyond numpy and the
    # standard library: with scipy unimportable they are still finite
    out = _python(
        "import sys; sys.modules['scipy'] = None\n"
        "from uwjam import GameConfig, SensitivitySpec, sensitivity_sweep, simulate, "
        "solve_full_game\n"
        "table = solve_full_game(GameConfig(k=2, b_t0=8, b_j0=6, alpha=0.4, p_clear=0.1, "
        "p_blocked=0.7, horizon=3))\n"
        "rows = [simulate(table, 50, seed=1)] + sensitivity_sweep(\n"
        "    table, SensitivitySpec(sigmas=(0.0, 0.1), runs=40), seed=1)\n"
        "print(*[x for r in rows for x in (r.lifetime_ci, r.success_ci)])\n")
    widths = [float(x) for x in out.stdout.split()]
    assert len(widths) == 6 and all(math.isfinite(w) and w > 0.0 for w in widths)


def test_simulation_result_frozen(ne_table):
    res = simulate(ne_table, runs=10, seed=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.runs = 5


def test_import_keeps_scipy_out():
    # scipy.stats costs ~1.4 s and ~70 MB at import, and nothing in the
    # package needs it: the interval quantile is computed in-package, and
    # only that computation imports decimal. Likewise numpy.random
    # (~10 ms), which only the simulator needs, and hashlib, which maps
    # OpenSSL's libcrypto (~3.6 MB) and only table files need: solving
    # and analysing a game load neither. numpy before 2.0 imports
    # numpy.random, and through it _hashlib, with numpy itself
    out = _python("import sys, numpy; before = set(sys.modules); import uwjam; "
                  "from uwjam.solver import GameConfig, solve_full_game; "
                  "from uwjam.analysis import analyze; "
                  "analyze(solve_full_game(GameConfig(k=2, b_t0=12, b_j0=10, alpha=0.4, "
                  "p_clear=0.1, p_blocked=0.8, horizon=3))); "
                  "print(sorted(m for m in set(sys.modules) - before "
                  "if m.split('.')[0] in ('scipy', 'decimal', 'hashlib', '_hashlib') "
                  "or m.startswith('numpy.random')))")
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# chunked simulator against the per-run reference


class _QuarterGenerator(np.random.Generator):
    """Uniforms rounded down to quarters: slot keys tie, action picks land
    exactly on cumulative probabilities, and coins equal the PERs."""

    def random(self, size=None, dtype=np.float64, out=None):
        u = super().random(size, dtype, out)
        np.floor(u * 4.0, out=u)
        u /= 4.0
        return u


def _quarter_play(state):
    # n_t from 2 up to what the battery allows, in quarters
    if state.b_t == 2:
        return 2
    if state.b_t == 3:
        return MixedStrategy((2, 3), (0.5, 0.5))
    return MixedStrategy((2, 3, 4), (0.25, 0.25, 0.5))


def _quarter_jam(state):
    n_j = tuple(range(min(3, state.b_j) + 1))
    probs = {1: (1.0,), 2: (0.5, 0.5), 3: (0.25, 0.25, 0.5), 4: (0.25,) * 4}[len(n_j)]
    return MixedStrategy(n_j, probs)


_MC_TABLES = {
    "ne": lambda: solve_full_game(_cfg()),
    "k1": lambda: solve_full_game(_cfg(k=1, b_t0=9, b_j0=4, horizon=2)),
    "k4": lambda: solve_full_game(_cfg(k=4, b_t0=30, b_j0=20, horizon=2)),
    "bj0": lambda: solve_full_game(_cfg(b_t0=11, b_j0=0)),
    "per00": lambda: solve_full_game(_cfg(p_clear=0.0, p_blocked=0.0)),
    "per01": lambda: solve_full_game(_cfg(p_clear=0.0, p_blocked=1.0)),
    "per11": lambda: solve_full_game(_cfg(p_clear=1.0, p_blocked=1.0)),
    "pure": lambda: forced_play_table(_cfg(b_t0=13), lambda s: min(3, s.b_t),
                                      lambda s: min(1, s.b_j)),
    "quarters": lambda: forced_play_table(_cfg(b_t0=14, b_j0=8, p_clear=0.25, p_blocked=0.75),
                                          _quarter_play, _quarter_jam),
}


@pytest.fixture(scope="module")
def mc_tables():
    return {name: build() for name, build in _MC_TABLES.items()}


@pytest.mark.parametrize("name, runs, sigma, error_pair", [
    # across the chunk edges
    *[("ne", runs, 0.0, None) for runs in (1, 2, 1023, 1024, 1025, 2500)],
    ("ne", 1025, 0.1, None),
    ("ne", 1025, 0.6, None),           # clamps at 0 and 1 are hit
    ("k1", 400, 0.0, None),            # a single slot
    ("k1", 400, 0.6, None),
    ("k4", 300, 0.0, None),
    ("k4", 300, 0.1, None),
    ("bj0", 300, 0.0, None),
    ("per00", 300, 0.0, None),
    ("per01", 300, 0.0, None),
    ("per11", 300, 0.6, None),
    ("ne", 300, 0.0, (0.7, 0.2)),      # a true pair below the clear PER
    ("ne", 300, 0.1, (0.0, 1.0)),
    ("pure", 300, 0.0, None),
    ("pure", 300, 0.1, (0.3, 0.9)),
])
def test_simulate_equals_per_run_reference(mc_tables, name, runs, sigma, error_pair):
    table = mc_tables[name]
    got = simulate(table, runs, seed=11, sigma=sigma, error_pair=error_pair)
    assert got == simulate_reference(table, runs, seed=11, sigma=sigma, error_pair=error_pair)


@pytest.mark.parametrize("sigma", [0.0, 0.6])
def test_simulate_equals_reference_on_ties(mc_tables, monkeypatch, sigma):
    # quartered uniforms make equal slot keys, so slot ranks must break
    # ties by index; action picks and coins hit their thresholds exactly
    monkeypatch.setattr(np.random, "Generator", _QuarterGenerator)
    for name in ("quarters", "ne", "k4"):
        table = mc_tables[name]
        assert simulate(table, 1500, seed=3, sigma=sigma) == simulate_reference(
            table, 1500, seed=3, sigma=sigma), name


def test_sensitivity_sweep_equals_reference(mc_tables):
    table = mc_tables["k4"]
    spec = SensitivitySpec(sigmas=(0.0, 0.05, 0.6), runs=1100)
    rows = sensitivity_sweep(table, spec=spec, seed=5, error_pair=(0.1, 0.8))
    assert rows == [simulate_reference(table, 1100, seed=5, sigma=s, error_pair=(0.1, 0.8))
                    for s in spec.sigmas]


def test_sensitivity_sweep_equals_simulate_across_chunk_edge(mc_tables):
    table = mc_tables["ne"]
    spec = SensitivitySpec(sigmas=(0.0, 0.05, 0.6), runs=2100)
    rows = sensitivity_sweep(table, spec=spec, seed=17)
    assert rows == [simulate(table, 2100, seed=17, sigma=s) for s in spec.sigmas]


def test_sensitivity_sweep_draws_play_uniforms_once_per_chunk(mc_tables, monkeypatch):
    chunks = []
    real = uwjam.analysis._play_uniforms
    monkeypatch.setattr(uwjam.analysis, "_play_uniforms",
                        lambda cfg, seed, runs: chunks.append(runs) or real(cfg, seed, runs))
    spec = SensitivitySpec(sigmas=(0.0, 0.05, 0.6), runs=1100)
    sensitivity_sweep(mc_tables["k4"], spec=spec, seed=5)
    size = uwjam.analysis._CHUNK
    assert chunks == [range(0, size), range(size, 1100)]


# at most one frame per block, blocks that cut lifetimes, and one block
# longer than any game's depth (b_t0 // k is at most 7 here)
@pytest.mark.parametrize("frames", [1, 3, 64])
def test_simulate_does_not_depend_on_the_frame_block(mc_tables, monkeypatch, frames):
    spec = SensitivitySpec(sigmas=(0.0, 0.05, 0.6), runs=1100)
    cases = [(table, sigma, pair) for table in mc_tables.values()
             for sigma, pair in ((0.0, None), (0.1, (0.1, 0.8)))]
    want = [simulate(table, 1100, seed=5, sigma=sigma, error_pair=pair)
            for table, sigma, pair in cases]
    sweep = sensitivity_sweep(mc_tables["k4"], spec=spec, seed=5)
    monkeypatch.setattr(uwjam.analysis, "_FRAMES", frames)
    assert [simulate(table, 1100, seed=5, sigma=sigma, error_pair=pair)
            for table, sigma, pair in cases] == want
    assert sensitivity_sweep(mc_tables["k4"], spec=spec, seed=5) == sweep


def test_simulate_memory_is_bounded_by_the_frame_block():
    # a chunk draws a few frames of uniforms at a time and gathers the
    # strategy rows it plays, so the peak does not grow with the battery
    peaks = []
    for b_t0 in (100, 800):
        table = solve_full_game(_cfg(k=4, b_t0=b_t0, b_j0=3, horizon=1))
        tracemalloc.start()
        try:
            simulate(table, 1024, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


# ---------------------------------------------------------------------------
# per-chunk stream seeding


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, np.int64(7), True])
def test_stream_words_equal_seed_sequence(seed):
    runs = range(0, 3001)
    for key in (0, 1):
        want = [np.random.SeedSequence((seed, run), spawn_key=(key,)).generate_state(4, np.uint64)
                for run in runs]
        got = uwjam.analysis._stream_words(int(seed), runs, key)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, np.array(want))


@pytest.mark.parametrize("seed", [-1, -2**40, 1.5, np.float64(2.0), None])
def test_bad_seed_raises_as_seed_sequence_does(ne_table, seed):
    with pytest.raises(Exception) as want:
        np.random.SeedSequence((seed, 0), spawn_key=(1,))
    for sigma in (0.0, 0.1):
        with pytest.raises(want.type):
            simulate(ne_table, 10, seed=seed, sigma=sigma)
