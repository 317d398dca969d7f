"""Channel model: physics formulas, special functions, packet error rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwjam import channel
from uwjam.channel import (
    AcousticEnvironment,
    EmpiricalPerTable,
    LinkBudget,
    RsCode,
    TxParams,
    absorption_db_per_km,
    bessel_i0_scaled,
    channel_gain,
    compute_link_budget,
    css_bit_error,
    error_model_for_distance,
    marcum_q1,
    noise_psd,
    per_coded,
    per_uncoded,
)

import oracles


# ---------------------------------------------------------------------------
# propagation and noise

# regression anchors, frozen from a one-off evaluation of the formulas
ABSORPTION_26KHZ = 6.52654321360619
GAIN_78M = 0.0004344376024055421
NOISE_PSD_DEFAULT = 2793.4845566281956


def test_absorption_at_carrier():
    a = absorption_db_per_km(26.0)
    assert a == pytest.approx(ABSORPTION_26KHZ, rel=1e-14)
    assert round(a, 2) == 6.53


def test_absorption_grows_with_frequency():
    freqs = [1.0, 5.0, 10.0, 26.0, 50.0, 100.0]
    vals = [absorption_db_per_km(f) for f in freqs]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_channel_gain_reference_and_decay():
    env = AcousticEnvironment()
    assert channel_gain(78.0, env) == pytest.approx(GAIN_78M, rel=1e-14)
    gains = [channel_gain(d, env) for d in (10.0, 50.0, 100.0, 500.0)]
    assert all(g > 0 for g in gains)
    assert all(g2 < g1 for g1, g2 in zip(gains, gains[1:]))


def test_noise_psd_reference():
    assert noise_psd(AcousticEnvironment()) == pytest.approx(NOISE_PSD_DEFAULT, rel=1e-14)


def test_noise_psd_grows_with_wind_and_shipping():
    base = noise_psd(AcousticEnvironment())
    assert noise_psd(AcousticEnvironment(wind_speed=10.0)) > base
    assert noise_psd(AcousticEnvironment(shipping=0.0)) < base


def test_environment_validation():
    with pytest.raises(ValueError):
        AcousticEnvironment(frequency_khz=0.0)
    with pytest.raises(ValueError):
        AcousticEnvironment(shipping=1.5)
    with pytest.raises(ValueError):
        AcousticEnvironment(wind_speed=-1.0)
    with pytest.raises(ValueError):
        TxParams(bit_rate=0.0)
    with pytest.raises(ValueError):
        TxParams(packet_bits=0)


def test_link_budget_composition():
    env = AcousticEnvironment()
    tx = TxParams()
    clear = compute_link_budget(env, tx, 78.0)
    assert clear.j0 == 0.0
    # Eb = P_t * gain / bitrate with P_t = 10^(180/10) uPa^2
    assert clear.eb == pytest.approx(1e18 * GAIN_78M / 1000.0, rel=1e-12)
    assert clear.n0 == pytest.approx(NOISE_PSD_DEFAULT, rel=1e-14)
    assert clear.snr_eff == pytest.approx(2.0 * clear.eb / clear.n0, rel=1e-15)

    blocked = compute_link_budget(env, tx, 78.0, d_jr=60.0)
    assert blocked.j0 > 0
    assert blocked.snr_eff < clear.snr_eff
    # jammer PSD spreads the received jam power over the bandwidth
    assert blocked.j0 == pytest.approx(1e18 * channel_gain(60.0, env) / 16000.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Bessel I0

BESSEL_I0_REFS = [
    (0.1, 1.0025015629340956),
    (0.5, 1.0634833707413235),
    (1.0, 1.2660658777520083),
    (5.0, 27.239871823604447),
    (19.5, 26760525.339838766),   # power-series side of the branch point
    (20.5, 70922869.834317007),   # asymptotic side
    (100.0, 1.0737517071310738e+42),
    (600.0, 6.1463054039368448e+258),
]

BESSEL_I0_SCALED_REFS = [
    (0.0, 1.0),
    (0.5, 0.64503527044915007),
    (5.0, 0.18354081260932835),
    (19.5, 0.090939432095156483),
    (20.5, 0.088664429015745248),
    (100.0, 0.039944379299096683),
    (5000.0, 0.0056420368987445887),
]


@pytest.mark.parametrize("x,ref", BESSEL_I0_REFS)
def test_bessel_i0_reference_values(x, ref):
    # the unscaled I0 is bessel_i0_scaled(x) * exp(x)
    assert bessel_i0_scaled(x) * math.exp(x) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("x,ref", BESSEL_I0_SCALED_REFS)
def test_bessel_i0_scaled_reference_values(x, ref):
    assert bessel_i0_scaled(x) == pytest.approx(ref, rel=1e-12)


def test_bessel_i0_overflow_guard():
    # the scaled form keeps working where exp(x) * I0 overflows
    assert bessel_i0_scaled(709.0) > 0.0


def test_bessel_i0_nan_returns_nan():
    assert math.isnan(bessel_i0_scaled(math.nan))
    assert math.isnan(bessel_i0_scaled(-math.nan))


def test_bessel_i0_even():
    assert bessel_i0_scaled(-3.0) == bessel_i0_scaled(3.0)
    assert bessel_i0_scaled(-30.0) == bessel_i0_scaled(30.0)


# ---------------------------------------------------------------------------
# Marcum Q

# frozen from the mpmath Poisson-mixture reference at 50 digits
MARCUM_REFS = [
    (1.0, 2.0, 0.26901206003591),
    (0.5, 0.1, 0.99559715387918155),
    (3.0, 1.0, 0.98917055017845215),
    (10.0, 12.0, 0.025329474297941418),
    (10.0, 8.0, 0.98010420964205033),
    (100.0, 101.0, 0.15986211290485636),
    (2.0, 9.0, 2.7548101812800741e-12),
    (0.25, 4.0, 0.00042330957166525831),
    (6.0, 6.0, 0.53336248293178924),
    (40.0, 30.0, 1.0),
]


@pytest.mark.parametrize("a,b,ref", MARCUM_REFS)
def test_marcum_q1_reference_values(a, b, ref):
    assert abs(marcum_q1(a, b) - ref) < 1e-12


def test_marcum_q1_closed_form_edges():
    for b in (0.5, 1.0, 3.0):
        assert marcum_q1(0.0, b) == pytest.approx(math.exp(-b * b / 2.0), rel=1e-14)
    for a in (0.0, 0.5, 7.0):
        assert marcum_q1(a, 0.0) == 1.0


def test_marcum_q1_against_scipy():
    # Q1(a, b) is the survival function of a noncentral chi-square with
    # 2 dof and noncentrality a^2, evaluated at b^2
    from scipy.stats import ncx2

    for a in (0.1, 1.0, 2.5, 5.0, 20.0):
        for b in (0.1, 1.0, 3.0, 6.0, 25.0):
            assert marcum_q1(a, b) == pytest.approx(
                ncx2.sf(b * b, 2, a * a), abs=1e-9, rel=1e-9)


def test_marcum_q1_against_mpmath_offgrid():
    for a, b in [(0.7, 1.3), (12.0, 11.0), (33.0, 35.5)]:
        assert abs(marcum_q1(a, b) - oracles.marcum_q1_reference(a, b)) < 1e-12


# float.hex() of the results, frozen before marcum_q1 became one pass
# over the x window; a rewrite must keep every bit
MARCUM_BITS = [
    (0.5, 0.1, "0x1.fdbee8ffcdb41p-1"),
    (0.7, 1.3, "0x1.065dee08585bap-1"),
    (1.0, 2.0, "0x1.1377e5c055d57p-2"),
    (2.0, 9.0, "0x1.83b47f315f5e3p-39"),
    (0.25, 4.0, "0x1.bbdf4c431e05cp-12"),
    (10.0, 12.0, "0x1.9eff83ef028dbp-6"),
    (12.0, 11.0, "0x1.b40c3b8e61518p-1"),
    (33.0, 35.5, "0x1.a80bbafb2adfdp-8"),
    (40.0, 30.0, "0x1.0000000000000p+0"),
    (100.0, 101.0, "0x1.4765c9965dd71p-3"),
    (300.0, 299.0, "0x1.aef9a45e5a90fp-1"),
    (1500.0, 1502.5, "0x1.9756e18a32445p-8"),
]


@pytest.mark.parametrize("a,b,bits", MARCUM_BITS)
def test_marcum_q1_bits_pinned(a, b, bits):
    assert marcum_q1(a, b).hex() == bits


@given(st.floats(0.0, 40.0), st.floats(0.0, 40.0))
@settings(max_examples=80)
def test_marcum_q1_in_unit_interval(a, b):
    q = marcum_q1(a, b)
    assert 0.0 <= q <= 1.0


@given(st.floats(0.0, 30.0), st.floats(0.0, 30.0), st.floats(0.01, 5.0))
@settings(max_examples=60)
def test_marcum_q1_monotone(a, b, delta):
    # increasing in a, decreasing in b
    assert marcum_q1(a + delta, b) >= marcum_q1(a, b) - 1e-12
    assert marcum_q1(a, b + delta) <= marcum_q1(a, b) + 1e-12


# ---------------------------------------------------------------------------
# bit and packet error rates


def test_css_bit_error_edges_and_decay():
    assert css_bit_error(0.0) == 0.5
    snrs = [0.5, 2.0, 8.0, 20.0, 50.0]
    ps = [css_bit_error(s) for s in snrs]
    assert all(p2 < p1 for p1, p2 in zip(ps, ps[1:]))
    assert all(0.0 <= p <= 0.5 for p in ps)
    with pytest.raises(ValueError):
        css_bit_error(-1.0)


def test_css_bit_error_regression():
    # effective SNR under jamming at 60 m in the reference scenario
    assert css_bit_error(19.678922098577516) == pytest.approx(
        0.0003797492740106815, rel=1e-12)


CSS_BITS = [
    (0.5, "0x1.703da53dc1cd8p-2"),
    (2.0, "0x1.4faec05513222p-3"),
    (8.0, "0x1.16bf93ae4f567p-6"),
    (19.678922098577516, "0x1.8e322b66a0b8cp-12"),
    (50.0, "0x1.272810bc75668p-25"),
    (100.0, "0x1.8341da1e2730cp-47"),
    (200.0, "0x1.ce10e542c86e8p-90"),
    (500.0, "0x1.59118980d1ee8p-217"),
    (1000.0, "0x0.0p+0"),
]


@pytest.mark.parametrize("snr,bits", CSS_BITS)
def test_css_bit_error_bits_pinned(snr, bits):
    assert css_bit_error(snr).hex() == bits


def test_per_uncoded_matches_direct_form():
    for p in (0.0, 0.01, 0.3, 0.9, 1.0):
        for n in (1, 8, 512):
            assert per_uncoded(p, n) == pytest.approx(1.0 - (1.0 - p) ** n, abs=1e-15)


def test_per_uncoded_tiny_rates_survive():
    import mpmath

    p, n = 1e-13, 512
    with mpmath.workdps(40):
        ref = float(1 - (1 - mpmath.mpf(p)) ** n)
    assert per_uncoded(p, n) == pytest.approx(ref, rel=1e-12)
    assert per_uncoded(p, n) > 0.0


def test_per_uncoded_validation():
    with pytest.raises(ValueError):
        per_uncoded(1.5, 10)
    with pytest.raises(ValueError):
        per_uncoded(0.1, 0)


def test_rs_code_properties():
    code = RsCode()
    assert (code.n, code.k, code.sym_bits) == (127, 78, 7)
    assert code.t == 24
    with pytest.raises(ValueError):
        RsCode(n=128, k=78, sym_bits=7)   # exceeds GF(2^7)
    with pytest.raises(ValueError):
        RsCode(n=127, k=127, sym_bits=7)
    with pytest.raises(ValueError):
        RsCode(n=127, k=0, sym_bits=7)


# Monte Carlo oracle: 1e6 binomial trials of symbol errors, seed 20260817
PER_CODED_MC_MEAN = 0.025557
PER_CODED_MC_BAND3 = 0.00047342875059905467


def test_per_coded_against_mc_oracle():
    assert abs(per_coded(0.02, RsCode()) - PER_CODED_MC_MEAN) <= PER_CODED_MC_BAND3
    # at p_bit = 0.01 the same MC saw 0 failures in 1e6 trials; rule of
    # three bounds the true PER by 3e-6
    assert per_coded(0.01, RsCode()) <= 3e-6


def test_per_coded_log_sum_matches_direct_sum():
    # small code where the plain-float binomial tail is computable
    code = RsCode(n=31, k=15, sym_bits=5)
    for p_bit in (0.005, 0.05, 0.2, 0.5):
        p_sym = 1.0 - (1.0 - p_bit) ** 5
        direct = sum(
            math.comb(31, i) * p_sym ** i * (1.0 - p_sym) ** (31 - i)
            for i in range(code.t + 1, 32))
        assert per_coded(p_bit, code) == pytest.approx(direct, rel=1e-10)


def test_per_coded_edges():
    code = RsCode()
    assert per_coded(0.0, code) == 0.0
    assert per_coded(1.0, code) == 1.0


@given(st.floats(0.0, 1.0), st.floats(0.0, 0.2))
@settings(max_examples=60)
def test_per_coded_monotone_in_bit_error(p, delta):
    code = RsCode(n=15, k=7, sym_bits=4)
    hi = min(1.0, p + delta)
    assert per_coded(hi, code) >= per_coded(p, code) - 1e-12
    assert 0.0 <= per_coded(p, code) <= 1.0


# ---------------------------------------------------------------------------
# empirical tables


def test_empirical_table_interpolates_and_clamps():
    table = EmpiricalPerTable([20.0, 40.0, 80.0], [0.9, 0.5, 0.1], per_clear=0.04)
    assert table.blocked_at(20.0) == 0.9
    assert table.blocked_at(30.0) == pytest.approx(0.7)
    assert table.blocked_at(60.0) == pytest.approx(0.3)
    assert table.blocked_at(5.0) == 0.9     # clamped below
    assert table.blocked_at(500.0) == 0.1   # clamped above


def test_empirical_table_validation():
    with pytest.raises(ValueError):
        EmpiricalPerTable([], [], 0.04)
    with pytest.raises(ValueError):
        EmpiricalPerTable([10.0, 10.0], [0.5, 0.4], 0.04)
    with pytest.raises(ValueError):
        EmpiricalPerTable([10.0, 20.0], [0.5], 0.04)
    with pytest.raises(ValueError):
        EmpiricalPerTable([10.0, 20.0], [0.5, 1.4], 0.04)
    with pytest.raises(ValueError):
        EmpiricalPerTable([10.0, 20.0], [0.5, 0.4], -0.1)
    # NaN compares false both ways, so it passes the increasing check
    for distances in ([20.0, math.nan, 60.0], [math.nan], [20.0, math.inf], [-math.inf, 20.0]):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalPerTable(distances, [0.5] * len(distances), 0.04)


def test_empirical_table_from_csv(tmp_path):
    path = tmp_path / "lake.csv"
    path.write_text(
        "# measured PER curve\n"
        "distance_m,per_blocked\n"
        "20,0.95\n"
        "60,0.40\n"
        "\n"
        "100,0.10\n")
    table = EmpiricalPerTable.from_csv(path, per_clear=0.05)
    assert table.distances_m == (20.0, 60.0, 100.0)
    assert table.blocked_at(80.0) == pytest.approx(0.25)
    assert table.per_clear == 0.05


def test_empirical_table_from_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("distance,per\n20,0.9\n")
    with pytest.raises(ValueError):
        EmpiricalPerTable.from_csv(path, per_clear=0.05)


@pytest.mark.parametrize("rows", ["20,0.9\nnan,0.5\n60,0.1\n", "20,0.9\n60\n"],
                         ids=["nan-distance", "one-field"])
def test_empirical_table_from_csv_bad_rows(tmp_path, rows):
    path = tmp_path / "bad.csv"
    path.write_text("distance_m,per_blocked\n" + rows)
    with pytest.raises(ValueError, match="finite|fields"):
        EmpiricalPerTable.from_csv(path, per_clear=0.05)


def test_shipped_lake_curve_loads():
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "data" / "lake_per_example.csv"
    table = EmpiricalPerTable.from_csv(path, per_clear=0.04)
    pers = [table.blocked_at(d) for d in table.distances_m]
    assert all(p2 <= p1 for p1, p2 in zip(pers, pers[1:]))


# ---------------------------------------------------------------------------
# mode dispatch


def test_error_model_modes():
    env = AcousticEnvironment()
    tx = TxParams()
    pc_u, pb_u = error_model_for_distance(60.0, 78.0, env, tx, mode="uncoded")
    pc_c, pb_c = error_model_for_distance(60.0, 78.0, env, tx, mode="coded")
    assert pb_u == pytest.approx(0.17672793458866037, rel=1e-12)
    assert pc_u == 0.0          # clear-channel SNR is astronomically high
    assert pb_c < pb_u          # coding helps in the critical region
    assert pc_c == 0.0

    table = EmpiricalPerTable([20.0, 100.0], [0.9, 0.2], per_clear=0.04)
    pc_e, pb_e = error_model_for_distance(60.0, 78.0, env, tx,
                                          mode="empirical", table=table)
    assert (pc_e, pb_e) == (0.04, pytest.approx(0.55))


# float.hex() of (per_clear, per_blocked) uncoded, then coded, at the 17
# sweep distances of the reference scenario (d_tr = 78 m)
ERROR_MODEL_BITS = {
    20.0: ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
    30.0: ("0x0.0p+0", "0x1.fffffff730900p-1", "0x0.0p+0", "0x1.d8286e5e84472p-1"),
    40.0: ("0x0.0p+0", "0x1.fdd0e332ea12dp-1", "0x0.0p+0", "0x1.f455357841836p-19"),
    50.0: ("0x0.0p+0", "0x1.5f284b5eb3c86p-1", "0x0.0p+0", "0x1.42cb337f6e9a1p-65"),
    60.0: ("0x0.0p+0", "0x1.69f055dac88c2p-3", "0x0.0p+0", "0x1.0f77404b49e55p-127"),
    70.0: ("0x0.0p+0", "0x1.9e3361cf31b92p-6", "0x0.0p+0", "0x1.415bfc9f8ec5cp-200"),
    80.0: ("0x0.0p+0", "0x1.578187a19d4dfp-9", "0x0.0p+0", "0x1.291ab72d72139p-282"),
    90.0: ("0x0.0p+0", "0x1.b40078d9f22bbp-13", "0x0.0p+0", "0x1.b685d83e33e4ep-374"),
    100.0: ("0x0.0p+0", "0x1.a88197e4b6bcdp-17", "0x0.0p+0", "0x1.c0ba865a09dd8p-475"),
    110.0: ("0x0.0p+0", "0x1.3b2a5221f7637p-21", "0x0.0p+0", "0x1.0c4729470f416p-585"),
    120.0: ("0x0.0p+0", "0x1.624dbfe2af918p-26", "0x0.0p+0", "0x1.38e4568350ce1p-706"),
    130.0: ("0x0.0p+0", "0x1.2b4b763789609p-31", "0x0.0p+0", "0x1.26e3d87be3ff0p-837"),
    140.0: ("0x0.0p+0", "0x1.78ffa3f92aa60p-37", "0x0.0p+0", "0x1.7158f415eb057p-979"),
    150.0: ("0x0.0p+0", "0x1.5f2f8d1337818p-43", "0x0.0p+0", "0x0.0p+0"),
    160.0: ("0x0.0p+0", "0x1.dfcc1a315d731p-50", "0x0.0p+0", "0x0.0p+0"),
    170.0: ("0x0.0p+0", "0x1.dc840584ec92fp-57", "0x0.0p+0", "0x0.0p+0"),
    180.0: ("0x0.0p+0", "0x1.54ee87255b8e9p-64", "0x0.0p+0", "0x0.0p+0"),
}


@pytest.mark.parametrize("d_jr", sorted(ERROR_MODEL_BITS))
def test_error_model_bits_pinned(d_jr):
    env = AcousticEnvironment()
    tx = TxParams()
    got = [p.hex() for mode in ("uncoded", "coded")
           for p in error_model_for_distance(d_jr, 78.0, env, tx, mode=mode)]
    assert tuple(got) == ERROR_MODEL_BITS[d_jr]


def test_error_model_blocked_never_better_than_clear():
    env = AcousticEnvironment()
    tx = TxParams()
    for mode in ("uncoded", "coded"):
        for d in (10.0, 40.0, 78.0, 150.0, 400.0):
            pc, pb = error_model_for_distance(d, 78.0, env, tx, mode=mode)
            assert pb >= pc


def test_error_model_rejects_unknown_mode():
    env = AcousticEnvironment()
    tx = TxParams()
    with pytest.raises(ValueError):
        error_model_for_distance(60.0, 78.0, env, tx, mode="psychic")
    with pytest.raises(ValueError):
        error_model_for_distance(60.0, 78.0, env, tx, mode="empirical")
