"""Underwater acoustic channel model and packet error rates.

Everything here works in linear units internally: acoustic powers are
referenced to 1 uPa^2 at 1 m, noise and jamming are power spectral
densities in uPa^2/Hz. The public helpers accept the usual field
conventions (source levels in dB re uPa, frequency in kHz).

The receiver demodulates a binary chirp-spread-spectrum waveform, so the
bit error probability follows the noncoherent FSK-style expression

    p_bit = Q1(a, b) - 0.5 * exp(-(a^2+b^2)/2) * I0(a*b)

with a = sqrt(SNR(1 - sqrt(1/2))), b = sqrt(SNR(1 + sqrt(1/2))) and Q1
the first-order Marcum Q function. Jamming enters as extra white noise
over the receiver bandwidth.
"""

import bisect
import csv
import itertools
import math
from dataclasses import dataclass

__all__ = [
    "AcousticEnvironment",
    "TxParams",
    "LinkBudget",
    "RsCode",
    "EmpiricalPerTable",
    "absorption_db_per_km",
    "channel_gain",
    "noise_psd",
    "compute_link_budget",
    "marcum_q1",
    "bessel_i0_scaled",
    "css_bit_error",
    "per_uncoded",
    "per_coded",
    "error_model_for_distance",
]


@dataclass(frozen=True)
class AcousticEnvironment:
    """Propagation and ambient-noise parameters of the acoustic channel.

    :param frequency_khz: carrier frequency in kHz
    :param bandwidth_hz: receiver bandwidth in Hz
    :param spreading_exp: path-loss spreading exponent (1 cylindrical,
        2 spherical, 1.75 is a common practical value)
    :param shipping: shipping activity factor in [0, 1]
    :param wind_speed: wind speed in m/s
    """

    frequency_khz: float = 26.0
    bandwidth_hz: float = 16000.0
    spreading_exp: float = 1.75
    shipping: float = 1.0
    wind_speed: float = 3.0

    def __post_init__(self):
        if self.frequency_khz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.shipping <= 1.0:
            raise ValueError("shipping factor must lie in [0, 1]")
        if self.wind_speed < 0:
            raise ValueError("wind speed must be nonnegative")


@dataclass(frozen=True)
class TxParams:
    """Source levels and framing of the two transmitters.

    :param power_t_db: transmitter source level, dB re uPa at 1 m
    :param power_j_db: jammer source level, dB re uPa at 1 m
    :param packet_bits: payload bits per packet
    :param bit_rate: raw bit rate in bit/s
    """

    power_t_db: float = 180.0
    power_j_db: float = 180.0
    packet_bits: int = 512
    bit_rate: float = 1000.0

    def __post_init__(self):
        if self.packet_bits < 1:
            raise ValueError("packet_bits must be a positive integer")
        if self.bit_rate <= 0:
            raise ValueError("bit_rate must be positive")


@dataclass(frozen=True)
class LinkBudget:
    """Received-signal budget at the intended receiver.

    :param eb: received energy per bit, uPa^2 s
    :param n0: ambient noise power spectral density, uPa^2/Hz
    :param j0: jammer power spectral density at the receiver, uPa^2/Hz
        (0 when the slot is not jammed)
    """

    eb: float
    n0: float
    j0: float = 0.0

    @property
    def snr_eff(self):
        """Effective SNR 2*Eb/(N0+J0) seen by the chirp demodulator."""
        return 2.0 * self.eb / (self.n0 + self.j0)


def absorption_db_per_km(frequency_khz):
    """Seawater absorption coefficient (Thorp), dB/km.

    :param frequency_khz: frequency in kHz, must be positive

    >>> round(absorption_db_per_km(26.0), 2)
    6.53
    """
    if frequency_khz <= 0:
        raise ValueError("frequency must be positive")
    f2 = frequency_khz * frequency_khz
    return (0.11 * f2 / (1.0 + f2)
            + 44.0 * f2 / (4100.0 + f2)
            + 2.75e-4 * f2
            + 0.003)


def channel_gain(distance_m, env):
    """Linear propagation gain 1/A(d, f) of an acoustic link.

    Path loss combines power-law spreading with Thorp absorption:
    A(d, f) = (d / 1 m)^k * a(f)^(d / 1 km).

    :param distance_m: link distance in metres, must be positive
    :param env: :class:`AcousticEnvironment`
    """
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    a_lin = 10.0 ** (absorption_db_per_km(env.frequency_khz) / 10.0)
    loss = distance_m ** env.spreading_exp * a_lin ** (distance_m / 1000.0)
    return 1.0 / loss


def noise_psd(env):
    """Ambient noise power spectral density at the carrier, uPa^2/Hz.

    Sums the four classical components (turbulence, shipping, wind/waves,
    thermal) in the linear domain:

        10 log Nt = 17 - 30 log f
        10 log Ns = 40 + 20 (s - 0.5) + 26 log f - 60 log(f + 0.03)
        10 log Nw = 50 + 7.5 sqrt(w) + 20 log f - 40 log(f + 0.4)
        10 log Nth = -15 + 20 log f

    with f in kHz, shipping factor s and wind speed w in m/s.

    :param env: :class:`AcousticEnvironment`
    """
    f = env.frequency_khz
    s = env.shipping
    w = env.wind_speed
    turbulence = 17.0 - 30.0 * math.log10(f)
    shipping = (40.0 + 20.0 * (s - 0.5)
                + 26.0 * math.log10(f) - 60.0 * math.log10(f + 0.03))
    waves = (50.0 + 7.5 * math.sqrt(w)
             + 20.0 * math.log10(f) - 40.0 * math.log10(f + 0.4))
    thermal = -15.0 + 20.0 * math.log10(f)
    return sum(10.0 ** (db / 10.0) for db in (turbulence, shipping, waves, thermal))


def compute_link_budget(env, tx, d_tr, d_jr=None):
    """Link budget at the receiver, optionally with an active jammer.

    :param env: :class:`AcousticEnvironment`
    :param tx: :class:`TxParams`
    :param d_tr: transmitter-receiver distance in metres
    :param d_jr: jammer-receiver distance in metres, or None for a
        jamming-free slot
    :returns: :class:`LinkBudget`
    """
    p_t = 10.0 ** (tx.power_t_db / 10.0)
    eb = p_t * channel_gain(d_tr, env) / tx.bit_rate
    n0 = noise_psd(env)
    j0 = 0.0
    if d_jr is not None:
        p_j = 10.0 ** (tx.power_j_db / 10.0)
        j0 = p_j * channel_gain(d_jr, env) / env.bandwidth_hz
    return LinkBudget(eb=eb, n0=n0, j0=j0)


def bessel_i0_scaled(x):
    """exp(-|x|) * I0(x), stable for large arguments."""
    x = abs(x)
    if math.isnan(x):
        # the series below would never meet their stopping tests
        return x
    if x < 20.0:
        # power series sum_k (x^2/4)^k / (k!)^2
        q = x * x / 4.0
        term = 1.0
        total = 1.0
        k = 0
        while term > 1e-18 * total:
            k += 1
            term *= q / (k * k)
            total += term
        return total * math.exp(-x)
    # asymptotic series; terms shrink until k ~ 4x, far past our precision
    total = 1.0
    term = 1.0
    k = 0
    while True:
        k += 1
        nxt = term * (2 * k - 1) ** 2 / (8.0 * x * k)
        if nxt >= term or nxt < 1e-18 * total:
            break
        term = nxt
        total += term
    return total / math.sqrt(2.0 * math.pi * x)


# half-width of the Poisson windows used by marcum_q1, in standard
# deviations, plus a flat pad for the small-mean regime; beyond this the
# neglected tail mass is < 1e-25
_WINDOW_SIGMAS = 12.0
_WINDOW_PAD = 60


def _window(lam):
    """Bounds (lo, hi) of the window around the mode of Poisson(lam)."""
    spread = _WINDOW_SIGMAS * math.sqrt(lam)
    return max(0, math.floor(lam - spread) - _WINDOW_PAD), math.ceil(lam + spread) + _WINDOW_PAD


def _pmfs(lam, lo, hi):
    """Poisson(lam) pmf at lo .. hi: seeded once from log space at lo,
    then carried by the ratio recurrence."""
    p = math.exp(lo * math.log(lam) - lam - math.lgamma(lo + 1.0))
    for i in range(lo, hi + 1):
        yield p
        p *= lam / (i + 1)


def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b), absolute error <= 1e-12.

    Uses the Poisson-mixture form

        Q1(a, b) = sum_j pois(j; a^2/2) * P[Poisson(b^2/2) <= j]

    with both series windowed around their modes. When the windows do not
    overlap the result saturates to 0 or 1 up to negligible tail mass,
    which keeps the evaluation cheap at the extreme SNRs produced by
    short underwater links.

    :param a: noncentrality parameter, >= 0
    :param b: threshold parameter, >= 0
    """
    if a < 0 or b < 0:
        raise ValueError("marcum_q1 requires nonnegative arguments")
    x = a * a / 2.0
    mu = b * b / 2.0
    if mu == 0.0:
        return 1.0
    if x == 0.0:
        return math.exp(-mu)
    lo_x, hi_x = _window(x)
    lo_m, hi_m = _window(mu)
    if hi_x < lo_m:
        return 0.0
    if lo_x > hi_m:
        return 1.0
    # Both pmf series are seeded from log space, and lgamma alone costs
    # up to ~5e-12 relative at large arguments. Each seed scales its
    # whole series by a common factor, so normalizing by the window
    # totals cancels the seed error exactly; what remains is recurrence
    # drift, well under the 1e-12 budget.
    cdf = list(itertools.accumulate(_pmfs(mu, lo_m, hi_m)))
    numer = 0.0
    denom = 0.0
    for j, px in enumerate(_pmfs(x, lo_x, hi_x), lo_x):
        if j >= lo_m:
            numer += px * cdf[min(j, hi_m) - lo_m]
        denom += px
    return min(1.0, numer / (denom * cdf[-1]))


def css_bit_error(snr_eff):
    """Bit error probability of the binary chirp demodulator.

    :param snr_eff: effective SNR 2*Eb/(N0+J0), >= 0

    >>> css_bit_error(0.0)
    0.5
    """
    if snr_eff < 0:
        raise ValueError("SNR must be nonnegative")
    a = math.sqrt(snr_eff * (1.0 - math.sqrt(0.5)))
    b = math.sqrt(snr_eff * (1.0 + math.sqrt(0.5)))
    # exp(-(a^2+b^2)/2) * I0(ab) written with the scaled Bessel so the
    # two huge exponentials cancel analytically
    second = 0.5 * math.exp(-0.5 * (b - a) ** 2) * bessel_i0_scaled(a * b)
    return max(0.0, marcum_q1(a, b) - second)


def per_uncoded(p_bit, n_bits):
    """Packet error rate without coding: 1 - (1 - p_bit)^n_bits.

    Evaluated via log1p/expm1 so tiny bit error rates do not vanish in
    the subtraction.
    """
    if not 0.0 <= p_bit <= 1.0:
        raise ValueError("bit error probability must lie in [0, 1]")
    if n_bits < 1:
        raise ValueError("packet length must be positive")
    if p_bit == 1.0:
        return 1.0
    return -math.expm1(n_bits * math.log1p(-p_bit))


@dataclass(frozen=True)
class RsCode:
    """Reed-Solomon code over GF(2^sym_bits).

    :param n: codeword length in symbols, n <= 2^sym_bits - 1
    :param k: message length in symbols
    :param sym_bits: bits per symbol

    The decoder corrects up to t = floor((n - k) / 2) symbol errors.
    """

    n: int = 127
    k: int = 78
    sym_bits: int = 7

    def __post_init__(self):
        if self.sym_bits < 1:
            raise ValueError("symbol size must be positive")
        if not 0 < self.k < self.n:
            raise ValueError("need 0 < k < n")
        # n > 2^sym_bits - 1, without raising 2 to a huge sym_bits
        if self.n.bit_length() > self.sym_bits:
            raise ValueError("codeword length exceeds field size")

    @property
    def t(self):
        return (self.n - self.k) // 2


def per_coded(p_bit, code):
    """Packet error rate after Reed-Solomon decoding.

    A symbol survives iff all its bits do, so the symbol error rate is
    p_sym = 1 - (1 - p_bit)^sym_bits, and the decoder fails when more
    than t of the n symbols are hit:

        PER = sum_{i=t+1}^{n} C(n, i) p_sym^i (1 - p_sym)^(n-i)

    The binomial tail is summed in log space: with p_sym near 0 the
    leading terms underflow as plain products long before they stop
    mattering, since C(n, i) can exceed 1e37 for n = 127.

    :param p_bit: channel bit error probability
    :param code: :class:`RsCode`
    """
    if not 0.0 <= p_bit <= 1.0:
        raise ValueError("bit error probability must lie in [0, 1]")
    p_sym = per_uncoded(p_bit, code.sym_bits) if p_bit < 1.0 else 1.0
    if p_sym <= 0.0:
        return 0.0
    if p_sym >= 1.0:
        return 1.0
    log_p = math.log(p_sym)
    log_q = math.log1p(-p_sym)
    terms = []
    for i in range(code.t + 1, code.n + 1):
        log_c = (math.lgamma(code.n + 1) - math.lgamma(i + 1)
                 - math.lgamma(code.n - i + 1))
        terms.append(log_c + i * log_p + (code.n - i) * log_q)
    peak = max(terms)
    acc = sum(math.exp(t - peak) for t in terms)
    return min(1.0, math.exp(peak) * acc)


class EmpiricalPerTable:
    """Measured packet error rates versus jammer distance.

    Holds a strictly increasing distance grid with the PER observed when
    a packet is jammed, plus the flat jamming-free PER of the deployment.
    Lookups interpolate linearly and clamp beyond the grid ends.
    """

    def __init__(self, distances_m, per_blocked, per_clear):
        distances = tuple(float(d) for d in distances_m)
        pers = tuple(float(p) for p in per_blocked)
        if len(distances) != len(pers) or not distances:
            raise ValueError("need matching, nonempty distance and PER columns")
        # NaN compares false both ways, so it would pass the order test
        if not all(map(math.isfinite, distances)):
            raise ValueError("distances must be finite")
        if any(d2 <= d1 for d1, d2 in zip(distances, distances[1:])):
            raise ValueError("distances must be strictly increasing")
        if any(not 0.0 <= p <= 1.0 for p in pers) or not 0.0 <= per_clear <= 1.0:
            raise ValueError("packet error rates must lie in [0, 1]")
        self.distances_m = distances
        self.per_blocked = pers
        self.per_clear = float(per_clear)

    @classmethod
    def from_csv(cls, path, per_clear):
        """Load a table from a CSV file with header distance_m,per_blocked.

        Lines starting with '#' are ignored.
        """
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(line for line in fh if not line.lstrip().startswith("#"))
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["distance_m", "per_blocked"]:
                raise ValueError(f"{path}: expected header distance_m,per_blocked")
            for row in reader:
                if not row:
                    continue
                if len(row) < 2:
                    raise ValueError(f"{path}: row {row} needs 2 fields, distance_m,per_blocked")
                rows.append((float(row[0]), float(row[1])))
        return cls([r[0] for r in rows], [r[1] for r in rows], per_clear)

    def blocked_at(self, distance_m):
        """PER of a jammed packet at the given jammer distance."""
        d = self.distances_m
        p = self.per_blocked
        if distance_m <= d[0]:
            return p[0]
        if distance_m >= d[-1]:
            return p[-1]
        hi = bisect.bisect_right(d, distance_m)
        lo = hi - 1
        w = (distance_m - d[lo]) / (d[hi] - d[lo])
        return p[lo] + w * (p[hi] - p[lo])


def error_model_for_distance(d_jr, d_tr, env, tx, mode="uncoded", code=None, table=None):
    """Packet error pair (per_clear, per_blocked) at a jammer distance.

    :param d_jr: jammer-receiver distance in metres
    :param d_tr: transmitter-receiver distance in metres
    :param env: :class:`AcousticEnvironment`
    :param tx: :class:`TxParams`
    :param mode: "uncoded", "coded" (Reed-Solomon) or "empirical"
    :param code: :class:`RsCode`, defaults to RS(127, 78) when coded
    :param table: :class:`EmpiricalPerTable`, required for empirical mode
    :returns: (per_clear, per_blocked) tuple
    """
    if mode == "empirical":
        if table is None:
            raise ValueError("empirical mode requires a PER table")
        return table.per_clear, table.blocked_at(d_jr)
    if mode not in ("uncoded", "coded"):
        raise ValueError(f"unknown PER mode: {mode!r}")
    clear = compute_link_budget(env, tx, d_tr)
    blocked = compute_link_budget(env, tx, d_tr, d_jr)
    p_bit_clear = css_bit_error(clear.snr_eff)
    p_bit_blocked = css_bit_error(blocked.snr_eff)
    if mode == "coded":
        code = code if code is not None else RsCode()
        return per_coded(p_bit_clear, code), per_coded(p_bit_blocked, code)
    n = tx.packet_bits
    return per_uncoded(p_bit_clear, n), per_uncoded(p_bit_blocked, n)
