"""Performance evaluation of solved strategy tables.

Two complementary paths: closed-form recursions over the acyclic state
graph, and a Monte Carlo simulator that replays frames mechanically
(random slot subsets, per-packet coin flips) without reusing any of the
analytic machinery, so the two act as independent checks on each other.
The simulator steps each frame as one array operation across a chunk of
runs, once for all sigmas of a sweep. Every run still draws from its own
(seed, run) substreams, whose SeedSequence words a chunk computes for
all its runs at once, so results do not depend on the chunk size.

Lifetime counts frames until the transmitter battery drops below k:

    E[L | S] = 1 + sum_S' P(S' | S) E[L | S']

Success probability is a lifetime-weighted average of frame successes:

    P_S(S) = sum_a P(a) * (E[chi | a] + E[L | S'(a)] P_S(S'(a)))
                          / (1 + E[L | S'(a)])

with P_S = 0 and E[L] = 0 at the ending state. Both depend on the
deployed strategies only; success additionally needs the frame success
matrix, which may be evaluated under a different error pair than the
one the table was solved with (model mismatch).
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .solver import _levels, _next_values, _widths, is_terminal
from .subgame import SubgameParams, success_matrix

__all__ = [
    "AnalysisReport",
    "SimulationResult",
    "SensitivitySpec",
    "expected_lifetime",
    "success_probability",
    "first_frame_success",
    "analyze",
    "mismatch_evaluation",
    "simulate",
    "sensitivity_sweep",
]

DEFAULT_SEED = 12345
# Monte Carlo runs stepped together, and frames of uniforms each of
# them draws at a time; together they bound the uniforms held at once
_CHUNK = 1024
_FRAMES = 8


def _subgame_for(table, error_pair):
    """Frame parameters of a table under a true error pair.

    :param error_pair: (p_clear, p_blocked), or None for the pair the
        table was solved with
    :raises ValueError: on a PER outside [0, 1]
    """
    cfg = table.config
    p_clear, p_blocked = (cfg.p_clear, cfg.p_blocked) if error_pair is None else error_pair
    return SubgameParams(k=cfg.k, alpha=cfg.alpha, p_clear=p_clear, p_blocked=p_blocked)


def _chi_for(table, error_pair):
    params = _subgame_for(table, error_pair)
    return success_matrix(params), (params.p_clear, params.p_blocked)


def _lifetime_map(table):
    """E[L] for every state, memoized on the table."""
    cached = table._caches.get("lifetime")
    if cached is not None:
        return cached
    cfg = table.config
    el = np.zeros((cfg.b_t0 + 1, cfg.b_j0 + 1))
    for lo, hi, m, succ_bt in _levels(cfg.k, cfg.b_t0):
        nxt = _next_values(el, cfg.k, succ_bt)
        el[lo:hi] = 1.0 + np.einsum(
            'lbi,lbj,lbij->lb', table.t_probs[lo:hi, :, :m], table.j_probs[lo:hi], nxt)
    table._caches["lifetime"] = el
    return el


def _success_map(table, error_pair=None):
    """P_S for every state under the given true error pair."""
    chi, pair = _chi_for(table, error_pair)
    cached = table._caches.get(("success", pair))
    if cached is not None:
        return cached
    cfg = table.config
    el = _lifetime_map(table)
    ps = np.zeros((cfg.b_t0 + 1, cfg.b_j0 + 1))
    for lo, hi, m, succ_bt in _levels(cfg.k, cfg.b_t0):
        el_next = _next_values(el, cfg.k, succ_bt)
        ps_next = _next_values(ps, cfg.k, succ_bt)
        contrib = (chi[:m] + el_next * ps_next) / (1.0 + el_next)
        ps[lo:hi] = np.einsum(
            'lbi,lbj,lbij->lb', table.t_probs[lo:hi, :, :m], table.j_probs[lo:hi], contrib)
    table._caches[("success", pair)] = ps
    return ps


def expected_lifetime(table, state=None):
    """Expected number of frames played from a state (default initial).

    Depends only on the deployed strategies. Bounded by
    [b_t / (2k), b_t / k] frames since every frame drains k to 2k quanta.
    """
    cfg = table.config
    state = cfg.initial_state if state is None else state
    if is_terminal(state, cfg.k):
        return 0.0
    return float(_lifetime_map(table)[state.b_t, state.b_j])


def success_probability(table, state=None, error_pair=None):
    """Per-frame success probability averaged over the game's life.

    :param error_pair: (p_clear, p_blocked) the frames actually see;
        defaults to the pair the table was solved with

    Strategy rows sum to 1 only within a few ulp, so the weighted sum is
    bounded to [0, 1] (as is :func:`first_frame_success`).
    """
    cfg = table.config
    state = cfg.initial_state if state is None else state
    if is_terminal(state, cfg.k):
        return 0.0
    return min(max(float(_success_map(table, error_pair)[state.b_t, state.b_j]), 0.0), 1.0)


def first_frame_success(table, state=None, error_pair=None):
    """Success probability of the next frame alone at a state.

    The lifetime-weighted measure above and this single-frame reading
    answer different questions; reports carry both.
    """
    cfg = table.config
    state = cfg.initial_state if state is None else state
    if is_terminal(state, cfg.k):
        return 0.0
    chi, _ = _chi_for(table, error_pair)
    st = table.strategy_t(state)
    sj = table.strategy_j(state)
    total = 0.0
    for n_t, pt in zip(st.support, st.probs):
        for n_j, pj in zip(sj.support, sj.probs):
            total += pt * pj * chi[n_t - cfg.k, n_j]
    return min(max(float(total), 0.0), 1.0)


@dataclass(frozen=True)
class AnalysisReport:
    """Closed-form evaluation of a table at its initial state."""

    lifetime: float
    success: float
    first_frame: float
    value: float
    error_pair: tuple
    config: object


def analyze(table, error_pair=None):
    """Full analytic report for a table, optionally under a true error
    pair differing from the solve-time one."""
    _, pair = _chi_for(table, error_pair)
    return AnalysisReport(
        lifetime=expected_lifetime(table),
        success=success_probability(table, error_pair=error_pair),
        first_frame=first_frame_success(table, error_pair=error_pair),
        value=table.value(table.config.initial_state),
        error_pair=pair,
        config=table.config,
    )


def mismatch_evaluation(solve_table, true_pair):
    """Evaluate strategies solved under one error model on another.

    Lifetime is unchanged (it only depends on the strategies); success
    is recomputed with the true pair. The solve-side table may come from
    :func:`uwjam.solver.solve_full_game` under a modelled PER pair or
    from :func:`uwjam.solver.solve_vs_fixed_jammer` for the
    non-strategic jammer baseline.
    """
    return analyze(solve_table, error_pair=true_pair)


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class SimulationResult:
    """Aggregates over independent game playouts.

    success_rate is the per-subgame success rate under the same
    lifetime weighting as the closed form (see :func:`simulate`); ci
    fields are 95% half-widths (Student t on the run statistics).
    """

    runs: int
    seed: int
    sigma: float
    mean_lifetime: float
    lifetime_ci: float
    success_rate: float
    success_ci: float


@dataclass(frozen=True)
class SensitivitySpec:
    """Perturbation sweep: each run redraws the true PER pair as
    N(p, sigma^2) clamped to [0, 1], then p_blocked is raised to at
    least p_clear."""

    sigmas: tuple = (0.0, 0.05, 0.1)
    runs: int = 1000


def _ci_half_width(samples):
    n = samples.size
    if n < 2:
        return 0.0
    sd = samples.std(ddof=1)
    if sd == 0.0:
        return 0.0
    return float(_t975(n - 1) * sd / math.sqrt(n))


# pi to 76 digits, for the Student t quantile's normalizing constant
_PI = "3.141592653589793238462643383279502884197169399375105820974944592307816406286"


@lru_cache(maxsize=128)
def _t975(nu):
    """Student's t quantile at exactly 0.975 with nu >= 1 degrees of
    freedom, correctly rounded. (A float argument 0.975 would name a
    level 2.2e-17 lower, about 2 ulp lower in the quantile at large nu.)

    Newton's method in 70-digit decimal on the upper tail
    P(T > t) = I_x(nu/2, 1/2) / 2 = (1 - I_y(1/2, nu/2)) / 2, with
    x = nu / (nu + t^2) and y = 1 - x. The regularized beta function is
    the series of DLMF 8.17.8 on the smaller of x and y (at most 1/2, so
    small nu stays as cheap as large nu); ln Gamma is Stirling's series
    with 20 terms, its argument shifted to 40 or more (error below
    1.1e-51). The start is the two-term Cornish-Fisher expansion
    (Abramowitz and Stegun 26.7.5). Results are cached per nu.
    """
    # imported here: ``import uwjam`` does not load decimal
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 70
        half, n, pi = Decimal("0.5"), Decimal(nu), Decimal(_PI)
        # tangent numbers T_1 .. T_20 (Brent and Harvey's integer
        # recurrence) give Stirling's coefficients B_2i / (2i (2i - 1))
        tangent = [1]
        for i in range(1, 20):
            tangent.append(i * tangent[-1])
        for i in range(1, 20):
            for j in range(i, 20):
                tangent[j] = (j - i) * tangent[j - 1] + (j - i + 2) * tangent[j]
        stirling = [Decimal((-1) ** i * t) / ((2 * i + 1) * 4 ** (i + 1) * (4 ** (i + 1) - 1))
                    for i, t in enumerate(tangent)]

        def ln_gamma(z):
            shift = Decimal(1)
            while z < 40:
                shift *= z
                z += 1
            series = sum(c / z ** (2 * i + 1) for i, c in enumerate(stirling))
            return (z - half) * z.ln() - z + (2 * pi).ln() / 2 + series - shift.ln()

        ln_beta = pi.ln() / 2 + ln_gamma(n / 2) - ln_gamma(n / 2 + half)
        level = Decimal("0.025")

        def newton_step(t):
            s = t * t
            x, y = n / (n + s), s / (n + s)
            z, a, b = (x, n / 2, half) if x < y else (y, half, n / 2)
            term = total = Decimal(1)
            i = 0
            while total + term != total:
                term *= (a + b + i) / (a + 1 + i) * z
                total += term
                i += 1
            beta_inc = (a * z.ln() + b * (1 - z).ln() - a.ln() - ln_beta).exp() * total
            tail = beta_inc / 2 if x < y else (1 - beta_inc) / 2
            pdf = ((n + 1) / 2 * x.ln() - n.ln() / 2 - ln_beta).exp()
            return (tail - level) / pdf

        u = 1.959963984540054  # the normal quantile
        t = Decimal(u + (u ** 3 + u) / (4 * nu) + (5 * u ** 5 + 16 * u ** 3 + 3 * u) / (96 * nu ** 2))
        for _ in range(100):
            step = newton_step(t)
            t += step
            if abs(step) < t * Decimal("1e-60"):
                break
        return float(t)  # float() of a Decimal rounds correctly


def simulate(table, runs, seed=DEFAULT_SEED, sigma=0.0, error_pair=None):
    """Play the game mechanically and aggregate lifetime and success.

    Each run samples actions from the deployed strategies, draws the
    jammer's slot subset and the transmitter's packet slots uniformly,
    and flips per-packet delivery coins; the frame outcomes share
    nothing with the closed-form success math. Per-run substreams
    derive from (seed, run), and every frame consumes a fixed number of
    draws, so a run's action sequence, and hence its lifetime, is
    identical whatever sigma or error pair is in force. With sigma = 0
    results are bit-identical to the unperturbed simulation.

    Runs are played in chunks of ``_CHUNK``: each run still draws its
    uniforms from its own substream, ``_FRAMES`` frames at a time while
    it is alive, and each frame is one array step over the chunk's runs
    still alive. A run's arithmetic is the same as playing it alone, so
    the result depends on neither the chunk nor the frame block, and
    memory stays bounded by them, not by ``runs`` or the battery.

    The per-run success statistic weights frame t by
    1/(1 + E[L|S_{t+1}]) times the running product of
    E[L|S_u]/(1 + E[L|S_u]) over earlier successors, the same
    lifetime weighting the closed form applies. The weights telescope
    to 1 over any completed run, and the statistic's expectation equals
    :func:`success_probability` exactly; a plain wins/frames ratio
    would carry an O(Var[L]) bias of about 1e-3 on mixed-strategy
    games, well outside Monte Carlo noise at 10^4 runs.

    :param sigma: std-dev of the per-run PER perturbation (0 = off)
    :param error_pair: (p_clear, p_blocked) the channel actually applies;
        defaults to the solve-time pair
    :returns: :class:`SimulationResult`
    """
    return _simulate(table, runs, seed, (sigma,), error_pair)[0]


def _simulate(table, runs, seed, sigmas, error_pair):
    """One :class:`SimulationResult` per sigma, all from the same runs.

    Only the coin test reads sigma, so each chunk draws its play
    uniforms and steps its action path once for every sigma; only one
    block of frames of one chunk's uniforms is held, whatever the number
    of sigmas.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if any(sigma < 0 for sigma in sigmas):
        raise ValueError("sigma must be nonnegative")
    params = _subgame_for(table, error_pair)
    lmap = _lifetime_map(table)
    lifetimes = np.empty(runs)
    successes = np.empty((len(sigmas), runs))
    for start in range(0, runs, _CHUNK):
        stop = min(start + _CHUNK, runs)
        chunk = range(start, stop)
        draw = _play_uniforms(table.config, seed, chunk)
        z = _perturbations(seed, chunk) if any(sigma > 0.0 for sigma in sigmas) else None
        lifetimes[start:stop], successes[:, start:stop] = _play_chunk(
            table, lmap, draw, *_channel(params, sigmas, z, len(chunk)))
        del draw  # its generators and block go before the next chunk's come
    return [SimulationResult(
        runs=runs,
        seed=seed,
        sigma=sigma,
        mean_lifetime=float(lifetimes.mean()),
        lifetime_ci=_ci_half_width(lifetimes),
        success_rate=float(successes[i].mean()),
        success_ci=_ci_half_width(successes[i]),
    ) for i, sigma in enumerate(sigmas)]


def _hash_chain(const, mult):
    """SeedSequence's hash, whose constant steps by mult on every call."""
    def hashed(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hashed


def _stream_words(seed, runs, key):
    """SeedSequence((seed, run), spawn_key=(key,)).generate_state(4, np.uint64)
    of every run at once, as numpy computes it (NEP 19), for an integer
    seed >= 0 and runs below 2^32; the hash constants are shared by all."""
    # entropy: the seed's 32-bit words, the run, zeros up to 4 words, the key
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.array([*words, 0] + [0] * (3 - len(words)) + [key], dtype=np.uint32)
    entropy = entropy[:, None].repeat(len(runs), axis=1)
    entropy[len(words)] = runs
    hashed = _hash_chain(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        mixed = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * hashed(y)
        return mixed ^ mixed >> 16

    pool = [hashed(word) for word in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], pool[src])
    for word in entropy[4:]:
        pool = [mix(entry, word) for entry in pool]
    hashed = _hash_chain(0x8B51F9DD, 0x58F38DED)
    state = np.stack([hashed(pool[i % 4]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _streams(seed, runs, key):
    """Each run's PCG64 from SeedSequence((seed, run), spawn_key=(key,)):
    the second (key 1) or first (key 0) child of SeedSequence((seed, run))."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0 and runs.stop <= 2 ** 32):
        # SeedSequence takes or refuses any other seed
        return [np.random.PCG64(np.random.SeedSequence((seed, run), spawn_key=(key,)))
                for run in runs]
    # defined here, not at import, which would import numpy.random
    from numpy.random.bit_generator import ISeedSequence

    class KnownWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return [np.random.PCG64(KnownWords(words)) for words in _stream_words(int(seed), runs, key)]


def _play_uniforms(cfg, seed, runs):
    """draw(live): a (len(runs), _FRAMES, draws) block of uniforms whose
    rows live (indices into runs) hold those runs' next _FRAMES frames,
    each read on from its own play stream; other rows keep what they held.
    Each call overwrites the block the last one returned."""
    # fixed draw budget per frame: 2 action picks, 2 slot permutations,
    # up to 2k packet coins
    draws = 2 + 2 * (2 * cfg.k - 1) + 2 * cfg.k
    fills = [np.random.Generator(stream).random for stream in _streams(seed, runs, 1)]
    u = np.empty((len(runs), _FRAMES, draws))
    rows = list(u)

    def draw(live):
        for i in live.tolist():
            fills[i](out=rows[i])
        return u
    return draw


def _perturbations(seed, runs):
    """Each run's two standard normals from its perturbation stream."""
    return np.array([np.random.Generator(stream).standard_normal(2)
                     for stream in _streams(seed, runs, 0)])


def _channel(params, sigmas, z, size):
    """Per-sigma, per-run (p_clear, p_blocked) the channel applies, from
    the runs' standard normals z (size, 2); z is only read where sigma > 0."""
    p_clear = np.full((len(sigmas), size), params.p_clear, dtype=float)
    p_blocked = np.full((len(sigmas), size), params.p_blocked, dtype=float)
    for i, sigma in enumerate(sigmas):
        if sigma > 0.0:
            # Generator.normal(0.0, sigma) computes 0.0 + sigma * z from
            # the same standard normals, so this matches it bit for bit
            eps = 0.0 + sigma * z
            p_clear[i] = np.clip(p_clear[i] + eps[:, 0], 0.0, 1.0)
            p_blocked[i] = np.maximum(np.clip(p_blocked[i] + eps[:, 1], 0.0, 1.0), p_clear[i])
    return p_clear, p_blocked


def _pick(probs, width, u):
    """searchsorted(side="left") of u * total over each row's first width
    cumulative entries: the number of them below. The sums are those of
    np.cumsum(probs, axis=1), added a column at a time, which is faster
    on rows this short."""
    cum = probs.T.copy()
    for i in range(1, len(cum)):
        cum[i] += cum[i - 1]
    below = cum < u * cum[width - 1, np.arange(len(u))]
    return (below & (np.arange(len(cum))[:, None] < width)).sum(axis=0)


def _play_chunk(table, lmap, draw, p_clear, p_blocked):
    """Lifetimes (runs,) and success statistics (sigmas, runs) of the runs
    whose uniforms draw gives (:func:`_play_uniforms`); only the coin test
    reads the PERs (sigmas, runs)."""
    cfg = table.config
    k = cfg.k
    slots = 2 * k - 1
    size = p_clear.shape[1]
    b_t = np.full(size, cfg.b_t0)
    b_j = np.full(size, cfg.b_j0)
    frames = np.zeros(size)
    stat = np.zeros(p_clear.shape)
    weight = np.ones(size)
    live = np.arange(size)
    ranks = np.arange(slots)
    for frame in range(cfg.b_t0 // k):
        live = live[b_t[live] >= k]
        if live.size == 0:
            break
        if frame % _FRAMES == 0:
            u = draw(live)
        row = u[live, frame % _FRAMES]
        bt, bj = b_t[live], b_j[live]
        m, n = _widths(k, bt, bj)
        n_t = k + _pick(table.t_probs[bt, bj], m, row[:, 0])
        n_j = _pick(table.j_probs[bt, bj], n, row[:, 1])
        # stable argsort breaks ties by slot index, as sorted() does
        packet_slots = np.argsort(row[:, 2: 2 + slots], axis=1, kind="stable")
        jam_order = np.argsort(row[:, 2 + slots: 2 + 2 * slots], axis=1, kind="stable")
        jammed = np.empty((live.size, slots), dtype=bool)
        np.put_along_axis(jammed, jam_order, ranks < n_j[:, None], axis=1)
        # the packet with t-rank r sits in slot packet_slots[:, r] and reads coin 1 + r
        hit = np.take_along_axis(jammed, packet_slots, axis=1)
        pc, pb = p_clear[:, live, None], p_blocked[:, live, None]
        coins = row[:, 2 + 2 * slots:]
        per = np.where(hit, pb, pc)
        delivered = (coins[:, 0] >= pc[..., 0]) + (
            (coins[:, 1:] >= per) & (ranks < n_t[:, None] - 1)).sum(axis=-1)
        frames[live] += 1
        bt = bt - n_t
        bj = bj - n_j
        b_t[live], b_j[live] = bt, bj
        # a run that has ended reads its row b_t < k, which holds zeros
        l_next = lmap[bt, bj]
        # adding 0.0 for a lost frame leaves a run's statistic as it was
        stat[:, live] += np.where(delivered >= k, weight[live] / (1.0 + l_next), 0.0)
        weight[live] *= l_next / (1.0 + l_next)
    return frames, stat


def sensitivity_sweep(table, spec=SensitivitySpec(), seed=DEFAULT_SEED, error_pair=None):
    """What :func:`simulate` gives at each sigma in the spec, in order.

    Strategies stay those solved under the unperturbed model; only the
    PERs the channel applies move. Lifetimes are identical across sigmas
    by construction, which isolates the success-rate sensitivity. Each
    chunk of runs draws its play uniforms once for the whole sweep.
    """
    return _simulate(table, spec.runs, seed, spec.sigmas, error_pair)
