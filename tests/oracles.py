"""Independent reference implementations the tests compare the package against.

Everything here is deliberately dumb and slow: exhaustive enumeration,
high-precision series, an off-the-shelf LP, or one state at a time.
t975_reference is the Student t quantile behind the Monte Carlo
intervals, found by root finding on mpmath's incomplete beta function.
build_payoff_matrix and deployed_matrix build the stage matrix of a
single state from its successors' values; the backward-induction and
fixed-play references below loop over states with them, and the
acceptance tests certify stored strategies against them. These two
take the frame payoffs and the legal action sets from the package; only
backward_induction_reference also shares the single-game LP, because it
checks how solve_full_game batches and dedupes those games, bit for bit.
next_values_reference gathers a level block's successor values in one
fancy-index step over four broadcast index arrays, the gather
solver._next_values must equal byte for byte.
simulate_reference replays Monte Carlo runs one at a time, the loop the
package's chunked simulator must match exactly. export_text_reference
writes a table file by encoding the whole document and, for the
checksum, every record a second time with sorted keys; load_reference
reads one by parsing the whole document and converting every record's
members, the loader the package's per-distinct-record reader must agree
with.
"""

import hashlib
import itertools
import json
import re

import numpy as np

from uwjam.errors import TableError
from uwjam.solver import (TABLE_FORMAT, TABLE_VERSION, GameConfig, MixedStrategy,
                          StrategyTable)


def marcum_q1_reference(a, b, dps=50):
    """Q1(a, b) as a Poisson mixture summed in mpmath arithmetic."""
    import mpmath

    with mpmath.workdps(dps):
        if a == 0.0:
            return float(mpmath.e ** (-mpmath.mpf(b) ** 2 / 2))
        if b == 0.0:
            return 1.0
        la = mpmath.mpf(a) ** 2 / 2
        lb = mpmath.mpf(b) ** 2 / 2
        hi = int(max(la, lb) + 60 * mpmath.sqrt(max(la, lb)) + 200)
        pa = mpmath.e ** (-la)
        pb = mpmath.e ** (-lb)
        cdf = pb
        total = mpmath.mpf(0)
        for j in range(hi):
            total += pa * cdf
            pa = pa * la / (j + 1)
            pb = pb * lb / (j + 1)
            cdf += pb
        return float(total)


def bessel_i0_reference(x, dps=50):
    import mpmath

    with mpmath.workdps(dps):
        return float(mpmath.besseli(0, mpmath.mpf(x)))


def t975_reference(nu, dps=60):
    """Student's t quantile at exactly 0.975 with nu degrees of freedom:
    mpmath's regularized incomplete beta function, bracketed root finding
    on the upper tail 1/40, rounded once to a float."""
    import mpmath

    with mpmath.workdps(dps):
        n = mpmath.mpf(nu)

        def excess(t):
            # betainc's argument stays at most 1/2, where its series converges fast
            s = t * t
            if n < s:
                tail = mpmath.betainc(n / 2, 0.5, 0, n / (n + s), regularized=True) / 2
            else:
                tail = (1 - mpmath.betainc(0.5, n / 2, 0, s / (n + s), regularized=True)) / 2
            return tail - mpmath.mpf(1) / 40

        # the quantile lies between the normal one (1.96) and nu = 1's (12.71)
        return float(mpmath.findroot(excess, (mpmath.mpf("1.9"), mpmath.mpf(13)),
                                     solver="anderson"))


def solve_game_linprog(matrix):
    """Zero-sum game value and strategies via scipy's HiGHS solver.

    Row player maximizes. Uses the standard normalization trick on a
    shifted-positive matrix.
    """
    from scipy.optimize import linprog

    a = np.asarray(matrix, dtype=float)
    m, n = a.shape
    shift = 1.0 - a.min()
    b = a + shift
    row = linprog(np.ones(m), A_ub=-b.T, b_ub=-np.ones(n), method="highs")
    col = linprog(-np.ones(n), A_ub=b, b_ub=np.ones(m), method="highs")
    assert row.status == 0 and col.status == 0, "reference LP failed"
    value = 1.0 / row.x.sum()
    x = row.x * value
    y = col.x / col.x.sum()
    return value - shift, x, y


def support_enumeration_solve(matrix, tol=1e-9):
    """Equilibrium by square-support enumeration.

    Walks support pairs of equal size, solves the equalization systems
    and keeps the first pair whose strategies are nonnegative and
    deviation-proof. Every matrix game has such a square kernel, so on
    the small matrices this is used for it always returns.

    :returns: (value, row_strategy, col_strategy) or None
    """
    a = np.asarray(matrix, dtype=float)
    m, n = a.shape
    scale = max(1.0, np.abs(a).max())
    rhs_template = None
    for s in range(1, min(m, n) + 1):
        rhs_template = np.zeros(s + 1)
        rhs_template[s] = 1.0
        for rows in itertools.combinations(range(m), s):
            sub_rows = a[list(rows), :]
            for cols in itertools.combinations(range(n), s):
                sub = sub_rows[:, list(cols)]
                lhs_x = np.zeros((s + 1, s + 1))
                lhs_x[:s, :s] = sub.T
                lhs_x[:s, s] = -1.0
                lhs_x[s, :s] = 1.0
                lhs_y = np.zeros((s + 1, s + 1))
                lhs_y[:s, :s] = sub
                lhs_y[:s, s] = -1.0
                lhs_y[s, :s] = 1.0
                try:
                    sol_x = np.linalg.solve(lhs_x, rhs_template)
                    sol_y = np.linalg.solve(lhs_y, rhs_template)
                except np.linalg.LinAlgError:
                    continue
                v = sol_x[s]
                if abs(v - sol_y[s]) > tol * scale:
                    continue
                if sol_x[:s].min() < -tol or sol_y[:s].min() < -tol:
                    continue
                x = np.zeros(m)
                x[list(rows)] = np.clip(sol_x[:s], 0.0, None)
                x /= x.sum()
                y = np.zeros(n)
                y[list(cols)] = np.clip(sol_y[:s], 0.0, None)
                y /= y.sum()
                # optimality against every pure deviation
                if (x @ a).min() < v - tol * scale:
                    continue
                if (a @ y).max() > v + tol * scale:
                    continue
                return float(v), x, y
    return None


def best_response_gaps(matrix, x, y, value):
    """How much either player gains over `value` by a pure deviation."""
    a = np.asarray(matrix, dtype=float)
    return float((a @ y).max() - value), float(value - (x @ a).min())


def blocked_count_exhaustive(k, n_t, n_j):
    """Jam overlap distribution by enumerating every jam subset.

    The jammer's subset is uniform over the 2k-1 reachable slots, so the
    packets can sit WLOG on the first n_t - 1 of them.
    """
    slots = 2 * k - 1
    packets = set(range(n_t - 1))
    counts = np.zeros(min(n_t - 1, n_j) + 1)
    total = 0
    for jam in itertools.combinations(range(slots), n_j):
        counts[len(packets & set(jam))] += 1
        total += 1
    return counts / total


def frame_success_exhaustive(k, n_t, n_j, p_clear, p_blocked):
    """Frame success probability by enumerating jam subsets.

    Per subset the deliveries are independent coins; the tail of their
    Poisson-binomial sum comes from a plain convolution.
    """
    slots = 2 * k - 1
    total = 0.0
    count = 0
    for jam in itertools.combinations(range(slots), n_j):
        jammed = set(jam)
        succ = [1.0 - p_clear]                      # first copy, out of reach
        succ += [1.0 - (p_blocked if s in jammed else p_clear)
                 for s in range(n_t - 1)]
        pmf = np.array([1.0])
        for p in succ:
            pmf = np.convolve(pmf, [1.0 - p, p])
        total += pmf[k:].sum()
        count += 1
    return total / count


def build_payoff_matrix(state, config, continuation=None):
    """Stage matrix at a state: frame payoff plus discounted continuation.

    :param continuation: callable mapping a successor GameState to its
        value; successors where the transmitter cannot afford another
        frame are worth 0. None means a one-shot frame.
    :returns: matrix of shape (len n_ts, len n_js), transmitter maximizes
    """
    from uwjam.solver import GameState, action_sets
    from uwjam.subgame import payoff_matrix

    n_ts, n_js = action_sets(state, config.k)
    mat = np.array(payoff_matrix(config.subgame)[: len(n_ts), : len(n_js)])
    if continuation is not None:
        for i, n_t in enumerate(n_ts):
            for j, n_j in enumerate(n_js):
                b_t = state.b_t - n_t
                v = 0.0 if b_t < config.k else continuation(GameState(b_t, state.b_j - n_j))
                mat[i, j] += config.discount * v
    return mat


def deployed_matrix(table, state):
    """Stage matrix whose equilibrium is the strategy deployed at state."""
    depth = table.deployed_depth(state)
    if depth <= 1:
        return build_payoff_matrix(state, table.config)
    return build_payoff_matrix(
        state, table.config,
        continuation=lambda s: table.horizon_value(s, depth - 1))


def backward_induction_reference(config):
    """Receding-horizon backward induction one state at a time.

    Every (state, lookahead depth) pair gets its own
    build_payoff_matrix and solve_matrix_game call: no jammer-battery
    cap, no level blocks, no batching.

    :returns: (horizon_values, t_probs, j_probs, values) laid out as in
        StrategyTable
    """
    from uwjam.solver import GameState, solve_matrix_game

    k = config.k
    g_store = config.effective_horizon()
    shape = (config.b_t0 + 1, config.b_j0 + 1)
    horizon_values = np.zeros((g_store + 1,) + shape)
    t_probs = np.zeros(shape + (k + 1,))
    j_probs = np.zeros(shape + (2 * k,))
    values = np.zeros(shape)
    for b_t in range(k, config.b_t0 + 1):
        depth = min(g_store, b_t // k)
        for b_j in range(config.b_j0 + 1):
            state = GameState(b_t, b_j)
            for g in range(1, depth + 1):
                mat = build_payoff_matrix(
                    state, config,
                    continuation=lambda s: horizon_values[g - 1, s.b_t, s.b_j])
                v, x, y = solve_matrix_game(mat)
                horizon_values[g, b_t, b_j] = v
            horizon_values[depth + 1:, b_t, b_j] = v
            t_probs[b_t, b_j, : x.size] = x
            j_probs[b_t, b_j, : y.size] = y
            values[b_t, b_j] = v
    return horizon_values, t_probs, j_probs, values


def _dense(choice, actions):
    """Probabilities of an action or MixedStrategy over the legal actions."""
    if isinstance(choice, MixedStrategy):
        return [choice.prob_of(a) for a in actions]
    return [float(a == choice) for a in actions]


def fixed_play_reference(config, j_policy):
    """Receding-horizon values of the transmitter's best reply to a fixed
    jammer, one state and lookahead depth at a time.

    At each depth the transmitter plays the best row of M y for the
    state's stage matrix M and jam probabilities y, ties going to the
    lowest n_t.

    :returns: (horizon_values, t_probs) laid out as in StrategyTable
    """
    from uwjam.solver import GameState, action_sets

    k = config.k
    g_store = config.effective_horizon()
    shape = (config.b_t0 + 1, config.b_j0 + 1)
    horizon_values = np.zeros((g_store + 1,) + shape)
    t_probs = np.zeros(shape + (k + 1,))
    for b_t in range(k, config.b_t0 + 1):
        depth = min(g_store, b_t // k)
        for b_j in range(config.b_j0 + 1):
            state = GameState(b_t, b_j)
            n_ts, n_js = action_sets(state, k)
            y = _dense(j_policy(state), n_js)
            for g in range(1, depth + 1):
                mat = build_payoff_matrix(
                    state, config,
                    continuation=lambda s: horizon_values[g - 1, s.b_t, s.b_j])
                rows = mat @ y
                x = np.zeros(len(n_ts))
                x[int(np.argmax(rows))] = 1.0
                horizon_values[g, b_t, b_j] = x @ rows
            horizon_values[depth + 1:, b_t, b_j] = horizon_values[depth, b_t, b_j]
            t_probs[b_t, b_j, : x.size] = x
    return horizon_values, t_probs


def forced_play_table(config, t_policy, j_policy):
    """Table of imposed play: each policy (callable state -> action or
    MixedStrategy) called once per non-terminal state. It carries the
    probabilities only; its values are all 0.
    """
    from uwjam.solver import GameState

    k = config.k
    shape = (config.b_t0 + 1, config.b_j0 + 1)
    t_probs = np.zeros(shape + (k + 1,))
    j_probs = np.zeros(shape + (2 * k,))
    # the legal actions, as action_sets lists them
    n_js = [range(min(2 * k - 1, b_j) + 1) for b_j in range(config.b_j0 + 1)]
    for b_t in range(k, config.b_t0 + 1):
        n_ts = range(k, min(2 * k, b_t) + 1)
        for b_j in range(config.b_j0 + 1):
            state = GameState(b_t, b_j)
            t_probs[b_t, b_j, : len(n_ts)] = _dense(t_policy(state), n_ts)
            j_probs[b_t, b_j, : len(n_js[b_j])] = _dense(j_policy(state), n_js[b_j])
    return StrategyTable(config, t_probs, j_probs, np.zeros(shape))


def next_values_reference(grid, k, succ_bt):
    """solver._next_values as one gather: grid (..., b_t, b_j) at every
    (level, b_j, n_t, n_j) successor, 0 where the game has ended (b_t' < k)."""
    succ_bj = np.clip(np.arange(grid.shape[-1])[:, None] - np.arange(2 * k), 0, None)
    alive = succ_bt >= k
    nxt = grid[..., np.where(alive, succ_bt, k)[:, None, :, None], succ_bj[None, :, None, :]]
    return np.where(alive[:, None, :, None], nxt, 0.0)


def simulate_reference(table, runs, seed, sigma=0.0, error_pair=None):
    """Monte Carlo replay one run and one frame at a time.

    The per-run loop uwjam.analysis.simulate steps across chunks of
    runs: each run has its own SeedSequence((seed, run)) substreams and
    draws a (max_frames, draws) block from its play stream; actions come
    from searchsorted over the cumulative strategy, slot ranks from
    sorted() (ties by index), and the packet with t-rank r reads coin
    1 + r. The lifetime map and the confidence half-width are taken from
    the package.
    """
    from uwjam.analysis import (SimulationResult, _ci_half_width, _lifetime_map,
                                _subgame_for)

    cfg = table.config
    k = cfg.k
    params = _subgame_for(table, error_pair)
    base_clear, base_blocked = params.p_clear, params.p_blocked
    slots = 2 * k - 1
    draws = 2 + 2 * slots + 2 * k
    max_frames = cfg.b_t0 // k
    cum_t = np.cumsum(table.t_probs, axis=2)
    cum_j = np.cumsum(table.j_probs, axis=2)
    lmap = _lifetime_map(table)
    lifetimes = np.empty(runs)
    successes = np.empty(runs)
    for run in range(runs):
        root = np.random.SeedSequence((seed, run))
        perturb_ss, play_ss = root.spawn(2)
        if sigma > 0.0:
            perturb = np.random.Generator(np.random.PCG64(perturb_ss))
            eps = perturb.normal(0.0, sigma, size=2)
            p_clear = min(1.0, max(0.0, base_clear + eps[0]))
            p_blocked = min(1.0, max(0.0, base_blocked + eps[1]))
            p_blocked = max(p_blocked, p_clear)
        else:
            p_clear, p_blocked = base_clear, base_blocked
        play = np.random.Generator(np.random.PCG64(play_ss))
        u = play.random((max_frames, draws))
        b_t, b_j = cfg.b_t0, cfg.b_j0
        frames = 0
        stat = 0.0
        weight = 1.0
        while b_t >= k:
            row = u[frames]
            m = min(2 * k, b_t) - k + 1
            n = min(slots, b_j) + 1
            ct = cum_t[b_t, b_j]
            cj = cum_j[b_t, b_j]
            n_t = k + int(np.searchsorted(ct[:m], row[0] * ct[m - 1], side="left"))
            n_j = int(np.searchsorted(cj[:n], row[1] * cj[n - 1], side="left"))
            ut = row[2: 2 + slots]
            uj = row[2 + slots: 2 + 2 * slots]
            packet_slots = sorted(range(slots), key=ut.__getitem__)[: n_t - 1]
            jammed = set(sorted(range(slots), key=uj.__getitem__)[:n_j])
            coins = row[2 + 2 * slots:]
            delivered = 1 if coins[0] >= p_clear else 0      # unjammable first copy
            for pos, slot in enumerate(packet_slots):
                per = p_blocked if slot in jammed else p_clear
                if coins[1 + pos] >= per:
                    delivered += 1
            frames += 1
            b_t -= n_t
            b_j -= n_j
            l_next = lmap[b_t, b_j] if b_t >= k else 0.0
            if delivered >= k:
                stat += weight / (1.0 + l_next)
            weight *= l_next / (1.0 + l_next)
        lifetimes[run] = frames
        successes[run] = stat
    return SimulationResult(
        runs=runs,
        seed=seed,
        sigma=sigma,
        mean_lifetime=float(lifetimes.mean()),
        lifetime_ci=_ci_half_width(lifetimes),
        success_rate=float(successes.mean()),
        success_ci=_ci_half_width(successes),
    )


def export_text_reference(table, meta=None):
    """The text of a table file, built by encoding the state records twice.

    The checksum is the sha256 of the records encoded with sorted keys,
    and the file is the whole document encoded compactly, plus a newline.
    Records are built from the table's arrays one state at a time.
    """
    cfg = table.config
    k = cfg.k
    states = [{"b_t": b_t,
               "b_j": b_j,
               "strat_t": [float(p) for p in table.t_probs[b_t, b_j, : min(2 * k, b_t) - k + 1]],
               "strat_j": [float(p) for p in table.j_probs[b_t, b_j, : min(2 * k - 1, b_j) + 1]],
               "value": float(table.values[b_t, b_j])}
              for b_t in range(k, cfg.b_t0 + 1) for b_j in range(cfg.b_j0 + 1)]
    canonical = json.dumps(states, sort_keys=True, separators=(",", ":"))
    doc = {
        "format": TABLE_FORMAT,
        "version": TABLE_VERSION,
        "config": cfg.to_dict(),
        "checksum": hashlib.sha256(canonical.encode()).hexdigest(),
        "states": states,
    }
    if meta is None:
        meta = table.meta
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# the table loader as it stood before loading went one distinct record at
# a time: hashes the states text of a compact file, parses every file as
# one document and converts every record's members


def _checksum(states_payload):
    canonical = json.dumps(states_payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# The members of a record whose order in the compact text export_table
# writes (b_t, b_j, strat_t, strat_j, value) differs from the sorted-key
# text _checksum hashes (b_j, b_t, strat_j, strat_t, value)
_SWAPPED_MEMBERS = re.compile(
    r'("b_t":\d+,)("b_j":\d+,)("strat_t":\[[^\]]*\],)("strat_j":\[[^\]]*\],)')
# characters of states text rewritten at a time
_BLOCK = 1 << 20


def _canonical_digest(text, start, stop):
    """(checksum, records rewritten) of the compact states text
    text[start:stop].

    Swapping the two member pairs of every record turns the text into
    the canonical text :func:`_checksum` encodes, so no float is encoded
    again. It goes about ``_BLOCK`` characters at a time, cut between
    records, so the pieces it is split into stay small.
    """
    digest = hashlib.sha256()
    records = 0
    while start < stop:
        # just past the closing brace of a record, or at stop
        end = text.find("},", start + _BLOCK, stop) + 1 or stop
        parts = _SWAPPED_MEMBERS.split(text[start:end])
        parts[1::5], parts[2::5], parts[3::5], parts[4::5] = (
            parts[2::5], parts[1::5], parts[4::5], parts[3::5])
        digest.update("".join(parts).encode())
        records += len(parts) // 5
        start = end
    return digest.hexdigest(), records


def _tail(meta):
    """The text export_table writes after the states list."""
    if meta is None:
        return "}\n"
    return ',"meta":' + json.dumps(meta, separators=(",", ":")) + "}\n"


def _file_digest(text):
    """(checksum, tail) read from the text of a file laid out as
    export_table writes it, or None where no states list is found."""
    start = text.find('"states":[')
    if start < 0:
        return None
    start += len('"states":')
    # records hold no nested objects, so the first "}]" closes the list
    end = start if text.startswith("[]", start) else text.find("}]", start)
    if end < 0:
        return None
    return _canonical_digest(text, start, end + 2)[0], text[end + 2:]


def load_reference(path):
    """Load a table written by :func:`export_table`.

    Raises :class:`TableError` on format or version mismatch, checksum
    failure, NaN or infinite entries, or strategy rows that are not
    probability distributions.
    The loaded table carries deployed strategies and values only.

    The checksum is read from the file's own text: before parsing, the
    states text is turned into the canonical text by the same member
    reordering export_table uses, and hashed. That hash settles the
    check when the rest of the file is exactly what export_table writes
    around it. Otherwise (other whitespace, key order or float spelling)
    the parsed records are encoded again and hashed, so such a file
    still loads and a corrupt one still fails.
    """
    with open(path) as fh:
        text = fh.read()
    digest = _file_digest(text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableError(f"{path}: not a valid table file: {exc}") from None
    del text  # the parsed records take its place
    if not isinstance(doc, dict) or doc.get("format") != TABLE_FORMAT:
        raise TableError(f"{path}: not a {TABLE_FORMAT} file")
    if doc.get("version") != TABLE_VERSION:
        raise TableError(f"{path}: unsupported version {doc.get('version')!r}, "
                         f"expected {TABLE_VERSION}")
    for field in ("config", "checksum", "states"):
        if field not in doc:
            raise TableError(f"{path}: missing field {field!r}")
    config = GameConfig.from_dict(doc["config"])
    states = doc["states"]
    # a tail other than export_table's could hold a second "states" key
    # that the parser takes instead of the text hashed above
    if (digest != (doc["checksum"], _tail(doc.get("meta")))
            and _checksum(states) != doc["checksum"]):
        raise TableError(f"{path}: checksum mismatch, file corrupt or truncated")
    k = config.k
    t_probs = np.zeros((config.b_t0 + 1, config.b_j0 + 1, k + 1))
    j_probs = np.zeros((config.b_t0 + 1, config.b_j0 + 1, 2 * k))
    values = np.zeros((config.b_t0 + 1, config.b_j0 + 1))
    expected = max(0, config.b_t0 - k + 1) * (config.b_j0 + 1)
    try:
        if len(states) != expected:
            raise TableError(f"{path}: {len(states)} states, expected {expected}")
        if expected:
            # one array per record field, checked and written whole
            b_t = np.array([rec["b_t"] for rec in states])
            b_j = np.array([rec["b_j"] for rec in states])
            if b_t.dtype.kind != "i" or b_j.dtype.kind != "i":
                raise TypeError("battery levels must be integers")
            outside = np.flatnonzero((b_t < k) | (b_t > config.b_t0)
                                     | (b_j < 0) | (b_j > config.b_j0))
            if outside.size:
                i = outside[0]
                raise TableError(f"{path}: state ({b_t[i]}, {b_j[i]}) outside the grid")
            values[b_t, b_j] = [rec["value"] for rec in states]
            for target, field, width in (
                    (t_probs, "strat_t", np.minimum(2 * k, b_t) - k + 1),
                    (j_probs, "strat_j", np.minimum(2 * k - 1, b_j) + 1)):
                strats = [rec[field] for rec in states]
                lengths = np.array([len(strat) for strat in strats])
                wrong = np.flatnonzero(lengths != width)
                if wrong.size:
                    i = wrong[0]
                    raise TableError(f"{path}: wrong strategy length at ({b_t[i]}, {b_j[i]})")
                # a boolean mask fills row by row, so record r's entries
                # land in the first width[r] columns of row r
                legal = np.arange(target.shape[2]) < width[:, None]
                rows = np.zeros(legal.shape)
                rows[legal] = np.fromiter(itertools.chain.from_iterable(strats), float,
                                          count=int(lengths.sum()))
                target[b_t, b_j] = rows
    except (KeyError, TypeError, ValueError) as exc:
        raise TableError(f"{path}: malformed state record: {exc}") from None
    for arr, label in ((values, "value"), (t_probs, "strat_t"), (j_probs, "strat_j")):
        if not np.isfinite(arr).all():
            raise TableError(f"{path}: {label} holds NaN or infinity")
    for probs, label in ((t_probs, "strat_t"), (j_probs, "strat_j")):
        sums = probs[k:, :, :].sum(axis=2)
        if (probs < 0.0).any() or (np.abs(sums - 1.0) > 1e-9).any():
            raise TableError(f"{path}: {label} rows are not distributions")
    return StrategyTable(config, t_probs, j_probs, values,
                         horizon_values=None, meta=doc.get("meta"))
