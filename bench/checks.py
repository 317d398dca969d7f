"""Checks on the outputs of the benchmark workloads.

Every check returns a list of problems; an empty list means the output
passed. No check compares against a stored copy of earlier output: each
one tests a property the method must have, or compares with a
computation made apart from the program (scipy's HiGHS, a rebuilt stage
matrix, a second export).
"""

import numpy as np
from scipy import optimize, stats

from uwjam.subgame import payoff_matrix

GAP_TOL = 1e-6      # best-response gap of a stored strategy
LINPROG_TOL = 1e-8  # stored value against HiGHS
ROUNDOFF = 1e-9     # allowance on bounds that hold exactly in exact arithmetic
MC_SE = 5           # Monte Carlo against closed form, in standard errors


def stage_matrices(table, b_t):
    """Deployed stage matrices of every b_j at transmitter level b_t.

    Rebuilt from payoff_matrix and the table's horizon values: entry
    (i, j) is the frame payoff plus the discounted value, one frame less
    deep, of the battery pair that n_t = k + i and n_j = j leave.

    :returns: (matrices (b_j0 + 1, m, 2k), legal (b_j0 + 1, 2k)) where
        legal marks the jam counts the jammer can afford; other columns
        hold padding
    """
    cfg = table.config
    k = cfg.k
    horizon = table.horizon_values
    depth = min(horizon.shape[0] - 1, b_t // k)
    m = min(2 * k, b_t) - k + 1
    b_js = np.arange(cfg.b_j0 + 1)
    cols = np.arange(2 * k)
    legal = cols[None, :] <= np.minimum(2 * k - 1, b_js)[:, None]
    succ_bt = b_t - np.arange(k, k + m)
    alive = succ_bt >= k
    succ_bj = np.clip(b_js[:, None] - cols[None, :], 0, None)
    cont = horizon[depth - 1][np.where(alive, succ_bt, 0)[None, :, None],
                              succ_bj[:, None, :]]
    cont = np.where(alive[None, :, None], cont, 0.0)
    base = payoff_matrix(cfg.subgame)
    return base[None, :m, :] + cfg.discount * cont, legal


def equilibrium_gaps(table):
    """Certificate error at every stored state, shape (b_t0 + 1, b_j0 + 1).

    The error is the largest of: either player's gain from a pure
    deviation, the distance between the stored value and the payoff of
    the stored strategies, and how far either strategy is from a
    distribution over the legal actions. NaN anywhere gives NaN. Rows of
    terminal b_t hold 0.
    """
    cfg = table.config
    k = cfg.k
    err = np.zeros((cfg.b_t0 + 1, cfg.b_j0 + 1))
    for b_t in range(k, cfg.b_t0 + 1):
        mats, legal = stage_matrices(table, b_t)
        m = mats.shape[1]
        x = table.t_probs[b_t, :, :m]
        y_all = table.j_probs[b_t]
        y = np.where(legal, y_all, 0.0)
        row_pay = np.einsum("bij,bj->bi", mats, y)
        col_pay = np.where(legal, np.einsum("bi,bij->bj", x, mats), np.inf)
        v = np.einsum("bi,bi->b", x, row_pay)
        off_dist = np.maximum.reduce([
            np.abs(x.sum(axis=1) - 1.0), np.abs(y.sum(axis=1) - 1.0),
            -x.min(axis=1), -y.min(axis=1),
            np.abs(np.where(legal, 0.0, y_all)).max(axis=1)])
        err[b_t] = np.maximum.reduce([
            row_pay.max(axis=1) - v, v - col_pay.min(axis=1),
            np.abs(table.values[b_t] - v), off_dist])
    return err


def certify(table, tol=GAP_TOL):
    """Problems for every state whose stored strategies are not a
    tol-equilibrium of the rebuilt stage matrix (NaN counts as failing)."""
    err = equilibrium_gaps(table)
    bad = np.argwhere(~(err <= tol))
    return [f"state ({b_t}, {b_j}): certificate error {err[b_t, b_j]:.3g} > {tol:g}"
            for b_t, b_j in bad]


def highs_value(matrix):
    """Value of a zero-sum matrix game (row player maximizes) by HiGHS."""
    m, n = matrix.shape
    # variables: row strategy x (m), value v; maximize v subject to
    # v <= x' M[:, j] for every column j and sum(x) = 1
    res = optimize.linprog(
        c=np.r_[np.zeros(m), -1.0],
        A_ub=np.c_[-matrix.T, np.ones(n)], b_ub=np.zeros(n),
        A_eq=np.r_[np.ones(m), 0.0][None, :], b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)], method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -res.fun


def highs_problems(table, states, tol=LINPROG_TOL):
    """Stored values at the given (b_t, b_j) states against HiGHS."""
    problems = []
    for b_t, b_j in states:
        mats, legal = stage_matrices(table, b_t)
        expected = highs_value(mats[b_j][:, legal[b_j]])
        got = table.values[b_t, b_j]
        if not abs(got - expected) <= tol:
            problems.append(f"state ({b_t}, {b_j}): value {got!r}, HiGHS {expected!r}")
    return problems


def same_table(solved, loaded):
    """Problems where a loaded table differs from the one exported.

    Floats are written in shortest round-trip form, so every stored
    number must come back bit for bit."""
    problems = []
    if solved.config != loaded.config:
        problems.append(f"config {loaded.config} != {solved.config}")
    k = solved.config.k
    for name in ("t_probs", "j_probs", "values"):
        a, b = getattr(solved, name)[k:], getattr(loaded, name)[k:]
        if a.shape != b.shape or not np.array_equal(a, b):
            problems.append(f"{name} differs after export and load")
    return problems


def lifetime_success_problems(report, k, b_t0):
    """Lifetime within [b_t0 / 2k, b_t0 / k] frames and success in [0, 1]."""
    problems = []
    lo, hi = b_t0 / (2 * k), b_t0 / k
    if not lo - ROUNDOFF <= report.lifetime <= hi + ROUNDOFF:
        problems.append(f"lifetime {report.lifetime!r} outside [{lo}, {hi}]")
    if not -ROUNDOFF <= report.success <= 1.0 + ROUNDOFF:
        problems.append(f"success {report.success!r} outside [0, 1]")
    return problems


def standard_error(ci_half_width, runs):
    """Standard error behind a 95% Student-t half-width over runs."""
    return ci_half_width / stats.t.ppf(0.975, runs - 1)


def monte_carlo_problems(label, closed, mean, ci_half_width, runs, n_se=MC_SE):
    """A Monte Carlo mean against its closed form, within n_se standard
    errors (or round-off, when every run gave the same number)."""
    allowed = max(n_se * standard_error(ci_half_width, runs), ROUNDOFF)
    if not abs(mean - closed) <= allowed:
        return [f"{label}: Monte Carlo {mean!r} vs closed form {closed!r}, "
                f"allowed {allowed:.3g}"]
    return []


def sensitivity_problems(rows, plain):
    """Rows of a sigma sweep (dicts with sigma, lifetime, lifetime_ci,
    psucc, psucc_ci) against the plain simulation at the same seed and
    run count: lifetimes are the same at every sigma, and sigma = 0 gives
    exactly the plain result."""
    problems = []
    lifetimes = {(r["lifetime"], r["lifetime_ci"]) for r in rows}
    if len(lifetimes) != 1:
        problems.append(f"lifetimes differ across sigma: {sorted(lifetimes)}")
    zero = [r for r in rows if r["sigma"] == 0.0]
    if len(zero) != 1:
        problems.append("no single sigma = 0 row")
    else:
        got = tuple(zero[0][c] for c in ("lifetime", "lifetime_ci", "psucc", "psucc_ci"))
        want = (plain.mean_lifetime, plain.lifetime_ci, plain.success_rate, plain.success_ci)
        if got != want:
            problems.append(f"sigma = 0 gives {got}, plain simulate {want}")
    return problems


def dummy_jammer_problems(table):
    """The baseline jammer must jam min(k + 1, b_j) slots at every state."""
    cfg = table.config
    k = cfg.k
    b_js = np.arange(cfg.b_j0 + 1)
    want = np.zeros((cfg.b_j0 + 1, 2 * k))
    want[b_js, np.minimum(k + 1, b_js)] = 1.0
    bad = [b_t for b_t in range(k, cfg.b_t0 + 1)
           if not np.array_equal(table.j_probs[b_t], want)]
    if bad:
        return [f"dummy jammer off min(k + 1, b_j) at b_t in {bad[:5]}"]
    return []
