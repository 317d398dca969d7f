"""Multistage game solver.

The state of the energy-depleting jamming game is the battery pair
(b_t, b_j) in packet quanta. Every frame the transmitter spends n_t and
the jammer spends n_j quanta; the game ends when the transmitter can no
longer afford a minimal frame (b_t < k). Both players observe both
batteries, so each state hosts a finite zero-sum matrix game whose
entries are the frame payoff plus the discounted continuation value.

Values are computed by backward induction over b_t (every action
strictly decreases it), with a rolling receding horizon: the strategy
deployed at a state is the equilibrium of the matrix whose continuation
values look gamma = horizon frames ahead. Since the game cannot outlast
floor(b_t / k) further frames, horizon values are constant in gamma past
that depth, which caps the work per state. Likewise the jammer cannot
spend more than gamma(2k-1) quanta within gamma frames, so every b_j
above that cap shares the stage matrix of the cap and takes its
solution instead of being solved again. The transmitter cap mirrors it:
gamma frames cost at most 2k gamma quanta, so the gamma-frame values
repeat at every b_t >= 2k gamma and those levels copy the level below
instead of solving again. A frame costs at least k quanta, so the k
levels qk .. qk+k-1 depend only on levels below qk and are solved as
one block, in one batch of stage games with all 2k jam counts
(:func:`solve_full_game`). Continuation values often stop changing in
b_t or b_j before those caps, so many of a block's games still repeat a
neighbour's bytes; such a game takes the solution of the same game one
level down or of the previous one on its level instead of being pivoted
again (:func:`_solve_stage_batch`). The transmitter's best response to
a fixed jammer, the values of fixed play and the lifetime and success
recursions of :mod:`uwjam.analysis` walk the same level blocks and read
successors through the same gather (:func:`_levels`,
:func:`_next_values`).

Matrix games are solved as linear programs with a dense tableau simplex,
batched over states: value = 1/max(1'q) with (M + shift) q <= 1, q >= 0.
An all-+inf column marks an action the minimizing player lacks
(:func:`_minimax_batch`); :func:`solve_matrix_game` takes finite games.
Entering variables follow Bland's rule and the ratio test runs on a
deterministically perturbed right-hand side carried next to the true
one, so degenerate matrices (common when a PER saturates at 0 or 1)
cannot cycle. Identical inputs take identical pivot paths, which makes
solves reproducible bit for bit.
"""

import contextlib
import hashlib
import itertools
import json
import math
import numbers
import os
import re
import uuid
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, SolverError, TableError
from .subgame import SubgameParams, payoff_matrix

__all__ = [
    "GameState",
    "GameConfig",
    "MixedStrategy",
    "StrategyTable",
    "is_terminal",
    "action_sets",
    "solve_matrix_game",
    "solve_full_game",
    "solve_vs_fixed_jammer",
    "dummy_jammer_policy",
    "fixed_policy_table",
    "export_table",
    "load_table",
]

TABLE_FORMAT = "uwjam-strategy-table"
TABLE_VERSION = 1


@dataclass(frozen=True, order=True)
class GameState:
    """Battery pair (transmitter, jammer) in packet quanta."""

    b_t: int
    b_j: int

    def __post_init__(self):
        if self.b_t < 0 or self.b_j < 0:
            raise ValueError("battery levels must be nonnegative")


def is_terminal(state, k):
    """True when no further frame can be played from this state."""
    return state.b_t < k


@dataclass(frozen=True)
class GameConfig:
    """Full specification of one game instance.

    :param k: packets needed per frame; frames have 2k slots
    :param b_t0: initial transmitter battery, quanta
    :param b_j0: initial jammer battery, quanta
    :param alpha: energy weight of the frame payoff
    :param p_clear: PER of an unjammed packet
    :param p_blocked: PER of a jammed packet
    :param horizon: lookahead depth gamma in frames; math.inf allowed
        when discount < 1
    :param discount: per-frame discount factor lambda in [0, 1]
    """

    k: int
    b_t0: int
    b_j0: int
    alpha: float
    p_clear: float
    p_blocked: float
    horizon: float = 30
    discount: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, what = ((numbers.Integral, "an integer") if f.type is int
                          else (numbers.Real, "a number"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        if self.k < 1:
            raise ConfigError("k must be a positive integer")
        if self.b_t0 < 0 or self.b_j0 < 0:
            raise ConfigError("initial batteries must be nonnegative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        for name in ("p_clear", "p_blocked"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if not 0.0 <= self.discount <= 1.0:
            raise ConfigError("discount must lie in [0, 1]")
        if self.horizon == math.inf:
            if self.discount >= 1.0:
                raise ConfigError("infinite horizon requires discount < 1")
        elif not self.horizon >= 1 or self.horizon != int(self.horizon):  # NaN fails >=
            raise ConfigError("horizon must be a positive integer or inf")

    @property
    def subgame(self):
        return SubgameParams(k=self.k, alpha=self.alpha,
                             p_clear=self.p_clear, p_blocked=self.p_blocked)

    @property
    def initial_state(self):
        return GameState(self.b_t0, self.b_j0)

    def effective_horizon(self):
        """Stored lookahead depth: values are gamma-stationary once gamma
        exceeds the maximum number of frames the game can still last."""
        depth = self.b_t0 // self.k
        if math.isinf(self.horizon):
            return depth
        return min(int(self.horizon), depth)

    def to_dict(self):
        return {
            "k": self.k,
            "b_t0": self.b_t0,
            "b_j0": self.b_j0,
            "alpha": self.alpha,
            "p_clear": self.p_clear,
            "p_blocked": self.p_blocked,
            "horizon": "inf" if math.isinf(self.horizon) else int(self.horizon),
            "discount": self.discount,
        }

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        horizon = data.get("horizon", 30)
        if horizon == "inf":
            horizon = math.inf
        data["horizon"] = horizon
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad game config: {exc}") from None


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over a player's frame actions.

    support holds the action values (packet or jam counts), probs the
    matching probabilities.
    """

    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ValueError("support and probs must be nonempty and match")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support must not repeat an action")
        if not all(math.isfinite(p) and p >= 0.0 for p in self.probs):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")

    def prob_of(self, action):
        for a, p in zip(self.support, self.probs):
            if a == action:
                return p
        return 0.0


def action_sets(state, k):
    """Legal (transmitter, jammer) actions at a state.

    The transmitter sends k to min(2k, b_t) packets; the jammer hits 0 to
    min(2k - 1, b_j) of the 2k - 1 reachable slots. Not jamming is always
    legal, so the jammer set is never empty.
    """
    if is_terminal(state, k):
        raise ValueError("terminal state has no actions")
    n_ts = list(range(k, min(2 * k, state.b_t) + 1))
    n_js = list(range(0, min(2 * k - 1, state.b_j) + 1))
    return n_ts, n_js


# ---------------------------------------------------------------------------
# batched matrix-game LP


_SIMPLEX_TOL = 1e-12
_SIMPLEX_MAX_ITER = 5000
# instances pivoted together: a chunk's tableau stays in cache between
# rounds, which outweighs the per-round overhead of more, smaller loops
_SIMPLEX_CHUNK = 1024
# fills the non-tied rows of the ratio test, so argmin picks the tied row
# with the lowest basic variable
_NO_ROW = np.iinfo(np.int64).max


def _minimax_batch(matrices):
    """Solve a batch of zero-sum matrix games.

    :param matrices: array (B, m, n); row player maximizes; an all-+inf
        column is an action the column player lacks, all else is finite
    :returns: (values (B,), row_strats (B, m), col_strats (B, n))

    The LP per instance is max 1'q s.t. (M + shift) q <= 1, q >= 0 with
    shift = 1 - min(M), so the shifted matrix is >= 1 and the optimum is
    bounded. The column strategy is q scaled by the objective, the row
    strategy comes from the slack reduced costs (the LP duals), and
    value = 1/objective - shift.

    An absent column enters the tableau as zeros, stays zero through
    every pivot and gets probability +0.0. The other columns still
    precede the slacks, so the pivots and the results are bit for bit
    those of the game without it.

    Each instance is pivoted on its own, so its result does not depend
    on what else is in the batch.

    :raises SolverError: when an instance still improves after
        _SIMPLEX_MAX_ITER pivots
    """
    M = np.ascontiguousarray(matrices, dtype=float)
    batch, m, n = M.shape
    shift = 1.0 - M.min(axis=(1, 2))
    nv = n + m
    # tableau: m constraint rows [A | I | b_true | b_perturbed] and the
    # objective row [reduced costs | -objective | unused]; the perturbed
    # column only drives the ratio test, breaking degenerate ties
    # deterministically
    D = np.zeros((batch, m + 1, nv + 2))
    D[:, :m, :n] = M + shift[:, None, None]
    D[:, :m, n:nv] = np.eye(m)
    D[:, :m, nv] = 1.0
    D[:, :m, nv + 1] = 1.0 + np.arange(1, m + 1) * 1e-7
    # an absent column is all zeros, so it never improves the objective
    absent = M[:, 0] == np.inf
    D[:, m, :n] = ~absent
    np.copyto(D[:, :m, :n], 0.0, where=absent[:, None])
    basis = np.tile(np.arange(n, n + m), (batch, 1))
    for start in range(0, batch, _SIMPLEX_CHUNK):
        chunk = slice(start, start + _SIMPLEX_CHUNK)
        _pivot_to_optimum(D[chunk], basis[chunk])
    q = np.zeros((batch, nv))
    q[np.arange(batch)[:, None], basis] = np.clip(D[:, :m, nv], 0.0, None)
    objective = -D[:, m, nv]
    values = 1.0 / objective - shift
    col_strats = q[:, :n] / objective[:, None]
    row_strats = np.clip(-D[:, m, n:nv], 0.0, None) / objective[:, None]
    return values, row_strats, col_strats


def _pivot_to_optimum(D, basis):
    """Run the simplex on tableaux D (B, m+1, nv+2) in place.

    Entering columns follow Bland's rule (lowest improving index); the
    ratio test runs on the perturbed right-hand side and breaks ties
    toward the lowest basic variable.
    """
    m = D.shape[1] - 1
    nv = D.shape[2] - 2
    # Da, Ba: contiguous working copies of the instances that still have
    # an improving column, pivoted in place; an instance goes back into
    # D and basis once, when it finishes (at first Da is D itself)
    Da, Ba = D, basis
    idx = ar = np.arange(D.shape[0])
    it = 0
    while True:
        can = Da[:, m, :nv] > _SIMPLEX_TOL
        improving = can.any(axis=1)
        if not improving.all():
            done = ~improving
            if Da is not D:
                D[idx[done]] = Da[done]
                basis[idx[done]] = Ba[done]
            idx = idx[improving]
            if not idx.size:
                return
            Da, Ba, can = Da[improving], Ba[improving], can[improving]
            ar = np.arange(idx.size)
        it += 1
        if it > _SIMPLEX_MAX_ITER:
            raise SolverError(f"matrix-game simplex stalled on {idx.size} instances")
        j = can.argmax(axis=1)
        col = Da[ar, :, j]
        pc = col[:, :m]
        pos = pc > _SIMPLEX_TOL
        ratio = np.where(pos, Da[:, :m, nv + 1] / np.where(pos, pc, 1.0), np.inf)
        rmin = ratio.min(axis=1)
        tie = pos & (ratio <= rmin[:, None] * (1.0 + 1e-12))
        i = np.where(tie, Ba, _NO_ROW).argmin(axis=1)
        piv = Da[ar, i, :] / pc[ar, i][:, None]
        Da -= col[:, :, None] * piv[:, None, :]
        Da[ar, i, :] = piv
        Ba[ar, i] = j


def _solve_stage_batch(stage):
    """Solve a block's stage games (levels, pairs, m, n) through the LP
    kernel, pivoting each run of byte-equal neighbours once.

    A game whose bytes equal the same pair's one level down, or the
    previous pair's on its level, takes that game's solution. Each
    repeat points to a lower index, so following the pointers ends at a
    first instance; only those go to :func:`_minimax_batch`. Each
    instance pivots alone, so the results equal a solve of every game.
    Batches of at most one chunk skip the comparison: a pivot round
    costs about the same whatever a chunk holds.

    :returns: (values, row_strats, col_strats) over the flattened
        (levels * pairs) games
    """
    levels, pairs, m, n = stage.shape
    games = stage.reshape(-1, m, n)
    if len(games) <= _SIMPLEX_CHUNK:
        return _minimax_batch(games)
    bits = games.view(np.int64).reshape(levels, pairs, m * n)
    index = np.arange(levels * pairs).reshape(levels, pairs)
    src = index.copy()
    src[:, 1:] -= (bits[:, 1:] == bits[:, :-1]).all(axis=2)
    src[1:] = np.where((bits[1:] == bits[:-1]).all(axis=2), index[:-1], src[1:])
    src = src.ravel()
    while not np.array_equal(src[src], src):
        src = src[src]
    first = src == np.arange(src.size)
    position = np.cumsum(first) - 1
    return tuple(out[position[src]] for out in _minimax_batch(games[first]))


def solve_matrix_game(matrix):
    """Equilibrium of one zero-sum matrix game (row player maximizes).

    :returns: (value, row_strategy, col_strategy) with strategies as
        probability arrays over the rows and columns

    Neither player can gain more than ~1e-9 by a pure deviation; ties
    between equilibria resolve deterministically through the fixed
    pivoting rule, so repeated calls return identical arrays.

    :raises ValueError: unless the matrix is 2-D, nonempty and finite
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0 or not np.isfinite(matrix).all():
        raise ValueError("payoff matrix must be 2-D, nonempty and finite")
    values, rows, cols = _minimax_batch(matrix[None])
    return float(values[0]), rows[0], cols[0]


# ---------------------------------------------------------------------------
# strategy tables


class StrategyTable:
    """Solved game: per-state equilibrium strategies and values.

    Strategies are stored densely: t_probs[b_t, b_j, i] is the chance of
    sending n_t = k + i, j_probs[b_t, b_j, j] of jamming n_j = j slots.
    Rows for terminal b_t are all zero. horizon_values[g, b_t, b_j] holds
    the g-frame lookahead value (g = 0 is identically 0); it is None on
    tables loaded from disk, which only carry deployed strategies.
    """

    def __init__(self, config, t_probs, j_probs, values, horizon_values=None, meta=None):
        self.config = config
        self.t_probs = t_probs
        self.j_probs = j_probs
        self.values = values
        self.horizon_values = horizon_values
        self.meta = meta
        self._caches = {}

    def states(self):
        """All non-terminal states, ascending in (b_t, b_j)."""
        for b_t in range(self.config.k, self.config.b_t0 + 1):
            for b_j in range(self.config.b_j0 + 1):
                yield GameState(b_t, b_j)

    @property
    def n_states(self):
        playable = self.config.b_t0 - self.config.k + 1
        return max(0, playable) * (self.config.b_j0 + 1)

    def _check(self, state):
        if is_terminal(state, self.config.k):
            raise ValueError(f"{state} is terminal, no entry stored")
        if state.b_t > self.config.b_t0 or state.b_j > self.config.b_j0:
            raise ValueError(f"{state} outside the solved battery grid")

    def strategy_t(self, state):
        self._check(state)
        n_ts, _ = action_sets(state, self.config.k)
        probs = self.t_probs[state.b_t, state.b_j, : len(n_ts)]
        return MixedStrategy(tuple(n_ts), tuple(float(p) for p in probs))

    def strategy_j(self, state):
        self._check(state)
        _, n_js = action_sets(state, self.config.k)
        probs = self.j_probs[state.b_t, state.b_j, : len(n_js)]
        return MixedStrategy(tuple(n_js), tuple(float(p) for p in probs))

    def value(self, state):
        """Deployed (receding-horizon) value of a state; 0 at terminals."""
        if is_terminal(state, self.config.k):
            return 0.0
        self._check(state)
        return float(self.values[state.b_t, state.b_j])

    def horizon_value(self, state, gamma):
        """Value with an explicit lookahead of gamma frames."""
        if self.horizon_values is None:
            raise TableError("horizon values are not stored in exported tables")
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if is_terminal(state, self.config.k):
            return 0.0
        self._check(state)
        g = min(int(gamma), self.horizon_values.shape[0] - 1)
        return float(self.horizon_values[g, state.b_t, state.b_j])

    def deployed_depth(self, state):
        """Lookahead depth whose matrix the deployed strategy solves."""
        self._check(state)
        return min(self.config.effective_horizon(), state.b_t // self.config.k)


def _levels(k, b_t0):
    """Blocks of b_t levels in solving order, with their successors.

    A frame spends at least k quanta, so levels qk .. qk+k-1 read only
    levels below qk and share the lookahead depth b_t // k; from b_t = 2k
    on they also share the transmitter's action count. Below 2k every
    level has its own action count and forms a block alone.

    :returns: iterator of (lo, hi, m, safe_bt, alive): the levels
        lo .. hi-1, their m = min(2k, lo) - k + 1 packet counts, and per
        level and count n_t = k + i whether the frame leaves a playable
        b_t - n_t >= k (alive) and that battery (safe_bt; k where the
        game ends instead)
    """
    blocks = [(b_t, b_t + 1) for b_t in range(k, min(2 * k, b_t0 + 1))]
    blocks += [(lo, min(lo + k, b_t0 + 1)) for lo in range(2 * k, b_t0 + 1, k)]
    for lo, hi in blocks:
        m = min(2 * k, lo) - k + 1
        succ_bt = np.arange(lo, hi)[:, None] - np.arange(k, k + m)
        alive = succ_bt >= k
        yield lo, hi, m, np.where(alive, succ_bt, k), alive


def _next_values(grid, k, safe_bt, alive):
    """Entries of grid (..., b_t, b_j) at every successor of a level block.

    :returns: array (..., levels, b_j, m, 2k) holding, for each state of
        the block, the entry after sending n_t = k + i packets and
        jamming n_j = j slots. Jam counts above b_j read b_j' = 0; a jammer cannot
        afford them, so they must carry zero probability. Successors
        where the game has ended read 0.
    """
    succ_bj = np.clip(np.arange(grid.shape[-1])[:, None] - np.arange(2 * k), 0, None)
    nxt = grid[..., safe_bt[:, None, :, None], succ_bj[None, :, None, :]]
    return np.where(alive[:, None, :, None], nxt, 0.0)


def _store(horizon_values, values, rows, cols, by_depth, first=1):
    """Write a block's values for lookahead depths 1 .. depth.

    Depths 1 .. first-1 repeat the level just below b_t slice rows.
    by_depth (depth - first + 1, levels, columns) holds the solved depths
    first .. depth and lands at rows and b_j slice cols. The game cannot
    outlast depth frames from there, so every deeper lookahead repeats
    the last depth, which is also the deployed value.
    """
    depth = first - 1 + len(by_depth)
    horizon_values[1:first, rows, cols] = horizon_values[1:first, rows.start - 1, None, cols]
    horizon_values[first: depth + 1, rows, cols] = by_depth
    horizon_values[depth + 1:, rows, cols] = horizon_values[depth, rows, cols]
    values[rows, cols] = horizon_values[depth, rows, cols]


def solve_full_game(config):
    """Backward-induction equilibrium over the whole battery grid.

    Iterates b_t upward (frames strictly drain the transmitter) in blocks
    of up to k levels that depend only on levels below the block (see
    :func:`_levels`). Each distinct (gamma, b_j) matrix game of a
    block is solved once: jammer batteries above what the jammer can
    spend within gamma frames take the solution at that cap. All games
    have the 2k jam counts, so a block goes to the simplex as one batch;
    a count above b_j, which the jammer cannot afford, is an all-+inf
    column (see :func:`_minimax_batch`) and gets probability 0. The
    deployed strategy and value at a state are those of the
    receding-horizon matrix; horizon values for all shallower gamma are
    stored alongside.

    The transmitter cannot spend more than 2k gamma quanta within gamma
    frames either, so the gamma-frame games at every b_t >= 2k gamma are
    those of b_t = 2k gamma: a block copies such depths from the level
    below it and solves only the deeper ones. Where that covers the
    deployed depth as well, the block copies the level below whole.

    The values can stop changing before either cap, so a game of the
    block may still equal, byte for byte, the same (gamma, b_j) game one
    level down or the game of the previous pair on its level. The
    block's batch goes through :func:`_solve_stage_batch`, which pivots
    only the first of such repeats and hands its solution to the
    rest; every game still gets the result a solve of its own bytes
    gives.
    """
    k = config.k
    b_t0, b_j0 = config.b_t0, config.b_j0
    lam = config.discount
    base = payoff_matrix(config.subgame)
    g_store = config.effective_horizon()
    horizon_values = np.zeros((g_store + 1, b_t0 + 1, b_j0 + 1))
    t_probs = np.zeros((b_t0 + 1, b_j0 + 1, k + 1))
    j_probs = np.zeros((b_t0 + 1, b_j0 + 1, 2 * k))
    values = np.zeros((b_t0 + 1, b_j0 + 1))
    # the games solved for lookahead depth g + 1 are pairs offsets[g] ..
    # offsets[g+1]-1, one per b_j up to the spending cap (g + 1)(2k - 1);
    # expand[g, b_j] is the pair whose solution b_j takes at that depth
    counts = np.minimum(b_j0, (2 * k - 1) * np.arange(1, g_store + 1)) + 1
    offsets = np.concatenate(([0], np.cumsum(counts)))
    pair_depth = np.repeat(np.arange(g_store), counts)
    succ_bj = (np.arange(offsets[-1]) - offsets[pair_depth])[:, None] - np.arange(2 * k)
    unaffordable = succ_bj < 0
    succ_bj[unaffordable] = 0
    expand = offsets[:-1, None] + np.minimum(np.arange(b_j0 + 1), counts[:, None] - 1)
    for lo, hi, m, safe_bt, alive in _levels(k, b_t0):
        levels = hi - lo
        depth = min(g_store, lo // k)
        # depths 1 .. low are capped at level lo - 1 already
        low = min(depth, (lo - 1) // (2 * k))
        if low == depth:
            # then depth is g_store, which level lo - 1 deploys too
            _store(horizon_values, values, slice(lo, hi), slice(None),
                   np.empty((0, levels, b_j0 + 1)), depth + 1)
            t_probs[lo:hi] = t_probs[lo - 1]
            j_probs[lo:hi] = j_probs[lo - 1]
            continue
        pairs = slice(offsets[low], offsets[depth])
        cont = horizon_values[pair_depth[None, pairs, None, None],
                              safe_bt[:, None, :, None],
                              succ_bj[None, pairs, None, :]]
        cont = np.where(alive[:, None, :, None], cont, 0.0)
        stage = base[:m] + lam * cont
        np.copyto(stage, np.inf, where=unaffordable[None, pairs, None, :])
        vals, rows, cols = _solve_stage_batch(stage)
        vals = vals.reshape(levels, -1)
        _store(horizon_values, values, slice(lo, hi), slice(None),
               vals[:, expand[low:depth] - pairs.start].transpose(1, 0, 2), low + 1)
        deployed = expand[depth - 1] - pairs.start
        t_probs[lo:hi, :, :m] = rows.reshape(levels, -1, m)[:, deployed]
        j_probs[lo:hi] = cols.reshape(levels, -1, 2 * k)[:, deployed]
    return StrategyTable(config, t_probs, j_probs, values, horizon_values)


def _policy_probs(config, policy, jammer):
    """Dense probabilities of a policy over the battery grid.

    :param policy: callable state -> action or MixedStrategy, called at
        every non-terminal state
    :param jammer: True for jam counts 0 .. min(2k-1, b_j), laid out as
        StrategyTable.j_probs; False for packet counts k .. min(2k, b_t),
        laid out as t_probs
    :raises ValueError: on an action that is illegal at its state
    """
    k = config.k
    first = 0 if jammer else k
    cells, acts, probs = [], [], []
    for b_t in range(k, config.b_t0 + 1):
        for b_j in range(config.b_j0 + 1):
            choice = policy(GameState(b_t, b_j))
            if isinstance(choice, MixedStrategy):
                cells += [(b_t, b_j)] * len(choice.support)
                acts += choice.support
                probs += choice.probs
            else:
                cells.append((b_t, b_j))
                acts.append(choice)
                probs.append(1.0)
    b_t, b_j = np.array(cells, dtype=int).reshape(-1, 2).T
    acts = np.array(acts, dtype=float)
    last = np.minimum(2 * k - 1, b_j) if jammer else np.minimum(2 * k, b_t)
    illegal = (acts < first) | (acts > last) | (acts != np.floor(acts))
    if illegal.any():
        i = illegal.argmax()
        raise ValueError(f"illegal action {acts[i]:g} at {GameState(int(b_t[i]), int(b_j[i]))}")
    out = np.zeros((config.b_t0 + 1, config.b_j0 + 1, 2 * k if jammer else k + 1))
    out[b_t, b_j, acts.astype(int) - first] = probs
    return out


def _best_response(pt, pj, stage):
    """Values of the transmitter's best reply to the jam probabilities;
    ties go to the fewest packets, which favours battery life. Marks the
    reply at the deepest lookahead in pt."""
    q = np.einsum('lbj,glbij->glbi', pj, stage)
    best = q.argmax(axis=3)                     # first max: lowest n_t
    np.put_along_axis(pt, best[-1, :, :, None], 1.0, axis=2)
    return np.take_along_axis(q, best[..., None], axis=3)[..., 0]


def _expectation(pt, pj, stage):
    """Expected stage payoff of the given send and jam probabilities."""
    return np.einsum('lbi,lbj,glbij->glb', pt, pj, stage)


def _policy_sweep(config, t_probs, j_probs, rule):
    """Receding-horizon values of play against fixed jam probabilities.

    Walks the solver's level blocks. rule(pt, pj, stage) takes a block's
    send probabilities pt (levels, b_j, m), jam probabilities
    pj (levels, b_j, 2k) and stage matrices (depth, levels, b_j, m, 2k)
    for lookahead depths 1 .. depth, and returns the values
    (depth, levels, b_j); it may fill pt in place.
    """
    k = config.k
    base = payoff_matrix(config.subgame)
    g_store = config.effective_horizon()
    horizon_values = np.zeros((g_store + 1, config.b_t0 + 1, config.b_j0 + 1))
    values = np.zeros((config.b_t0 + 1, config.b_j0 + 1))
    for lo, hi, m, safe_bt, alive in _levels(k, config.b_t0):
        depth = min(g_store, lo // k)
        cont = _next_values(horizon_values[:depth], k, safe_bt, alive)
        stage = base[:m] + config.discount * cont
        _store(horizon_values, values, slice(lo, hi), slice(None),
               rule(t_probs[lo:hi, :, :m], j_probs[lo:hi], stage))
    return StrategyTable(config, t_probs, j_probs, values, horizon_values)


def dummy_jammer_policy(config):
    """Non-strategic jammer: always jams k + 1 slots while it can."""
    k = config.k
    return lambda state: min(k + 1, min(2 * k - 1, state.b_j))


def solve_vs_fixed_jammer(config, jammer_policy=None):
    """Transmitter best response against a known jammer policy.

    :param jammer_policy: callable state -> n_j or MixedStrategy;
        defaults to the dummy jammer that always spends k + 1 quanta

    The transmitter maximizes the same receding-horizon objective; ties
    break toward the smallest packet count, which favours battery life.
    """
    if jammer_policy is None:
        jammer_policy = dummy_jammer_policy(config)
    t_probs = np.zeros((config.b_t0 + 1, config.b_j0 + 1, config.k + 1))
    j_probs = _policy_probs(config, jammer_policy, jammer=True)
    return _policy_sweep(config, t_probs, j_probs, _best_response)


def fixed_policy_table(config, t_policy, j_policy):
    """Table for externally imposed policies, for baselines and what-ifs.

    :param t_policy: callable state -> n_t or MixedStrategy
    :param j_policy: callable state -> n_j or MixedStrategy

    Values are the receding-horizon expected payoffs of the given play,
    found by policy evaluation over the same level order as the solver.
    """
    t_probs = _policy_probs(config, t_policy, jammer=False)
    j_probs = _policy_probs(config, j_policy, jammer=True)
    return _policy_sweep(config, t_probs, j_probs, _expectation)


# ---------------------------------------------------------------------------
# persistence


def _states_payload(table):
    k = table.config.k
    payload = []
    for b_t in range(k, table.config.b_t0 + 1):
        # tolist() gives the Python floats float() would; one level at a
        # time keeps the unused zero entries from piling up
        t_rows = table.t_probs[b_t, :, : min(2 * k, b_t) - k + 1].tolist()
        j_rows = table.j_probs[b_t].tolist()
        values = table.values[b_t].tolist()
        for b_j, (strat_t, strat_j, value) in enumerate(zip(t_rows, j_rows, values)):
            payload.append({
                "b_t": b_t,
                "b_j": b_j,
                "strat_t": strat_t,
                "strat_j": strat_j[: min(2 * k - 1, b_j) + 1],
                "value": value,
            })
    return payload


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


def export_table(table, path, meta=None):
    """Write a strategy table as versioned JSON.

    States are ordered by (b_t, b_j) and floats keep their shortest
    round-trip form, so identical tables produce identical bytes. A
    sha256 checksum over the state records guards against truncation.

    The state records are encoded once. The checksum's canonical
    (sorted-key) text is derived from that encoding by reordering record
    members, and the header, the states text and the meta tail are
    written in pieces, so no second copy of the document is built. The
    bytes equal ``json.dumps(doc, separators=(",", ":"))`` plus a
    newline.

    :param meta: optional JSON-serializable dict of caller context
        (for example the jammer distance a table was solved at)

    The file is replaced in one step: a failed export leaves any earlier
    file at path untouched and no partial file behind.
    """
    # the records are dropped once encoded: the text holds them compactly
    states_text = json.dumps(_states_payload(table), separators=(",", ":"))
    checksum, records = _canonical_digest(states_text, 0, len(states_text))
    if records != table.n_states:
        checksum = _checksum(json.loads(states_text))
    head = json.dumps({
        "format": TABLE_FORMAT,
        "version": TABLE_VERSION,
        "config": table.config.to_dict(),
        "checksum": checksum,
    }, separators=(",", ":"))
    tail = _tail(table.meta if meta is None else meta)
    # write beside the target and rename over it, so a failed write
    # leaves the previous file as it was
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(head[:-1])
            fh.write(',"states":')
            fh.write(states_text)
            fh.write(tail)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_table(path):
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
