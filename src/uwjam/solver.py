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
that depth, which caps the work per state. The transmitter cannot spend
more than 2k gamma quanta within gamma frames, so the gamma-frame values
repeat at every b_t >= 2k gamma and those levels copy the level below
instead of solving again. A frame costs at least k quanta, so the k
levels qk .. qk+k-1 depend only on levels below qk and are solved as
one block, in batches of whole lookahead depths with all 2k jam counts
(:func:`_walk`). The walk allocates the table it returns: the battery
grid of horizon values, its only state, and both strategy arrays. A
block's values go straight into the grid, each step writes the play it
decides into the strategy arrays, and the deployed values are the grid's
deepest row; a frame that ends the game reads the grid's rows b_t < k,
which hold zeros. Many of a block's games repeat a neighbour's bytes:
continuation values often stop changing in b_t or b_j, and the jammer
cannot spend more than gamma(2k-1) quanta within gamma frames, so every
b_j above that cap repeats the game at b_j - 1.
Such a game takes the solution of the same game one level down or at
b_j - 1 instead of being pivoted again (:func:`_solve_stage_batch`).
The transmitter's best response to the dummy jammer takes the same walk
over level blocks and depth groups (:func:`_walk`), its step writing the
dummy jammer's play as well as the reply, and the lifetime
and success recursions of :mod:`uwjam.analysis` walk the same level
blocks and read successors through the same gather (:func:`_levels`,
:func:`_next_values`).

Matrix games are solved as linear programs with a dense tableau simplex,
batched over states: value = 1/max(1'q) with (M + shift) q <= 1, q >= 0.
An all-+inf column marks an action the minimizing player lacks
(:func:`_minimax_batch`); :func:`solve_matrix_game` takes finite games.
The entering variable is the one with the largest reduced cost
(Dantzig's rule, about half the pivots of Bland's lowest-index rule on
these games) and the leaving row is the lexicographic minimum of the
rows of [b | B^-1] over the entering column (Dantzig, Orden and Wolfe,
1955). In exact arithmetic that leaving rule alone keeps degenerate
matrices (common when a PER saturates at 0 or 1) from cycling, whichever
improving column enters, and the ratio test reads the true right-hand
side; with the 1e-12 pivot tolerance a game can cycle (ROADMAP item 1).
Identical inputs take identical pivot paths, which makes solves
reproducible bit for bit.
"""

import contextlib
import itertools
import json
import math
import numbers
import os
import uuid
from dataclasses import dataclass, fields
from functools import lru_cache

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


_FIELD_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
                str: (str, "a string")}


def _check_field_types(config):
    """Raise ConfigError unless every int, float or str field of the
    dataclass config holds an integer, a number or a string, never a bool
    (or None where None is the field's default)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in _FIELD_KINDS and not (value is None and f.default is None):
            kind, what = _FIELD_KINDS[f.type]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")


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
        _check_field_types(self)
        try:
            self.subgame  # SubgameParams checks k, alpha and the PERs
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.b_t0 < 0 or self.b_j0 < 0:
            raise ConfigError("initial batteries must be nonnegative")
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


def _widths(k, b_t, b_j):
    """Numbers of legal actions at batteries b_t >= k and b_j, scalars or
    arrays: the transmitter sends k to min(2k, b_t) packets, the jammer
    hits 0 to min(2k - 1, b_j) of the 2k - 1 reachable slots."""
    return np.minimum(2 * k, b_t) - k + 1, np.minimum(2 * k - 1, b_j) + 1


def action_sets(state, k):
    """Legal (transmitter, jammer) actions at a state; not jamming is
    always legal, so the jammer set is never empty."""
    if is_terminal(state, k):
        raise ValueError("terminal state has no actions")
    w_t, w_j = _widths(k, state.b_t, state.b_j)
    return list(range(k, k + w_t)), list(range(w_j))


# ---------------------------------------------------------------------------
# batched matrix-game LP


_SIMPLEX_TOL = 1e-12
_SIMPLEX_MAX_ITER = 5000
# instances pivoted together: a chunk's tableau stays in cache between
# rounds, which outweighs the per-round overhead of more, smaller loops
_SIMPLEX_CHUNK = 1024
# stage games built and solved at a time, in whole lookahead depths
_GROUP_GAMES = 4 * _SIMPLEX_CHUNK
_SHAPES = 128  # shapes each memo of shape constants keeps


def _frozen(array):
    """array, made read-only: memoized constants are shared."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=_SHAPES)
def _tableau(m, n):
    """(tableau, basis) every (m, n) game starts from before its matrix
    goes in: [0 | I | 1] over the objective row, and the slacks."""
    D = np.block([[np.zeros((m, n)), np.eye(m), np.ones((m, 1))],
                  [np.ones((1, n)), np.zeros((1, m + 1))]])
    return _frozen(D), _frozen(np.arange(n, n + m))


def _minimax_batch(matrices):
    """Solve a batch of zero-sum matrix games.

    :param matrices: array (B, m, n); row player maximizes; an all-+inf
        column is an action the column player lacks, all else is finite
    :returns: (values (B,), row_strats (B, m), col_strats (B, n))

    The LP per instance is max 1'q s.t. (M + shift) q <= 1, q >= 0 with
    shift = 1 - min(M), so the shifted matrix is >= 1 and the optimum is
    bounded. The column strategy is q scaled by the objective, the row
    strategy comes from the slack reduced costs (the LP duals), and
    value = 1/objective - shift. Each pivot's leaving row is the
    lexicographic minimum of [b | B^-1] over the entering column
    (:func:`_pivot_to_optimum`).

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
    # tableau: m constraint rows [A | I | b] and the objective row
    # [reduced costs | -objective]; the slack block I becomes B^-1, which
    # the lexicographic ratio test reads
    D, basis = (c[None].repeat(batch, axis=0) for c in _tableau(m, n))
    D[:, :m, :n] = M + shift[:, None, None]
    # an absent column is all zeros, so it never improves the objective
    np.copyto(D[:, :, :n], 0.0, where=(M[:, 0] == np.inf)[:, None])
    for start in range(0, batch, _SIMPLEX_CHUNK):
        chunk = slice(start, start + _SIMPLEX_CHUNK)
        _pivot_to_optimum(D[chunk], basis[chunk])
    q = np.zeros((batch, nv))
    q[np.arange(batch)[:, None], basis] = D[:, :m, nv].clip(0.0, None)
    objective = -D[:, m, nv]
    values = 1.0 / objective - shift
    col_strats = q[:, :n] / objective[:, None]
    row_strats = (-D[:, m, n:nv]).clip(0.0, None) / objective[:, None]
    return values, row_strats, col_strats


def _pivot_to_optimum(D, basis):
    """Run the simplex on tableaux D (B, m+1, nv+1) in place.

    The entering column is the one with the largest reduced cost (the
    lowest index among equal ones). The leaving row is the lexicographic
    minimum of the rows of [b | B^-1], each divided by its entry in the
    entering column, over the rows whose entry is positive: b / entry
    first, then each column of B^-1 / entry in turn, until one row is
    left (the lowest, if ties survive every column). The rows of
    [b | B^-1] stay lexicographically positive, so the objective row
    grows lexicographically with every pivot, whichever improving column
    enters: in exact arithmetic no basis repeats and a degenerate game
    cannot cycle (Bertsimas and Tsitsiklis, 1997, sec. 3.4), while the
    test reads the true right-hand side. With the _SIMPLEX_TOL tolerance
    the default game at alpha = 0.2 and 33 m cycles (ROADMAP item 1).
    """
    m = D.shape[1] - 1
    nv = D.shape[2] - 1
    # Da, Ba: contiguous working copies of the instances that still have
    # an improving column, pivoted in place; an instance goes back into
    # D and basis once, when it finishes (at first Da is D itself)
    Da, Ba = D, basis
    idx = ar = np.arange(D.shape[0])
    it = 0
    while True:
        # an instance is optimal once its largest reduced cost is not
        # above the tolerance
        reduced = Da[:, m, :nv]
        j = reduced.argmax(axis=1)
        improving = reduced[ar, j] > _SIMPLEX_TOL
        if not improving.all():
            done = ~improving
            if Da is not D:
                D[idx[done]] = Da[done]
                basis[idx[done]] = Ba[done]
            idx = idx[improving]
            if not idx.size:
                return
            Da, Ba, j = Da[improving], Ba[improving], j[improving]
            ar = np.arange(idx.size)
        it += 1
        if it > _SIMPLEX_MAX_ITER:
            raise SolverError(f"matrix-game simplex stalled on {idx.size} instances")
        col = Da[ar, :, j]
        pc = col[:, :m]
        rows = pc > _SIMPLEX_TOL
        # b, then each column of B^-1, narrows the rows still tied
        divisor = np.where(rows, pc, 1.0)
        for c in (nv, *range(nv - m, nv)):
            ratio = np.where(rows, Da[:, :m, c] / divisor, np.inf)
            rows &= ratio == ratio.min(axis=1, keepdims=True)
            if (rows.sum(axis=1) < 2).all():
                break
        i = rows.argmax(axis=1)
        piv = Da[ar, i, :] / pc[ar, i][:, None]
        Da -= col[:, :, None] * piv[:, None, :]
        Da[ar, i, :] = piv
        Ba[ar, i] = j


def _solve_stage_batch(stage):
    """Solve a block's stage games (depths, levels, b_j, m, n) through
    the LP kernel, pivoting each run of byte-equal neighbours once.

    A game whose bytes equal the same (depth, b_j) game's one level down,
    or the game at b_j - 1 on its depth and level, takes that game's
    solution. Each repeat points to a lower index, so following the
    pointers ends at a first instance; only those go to
    :func:`_minimax_batch`. Each instance pivots alone, so the results
    equal a solve of every game. Batches of at most one chunk skip the
    comparison: a pivot round costs about the same whatever a chunk
    holds.

    :returns: (values, row_strats, col_strats) over the flattened games
    """
    m, n = stage.shape[-2:]
    games = stage.reshape(-1, m, n)
    if len(games) <= _SIMPLEX_CHUNK:
        return _minimax_batch(games)
    bits = games.view(np.int64).reshape(*stage.shape[:3], m * n)
    index = np.arange(len(games)).reshape(stage.shape[:3])
    src = index.copy()
    src[:, :, 1:] -= (bits[:, :, 1:] == bits[:, :, :-1]).all(axis=3)
    src[:, 1:] = np.where((bits[:, 1:] == bits[:, :-1]).all(axis=3), index[:, :-1], src[:, 1:])
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

    Neither player gains more than rounding by a pure deviation on well
    conditioned games: the worst gap over every stage game the full-scale
    solves pivot (200 x 200 quanta, k = 4, gamma = 30 and 1, every
    lookahead depth) is 1.6e-12 at jammer distances of 20, 60 and 150 m,
    and 8.0e-15 over 486 games with PERs of 0 or 1. It does not hold for
    near-degenerate games (ROADMAP item 1): at full scale the tables
    solved at every integer distance from 26 to 39 m fail to load, and the
    worst deployed gap is 0.63, at 33 m. Ties between equilibria resolve
    deterministically through the fixed pivoting rule, so repeated calls
    return identical arrays.

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

    A solved table's arrays are allocated by :func:`_walk`, and its values
    are a view of horizon_values[-1], the deepest lookahead; a loaded
    table's values are an array of their own (:func:`load_table`).
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
        return _record_count(self.config)

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
        """Value with an explicit lookahead of gamma frames; math.inf
        reads the deepest stored lookahead."""
        if self.horizon_values is None:
            raise TableError("horizon values are not stored in exported tables")
        if not gamma >= 0:  # NaN fails >=
            raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
        if is_terminal(state, self.config.k):
            return 0.0
        self._check(state)
        g = int(min(gamma, self.horizon_values.shape[0] - 1))
        return float(self.horizon_values[g, state.b_t, state.b_j])

    def deployed_depth(self, state):
        """Lookahead depth whose matrix the deployed strategy solves."""
        self._check(state)
        return min(self.config.effective_horizon(), state.b_t // self.config.k)


@lru_cache(maxsize=_SHAPES)
def _levels(k, b_t0):
    """Blocks of b_t levels in solving order, with their successors.

    A frame spends at least k quanta, so levels qk .. qk+k-1 read only
    levels below qk and share the lookahead depth b_t // k; from b_t = 2k
    on they also share the transmitter's action count. Below 2k every
    level has its own action count and forms a block alone.

    :returns: tuple of (lo, hi, m, succ_bt): the levels lo .. hi-1, their
        m = min(2k, lo) - k + 1 packet counts, and per level and count
        n_t = k + i the battery b_t - n_t the frame leaves (succ_bt), below
        k where the game ends, whose grid rows hold zeros
        (:func:`_next_values`); read-only arrays, shared per (k, b_t0)
    """
    blocks = [(b_t, b_t + 1) for b_t in range(k, min(2 * k, b_t0 + 1))]
    blocks += [(lo, min(lo + k, b_t0 + 1)) for lo in range(2 * k, b_t0 + 1, k)]
    succ = [np.arange(lo, hi)[:, None] - np.arange(k, min(2 * k, lo) + 1) for lo, hi in blocks]
    return tuple((lo, hi, bt.shape[1], _frozen(bt)) for (lo, hi), bt in zip(blocks, succ))


def _next_values(grid, k, succ_bt, out=None):
    """Entries of grid (..., b_t, b_j) at every successor of a level block.

    :returns: array (..., levels, b_j, m, 2k), or out filled with it,
        holding for each state of the block the entry after sending
        n_t = k + i packets and jamming n_j = j slots. Jam counts above b_j
        read b_j' = 0; a jammer cannot afford them, so they must carry
        zero probability (:func:`solve_full_game` overwrites those entries
        with +inf). A successor where the game has ended reads its own row
        b_t' < k, so every grid read here holds +0.0 at b_t < k. The
        successors' b_j' are read-only, shared per (b_j, 2k) (:func:`_jams`).
    """
    # one gather at b_t' * n_bj + b_j' in C order, as einsum's summation
    # order may follow the strides; "clip" writes out directly where
    # "raise" buffers it
    succ_bj, _ = _jams(grid.shape[-1], 2 * k)
    index = (succ_bt * grid.shape[-1])[:, None, :, None] + succ_bj
    return grid.reshape(*grid.shape[:-2], -1).take(index, axis=-1, out=out, mode="clip")


@lru_cache(maxsize=_SHAPES)
def _jams(n_bj, n):
    """Read-only (b_j', unaffordable), each (b_j, 1, n): the jammer's
    battery after jamming j < n slots at each b_j (0 where j > b_j), and
    whether j > b_j."""
    left = np.arange(n_bj)[:, None, None] - np.arange(n)
    return _frozen(np.maximum(left, 0)), _frozen(left < 0)


def _walk(config, step):
    """Receding-horizon values over the whole battery grid, level block by
    level block.

    Iterates b_t upward (frames strictly drain the transmitter) in blocks
    of up to k levels that depend only on levels below the block (see
    :func:`_levels`). A block's stage games, laid out (depths, levels,
    b_j, m, 2k), read their successors through :func:`_next_values` into
    one reused buffer, in even groups of whole depths of about
    _GROUP_GAMES games. step(pt, pj, stage) takes a group's games with the
    block's send probabilities pt (levels, b_j, m) and jam probabilities
    pj (levels, b_j, 2k) and returns their values (depths, levels, b_j),
    which go straight into horizon_values; it writes the play it decides
    into pt and pj, and the last group, the deepest, has the last word. A
    frame that ends the game reads the levels below k, which stay zero.

    The transmitter cannot spend more than 2k gamma quanta within gamma
    frames, so where play does not depend on b_t the gamma-frame games at
    every b_t >= 2k gamma are those of b_t = 2k gamma: a block copies such
    depths from the level below it and steps through only the deeper ones.
    Where that covers the deployed depth as well, the block copies the
    level below whole. Deeper lookaheads repeat the deployed depth, so the
    grid's deepest row holds the deployed values.

    :returns: the table of the arrays the walk allocates: horizon_values,
        t_probs and j_probs, zero until written, with values a view of
        horizon_values[-1]
    """
    k = config.k
    b_t0, b_j0 = config.b_t0, config.b_j0
    base = payoff_matrix(config.subgame)
    g_store = config.effective_horizon()
    horizon_values = np.zeros((g_store + 1, b_t0 + 1, b_j0 + 1))
    t_probs, j_probs = (np.zeros((b_t0 + 1, b_j0 + 1, n)) for n in (k + 1, 2 * k))
    # one buffer for every group: at most _GROUP_GAMES games and a depth
    per_depth = k * (b_j0 + 1)
    buf = np.empty(min(_GROUP_GAMES + per_depth, g_store * per_depth) * (k + 1) * 2 * k)
    for lo, hi, m, succ_bt in _levels(k, b_t0):
        depth = min(g_store, lo // k)
        # depths 1 .. low are capped at level lo - 1 already
        low = min(depth, (lo - 1) // (2 * k))
        horizon_values[1:low + 1, lo:hi] = horizon_values[1:low + 1, lo - 1, None]
        if low == depth:
            # then depth is g_store, which level lo - 1 deploys too
            t_probs[lo:hi] = t_probs[lo - 1]
            j_probs[lo:hi] = j_probs[lo - 1]
        shape = (hi - lo, b_j0 + 1, m, 2 * k)
        # even groups of whole depths, each above a chunk if the block is
        groups = min(depth - low, -(-(depth - low) * (hi - lo) * (b_j0 + 1) // _GROUP_GAMES))
        for g in range(groups):
            start, stop = low + (depth - low) * g // groups, low + (depth - low) * (g + 1) // groups
            stage = _next_values(horizon_values[start:stop], k, succ_bt,
                                 buf[:(stop - start) * math.prod(shape)].reshape(-1, *shape))
            stage *= config.discount
            stage += base[:m]
            horizon_values[start + 1:stop + 1, lo:hi] = step(
                t_probs[lo:hi, :, :m], j_probs[lo:hi], stage)
        horizon_values[depth + 1:, lo:hi] = horizon_values[depth, lo:hi]
    return StrategyTable(config, t_probs, j_probs, horizon_values[-1], horizon_values)


def _equilibrium(pt, pj, stage):
    """Solve a group's stage games; a jam count above b_j, which the
    jammer cannot afford, becomes an all-+inf column (see
    :func:`_minimax_batch`) and gets probability 0. The deepest depth's
    strategies land in pt and pj."""
    np.copyto(stage, np.inf, where=_jams(*pj.shape[1:])[1])
    vals, rows, cols = _solve_stage_batch(stage)
    pt[...] = rows.reshape(-1, *pt.shape)[-1]
    pj[...] = cols.reshape(-1, *pj.shape)[-1]
    return vals.reshape(stage.shape[:3])


def solve_full_game(config):
    """Backward-induction equilibrium over the whole battery grid.

    Walks the level blocks and depth groups of :func:`_walk`, solving each
    group's stage games as matrix games (:func:`_equilibrium`). The
    deployed strategy and value at a state are those of the
    receding-horizon matrix, the deepest of its block; horizon values for
    all shallower gamma are stored alongside. Equilibrium play depends on
    b_t only through the stage games, so the levels at b_t >= 2k gamma
    copy the level below.

    Within a block, a game may equal, byte for byte, the same (gamma,
    b_j) game one level down or the game at b_j - 1; every b_j above the
    jammer's spending cap gamma(2k-1) does. :func:`_solve_stage_batch`
    pivots only the first of such repeats and hands its solution to the
    rest; every game still gets the result a solve of its own bytes
    gives. Repeats lie within a depth, and a group holds over a chunk if
    its block does, so grouping changes neither results nor repeats found.
    """
    return _walk(config, _equilibrium)


def _best_response(pt, pj, stage):
    """Values of the transmitter's best reply to the dummy jammer, which
    jams min(k + 1, 2k - 1, b_j) slots for sure: that play goes into pj
    first. Ties go to the fewest packets, which favours battery life.
    Marks the reply at the group's deepest lookahead in pt."""
    b_j, k = np.arange(pj.shape[1]), pj.shape[2] // 2
    pj[:, b_j, np.minimum(min(k + 1, 2 * k - 1), b_j)] = 1.0
    q = np.einsum('lbj,glbij->glbi', pj, stage)
    best = q.argmax(axis=3)                     # first max: lowest n_t
    pt[...] = 0.0
    np.put_along_axis(pt, best[-1, :, :, None], 1.0, axis=2)
    return np.take_along_axis(q, best[..., None], axis=3)[..., 0]


def solve_vs_fixed_jammer(config):
    """Transmitter best response to the dummy jammer, which jams
    min(k + 1, 2k - 1, b_j) slots at every state.

    The transmitter maximizes the same receding-horizon objective over the
    walk of :func:`_walk`, whose step (:func:`_best_response`) writes the
    dummy jammer's play into j_probs and the reply into t_probs; ties break
    toward the smallest packet count, which favours battery life. The
    jammer's play does not depend on b_t, so the levels at b_t >= 2k gamma
    copy the level below as in :func:`solve_full_game`.
    """
    return _walk(config, _best_response)


# ---------------------------------------------------------------------------
# persistence

# states written, read and checked at a time, in whole b_t levels, at
# least one, and bytes read from a table file at a time
_IO_STATES = 1024
_READ_BYTES = 1 << 16
# a record's body as written and as the checksum's sorted-key text has it
_BODY = '"strat_t":[{0}],"strat_j":[{1}],{2}'
_CANONICAL_BODY = '"strat_j":[{1}],"strat_t":[{0}],{2}'


def _io_blocks(config):
    """Blocks (lo, hi, b_t, b_j) of levels lo .. hi-1, of whole levels of
    about _IO_STATES states, with each state's member texts 'X,' and
    '"b_j":Y,'.

    A states list, [{"b_t":X,"b_j":Y,"strat_t":[T],...},{"b_t":...}], is
    cut before each '"b_t":' into 'X,"b_j":Y,' and a body
    '"strat_t":[T],"strat_j":[J],"value":V},{' (the last ends '}]'); the
    checksum's text puts '"b_j":Y,' before '"b_t":X,'.
    """
    b_j = [f'"b_j":{y},' for y in range(config.b_j0 + 1)]
    per = max(1, _IO_STATES // len(b_j))
    for lo in range(config.k, config.b_t0 + 1, per):
        levels = range(lo, min(lo + per, config.b_t0 + 1))
        b_t = [x for x in map("{},".format, levels) for _ in b_j]
        yield lo, levels.stop, b_t, b_j * len(levels)


def _members(body):
    """(T, J, rest) of a body '"strat_t":[T],"strat_j":[J],' + rest whose
    T and J hold no ']', or None for text of another shape."""
    t, _, rest = body.partition("]")
    j, _, rest = rest.partition("]")
    if t.startswith('"strat_t":[') and j.startswith(',"strat_j":[') and rest.startswith(","):
        return t[11:], j[12:], rest[1:]
    return None


def _canonical_piece(piece):
    """The checksum's text of '"b_t":' + piece, for a piece of any shape:
    'X,"b_j":Y,' + body becomes '"b_j":Y,"b_t":X,' + body with strat_j
    first where both read as export_table writes them, else it stays."""
    x, _, rest = piece.partition(",")
    y, _, body = rest.partition(",")
    members = _members(body)
    if x.isdecimal() and y[:6] == '"b_j":' and y[6:].isdecimal() and members:
        return f'{y},"b_t":{x},' + _CANONICAL_BODY.format(*members)
    return '"b_t":' + piece


def _interleave(*columns):
    """The text of the columns' entries, row by row; the first is a list."""
    text = [None] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        text[i::len(columns)] = column
    return "".join(text)


def _encode_block(table, lo, hi):
    """(inverse, bodies, canonical_bodies) of levels lo .. hi-1: each
    distinct record (legal strategy prefixes and value, compared as bytes,
    so -0.0 and 0.0 stay apart) encoded once, in one ``json.dumps`` call."""
    k = table.config.k
    b_t, b_j = (grid.ravel() for grid in np.mgrid[lo:hi, :table.config.b_j0 + 1])
    t_width, j_width = _widths(k, b_t, b_j)
    t_rows = np.where(np.arange(k + 1) < t_width[:, None], table.t_probs[b_t, b_j], 0.0)
    j_rows = np.where(np.arange(2 * k) < j_width[:, None], table.j_probs[b_t, b_j], 0.0)
    values = table.values[b_t, b_j]
    # the widths join the key, so a shorter row padded with zeros stays apart
    rows = np.column_stack([t_rows, j_rows, values, t_width, j_width]).astype(float)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    text = json.dumps([[t[:w] for t, w in zip(t_rows[first].tolist(), t_width[first].tolist())],
                       [j[:w] for j, w in zip(j_rows[first].tolist(), j_width[first].tolist())],
                       values[first].tolist()], separators=(",", ":"))
    # [[[T],..],[[J],..],[V,..]]: numbers hold no brackets or commas
    t_text, j_text, v_text = text[3:-2].split("]],[")
    members = (t_text.split("],["), j_text[1:].split("],["),
               ['"value":' + v + "},{" for v in v_text.split(",")])
    return (inverse.tolist(), list(map(_BODY.format, *members)),
            list(map(_CANONICAL_BODY.format, *members)))


def _sha256(data=b""):
    # imported here: hashlib maps OpenSSL, which only table files need
    import hashlib

    return hashlib.sha256(data)


def _checksum(states_payload):
    canonical = json.dumps(states_payload, sort_keys=True, separators=(",", ":"))
    return _sha256(canonical.encode()).hexdigest()


def _tail(meta):
    """The text export_table writes after the states list."""
    if meta is None:
        return "}\n"
    return ',"meta":' + json.dumps(meta, separators=(",", ":")) + "}\n"


@contextlib.contextmanager
def _replacing(path, mode):
    """A new file beside path, opened with mode ("x" or "xb"), that
    replaces path when the block ends; if it raises, path stays as it was."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    fh = open(tmp, mode)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def export_table(table, path, meta=None):
    """Write a strategy table as versioned JSON.

    States are ordered by (b_t, b_j) and floats keep their shortest
    round-trip form, so identical tables produce identical bytes. A
    sha256 checksum over the state records guards against truncation.
    The states go out one block of levels at a time, each distinct record
    encoded once (:func:`_encode_block`) and hashed in sorted-key order as
    it goes; the digest fills the header's placeholder at the end. The
    bytes equal ``json.dumps(doc, separators=(",", ":"))`` plus a newline.

    :param meta: optional JSON-serializable dict of caller context
        (for example the jammer distance a table was solved at)

    The file is replaced in one step: a failed export leaves any earlier
    file at path untouched and no partial file behind.
    """
    head = json.dumps({"format": TABLE_FORMAT, "version": TABLE_VERSION,
                       "config": table.config.to_dict(), "checksum": "0" * 64},
                      separators=(",", ":"))
    tail = _tail(table.meta if meta is None else meta).encode()
    digest = _sha256()
    with _replacing(path, "xb") as fh:
        fh.write(head[:-1].encode() + b',"states":')
        # a block's closing "},{" goes out before the next one
        sep = b"[{"
        for lo, hi, b_t, b_j in _io_blocks(table.config):
            inverse, bodies, canonical_bodies = _encode_block(table, lo, hi)
            key = ['"b_t":'] * len(b_t)
            written = _interleave(key, b_t, b_j, map(bodies.__getitem__, inverse))
            canonical = _interleave(b_j, key, b_t, map(canonical_bodies.__getitem__, inverse))
            for out, text in ((fh.write, written), (digest.update, canonical)):
                out(sep)
                out(memoryview(text.encode())[:-3])
            sep = b"},{"
        end = b"[]" if sep == b"[{" else b"}]"
        fh.write(end + tail)
        digest.update(end)
        fh.seek(len(head) - 66)  # the placeholder checksum
        fh.write(digest.hexdigest().encode())


def _fill(arrays, b_t, b_j, strats_t, strats_j, values, at):
    """Write (t_probs, j_probs, values) at the states (b_t[i], b_j[i]) from
    entry at[i] of strats_t, strats_j and values; return the first i whose
    strategy lengths are not its legal action counts, or None."""
    arrays[2][b_t, b_j] = np.array(values)[at]
    for target, strats, width in zip(arrays, (strats_t, strats_j),
                                     _widths(arrays[0].shape[2] - 1, b_t, b_j)):
        lengths = np.array([len(strat) for strat in strats])
        wrong = np.flatnonzero(lengths[at] != width)
        if wrong.size:
            return wrong[0]
        # a boolean mask fills row by row, so entry r's numbers land in
        # the first lengths[r] columns of row r
        legal = np.arange(target.shape[2]) < lengths[:, None]
        rows = np.zeros(legal.shape)
        rows[legal] = np.fromiter(itertools.chain.from_iterable(strats), float,
                                  count=int(lengths.sum()))
        target[b_t, b_j] = rows[at]
    return None


def _record_count(config):
    """States a table file lists: b_t = k .. b_t0 for every b_j."""
    return max(0, config.b_t0 - config.k + 1) * (config.b_j0 + 1)


def _table_arrays(config, path, size):
    """Zero (t_probs, j_probs, values) over the grid of a config read from
    the table file at path, of size bytes. The checksum does not cover the
    config, so nothing is sized that the file cannot back: the arrays hold
    at most one entry per byte of the file, and a grid with no playable
    state, whose file lists no records, gets read-only views of one 0.0.

    :raises TableError: when the grid holds more entries than size
    """
    grid = (config.b_t0 + 1, config.b_j0 + 1)
    shapes = ((*grid, config.k + 1), (*grid, 2 * config.k), grid)
    if not _record_count(config):
        return tuple(np.broadcast_to(0.0, shape) for shape in shapes)
    if sum(map(math.prod, shapes)) > size:
        raise TableError(f"{path}: its {size} bytes cannot fill a grid of {grid[0]} x "
                         f"{grid[1]} states at k = {config.k}")
    return tuple(map(np.zeros, shapes))


def _pieces(fh):
    """The text of the binary file fh, read _READ_BYTES at a time, cut
    before each '"b_t":' (the marker dropped): the first piece is the text
    before the first marker, the last runs to the end of the file. Each
    read is decoded as strict UTF-8 up to its last marker, so no character
    is cut; only its new bytes and the 5 before them are searched."""
    buf = bytearray()
    while more := fh.read(_READ_BYTES):
        buf += more
        cut = buf.rfind(b'"b_t":', max(0, len(buf) - len(more) - 5))
        if cut >= 0:
            yield from buf[:cut].decode().split('"b_t":')
            del buf[:cut + 6]
    yield buf.decode()


def _read_layout(fh):
    """(doc with its states emptied, arrays) read from a table file open
    for binary reading, one piece at a time (:func:`_pieces`), or None
    unless it keeps to export_table's layout and its checksum checks.
    Each block of levels parses each distinct body once (:func:`_read_block`)
    and is read past its first record only where that record reads as
    written; nothing past the first block that strays is read."""
    pieces = _pieces(fh)
    # the first piece is the header, up to the states list's first '{'
    head, states, lead = next(pieces).rpartition('"states":')
    head += states
    size = os.fstat(fh.fileno()).st_size
    try:
        # export_table's header closes with the states list
        config = GameConfig.from_dict(json.loads(head + "[]}")["config"])
    except (ConfigError, KeyError, TypeError, ValueError):
        return None
    # the checksum does not cover the config: size no arrays from it
    # unless the file has room for the '"b_t":' of as many records
    if lead != "[{" or not 0 < 6 * _record_count(config) <= size - len(head.encode()):
        return None
    arrays, digest = _table_arrays(config, fh.name, size), _sha256(b"[{")
    for lo, hi, b_t, b_j in _io_blocks(config):
        first = next(pieces, "")
        if not first.startswith(b_t[0] + b_j[0]):
            return None
        block = [first, *itertools.islice(pieces, len(b_t) - 1)]
        read = _read_block(arrays, lo, hi, b_t, b_j, block, hi > config.b_t0)
        if read is None:
            return None
        digest.update(read[0].encode())
    # the last block closed the list and the tail holds no second config
    # or states key; lines end as reading in text mode ends them, so a
    # copy whose last newline became "\r\n" still reads as written
    tail = '"b_t":'.join([read[1], *pieces]).replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(head + "[]" + tail)
    except ValueError:  # not JSON
        return None
    ok = (doc.get("checksum"), tail) == (digest.hexdigest(), _tail(doc.get("meta")))
    return (doc, arrays) if ok else None


def _read_block(arrays, lo, hi, b_t, b_j, pieces, last):
    """Parse levels lo .. hi-1 from their pieces into arrays; return the
    checksum's text of the pieces and, for the last block, the text after
    the list's closing "}]", or None unless they read as export_table
    writes them."""
    heads = list(map(str.__add__, b_t, b_j))
    if len(pieces) != len(heads) or not all(map(str.startswith, pieces, heads)):
        return None
    bodies = list(map(str.removeprefix, pieces, heads))
    rest = None
    if last:
        # the list ends at the first "}]", after its last record
        end = bodies[-1].find("}]")
        if end < 0:
            return None
        bodies[-1], rest = bodies[-1][:end] + "},{", bodies[-1][end + 2:]
    index = {body: i for i, body in enumerate(dict.fromkeys(bodies))}
    members = list(map(_members, index))
    inverse = list(map(index.__getitem__, bodies))
    if None in members or not _parse_bodies(arrays, lo, hi, members, inverse):
        return None
    canonical_bodies = [_CANONICAL_BODY.format(*m) for m in members]
    canonical = _interleave(b_j, ['"b_t":'] * len(b_t), b_t,
                            map(canonical_bodies.__getitem__, inverse))
    return (canonical, None) if rest is None else (canonical[:-3] + "}]", rest)


def _parse_bodies(arrays, lo, hi, members, inverse):
    """Parse the distinct bodies of levels lo .. hi-1 from their (T, J,
    rest) members into arrays, state i taking body inverse[i]; False
    unless each reads as export_table writes it."""
    ts, js, rests = zip(*members)
    values = [rest[8:-3] for rest in rests if rest[:8] == '"value":' and rest[-3:] == "},{"]
    try:
        parsed = (json.loads(f"[[{'],['.join(ts)}]]"), json.loads(f"[[{'],['.join(js)}]]"),
                  json.loads(f"[{','.join(values)}]"))
    except json.JSONDecodeError:
        return False
    # one float list or float per body: a string, an object or a nested
    # list could span the texts joined here
    if (any(len(column) != len(members) for column in parsed)
            or set(map(type, itertools.chain(parsed[2], *parsed[0], *parsed[1]))) - {float}):
        return False
    b_t, b_j = (grid.ravel() for grid in np.mgrid[lo:hi, :arrays[2].shape[1]])
    return _fill(arrays, b_t, b_j, *parsed, np.array(inverse)) is None


def _text_digest(text):
    """(checksum, text after it) of the first states list in a table
    file's text, each record's text hashed as :func:`_canonical_piece`
    rewrites it, or None where no states list or no end of it is found."""
    start = text.find('"states":[')
    if start < 0:
        return None
    start += len('"states":')
    # records hold no nested objects, so the first "}]" closes the list
    end = start if text.startswith("[]", start) else text.find("}]", start)
    if end < 0:
        return None
    lead, *pieces = text[start:end + 2].split('"b_t":')
    digest = _sha256(lead.encode())
    for piece in pieces:
        digest.update(_canonical_piece(piece).encode())
    return digest.hexdigest(), text[end + 2:]


def load_table(path):
    """Load a table written by :func:`export_table`.

    Raises :class:`TableError` on a file that is not UTF-8 JSON, format
    or version mismatch, a config that is not a valid game config, checksum
    failure, NaN or infinite entries, or strategy rows that are not
    probability distributions.
    The loaded table carries deployed strategies and values only.

    A file laid out as export_table writes it is read a piece at a time,
    never whole, and parsed one block of levels at a time
    (:func:`_read_layout`). Any other file (other record order,
    whitespace, key order or float spelling) leaves that reader at its
    first stray block and is read again, once and whole: the hash of its
    own states text (:func:`_text_digest`) settles the checksum, or else
    its records are encoded again. Both ways run the same checks.
    """
    try:
        with open(path, "rb") as fh:
            try:
                loaded = _read_layout(fh)
            except UnicodeDecodeError:  # the whole read below names the byte
                loaded = None
        if loaded is None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
                size = os.fstat(fh.fileno()).st_size
            digest = _text_digest(text)
            loaded = json.loads(text), None
            del text  # the parsed records take its place
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TableError(f"{path}: not a valid table file: {exc}") from None
    doc, arrays = loaded
    if not isinstance(doc, dict) or doc.get("format") != TABLE_FORMAT:
        raise TableError(f"{path}: not a {TABLE_FORMAT} file")
    if doc.get("version") != TABLE_VERSION:
        raise TableError(f"{path}: unsupported version {doc.get('version')!r}, "
                         f"expected {TABLE_VERSION}")
    for field in ("config", "checksum", "states"):
        if field not in doc:
            raise TableError(f"{path}: missing field {field!r}")
    try:
        if not isinstance(doc["config"], dict):
            raise ConfigError("config must be a JSON object")
        config = GameConfig.from_dict(doc["config"])
    except ConfigError as exc:
        raise TableError(f"{path}: {exc}") from None
    k = config.k
    if arrays is None:
        states = doc["states"]
        # a tail other than export_table's could hold a second "states"
        # key that the parser takes instead of the text hashed above
        if (digest != (doc["checksum"], _tail(doc.get("meta")))
                and _checksum(states) != doc["checksum"]):
            raise TableError(f"{path}: checksum mismatch, file corrupt or truncated")
        expected = _record_count(config)
        try:
            if len(states) != expected:
                raise TableError(f"{path}: {len(states)} states, expected {expected}")
            arrays = _table_arrays(config, path, size)
            if expected:
                # one array per record field, checked and written whole
                b_t, b_j, *records = ([rec[name] for rec in states] for name in (
                    "b_t", "b_j", "strat_t", "strat_j", "value"))
                b_t, b_j = np.array(b_t), np.array(b_j)
                if b_t.dtype.kind != "i" or b_j.dtype.kind != "i":
                    raise TypeError("battery levels must be integers")
                outside = np.flatnonzero((b_t < k) | (b_t > config.b_t0)
                                         | (b_j < 0) | (b_j > config.b_j0))
                if outside.size:
                    i = outside[0]
                    raise TableError(f"{path}: state ({b_t[i]}, {b_j[i]}) outside the grid")
                i = _fill(arrays, b_t, b_j, *records, slice(None))
                if i is not None:
                    raise TableError(f"{path}: wrong strategy length at ({b_t[i]}, {b_j[i]})")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TableError(f"{path}: malformed state record: {exc}") from None
    table = StrategyTable(config, *arrays, horizon_values=None, meta=doc.get("meta"))
    fault = _row_fault(table)
    if fault:
        raise TableError(f"{path}: {fault}")
    return table


def _row_fault(table):
    """What is wrong with a table's playable rows, or None: values and
    strategies must be finite, and each strategy row a distribution (no
    entry below 0, a sum within 1e-9 of 1). Levels below k hold zeros; the
    rest are checked a block at a time, so no temporary spans the grid."""
    per = max(1, _IO_STATES // (table.config.b_j0 + 1))
    blocks = [slice(lo, lo + per) for lo in range(table.config.k, table.config.b_t0 + 1, per)]
    strategies = ((table.t_probs, "strat_t"), (table.j_probs, "strat_j"))
    for arr, label in ((table.values, "value"), *strategies):
        if not all(np.isfinite(arr[block]).all() for block in blocks):
            return f"{label} holds NaN or infinity"
    for probs, label in strategies:
        if any((probs[block] < 0.0).any() or (np.abs(probs[block].sum(axis=2) - 1.0) > 1e-9).any()
               for block in blocks):
            return f"{label} rows are not distributions"
    return None
