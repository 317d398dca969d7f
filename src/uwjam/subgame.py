"""Single-frame game between the transmitter and the jammer.

A frame has 2K slots. The transmitter must land at least K packet copies
at the receiver to win the frame; it sends n_t in {K, ..., 2K} copies,
one of which rides the first slot that the jammer provably cannot react
to. The jammer picks n_j in {0, ..., 2K-1} of the remaining 2K-1 slots
to hit, without knowing which slots carry packets. Jammed packets fail
with probability p_blocked, the others with the jamming-free probability
p_clear.

The frame payoff for the transmitter trades energy against success:

    u_T(n_t, n_j) = alpha * (-n_t / (2K+1)) + (1 - alpha) * E[chi]

where chi is the frame success indicator. The game is zero-sum, so the
jammer's payoff is -u_T.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SubgameParams",
    "blocked_count_distribution",
    "success_given_blocked",
    "expected_success",
    "subgame_payoff",
    "payoff_matrix",
    "success_matrix",
]


@dataclass(frozen=True)
class SubgameParams:
    """Frame-level parameters.

    :param k: packets needed at the receiver per frame (frame = 2k slots)
    :param alpha: energy weight in [0, 1]; 1 - alpha weights success
    :param p_clear: PER of a packet the jammer does not hit
    :param p_blocked: PER of a jammed packet
    """

    k: int
    alpha: float
    p_clear: float
    p_blocked: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        for name in ("p_clear", "p_blocked"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def _check_actions(k, n_t, n_j):
    if not k <= n_t <= 2 * k:
        raise ValueError(f"n_t must lie in [{k}, {2 * k}], got {n_t}")
    if not 0 <= n_j <= 2 * k - 1:
        raise ValueError(f"n_j must lie in [0, {2 * k - 1}], got {n_j}")


def blocked_count_distribution(k, n_t, n_j):
    """Distribution of the number of jammed packets in a frame.

    The jammer's n_j slots are a uniform subset of the 2k-1 slots it can
    reach; n_t - 1 of those slots carry packets (the first packet is out
    of reach). The overlap is hypergeometric:

        P(N_B = n_b) = C(n_t-1, n_b) C(2k-1-(n_t-1), n_j-n_b) / C(2k-1, n_j)

    Computed with exact integer binomials, so the result sums to 1 at
    plain double precision.

    :returns: array p where p[n_b] = P(N_B = n_b),
        n_b = 0 .. min(n_t - 1, n_j)
    """
    _check_actions(k, n_t, n_j)
    slots = 2 * k - 1
    vulnerable = n_t - 1
    denom = math.comb(slots, n_j)
    top = min(vulnerable, n_j)
    out = np.empty(top + 1)
    for n_b in range(top + 1):
        out[n_b] = math.comb(vulnerable, n_b) * math.comb(slots - vulnerable, n_j - n_b) / denom
    return out


def success_given_blocked(k, n_t, n_b, p_clear, p_blocked):
    """P(frame success | n_b of the n_t packets are jammed).

    Deliveries split into two independent binomials, n_t - n_b clear
    packets with success probability 1 - p_clear and n_b jammed ones
    with 1 - p_blocked; the frame succeeds when the total reaches k:

        sum_{D=k}^{n_t} sum_{d_b} C(n_c, D-d_b) pc^(n_c-(D-d_b)) (1-pc)^(D-d_b)
                                  * C(n_b, d_b) pb^(n_b-d_b) (1-pb)^d_b

    d_b runs over the feasible overlap max(0, D-n_c) .. min(D, n_b), which
    also keeps 0^0 terms well defined when a PER is exactly 0 or 1.
    """
    if not 0 <= n_b < n_t:
        raise ValueError("need 0 <= n_b < n_t (first packet is never jammed)")
    n_c = n_t - n_b
    total = 0.0
    for deliveries in range(k, n_t + 1):
        for d_b in range(max(0, deliveries - n_c), min(deliveries, n_b) + 1):
            d_c = deliveries - d_b
            total += (math.comb(n_c, d_c)
                      * (1.0 - p_clear) ** d_c * p_clear ** (n_c - d_c)
                      * math.comb(n_b, d_b)
                      * (1.0 - p_blocked) ** d_b * p_blocked ** (n_b - d_b))
    return min(1.0, total)


def expected_success(params, n_t, n_j):
    """E[chi]: frame success probability under a joint action.

    Averages :func:`success_given_blocked` over the hypergeometric
    blocked-count distribution.
    """
    dist = blocked_count_distribution(params.k, n_t, n_j)
    return float(sum(
        pr * success_given_blocked(params.k, n_t, n_b, params.p_clear, params.p_blocked)
        for n_b, pr in enumerate(dist)))


def subgame_payoff(params, n_t, n_j):
    """Transmitter frame payoff u_T(n_t, n_j); the jammer gets -u_T.

    Lies in (-1, 1]: the energy term is at most 2k/(2k+1) < 1 in
    magnitude and the success term is within [0, 1]. Read from the
    cached :func:`payoff_matrix`.
    """
    _check_actions(params.k, n_t, n_j)
    return float(payoff_matrix(params)[n_t - params.k, n_j])


@lru_cache(maxsize=128)
def _matrices(k, alpha, p_clear, p_blocked):
    m, n = k + 1, 2 * k
    params = SubgameParams(k=k, alpha=alpha, p_clear=p_clear, p_blocked=p_blocked)
    chi = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            chi[i, j] = expected_success(params, k + i, j)
    n_ts = np.arange(k, 2 * k + 1, dtype=float)
    payoff = alpha * (-n_ts[:, None] / (2.0 * k + 1.0)) + (1.0 - alpha) * chi
    payoff.flags.writeable = False
    chi.flags.writeable = False
    return payoff, chi


def payoff_matrix(params):
    """Full (k+1) x 2k transmitter payoff matrix.

    Row i is n_t = k + i, column j is n_j = j. Cached per parameter set;
    the returned array is read-only.
    """
    return _matrices(params.k, params.alpha, params.p_clear, params.p_blocked)[0]


def success_matrix(params):
    """Matching (k+1) x 2k matrix of frame success probabilities."""
    return _matrices(params.k, params.alpha, params.p_clear, params.p_blocked)[1]
