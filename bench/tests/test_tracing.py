"""The tracer's wrappers come off cleanly and its layer arithmetic holds.

    python3 -m pytest bench/tests
"""

import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

from tracing import Tracer  # noqa: E402
from uwjam import solver  # noqa: E402


def test_outermost_calls_self_time_and_tracer_time():
    tracer = Tracer()
    with tracer.span("solve"):
        with tracer.span("lp"):
            time.sleep(0.02)
        with tracer.span("trace"):
            time.sleep(0.02)
        with tracer.span("solve"):
            time.sleep(0.01)
    outer, lp, trace, inner = (end - start for _, start, end, _ in tracer.spans)
    m = tracer.layer_metrics()
    assert (m["solve.calls"], m["lp.calls"], m["trace.spans"]) == (1, 1, 4)
    assert m["solve.s"] == pytest.approx(outer - trace)
    assert m["solve.self_s"] == pytest.approx(outer - lp - trace)
    assert m["trace.count_s"] == pytest.approx(trace)
    assert m["lp.s"] == pytest.approx(lp)


def test_install_counts_a_solve_and_uninstall_restores():
    original = solver.solve_full_game
    cfg = solver.GameConfig(k=2, b_t0=10, b_j0=6, alpha=0.4, p_clear=0.1,
                            p_blocked=0.8, horizon=2)
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.solve_full_game is not original
        solver.solve_full_game(cfg)
    finally:
        tracer.uninstall()
    assert solver.solve_full_game is original
    m = tracer.layer_metrics()
    assert (m["solve.calls"], m["subgame.calls"]) == (1, 1)
    assert 0 < m["lp.distinct"] <= m["lp.instances"]
    assert m["lp.calls"] > 0 and m["lp.s"] <= m["solve.s"]
