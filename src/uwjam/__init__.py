"""Equilibrium strategies for an energy-depleting jamming game on
underwater acoustic links.

A battery-limited transmitter repeats packets within framed slots to
outlast a reactive jammer; both sides play the Nash equilibrium of a
zero-sum multistage game over the battery state space. The package
models the acoustic channel, solves the game by backward induction,
and evaluates strategies analytically and by simulation.
"""

from .analysis import (AnalysisReport, SensitivitySpec, SimulationResult,
                       analyze, expected_lifetime, first_frame_success,
                       mismatch_evaluation, sensitivity_sweep, simulate,
                       success_probability)
from .channel import (AcousticEnvironment, EmpiricalPerTable, LinkBudget,
                      RsCode, TxParams, absorption_db_per_km, channel_gain,
                      css_bit_error, error_model_for_distance, marcum_q1,
                      noise_psd, per_coded, per_uncoded)
from .errors import ConfigError, SolverError, TableError
from .solver import (GameConfig, GameState, MixedStrategy, StrategyTable,
                     action_sets, export_table, is_terminal, load_table,
                     solve_full_game, solve_matrix_game, solve_vs_fixed_jammer)
from .subgame import (SubgameParams, blocked_count_distribution,
                      expected_success, payoff_matrix, subgame_payoff,
                      success_given_blocked, success_matrix)

__version__ = "0.1.0"
