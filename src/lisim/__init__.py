"""Uplink detection simulator for panelized large intelligent surfaces.

The package splits into six layers: complex-matrix kernels
(:mod:`lisim.numerics`), scenario geometry and LOS channel generation
(:mod:`lisim.channel`), per-panel filter construction
(:mod:`lisim.equalizers`), sum-rate evaluation (:mod:`lisim.capacity`),
daisy-chain / centralized orchestration with traffic accounting
(:mod:`lisim.chain`), and the Monte Carlo sweep driver plus CLI
(:mod:`lisim.cli`, imported on its own so ``python -m lisim.cli`` runs it
cleanly).
"""

from .capacity import (CapacityReport, chain_capacity_trace, channel_capacity,
                       sum_rate_full, sum_rate_panelized)
from .chain import (Algorithm, ChainResult, TrafficReport, run_centralized,
                    run_iic_chain, run_rmf)
from .channel import (ChannelRealization, Scenario, ScenarioConfig,
                      build_scenario, los_gain, realize_channel, sample_users)
from .equalizers import (ChainMessage, EqualizerKind, EqualizerSet,
                         PanelEqualizer, iic_local_step, rmf_filter,
                         single_panel_filter)
from .errors import (ConfigError, DegenerateChannelError, LisimError,
                     NumericalDomainError)

__version__ = "0.1.0"

__all__ = [
    "Algorithm", "CapacityReport", "ChainMessage", "ChainResult",
    "ChannelRealization", "ConfigError", "DegenerateChannelError",
    "EqualizerKind", "EqualizerSet", "LisimError",
    "NumericalDomainError", "PanelEqualizer", "Scenario",
    "ScenarioConfig", "TrafficReport",
    "build_scenario", "chain_capacity_trace", "channel_capacity",
    "iic_local_step", "los_gain", "realize_channel", "rmf_filter",
    "run_centralized", "run_iic_chain", "run_rmf", "sample_users",
    "single_panel_filter", "sum_rate_full", "sum_rate_panelized",
]
