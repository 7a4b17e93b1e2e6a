"""planlens: generation-level attribution of feedback-conditioned planning.

Freeze evolutionary trajectories at generation checkpoints, replay
planning under controlled feedback coalitions via an event-driven
pipeline, and decompose the resulting generation-level success rates
into per-component Banzhaf values and synergy terms.

The package root exports the names of README's library sketch; every
other name is imported from its own module (`planlens.gating`, ...).
"""

__version__ = "0.1.0"

from .attribution import GameSpec, attribution_report, sweep_characteristic_tables
from .feedback import default_components
from .pipeline import InterventionPipeline, PipelineConfig, make_rollout_fn
from .trajectory import TrajectoryStore

__all__ = [
    "__version__",
    "GameSpec",
    "InterventionPipeline",
    "PipelineConfig",
    "TrajectoryStore",
    "attribution_report",
    "default_components",
    "make_rollout_fn",
    "sweep_characteristic_tables",
]
