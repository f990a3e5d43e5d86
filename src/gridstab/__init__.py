"""Transient-stability screening of N-1 faults from power-flow snapshots.

Synthetic grid scenarios, global/local feature extraction, a from-scratch
graph-convolutional screening model with baselines, and reliability-
constrained threshold calibration.
"""

from .grid import (
    AC_LINE, DC_LINE, STABLE, TRANSFORMER, UNSTABLE,
    Bus, Element, FaultSample, GridError, Network, Snapshot,
    build_adjacency, validate_network,
)
from .synth import (
    StabilityOracle, SynthConfig, build_dataset, enumerate_faults,
    generate_day, generate_network,
)
from .features import (
    FeaturizedDataset, GlobalFeatureSpec, LocalGraph, StatKind,
    compute_statistic, default_feature_spec, featurize, global_stats,
    local_subgraph,
)
from .nn import (
    AdamState, adam_init, adam_step, bce_loss, grad_check, normalize_adjacency,
)
from .model import (
    ModelConfig, ScreeningModel, TrainConfig, TrainResult, scores_for, train,
)
from .baselines import (
    LinearSvmParams, prev_day_scores, svm_train_expanded,
)
from .metrics import (
    ConfusionCounts, MetricRow, calibrate_threshold, compute_metrics,
    undersample_balance,
)
from .report import (
    Bundle, ExperimentConfig, ablation_table, build_bundle, comparison_table,
    daily_report,
)

__version__ = "0.1.0"
