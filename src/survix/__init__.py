"""Time-indexed Shapley interaction explanations for survival models."""

from .core import (
    InteractionExplanation,
    PredictionTarget,
    SurvivalDataset,
    TimeGrid,
    build_time_grid,
    coalition_iter,
)
from .games import (
    ConditionalGaussianImputer,
    MarginalEmpiricalImputer,
    SurvivalGame,
    conditional_gaussian_params,
    evaluate_all_coalitions,
)
from .interactions import (
    ApproximatorConfig,
    aggregate_ksii,
    explain,
    moebius_transform,
)
from .metrics import (
    LocalAccuracyCurve,
    approximation_error,
    classify_time_dependence,
    concordance_index,
    integrated_brier,
    local_accuracy,
    savgol_smooth,
)
from .models import (
    CoxModel,
    GroundTruthModel,
    RiskScoreSpec,
    RiskTerm,
    fit_coxph,
)
from .simulate import (
    FeatureSampler,
    apply_censoring,
    build_scenario,
    sample_features,
    simulate_dataset,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
