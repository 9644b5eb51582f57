"""AUC maximization for imbalanced binary classification.

Trains linear classifiers by solving a strongly-convex-strongly-concave
minimax problem whose saddle point maximizes ROC-AUC, and ships the
surrounding benchmark machinery: first- and second-order saddle solvers,
a multichannel signal feature pipeline, linear baselines, imbalance-aware
metrics, and a data pipeline with synthetic imbalanced generators.
"""

from .objective import (
    AucProblem,
    LabeledDataset,
    ObjectiveParams,
    PrimalDualState,
    gradient,
    hessian,
    objective_value,
    positive_fraction,
)
from .solvers import (
    SolveResult,
    SolverConfig,
    broyden_update,
    greedy_direction,
    solve,
)
from .signals import (
    BandDef,
    DEFAULT_BANDS,
    TrialSignal,
    WindowSpec,
    band_power_psd,
    butterworth_bandpass,
    butterworth_gain_squared,
    channel_stats,
    differential_entropy,
    lagged_correlation,
    plv,
    power_spectrum,
    segment,
    segment_diff,
    segment_stats,
)
from .features import FeatureMatrix, build_feature_sets, feature_layout
from .baselines import (
    LinearModel,
    auc_model,
    decision_scores,
    fit_linear_svm,
    fit_logistic,
    predict,
    score,
)
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    classification_report,
    confusion_counts,
    roc_auc,
)
from .data import (
    SplitSpec,
    Standardizer,
    SynthSpec,
    fit_apply_standardizer,
    generate_synthetic,
    load_labeled_csv,
    read_feature_csv,
    split,
    write_feature_csv,
)

__version__ = "0.1.0"
