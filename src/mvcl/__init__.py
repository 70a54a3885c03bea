"""Unsupervised multi-view linear feature extraction with triple contrastive heads."""

from .data import (
    FeatureStats,
    MultiViewDataset,
    SplitPlan,
    SynthSpec,
    default_synth_spec,
    load_views,
    preprocess,
    save_views,
    split,
    split_indices,
    synth_generate,
)
from .errors import (
    BenchmarkError,
    DimError,
    EmptyInput,
    EmptyTrain,
    InvalidSpec,
    LabelsRequired,
    MvclError,
    NumericDivergence,
    NumericError,
    ParseError,
    SplitInfeasible,
    StatsMismatch,
    ViewMismatch,
)
from .evaluate import (
    BenchmarkReport,
    BenchmarkRow,
    accuracy_pct,
    benchmark,
    default_d_sweep,
    fuse,
    knn_classify,
    project_per_view,
    report_to_csv,
    report_to_dict,
)
from .grad import (
    finite_diff_check,
    grad_wrt_F,
    grad_wrt_P,
    random_instance,
)
from .loss import (
    EmbeddingSet,
    HyperParams,
    ProjectionSet,
    RecoverySet,
    embeddings,
    feature_level_loss,
    recovery_level_loss,
    sample_level_loss,
    total_loss,
)
from .optim import (
    AdamParams,
    AdamState,
    TrainConfig,
    TrainReport,
    adam_step,
    init_params,
    load_model,
    save_model,
    train,
)

__version__ = "0.1.0"
