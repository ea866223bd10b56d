"""Duplicate-elimination active memory for imbalanced self-supervised learning.

The package is organized bottom-up:

- kernels: duplication-probability kernels over unit embeddings
- information: Hebbian / distinctiveness information and the HML loss
- memory: fixed-capacity active memory with the DUEL policy and baselines
- trainer: memory-augmented InfoNCE training in pure numpy
- streams: synthetic imbalanced pair streams and embedding-file IO
- metrics: memory and representation diagnostics
- harness: seeded experiment runs, policy benchmarks, artifact emission
- verify: executable invariant checks (also `duelmem verify` on the CLI)
"""

from .information import (
    FiniteDistribution,
    InfiniteInformationWarning,
    distinctiveness_information,
    hebbian_information,
    hml_loss,
    imbalance_lambda,
    mhml_bound,
)
from .kernels import (
    AffineCosine,
    ExponentialTemp,
    Kernel,
    LabelOracle,
    cosine,
    mdp,
    normalize,
    pair_scores,
    self_scores,
)
from .memory import (
    MAX_SCORE,
    POLICIES,
    ActiveMemory,
    EvictionEvent,
    PushResult,
    guarded_update,
)
from .metrics import (
    MetricsRow,
    ProbeConfig,
    class_centroid,
    class_entropy,
    class_frequency_histogram,
    dominant_fraction,
    inter_class_similarity,
    intra_class_variance,
    linear_probe,
)
from .streams import (
    Dominant,
    GaussianPairStream,
    LongTail,
    StreamConfig,
    load_embedding_stream,
    longtail_probs,
    oracle_embedding_stream,
    write_embedding_csv,
)
from .trainer import (
    FeatureExtractor,
    StepReport,
    TrainState,
    TrainerConfig,
    batched_infonce,
    cosine_lr,
    infonce_grad,
    infonce_loss,
    load_checkpoint,
    momentum_update,
    numerical_gradient,
    save_checkpoint,
    train_step,
)
from .harness import (
    ConfigError,
    EvalConfig,
    ExperimentConfig,
    MemoryConfig,
    RunResult,
    bench_policies,
    default_config_dict,
    export_embeddings,
    load_config,
    parse_config,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveMemory",
    "AffineCosine",
    "ConfigError",
    "Dominant",
    "EvalConfig",
    "EvictionEvent",
    "ExperimentConfig",
    "ExponentialTemp",
    "FeatureExtractor",
    "FiniteDistribution",
    "GaussianPairStream",
    "InfiniteInformationWarning",
    "Kernel",
    "LabelOracle",
    "LongTail",
    "MAX_SCORE",
    "MemoryConfig",
    "MetricsRow",
    "POLICIES",
    "ProbeConfig",
    "PushResult",
    "RunResult",
    "StepReport",
    "StreamConfig",
    "TrainState",
    "TrainerConfig",
    "batched_infonce",
    "bench_policies",
    "class_centroid",
    "class_entropy",
    "class_frequency_histogram",
    "cosine",
    "cosine_lr",
    "default_config_dict",
    "distinctiveness_information",
    "dominant_fraction",
    "export_embeddings",
    "guarded_update",
    "hebbian_information",
    "hml_loss",
    "imbalance_lambda",
    "infonce_grad",
    "infonce_loss",
    "inter_class_similarity",
    "intra_class_variance",
    "linear_probe",
    "load_checkpoint",
    "load_config",
    "load_embedding_stream",
    "longtail_probs",
    "mdp",
    "mhml_bound",
    "momentum_update",
    "normalize",
    "numerical_gradient",
    "oracle_embedding_stream",
    "pair_scores",
    "parse_config",
    "run_experiment",
    "save_checkpoint",
    "self_scores",
    "train_step",
    "write_embedding_csv",
    "__version__",
]
