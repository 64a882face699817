"""Design and simulation toolkit for cluster randomized trials with
zero-inflated Poisson outcomes: closed-form cluster counts, correlated
trial simulation, GEE fitting with sandwich and Jackknife variances, and
Monte Carlo operating-characteristic studies."""

from .dataset import TrialDataset, read_dataset, write_dataset
from .design import (
    ArmProfile,
    ClusterSizeModel,
    DesignInputs,
    EffectDecomposition,
    build_design,
    decompose_effect,
    infer_p1_from_observed,
    marginal_variance,
    p2_from_q,
    pairwise_covariance_factor,
    zero_probability,
)
from .errors import (
    ConfigError,
    DomainError,
    EstimationError,
    StudyError,
    ZipCrtError,
)
from .gee import (
    GeeFit,
    WaldTest,
    fit_zip,
    wald_test,
)
from .mc import (
    StudyConfig,
    StudyReport,
    TableReport,
    estimate_poisson_icc,
    reference_design,
    reproduce_tables,
    run_power_study,
)
from .power import (
    QSweepEntry,
    SampleSizeResult,
    design_variance,
    q_sweep,
    sample_size_normal,
    sample_size_t,
)
from .simulate import generate_trial

__version__ = "0.1.0"

__all__ = [
    "ArmProfile",
    "ClusterSizeModel",
    "ConfigError",
    "DesignInputs",
    "DomainError",
    "EffectDecomposition",
    "EstimationError",
    "GeeFit",
    "QSweepEntry",
    "SampleSizeResult",
    "StudyConfig",
    "StudyError",
    "StudyReport",
    "TableReport",
    "TrialDataset",
    "WaldTest",
    "ZipCrtError",
    "build_design",
    "decompose_effect",
    "design_variance",
    "estimate_poisson_icc",
    "fit_zip",
    "generate_trial",
    "infer_p1_from_observed",
    "marginal_variance",
    "p2_from_q",
    "pairwise_covariance_factor",
    "q_sweep",
    "read_dataset",
    "reference_design",
    "reproduce_tables",
    "run_power_study",
    "sample_size_normal",
    "sample_size_t",
    "wald_test",
    "write_dataset",
    "zero_probability",
]
