"""Rate-distortion curves on finite alphabets, three ways at once.

The package traces R(D) with a Blahut-Arimoto fixed point, certifies
each point through the Schrodinger/Sinkhorn scaling problem at fixed
marginals, and sandwiches the value with Csiszar-style dual bounds.
Everything is deterministic and seedless; rates are in nats unless a
CLI config says otherwise.
"""
from .blahut import (
    RDCurve,
    RDPoint,
    ba_fixed_point,
    dual_certificate,
    rd_curve,
    rd_value_from_nu,
)
from .distortion import (
    DistortionMatrix,
    SourceSpec,
    d_floor,
    d_max,
    discretize_gaussian,
    discretize_uniform,
    expected_loss,
    hamming,
    normalize_loss,
    slb_mse,
    squared_error,
)
from .errors import (
    ConvergenceError,
    EmptyComparisonError,
    InvalidInputError,
    StaleCertificateError,
)
from .measures import (
    Coupling,
    ProbabilityVector,
    entropy,
    kl_divergence,
    mutual_information,
)
from .schrodinger import (
    ScalingPair,
    eval_J,
    eval_L,
    schrodinger_residual,
    sinkhorn,
)
from .verify import (
    OptimalityReport,
    SupportCluster,
    SupportReport,
    check_optimality,
    compare_curve,
    oracle_bernoulli_hamming,
    oracle_gaussian_mse,
    slb_gap,
    support_atoms,
)

__version__ = "0.1.0"

__all__ = [
    "RDCurve",
    "RDPoint",
    "ba_fixed_point",
    "dual_certificate",
    "rd_curve",
    "rd_value_from_nu",
    "DistortionMatrix",
    "SourceSpec",
    "d_floor",
    "d_max",
    "discretize_gaussian",
    "discretize_uniform",
    "expected_loss",
    "hamming",
    "normalize_loss",
    "slb_mse",
    "squared_error",
    "ConvergenceError",
    "EmptyComparisonError",
    "InvalidInputError",
    "StaleCertificateError",
    "Coupling",
    "ProbabilityVector",
    "entropy",
    "kl_divergence",
    "mutual_information",
    "ScalingPair",
    "eval_J",
    "eval_L",
    "schrodinger_residual",
    "sinkhorn",
    "OptimalityReport",
    "SupportCluster",
    "SupportReport",
    "check_optimality",
    "compare_curve",
    "oracle_bernoulli_hamming",
    "oracle_gaussian_mse",
    "slb_gap",
    "support_atoms",
    "__version__",
]
