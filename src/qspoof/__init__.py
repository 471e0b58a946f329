"""Adversarial binary quantum state detection.

A detector discriminates two density operators with the risk-optimal
projective measurement; a man-in-the-middle interceptor, paying a
relative-entropy price, distorts the delivered states against that fixed
measurement.  The package provides the closed-form distortion with an
independent numerical cross-check, two-sided genuine detection-rate
bounds, explicit Kraus realizations of the distortion, first-order
perturbation diagnostics, and a photon-number radar scenario with ROC
and signal-level sweeps.
"""

__version__ = "0.1.0"

from .operators import (
    DensityOperator,
    NonHermitianError,
    SpectralDecomposition,
    hermitian_part,
    relative_entropy,
    require_hermitian,
    spectral_decompose,
    trace_product,
)
from .detection import (
    HelstromResult,
    HypothesisPair,
    ProjectorMeasurement,
    bayes_risk,
    helstrom_measurement,
    rates,
    sample_outcomes,
)
from .adversary import (
    AttackerSolution,
    BoundReport,
    OracleConvergenceError,
    PerturbationReport,
    attacker_utility,
    detection_bounds,
    gap_condition_sums,
    optimal_attack,
    oracle_attack,
    perturbation_estimate,
)
from .channels import KrausChannel, apply_channel, completeness_residual, realize_channel
from .radar import (
    PhotonSweepRow,
    RadarParams,
    RocCurve,
    RocPoint,
    build_radar_pair,
    default_tau_grid,
    mean_photon,
    photon_sweep,
    roc_sweep,
)

__all__ = [
    "__version__",
    "DensityOperator",
    "NonHermitianError",
    "SpectralDecomposition",
    "hermitian_part",
    "relative_entropy",
    "require_hermitian",
    "spectral_decompose",
    "trace_product",
    "HelstromResult",
    "HypothesisPair",
    "ProjectorMeasurement",
    "bayes_risk",
    "helstrom_measurement",
    "rates",
    "sample_outcomes",
    "AttackerSolution",
    "BoundReport",
    "OracleConvergenceError",
    "PerturbationReport",
    "attacker_utility",
    "detection_bounds",
    "gap_condition_sums",
    "optimal_attack",
    "oracle_attack",
    "perturbation_estimate",
    "KrausChannel",
    "apply_channel",
    "completeness_residual",
    "realize_channel",
    "PhotonSweepRow",
    "RadarParams",
    "RocCurve",
    "RocPoint",
    "build_radar_pair",
    "default_tau_grid",
    "mean_photon",
    "photon_sweep",
    "roc_sweep",
]
