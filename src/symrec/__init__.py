"""Recovery of homogeneous symbol expansions from noisy quadratic
wave-packet measurements, with a Monte Carlo verification harness for the
convergence, variance-scaling, and non-convergence laws."""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalError
from .expressions import CoeffExpr, parse_coeff
from .measurement_recovery import (
    EstimatorReport,
    MeasurementModel,
    OrderPlan,
    RecoverySession,
    TermDesign,
    averaged_estimate,
    measure,
    plain_estimate,
    plan_orders,
    recover_expansion,
)
from .noise_engine import (
    NoiseKernel,
    NoisePath,
    basis_oracle_batch,
    basis_oracle_sample,
    build_kernel,
    sample_path,
    sample_paths,
)
from .spectral_core import (
    FrequencyWindow,
    JapaneseBracketWeight,
    SpectralPatch,
    evaluate_physical,
    inner_product_l2,
    inner_product_sobolev,
    l2_norm,
)
from .stats_harness import (
    DeviationCurve,
    RateCertificate,
    SlopeRegression,
    nonconvergence_experiment,
    rate_certificate_experiment,
    trajectory_as_convergence_check,
    variance_scaling_experiment,
    wilson_interval,
)
from .symbols import (
    HomogeneousTerm,
    Observable,
    PhysicalGrid,
    SymbolExpansion,
    asymptotic_error_probe,
    eval_symbol,
    packet_quadratic_form,
    quadratic_form,
)
from .wave_packets import (
    PacketProfile,
    WavePacketFamily,
    make_packet,
    make_profile,
    packet_overlap_decay,
)

__all__ = [name for name in dir() if not name.startswith("_")]
