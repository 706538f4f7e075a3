"""Recovery of homogeneous symbol expansions from noisy quadratic
wave-packet measurements, with a Monte Carlo verification harness for the
convergence, variance-scaling, and non-convergence laws."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import ConfigError, NumericalError
from .expressions import CoeffExpr, parse_coeff
from .measurement_recovery import (
    EstimatorReport,
    MeasurementModel,
    OrderPlan,
    RecoverySession,
    TermDesign,
    plan_orders,
)
from .noise_engine import (
    JapaneseBracketWeight,
    NoiseKernel,
    basis_oracle_batch,
    build_kernel,
    sample_path,
    sample_paths,
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
    SymbolExpansion,
    asymptotic_error_probe,
    packet_quadratic_form,
)
from .wave_packets import (
    PacketProfile,
    WavePacketFamily,
    make_profile,
)

# the public names, without the submodules that importing them bound here
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
