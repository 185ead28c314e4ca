"""gdscope: diagnostics for gradient descent in the unstable step-size regime."""

from .costs import (
    CostFunction,
    Quadratic,
    SingleNeuron,
    TanhQuadratic,
    WeightDecayWrapped,
    as_params,
)
from .data import Dataset, SynthSpec, load_cifar10_binary, synth_dataset
from .errors import (
    ConfigError,
    ContractViolation,
    DatasetFormatError,
    NearStationaryError,
    PowerIterationError,
    ZeroDirectionError,
)
from .metrics import (
    MetricSample,
    QuadratureGrid,
    SharpnessEstimate,
    directional_smoothness,
    expected_rp,
    expected_rp_rhs,
    grad_floor,
    relative_progress,
    segment_max_sharpness,
    sharpness,
    verify_identity,
)
from .mlp import MLPCost
from .optimizer import (
    MetricFlags,
    OptimizerConfig,
    Trajectory,
    classify_regime,
    escape_experiment,
    gd_run,
    sgd_run,
)
from .theory import (
    QuadraticSpectrum,
    eigenmode_trace,
    homogeneity_orthogonality,
    jacobi_spectrum,
    quadratic_divergence_oracle,
    rp_dir_closed_forms,
)

__version__ = "0.1.0"
