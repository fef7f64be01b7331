"""Sampled continuous frames, frame multipliers and verification suites.

The package realizes frame theory over finite weighted measure spaces, where
every integral is a weighted sum and every operator identity can be checked
by dense linear algebra: frame/Bessel bounds, analysis/synthesis/frame
operators, duals, multipliers with their norm and Schatten budgets,
controlled and weighted variants, and exactly tight cyclic Gabor systems
plus sampled wavelet systems with a quadrature reproducing identity.
"""

from .errors import (
    ContractViolationError,
    InfeasiblePartitionError,
    InvalidDomainError,
    InvalidParameterError,
    InvalidSymbolError,
    NotAFrameError,
    NotInvertibleError,
    NumericFailureError,
    ShapeMismatchError,
)
from .measure import (
    MeasureSpace,
    Symbol,
    counting_space,
    integrate,
    lp_norm,
    partition,
    same_space,
    uniform_grid_1d,
    wavelet_grid,
)
from .hilbert import (
    adjoint,
    extreme_eigenvalues,
    hermitian_bounds,
    inner,
    invert,
    is_positive,
    operator_norm,
    schatten_norm,
    singular_values,
)
from .frame import (
    FrameBounds,
    SampledFrame,
    analysis,
    canonical_dual,
    duality_defect,
    frame_bounds,
    frame_operator,
    is_dual_pair,
    is_riesz_type,
    norm_bound,
    perturb,
    scaled_singleton,
    synthesis,
    tight_from_partition,
    unbounded_amplitude,
    weighted,
)
from .multiplier import (
    bound_budget,
    convergence_experiment,
    diag_singular_values,
    dual_from_multiplier,
    lower_bound_certificates,
    truncate_symbol,
)
from .tf_frames import (
    WaveletSpec,
    WindowSpec,
    admissibility_constant,
    bandlimited_bump,
    calderon_residual,
    gabor_frame,
    gabor_frame_operator,
    gaussian_window,
    log_freq_grid,
    mexican_hat_fourier,
    modulate,
    positive_axis_constant,
    stft,
    stft_orthogonality_residual,
    translate,
    wavelet_frame,
)
from .controlled import (
    ControlSpec,
    controlled_bounds,
    controlled_frame_operator,
    make_control,
    precondition_identity_residual,
)
from .reporting import Check, Report
from .suites import SuiteConfig, run_gabor, run_multiplier, run_suite, run_wavelet

__version__ = "0.1.0"
