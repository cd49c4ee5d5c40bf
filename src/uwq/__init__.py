"""uwq: tau/Weyl/Anti-Wick quantization on discretized phase space.

Numerical and symbolic machinery for the global quantization calculus:
weight sequences and their associated functions, periodic grids with exact
discrete Fourier conventions, the Gaussian-window short-time Fourier
transform, quantization matrices, the exact polynomial expansion calculus,
and Gaussian-convolution / Laplace-transform identities.  Every structural
identity ships with a verification suite (``uwq verify``).
"""

from .constants import CONSTANTS_VERSION
from .errors import (
    OverflowDomainError,
    SaturationError,
    SchemaError,
    TailBoundError,
    UwqError,
)
from .expansion import (
    ClassParams,
    FormalExpansion,
    PolySymbol,
    aw_to_weyl_terms,
    compose_terms,
    expansion_partial_sum,
    gamma_norm_estimate,
    gaussian_moment,
    heat_quarter,
    inverse_aw_recursion,
    moment_coeff,
    poly_allclose,
    poly_derive,
    tau_change_terms,
    transpose_terms,
)
from .gaussconv import (
    CompactDensity,
    SeparableSymbol,
    conv_gauss_direct,
    conv_gauss_via_laplace,
    laplace,
    oscillatory_kernel,
    smooth_cutoff,
    smoothed_gaussian_symbol,
)
from .grid import (
    AxisGrid,
    FunctionGrid,
    PhaseFunctionGrid,
    fourier,
    gaussian_window,
    inner,
    inverse_fourier,
    l2_norm,
    load_function,
    load_phase,
    phase_inner,
    phase_l2_norm,
    quadrature,
    save_function,
    save_grid,
    save_phase,
)
from .quant import (
    KernelMatrix,
    OperatorMatrix,
    anti_wick_direct,
    anti_wick_matrix,
    apply_operator,
    gauss_smooth,
    hermite_function,
    kernel_from_symbol,
    kohn_nirenberg,
    operator_matrix,
    sample_symbol,
    symbol_from_kernel,
    verify_smoothing_identity,
    weyl,
)
from .stft import stft, stft_adjoint, stft_norm_check
from .suites import Report, SuiteParams, run_suite
from .weights import (
    AssocResult,
    Ultrapolynomial,
    WeightSequence,
    assoc_fn,
    check_assoc_bound,
    check_conditions,
    fit_bound_scale,
    load_weights,
    save_weights,
    ultrapoly_eval,
    verify_ultrapoly_bound,
)

__version__ = "0.1.0"
