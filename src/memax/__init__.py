"""memax: a desk-scale laboratory for Maxwell systems with memory.

Weighted-in-time signal spaces, operator-valued material laws with
accretivity certificates, mimetic staggered-grid curl operators, a
per-frequency spectral solution operator, fixed-point solvers with
contraction certificates, history conversion, and exponential-stability
diagnostics.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BallEscape,
    BlockSingular,
    ConfigError,
    FrequencySingular,
    GridTooCoarse,
    KernelRankTooHigh,
    MaxIterExceeded,
    MemaxError,
    NonCausalKernel,
    NonPositiveWeight,
    NotAContraction,
    NotCertified,
    OverdampedUnsupported,
    PoleHit,
    RankAmbiguous,
    WraparoundExceeded,
)
from .signals import (  # noqa: F401
    SampledKernel,
    SpectralSignal,
    TimeGrid,
    WeightedSignal,
    antiderivative,
    causal_convolve,
    delta_kernel,
    fourier_laplace,
    inverse_fourier_laplace,
    plain_laplace,
    read_signal,
    smooth_pulse,
    spectral_derivative,
    truncate_after,
    weighted_norm,
    write_signal,
)
from .materials import (  # noqa: F401
    AccretivityScan,
    DrudeLorentzParams,
    ModDLParams,
    PiecewiseMaterial,
    ScalarLaw,
    accretivity_scan,
    conductivity_law,
    dl_law,
    dl_time_kernel,
    eval_chi_dl,
    eval_dl,
    line_certificate,
    mod_dl_eval,
    mod_dl_g,
    mod_dl_law,
    re_zM_closed_form,
    schur_effective_law,
)
from .operators import (  # noqa: F401
    OperatorBundle,
    ProjectionBasis,
    YeeGrid,
    build_curl_pair,
    divergence_diagnostics,
    export_triplets,
    helmholtz_projections,
    poincare_constant,
)
from .spectral import (  # noqa: F401
    LinearProblem,
    SecondOrderProblem,
    SolutionOperator,
    SolveReport,
    second_order_solve,
    solve_linear,
    stack_rhs,
    verify_causality,
    verify_rho_independence,
    verify_time_regularity,
)
from .nonlinear import (  # noqa: F401
    BilinearNonlinearity,
    ContractionCertificate,
    DtPolarization,
    KernelSpec,
    NonlocalNonlinearity,
    QuadDtPolarization,
    QuadKernelSpec,
    SaturableNonlinearity,
    apply_P2,
    apply_P_nl,
    apply_cutoff,
    apply_dt_P_nl,
    ball_solve,
    compute_L_kappa,
    cutoff_loc_lip_bound,
    picard_solve,
    suggest_rho,
)
from .history import (  # noqa: F401
    BumpSpec,
    HistorySpec,
    build_g_phi,
    build_maxwell_inhomogeneity,
    check_compatibility,
    delta_spike_metric,
    history_from_solution,
    reconstruct_solution,
    smooth_jump,
)
from .stepper import OracleStepper, StepperState, energy_series  # noqa: F401
from .stability import (  # noqa: F401
    CapabilityRow,
    DecayFit,
    MdSystem,
    StabilityCertificate,
    build_Md,
    capability_matrix,
    certify_decay_rate,
    fit_decay_rate,
    make_divergence_free_data,
    md_from_scalar_law,
    projection_invertibility_check,
    render_capability_table,
    schur_accretivity_check,
    simulate_decay,
    verify_first_order_estimates,
)
from .config import RunConfig, default_config_dict  # noqa: F401
