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
    ConfigError,
    FrequencySingular,
    KernelRankTooHigh,
    LinearSolveFailure,
    MaxIterExceeded,
    MemaxError,
    NonCausalKernel,
    NotAContraction,
    NotCertified,
    PoleHit,
    RankAmbiguous,
    UncertifiedLine,
    WraparoundExceeded,
)
from .signals import (  # noqa: F401
    SampledKernel,
    SpectralSignal,
    TimeGrid,
    WeightedSignal,
    causal_convolve,
    fourier_laplace,
    inverse_fourier_laplace,
    read_signal,
    smooth_pulse,
    spectral_derivative,
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
    eval_chi_dl,
    eval_dl,
    line_certificate,
    mod_dl_eval,
    mod_dl_g,
    mod_dl_law,
    re_zM_closed_form,
)
from .operators import (  # noqa: F401
    OperatorBundle,
    ProjectionBasis,
    YeeGrid,
    build_curl_pair,
    divergence_diagnostics,
    helmholtz_projections,
    poincare_constant,
)
from .spectral import (  # noqa: F401
    LinearProblem,
    SolutionOperator,
    SolveReport,
    solve_linear,
    stack_rhs,
    verify_causality,
    verify_rho_independence,
)
from .nonlinear import (  # noqa: F401
    BilinearNonlinearity,
    ContractionCertificate,
    DtPolarization,
    KernelSpec,
    QuadDtPolarization,
    QuadKernelSpec,
    SaturableNonlinearity,
    apply_P2,
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
    delta_spike_metric,
    history_from_solution,
    reconstruct_solution,
    smooth_jump,
)
from .stepper import OracleStepper, StepperState  # noqa: F401
from .stability import (  # noqa: F401
    CapabilityRow,
    DecayFit,
    MdSystem,
    StabilityCertificate,
    capability_matrix,
    certify_decay_rate,
    fit_decay_rate,
    make_divergence_free_data,
    md_from_scalar_law,
    projection_invertibility_check,
    render_capability_table,
    schur_accretivity_check,
    simulate_decay,
)
from .config import RunConfig, default_config_dict  # noqa: F401
