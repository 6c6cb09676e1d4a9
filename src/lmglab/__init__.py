"""lmglab: exact-diagonalization laboratory for the finite-size LMG model.

Simulates symmetry-breaking dynamics near the ground state of the
Lipkin-Meshkov-Glick model at desk scale: localized near-ground states,
their two intrinsic O(1/N) oscillation frequencies, correlation functions,
perturbation-induced gaps, and the quasicrystal frequency-ratio
construction.
"""

from .evolve import (
    CorrelationResult,
    EigenSystem,
    ProjectedMode,
    TimeSeries,
    analytic_sum,
    correlation_fN,
    default_time_grid,
    eigensystem,
    ground_state,
    mean_field_ode,
    observable_series,
    projected_init,
    projected_solution,
    propagate,
)
from .model import (
    GroundLevel,
    LmgParams,
    MeanFieldAngles,
    NumericError,
    TrialState,
    build_hamiltonian,
    ground_M,
    isotropic_energies,
    lifetime_bound,
    mean_field_energy,
    mean_field_minimize,
    mean_field_state,
    trial_localized_state,
)
from .oracle import (
    FullSpaceOperators,
    OracleMismatchError,
    full_space_correlation,
    full_space_ground,
    full_space_operators,
    sector_vs_full_checks,
)
from .spectra import (
    IntrinsicFrequencies,
    LineSpectrum,
    ModeClass,
    Peak,
    ScalingFit,
    Spectrum,
    classify_mode,
    cut_and_project_sequence,
    find_peaks,
    frequency_scaling_fit,
    intrinsic_frequencies,
    line_spectrum,
    periodogram,
    quasicrystal_h,
)
from .spinspace import (
    BandedHermitianOperator,
    CollectiveOperators,
    SpinSector,
    StateVector,
    apply,
    basis_state,
    build_sector,
    collective_operators,
    expectation,
    normalized_state,
)
from .ssb import (
    DegeneratePtGap,
    GapResult,
    LocalizedState,
    two_well_eigenvalues,
    rotated_frame_angles,
    default_kick,
    degenerate_pt_gap,
    gamma0_gap_scan,
    localize_ground_state,
    newman_alpha,
    order_parameter,
    wkb_rate,
)

__version__ = "0.1.0"
