"""Few-photon interferometry with quantum frequency conversion.

Simulates photon-pair interference, two-mode frequency conversion,
quasi-phase-matched crystal spectra, and path-entangled phase metrology,
down to Monte Carlo photon counting and visibility fits.
"""

from .fock import (
    CapacityError,
    DEFAULT_MAX_PHOTONS,
    FockState,
    ModeId,
    ModeMismatchError,
    StateVector,
    apply_phase,
    apply_two_mode_mixer,
    basis_state,
    enumerate_basis,
    inner_product,
    noon_state,
    relabel_mode,
)
from .elements import (
    Circuit,
    CircuitElement,
    DetectorPattern,
    apply_circuit,
    beamsplitter,
    conversion_constant,
    detect,
    frequency_converter,
    internal_conversion_efficiency,
)
from .spectral import (
    CrystalSpec,
    GridError,
    NoSolutionError,
    PeakError,
    SellmeierCoefficients,
    Spectrum,
    WavelengthRangeError,
    acceptance_spectrum,
    coherence_length,
    emission_spectrum,
    filtered_spectrum,
    fwhm,
    hom_profile,
    load_sellmeier,
    overlap_kernel,
    parse_sellmeier,
    phase_mismatch,
    refractive_index,
    serialize_sellmeier,
    solve_poling_period,
    with_solved_poling,
)
from .experiments import (
    BudgetReport,
    EfficiencyChain,
    FitError,
    FitReport,
    ScanResult,
    SqlVerdict,
    bunching_scan,
    dip_visibility,
    efficiency_budget,
    fit_visibility,
    hom_scan,
    noon_fringe,
    noon_fringe_probabilities,
    peak_to_baseline_ratio,
    plate_phase,
    poisson_counts,
    sql_verdict,
)

__version__ = "0.1.0"
