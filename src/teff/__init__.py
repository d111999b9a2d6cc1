"""Effective quantum numbers for centrally symmetric potentials.

The pipeline: parse a potential, slice its effective radial function at
an energy, evaluate the phase-space transforms chi_d, derive the slope
phi, and use T = nu + phi*lambda to order levels, build shell-filling
sequences and invert the quantization condition for approximate
spectra, with a direct radial-equation eigensolver as ground truth.
"""

from .errors import (
    BracketMiss,
    Divergent,
    LambdaTooSmall,
    MultipleMaxima,
    NoBoundState,
    NoClassicalRegion,
    NoConvergence,
    NumericsError,
    PotentialError,
    TeffError,
)
from .ordering import (
    DiagramData,
    QuantumLevel,
    ShellSequence,
    degeneracy,
    diagram_data,
    diagram_to_csv,
    diagram_to_json,
    leading_degeneracy,
    ordering_theorem_signs,
    regge_sign_check,
    shell_sequence,
    spectroscopic_label,
    teff,
    teff_nonlinear,
)
from .oracle import (
    bracket_bound_state,
    exact_reference_spectrum,
    numerov_eigenvalue,
    solve_bound_state,
)
from .potentials import (
    EnergySlice,
    HardWall,
    Potential,
    PowerLaw,
    Quarkonium,
    ScreenedCoulomb,
    Tabulated,
    analyze_slice,
    parse_potential,
    tf_initial_slope,
    tf_screening,
)
from .quadrature import (
    action_I,
    bound_count_N,
    moment_M,
    nonlinearity_residual,
    reduced_moment,
)
from .spectrum import (
    SpectrumEntry,
    enumerate_bound_states,
    power_law_scaling_check,
    quantize_energy,
)
from .transforms import (
    ChiProfile,
    adiabatic_correction,
    b_coefficients,
    chi_d,
    chi_infinity,
    chi_infinity_forms,
    chi_power_law_closed,
    chi_profile,
    phi_additive,
    phi_multiplicative,
    screened_deep_energy,
)

__version__ = "0.1.0"
