"""Steering activation in entanglement-swapping networks.

Small dense-matrix toolbox for two-qubit steering criteria, Bell-state
measurement swaps on chains and three-branch stars, canonical state forms,
and grid scans of the activation regions.
"""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    EvaluationError,
    InternalError,
    NumericIntegrityError,
    SingularMarginalError,
    SizeError,
    StateError,
    SteernetError,
)
from .qmat import (
    DensityMatrix,
    ValidationReport,
    basis_ket,
    partial_trace,
    validate_density,
)
from .bloch import (
    BlochForm,
    DiagonalizedForm,
    decompose,
    diagonalize_correlation,
    reconstruct,
)
from .families import (
    gamma1,
    gamma2,
    gamma_f3,
    make_state,
    omega,
    omega_canonical,
    omega_unsteerable,
    phi_branch_f3,
    psi_branch_f3,
    werner,
)
from .netswap import MeasurementBasis, SwapOutcome, bell_basis, bsm_swap, reduced_pairs, star_basis, star_swap
from .optimize import (
    OptConfig,
    OptResult,
    max_unit_sphere,
    swap_criterion_ceiling,
    swap_criterion_value,
    unit_vector,
)
from .criteria import (
    CanonicalForm,
    CriterionReport,
    MeasurementTriad,
    bell_local_3322,
    bowles_unsteerable,
    canonical_form,
    canonical_map,
    chsh_max,
    cjwr_max,
    cjwr_value,
    closed_form_unsteerable,
    f3_value,
    i3322_max,
    reduced_steering,
)
from .sweep import GridSpec, SweepCell, SweepResult, scan_genuine, scan_linear, scan_star
