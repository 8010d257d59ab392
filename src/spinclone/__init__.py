"""Optimal joint measurement of two qubit spin components via cloning.

The package builds the saturating joint measurement for two spin axes,
dilates it to a projective measurement on an enlarged system, assembles
the corresponding cloning unitary, and evaluates cloning fidelities both
by closed forms and by an independent sphere-quadrature oracle.
"""

from .linalg import (
    ATOL,
    IDENTITY_2,
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_from_density,
    density_from_bloch,
    partial_trace,
    pauli_dot,
    spin_eigenstates,
    tensor,
)
from .measurement import (
    OUTCOME_LABELS,
    JointDistribution,
    MeasurementGeometry,
    NonSaturating,
    Povm4,
    beta_max,
    build_geometry,
    build_povm,
    chi_square,
    geometry_from_angles,
    joint_distribution,
    marginal_operators,
    optimality_lhs,
    sample_outcomes,
)
from .cloner import (
    CloneOutput,
    NaimarkBasis,
    OrthonormalityFailure,
    clone_mixed,
    clone_pure,
    clone_unitary,
    measure_and_prepare,
    naimark_basis,
    product_basis,
)
from .fidelity import (
    FidelityReport,
    f_av_closed,
    f_m_closed,
    f_mixed_closed,
    f_single_closed,
    fidelity_report,
    fidelity_reports,
    global_fidelity,
    haar_states,
    mixed_fidelity,
    sphere_average,
    sphere_grid,
    universal_baseline,
)

__version__ = "0.1.0"
