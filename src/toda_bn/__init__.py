"""Type-Bn relativistic Toda chain with dual-route verification.

Exact (rational) and float realizations of the Lax matrix, its conserved
quantities, the continuous Hamiltonian flow, and the discrete Backlund
map; every construction is implemented along two independent routes so
each algebraic identity is an executable cross-check.
"""

from .backlund import (
    CommutationReport,
    KRFactors,
    backlund_conjugate,
    backlund_map,
    flow_commutation_check,
    iterate,
    kr_factors,
)
from .conserved import (
    PathWeightReport,
    path_weight_oracle,
    conserved_values,
    conserved_values_by_path,
    elementary_symmetric,
    elementary_symmetric_z_poly,
    f_poly,
    ideal_generator,
    interval_weight,
)
from .dynamics import (
    CanonicalPoint,
    Trajectory,
    chart_brackets,
    exact_flow,
    flow_conjugations,
    from_phase,
    hamilton_rhs,
    hamiltonian,
    hamiltonian_canonical,
    integrate,
    lax_rhs,
    poisson_structure,
    rk4_endpoint,
    to_phase,
)
from .errors import (
    DegeneratePointError,
    IndexMismatchError,
    ModeError,
    NotInGammaError,
    OutOfChartError,
    SingularMatrixError,
    StepBlowupError,
    TodaError,
    UnknownVariableError,
    ZeroBaseError,
)
from .laurent import LaurentPoly
from .lax import (
    GammaReport,
    PhasePoint,
    build_factors,
    build_lax,
    gamma_membership,
    lax_symbolic,
    parameters_from_lax,
)
from .linalg import SquareMatrix, mat_exp
from .splitting import (
    SplitPair,
    factor_minus_plus,
    factor_plus_minus,
    membership,
    pattern_dimension,
    project,
)

__version__ = "0.1.0"
