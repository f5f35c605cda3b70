"""circlekit: a workbench for the Gauss circle problem.

Exact error terms P(x) (lattice points in a disk) and Delta(x) (divisor
summatory function), correlation sums sum r(n) r(n+h) with their exact
rational main terms, quadratic Gauss sums, Bessel/cosine series
representations of P, and Laplace transforms of P^2 and Delta^2 with
main-term constants and remainder-order scans.
"""

__version__ = "0.1.0"

from .arith import (
    ArithTables,
    build_tables,
    chi,
    g_closed,
    g_direct,
    g_identity_first_failure,
    r_single,
    v2,
)
from .correlate import (
    CorrelationRecord,
    corr_grid,
    corr_sum,
    e_term,
    pointwise_bound_report,
)
from .errors import CapacityError, CircleKitError
from .laplace import (
    A1_EXPECTED,
    LaplaceEstimate,
    SeriesConstant,
    fit_a1,
    laplace_d2,
    laplace_main,
    laplace_p2,
    residual_scan,
    series_constant,
    series_limit,
)
from .lattice import (
    CIRCLE,
    DIVISOR,
    EULER_GAMMA,
    StepProfile,
    error_term,
    mean_square_p,
    p_gauss_oracle,
    pointwise_report,
    step_profile,
)
from .special import (
    BESSEL_SWITCH,
    bessel_j,
    bessel_oracle,
    gauss_sum_sq,
    hardy_partial,
    truncated_p,
)

__all__ = [name for name in dir() if not name.startswith("_")]
