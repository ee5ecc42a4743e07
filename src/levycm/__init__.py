"""Numerical toolkit for Levy processes with completely monotone jumps.

Evaluation of Rogers functions (their characteristic exponents), spine and
monotone-profile computation, Wiener-Hopf factorization by three independent
methods, space-time fluctuation identities, and exact-path Monte Carlo
cross-validation.
"""

from .errors import (
    DomainError,
    EstimationError,
    LevycmError,
    MethodUnsupportedError,
    QuadratureError,
    RogersViolationError,
    SpineUndefinedError,
    ValidationError,
)
from .numerics import (
    QuadratureConfig,
    bisect_monotone,
    integrate_adaptive,
    make_rng,
    principal_log,
)
from .report import Check, VerifyReport
from .rogers import (
    LevyAtomic,
    LimitsResult,
    PhiRep,
    PhiTable,
    RationalFactor,
    RationalProduct,
    ShiftedSpec,
    StableSum,
    StableTerm,
    check_function_bounds,
    estimate_phi,
    eval_f,
    eval_f_prime,
    f_limits,
    is_compound_poisson,
    is_constant,
    is_degenerate,
    is_symmetric,
    levy_density,
    shift_spec,
    total_jump_rate,
    validate_spec,
)

__version__ = "0.1.0"
