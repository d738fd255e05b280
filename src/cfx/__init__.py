"""Continued-fraction expansions of e, e^n, e^{l/n}, the incomplete gamma
function and the confluent hypergeometric function, with exact verification
of their closed-form identities."""

from .engine import (
    CoefficientRule,
    Convergent,
    ConvergentState,
    ExpansionSpec,
    TailSequence,
    convergents,
    equivalence_transform,
    estimate_limit,
    euler_wallis_step,
    iter_convergents,
    successive_difference,
    unshift_first_step,
    waadeland_limit,
)
from .families import (
    FAMILY_IDS,
    make_classical,
    make_confluent_1f1,
    make_e_euler,
    make_exp_inv_n,
    make_exp_n,
    make_exp_n_shifted,
    make_family,
    make_inc_gamma,
    make_m_fraction,
    make_m_fraction_diagonal,
    make_rat_exp,
    same_convergents,
)
from .identities import SUITE_IDS, VerificationReport, run_suite
from .kernel import (
    BigInt,
    BigRational,
    CFXError,
    ComplexParam,
    DomainError,
    NonConvergenceError,
    ParameterError,
    PrecisionError,
    SingularError,
    arg_in_cut_plane,
    factorial,
    pochhammer,
)
from .oracle import (
    SeriesResult,
    exp_series,
    hyp_1f1,
    hyp_2f2,
    inc_gamma_normalized,
    sigma_partial,
)

__version__ = "0.1.0"
