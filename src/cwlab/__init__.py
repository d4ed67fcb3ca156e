"""Restricted divisor sums, Chowla-Walum sums, and their summatory analysis.

Exact evaluators (rational arithmetic end to end), sublinear summatory
algorithms with brute-force oracles, high-precision main-term models with
error-exponent constants, an exact exponent-pair calculator, and a
residual-slope toolkit for empirical error exponents.
"""

from .bernoulli import (
    bernoulli_coefficients,
    bernoulli_fourier_truncated,
    bernoulli_func,
    bernoulli_poly,
    psi,
)
from .cw_sums import GSumSpec, block_g, g_sum, gsum_cutoff, shifted_psi_block_sum
from .divisors import (
    DivisorSpec,
    divisor_sum_restricted,
    integer_root,
    is_square,
    sigma_alpha,
    tau,
    tau_tilde_via_identity,
)
from .asymptotics import (
    MainTermModel,
    absorption_threshold,
    error_exponent,
    euler_gamma,
    euler_maclaurin_partial_sum,
    main_term_root_restricted,
    main_term_sqrt_restricted,
    restricted_model,
    root_restricted_model,
    sqrt_restricted_model,
)
from .exponent_pairs import (
    BOURGAIN_SEED,
    ExponentPair,
    apply_word,
    gsum_exponent_bound,
    settled_a_range,
    theorem4_exponents,
    transform_A,
    transform_B,
)
from .experiments import (
    DEFAULT_GRID,
    FitReport,
    GridSpec,
    cw_slope_test,
    fit_loglog,
    residual_series,
)
from .summatory import (
    SummatoryBreakdown,
    summatory_bruteforce,
    summatory_bruteforce_table,
    summatory_fast,
)

__version__ = "0.1.0"
