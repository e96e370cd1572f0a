"""Exact Dedekind-Rademacher sums and mechanical reciprocity verification.

The library evaluates every classical and generalized Dedekind-type sum
family exactly from its defining sum over rationals (term by term, or for
large moduli in closed form over the stretches where the summand is one
polynomial), verifies each reciprocity law by computing both sides
independently and asserting a zero residual, and double-checks the convergent-series facts behind the theory
with tolerance-bounded floating-point truncations.

Every sum family reads one bounded memo of lattice sums, keyed by integers;
``clear_caches()`` drops it and the two other memos (``sums.count_ladder``
and the one kernel memo), and ``cache_stats()`` reports each one's use.
"""

from types import ModuleType as _ModuleType

from .analytic import (
    TruncationReport,
    fourier_partial,
    lemma22_exact,
    lemma24_check,
    lemma27_check,
    lemma28_exact,
    zeta_even_check,
)
from .bernoulli import (
    BernoulliCache,
    bernoulli_function,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_coeffs,
    bernoulli_poly_derivative_coeffs,
    carlitz_kernel,
    sawtooth,
)
from .exact import (
    Rational,
    binomial,
    floor_frac,
    format_rational,
    gcd_pos,
    is_integer,
    mod_inverse,
    parse_rational,
    sgn,
)
from .reciprocity import (
    IDENTITIES,
    HypothesisError,
    IdentityCase,
    IdentityReport,
    check_apostol,
    check_berndt,
    check_carlitz,
    check_cor32,
    check_cor34,
    check_cor42,
    check_cor43,
    check_cor45,
    check_dedekind,
    check_rademacher15,
    check_rademacher_rad,
    check_rademacher_three,
    check_thm31,
    check_thm33,
    check_thm41,
    check_thm44,
    cache_stats,
    clear_caches,
    random_case,
    run_case,
)
from .sums import (
    SumRequest,
    apostol_s,
    berndt_s,
    carlitz_s,
    classical_s,
    count_ladder,
    hwz_s,
    rademacher_s,
    s_mn_plain,
    s_mn_two,
    s_n_two,
)

# The public names are those imported above; the submodules are not.
__all__ = [name for name, value in list(globals().items())
           if name[0] != "_" and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
