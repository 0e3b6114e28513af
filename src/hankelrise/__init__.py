"""Exact Hankel determinants of rising powers of recurrence terms.

Library layout:

  ring        exact scalars (integer / rational / sparse polynomial)
  sequence    second-order recurrences, rising powers, presets
  matgen      Hankel-type matrix construction and its anti-diagonal values
  determinant cofactor, fraction-free elimination, condensation, and the
              Desnanot-Jacobi triangle for one Hankel matrix or a strip
              of them along a run of anti-diagonal values
  closedform  product-formula evaluators for the determinant identities
  verify      oracle-vs-closed-form grids and randomized minor identities
  cli         command-line front end (seq / det / closed / verify / bench)
"""

from .ring import (
    DOMAINS,
    INTEGER,
    POLYNOMIAL,
    RATIONAL,
    DomainMismatchError,
    ExactScalar,
    InexactDivisionError,
    NotInvertibleError,
    OpCounter,
    Poly,
    add,
    count_ops,
    exact_div,
    integer,
    mul,
    neg,
    one,
    pow_signed,
    rational,
    sub,
    variable,
    widen,
    zero,
)
from .sequence import (
    PRESETS,
    RecurrenceSpec,
    SequenceCache,
    companion,
    companion_cache,
    delta,
    preset,
    symbolic_spec,
)
from .matgen import MatrixQuery, SquareMatrix, build
from .determinant import (
    DetReport,
    det_bareiss,
    det_cofactor,
    det_condensation,
)
from .closedform import (
    carlitz_rhs,
    generalized_vajda_lhs,
    generalized_vajda_rhs,
    hankel_rank_bound_value,
    prodinger_rhs,
    theorem1_rhs,
    theorem2_rhs,
    vajda_lhs,
    vajda_rhs,
)
from .verify import GridSpec, Lcg64, VerifyReport, report_json, run_grid, run_random_dj

__version__ = "0.1.0"
