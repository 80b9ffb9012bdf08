"""Verification laboratory for k-quasi n-power posinormal operators.

Decides class membership of finite-dimensional operators, computes the
minimal feasibility parameter, performs the range/kernel block splitting,
checks the closure operations (restriction, isometry products, unitary
conjugation, tensor products), and realizes weighted conditional type
operators on finite measure spaces together with their blockwise
criteria.  The ``paper-verify`` harness recomputes every concrete claim
of the source article and reports match/mismatch per claim.
"""

# The one version string; pyproject.toml and paper-verify read it.
__version__ = "0.1.0"

from .errors import FileFormatError, NumericalFailure, ValidationError
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    operator_norm,
    spectrum,
)
from .posinormal import (
    ClassQuery,
    ClassReport,
    LambdaResult,
    classify_grid,
    gap_matrix,
    is_member,
    min_lambda,
    nilpotency_collapse_check,
    operator_norm_corollary_check,
)
from .structure import (
    Decomposition,
    decompose,
    dense_range_upgrade,
    isometry_product_check,
    restrict_to_invariant,
    spectrum_union_gap,
    tensor_check,
    unitary_conjugate_check,
)
from .condexp import (
    BlockPartition,
    FiniteMeasureSpace,
    WeightedConditionalOperator,
    build_operator,
    block_expectations,
    check_E_properties,
    lemma31_check,
    norm_formula_check,
    polar_decomposition_check,
    thm33_check,
    thm34_check,
    thm35_check,
)
from .verify import ClaimRecord, RunReport, run_claim_suite
