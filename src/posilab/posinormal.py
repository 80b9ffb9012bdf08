"""Membership tests for the k-quasi n-power posinormal hierarchy.

An operator T belongs to the class at parameters (k, n, lambda) when the
Hermitian *gap matrix*

    T*^k (lambda^2 T*T - T^n T*^n) T^k

is positive semidefinite.  The k = 0, n = 1 case is posinormality in the
Rhaly sense (lambda^2 T*T >= TT*); k = 0 with general n is n-power
posinormality (T^n T*^n <= lambda^2 T*T).

Every query runs on one pencil: with C = T^{k+1} and D = T*^n T^k the
gap is also lambda^2 A - B, A = C*C and B = D*D, and the minimal lambda is
the root of the top eigenvalue of the pencil (B, A), found by
``min_lambda`` without search.

lambda only scales one term, so every other product depends on (T, k, n)
alone.  The module holds exactly one slot: for the last (T, k, n)
queried, its own copy of T and the products T^k, D, T*T, T^n T*^n, A and
B.  Its key is (k, n) and the bit pattern of T (so -0.0 and 0.0 differ);
a caller that changes its T in place therefore gets fresh products.
``min_lambda``, ``is_member`` and ``gap_matrix`` on one (T, k, n) form
these products once and then do only the lambda-dependent work, with the
same expressions in the same order, so a verdict is bit for bit the one a
cold call gives.  No held array is returned to a caller.  A new
(T, k, n) releases the slot before forming its products, and a formation
that raises leaves no slot.  Each call reads the slot once and replaces
it with one assignment, so concurrent callers at worst form the same
products twice.  ``classify_grid`` does not use the slot: it forms each
power of T once for all its cells, and C and the eigendecomposition of A
once per k.

A verdict computes the gap's eigenvalues only, with one eigvalsh; a
failing report holds its gap, and its witness is an eigh of that gap when
it is read.  Every norm threshold is settled with bounds first (the
largest column norm and the Frobenius norm bracket the spectral norm): an
SVD runs only when they straddle it, so every verdict is the one the exact
norm gives.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NumericalFailure, ValidationError
from .linalg import DEFAULT_TOL

# Relative slack of both norm comparisons in operator_norm_corollary_check:
# lhs <= rhs + _SHIFTED_TOL * max(lhs, rhs), so scaling T scales both sides
# and their slack alike and leaves the verdicts as they are.
_SHIFTED_TOL = 1e-9

# Agreement required between the two algebraic forms of the gap matrix.
_FORM_AGREEMENT_TOL = 1e-10


@dataclass(frozen=True)
class ClassQuery:
    """Membership parameters: quasi order k >= 0, power n >= 1, lam > 0."""

    k: int
    n: int
    lam: float

    def __post_init__(self):
        if not linalg.is_integer(self.k) or self.k < 0:
            raise ValidationError(f"k must be a non-negative integer, got {self.k!r}")
        if not linalg.is_integer(self.n) or self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n!r}")
        lam = float(self.lam)
        if not np.isfinite(lam) or lam <= 0.0:
            raise ValidationError(f"lambda must be a positive real, got {self.lam!r}")
        if not np.isfinite(lam * lam):
            raise NumericalFailure(f"lambda^2 overflows at lambda={self.lam!r}")


@dataclass(frozen=True)
class ClassReport:
    """Outcome of one membership query: the gap's smallest eigenvalue and
    norm, and a witness when the query fails.  A failing report holds its
    gap, and ``witness`` computes the eigenvector when it is read."""

    holds: bool
    gap_min_eigenvalue: float
    gap_norm: float
    _gap: np.ndarray | None = field(repr=False)  # the gap, when the query fails

    @property
    def witness(self) -> np.ndarray | None:
        """Unit vector x with <Gx, x> < 0 for the gap G, certifying failure,
        else None; one eigh of the gap per read."""
        return None if self._gap is None else np.linalg.eigh(self._gap)[1][:, 0].copy()


@dataclass(frozen=True)
class LambdaResult:
    """Minimal feasible lambda for fixed (k, n), or an obstruction.

    Infeasible means no lambda > 0 works: some unit x has T^{k+1} x ~ 0
    while T*^n T^k x is not negligible; that x is the kernel_obstruction.
    """

    feasible: bool
    lambda_min: float | None
    kernel_obstruction: np.ndarray | None


# The products of one (T, k, n) that do not depend on lambda: T (the slot's
# own copy), T^k, D = T*^n T^k, T*T, T^n T*^n, A = C*C and B = D*D, with
# C = T^{k+1}.  Neither T^n nor C is kept.
_Pencil = namedtuple("_Pencil", "k n t tk d tt tntn a b")

# The _Pencil of the last (T, k, n) queried, or None.
_slot = None


def _pencil(t, k: int, n: int) -> _Pencil:
    """Validate T, k, n; the slot's products when it holds this (T, k, n),
    else the products formed anew, which then replace the slot."""
    global _slot
    t = linalg.require_square(t)
    ClassQuery(k=k, n=n, lam=1.0)  # validates k, n
    held = _slot
    if (held is not None and (held.k, held.n) == (k, n)
            and np.array_equal(held.t.view(np.uint64),
                               np.ascontiguousarray(t).view(np.uint64))):
        return held
    held = _slot = None  # release the old products before forming new ones
    held = _form_pencil(np.array(t, order="C"), int(k), int(n))  # own copy of T
    _slot = held
    return held


@linalg.quiet_overflow
def _form_pencil(t, k: int, n: int) -> _Pencil:
    """The products of (T, k, n) from one T^k and one T^n.  Only C and D
    are checked for overflow here; A, B and the gap are checked where
    they are read."""
    tk, tn = linalg.matpow(t, k), linalg.matpow(t, n)
    c, d = _power_c(t, tk), _power_d(tk, tn)
    return _Pencil(k, n, t, tk, d, t.conj().T @ t, tn @ tn.conj().T, _gram(c), _gram(d))


@linalg.quiet_overflow
def _power_c(t, tk):
    """C = T^{k+1} from T and T^k."""
    return linalg.require_finite(t @ tk, "T^{k+1}")


@linalg.quiet_overflow
def _power_d(tk, tn):
    """D = T*^n T^k from T^k and T^n."""
    return linalg.require_finite(tn.conj().T @ tk, "T*^n T^k")


@linalg.quiet_overflow
def _gram(m):
    """m*m; overflow is checked where it is read."""
    return m.conj().T @ m


def _check_forms_agree(gap, gram) -> None:
    """Raise NumericalFailure if the gap forms overflow or differ beyond
    1e-10 relative."""
    diff = linalg.require_finite(gap - gram, "gap matrix")
    dev = linalg.deviation_beyond(diff, gap, _FORM_AGREEMENT_TOL)
    if dev is not None:
        raise NumericalFailure(f"gap-matrix forms disagree: relative deviation {dev:.3e}")


@linalg.quiet_overflow
def _checked_gap(p: _Pencil, lam: float):
    """The symmetrized gap at lam, from the definition form checked against
    the Gram form lam^2 A - B; of the products, only those that involve
    lam are formed here."""
    lam2 = float(lam) ** 2
    gap = p.tk.conj().T @ (lam2 * p.tt - p.tntn) @ p.tk
    _check_forms_agree(gap, lam2 * p.a - p.b)
    # Symmetrize away rounding-level asymmetry; both forms are Hermitian
    # in exact arithmetic.
    return linalg.symmetrize(gap)


def gap_matrix(t, k: int, n: int, lam: float) -> np.ndarray:
    """Gap matrix T*^k (lam^2 T*T - T^n T*^n) T^k, symmetrized.

    Cross-checked against the Gram form lam^2 C*C - D*D, bounds first;
    forms differing beyond 1e-10 relative raise NumericalFailure.
    """
    return _checked_gap(_pencil(t, k, n), ClassQuery(k=k, n=n, lam=float(lam)).lam)


def _verdict(p: _Pencil, lam: float, tol: float) -> ClassReport:
    """Membership of the pencil's gap at lam: PSD when the smallest
    eigenvalue lo >= -tol * max(1, s), s = ||D||^2.  The exact s, an SVD of
    D, runs only when the bounds on ||D*D||_2 straddle the threshold."""
    # Equal to its adjoint bit for bit: no asymmetry check or copy needed.
    gap = _checked_gap(p, lam)
    w = np.linalg.eigvalsh(gap)
    lo = float(w[0])
    holds = linalg.at_most_scaled(-lo, tol, p.b, lambda: linalg.operator_norm(p.d) ** 2)
    return ClassReport(holds, lo, float(np.max(np.abs(w))), None if holds else gap)


def is_member(t, query: ClassQuery, tol: float = DEFAULT_TOL) -> ClassReport:
    """Decide membership at ``query``; carries the gap's smallest eigenvalue
    and norm, and a witness when it fails.

    The PSD threshold is -tol * max(1, s) with s = ||D||^2, the norm of
    the subtracted Gram term (T*^n T^k)*(T*^n T^k).  Unlike the full gap
    norm s does not grow with lambda, so a fixed negative direction stays
    detected for arbitrarily large lambda, and verdicts stay monotone in
    lambda and covariant under scaling of T.

    An SVD of D runs only when the bounds on s cannot decide.  The verdict
    computes the gap's eigenvalues only, with one eigvalsh; a failing
    report holds the gap, and reading its witness runs one eigh of it.

    The products that do not involve lambda (T^k, D, T*T, T^n T*^n, A = C*C
    and B = D*D) come from the module's one slot when it holds the same k,
    n and bit pattern of T, and are formed anew into it otherwise.  A call
    then forms lam^2 T*T - T^n T*^n, its two products with T^k and
    lam^2 A - B, cross-checks the two forms and computes the eigenvalues.
    """
    return _verdict(_pencil(t, query.k, query.n), query.lam, tol)


def require_member(t, query: ClassQuery, tol: float, name: str) -> None:
    """ValidationError unless ``name`` (the operator t) is a member at query."""
    report = is_member(t, query, tol)
    if not report.holds:
        raise ValidationError(f"{name} is not a member at its query; "
                              f"gap min eigenvalue {report.gap_min_eigenvalue:.3e}")


def min_lambda(t, k: int, n: int, tol: float = DEFAULT_TOL) -> LambdaResult:
    """Minimal lambda making T a member at (k, n), by pencil compression.

    With A = (T^{k+1})*(T^{k+1}) and B = (T*^n T^k)*(T*^n T^k), membership
    at lambda is lambda^2 A >= B.  Feasibility is the kernel inclusion
    ker A subset ker B (numerically: B-energy of A's null directions below
    tol relative).  When feasible, the minimal lambda is

        lambda_min = sqrt( max eigenvalue of R* B R ),

    where R maps onto A's positive eigenspace and scales it to identity.
    ||B||_2 (an SVD) is computed only when its bounds cannot settle the
    kernel test.

    A and B come from the module's one slot, keyed by k, n and the bit
    pattern of T, which is_member on the same (T, k, n) reads too; a
    different (T, k, n) forms them anew and replaces the slot.
    """
    p = _pencil(t, k, n)
    return _min_lambda(_gram_eigen(p.a), p.b, tol)


@linalg.quiet_overflow
def _gram_eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w ascending, V) of A = C*C, C = T^{k+1}.  A Gram matrix
    is Hermitian by construction, so only overflow is checked."""
    linalg.require_finite(a, "(T^{k+1})*T^{k+1}")
    return np.linalg.eigh(linalg.symmetrize(a))


@linalg.quiet_overflow
def _min_lambda(a_eigen, b, tol: float) -> LambdaResult:
    """min_lambda from A's eigenpairs (_gram_eigen) and B = D*D."""
    w, v = a_eigen
    linalg.require_finite(b, "(T*^n T^k)*T*^n T^k")
    a_max = float(w[-1])
    positive = w > tol * a_max if a_max > 0 else np.zeros_like(w, dtype=bool)

    v_ker = v[:, ~positive]
    if v_ker.shape[1] > 0:
        compressed = v_ker.conj().T @ b @ v_ker
        kw, kv = np.linalg.eigh(linalg.symmetrize(compressed))
        worst = float(kw[-1])
        if not linalg.at_most_scaled(worst, tol, b, lambda: linalg.operator_norm(b)):
            direction = v_ker @ kv[:, -1]
            direction = direction / np.linalg.norm(direction)
            return LambdaResult(feasible=False, lambda_min=None,
                                kernel_obstruction=direction)

    if not positive.any():
        # A vanishes and B passed the kernel test, so B vanishes too:
        # every lambda works.
        return LambdaResult(feasible=True, lambda_min=0.0, kernel_obstruction=None)

    v_pos = v[:, positive]
    r = v_pos * (w[positive] ** -0.5)
    pencil = r.conj().T @ b @ r
    top = float(np.linalg.eigvalsh(linalg.symmetrize(pencil))[-1])
    return LambdaResult(feasible=True, lambda_min=float(np.sqrt(max(top, 0.0))),
                        kernel_obstruction=None)


def _order(m, k: int) -> int:
    """The shifted order m, validated as an integer >= k."""
    if not linalg.is_integer(m) or m < k:
        raise ValidationError(f"m must be an integer >= k={k}, got {m!r}")
    return int(m)


@dataclass(frozen=True)
class NormCorollaryReport:
    """Operator-norm consequence ||T*^n T^m|| <= lam ||T^{m+1}||.

    ``holds`` asserts the first-power form, which follows from the vector
    inequality by taking suprema.  The squared-lambda variant is evaluated
    and reported but never asserted.
    """

    holds: bool
    lhs: float
    rhs_first_power: float
    rhs_squared: float
    holds_squared: bool


def operator_norm_corollary_check(t, k: int, n: int, lam: float,
                                  m: int) -> NormCorollaryReport:
    """Check the operator-norm inequality, with relative slack 1e-9, for a
    member at (k, n, lam)."""
    query = ClassQuery(k=k, n=n, lam=float(lam))
    m = _order(m, k)
    require_member(t, query, DEFAULT_TOL, "operator")
    p = _pencil(t, m, n)
    lhs = linalg.operator_norm(p.d)
    base = linalg.operator_norm(p.t @ p.tk)  # ||T^{m+1}||
    rhs1 = query.lam * base
    rhs2 = query.lam ** 2 * base
    return NormCorollaryReport(
        holds=lhs <= rhs1 + _SHIFTED_TOL * max(lhs, rhs1),
        lhs=lhs,
        rhs_first_power=rhs1,
        rhs_squared=rhs2,
        holds_squared=lhs <= rhs2 + _SHIFTED_TOL * max(lhs, rhs2),
    )


@dataclass(frozen=True)
class NilpotencyReport:
    """Collapse of T^k for nilpotent members (T^{k+1} = 0).

    The collapse T^k = 0 is provable only when k >= n (the argument
    factors through T^{k-n}); ``asserted`` records whether this run was in
    the provable regime.  For k < n the measured norm is reported without
    a verdict being claimed.
    """

    asserted: bool
    norm_t_k: float
    bound: float
    passes: bool


def nilpotency_collapse_check(t, k: int, n: int) -> NilpotencyReport:
    """Check that T^{k+1} = 0 plus membership forces T^k = 0 (for k >= n);
    "zero" means at most DEFAULT_TOL * max(1, ||T||)^power."""
    p = _pencil(t, k, n)
    t_norm = linalg.operator_norm(p.t)
    power_bound = DEFAULT_TOL * max(1.0, t_norm) ** (k + 1)
    if linalg.operator_norm(p.t @ p.tk) > power_bound:
        raise ValidationError(f"T^{k + 1} is not numerically zero")
    if not min_lambda(t, k, n).feasible:
        raise ValidationError(
            "operator is not a member at (k, n) for any lambda"
        )
    measured = linalg.operator_norm(p.tk)
    bound = DEFAULT_TOL * max(1.0, t_norm) ** k
    return NilpotencyReport(
        asserted=k >= n,
        norm_t_k=measured,
        bound=bound,
        passes=measured <= bound,
    )


def classify_grid(t, k_max: int,
                  n_max: int) -> dict[tuple[int, int], LambdaResult]:
    """min_lambda (at DEFAULT_TOL) over the parameter grid 0 <= k <= k_max,
    1 <= n <= n_max, without the slot: each power of T is formed once, and
    C = T^{k+1} and the eigendecomposition of A = C*C, which depend on k
    only, once per k."""
    t = linalg.require_square(t)
    ClassQuery(k=k_max, n=n_max, lam=1.0)  # validates k_max, n_max
    powers = [linalg.matpow(t, j) for j in range(max(k_max, n_max) + 1)]
    grid = {}
    for k in range(k_max + 1):
        c, a_eigen = _power_c(t, powers[k]), None
        for n in range(1, n_max + 1):
            d = _power_d(powers[k], powers[n])
            if a_eigen is None:  # after D's check, in min_lambda's order
                a_eigen = _gram_eigen(_gram(c))
            grid[(k, n)] = _min_lambda(a_eigen, _gram(d), DEFAULT_TOL)
    return grid
