"""Dense complex linear algebra kernels.

Every operator in the package is a dense complex matrix (``numpy.ndarray``
of dtype complex128).  A tolerance that callers set is a parameter; a
fixed one is an entry of the tolerance table below, which every module
reads, never a literal inside an algorithm.

A matrix a caller passes in is validated once, at entry.  A matrix the
package forms itself (a symmetrized gap is Hermitian by construction) is
checked only for overflow, never again for a property it has by design.
``lapack`` is the one place that calls numpy.linalg, and it owns that
check for every LAPACK operand: one that is not finite is a
NumericalFailure naming it ("<what> overflows"), and so is a LAPACK
failure (numpy's LinAlgError, such as an iteration that did not
converge).  So callers form operands under quiet_overflow and hand them
over unchecked; no other code guards or catches around a LAPACK call.

Target dimensions are small: tens, up to the low hundreds.  A weighted
conditional operator reaches these kernels only as its 2B x 2B
compression T_c, for the class tests, whatever its atom count; condexp's
other checks never form a 2B x 2B matrix but run batched numpy calls on
its (B, 2, 2) stack of blocks.  So robustness is preferred over speed
throughout.
"""

import numpy as np

from .errors import NumericalFailure, ValidationError

# The tolerance table: every fixed tolerance of posilab, with its scale and users.
# DEFAULT_TOL: the caller's decision tol when none is set (is_member,
# min_lambda, tensor_check, the CLI's --tol), and the relative slack of
# the condexp checks and check_E_properties, which have no tol of their
# own (x the scale at which a side's rounding occurs).  The rounding
# factor of posinormal's ladder cut (x ||T||; it also decides T^j = 0 for
# nilpotency_collapse_check) and obstruction floor (x ||T||^n), and of
# the eigenvalue cuts of condexp's _hermitian_power and
# polar_decomposition_check (x the largest eigenvalue).  Its inverse bounds
# ||M||_F ||M^-1||_F in certified_inverse, which so certifies that the
# ladder's cut keeps every singular value of M.  The absolute
# slack of a computed value against an exact one: verify's recomputed
# blocks and vanishing gaps.
DEFAULT_TOL = 1e-10
# SUPPORT_RTOL: condexp's support rule |v| > SUPPORT_RTOL * max|v|.
SUPPORT_RTOL = 1e-12
# RESIDUAL_TOL: the largest residual of structure's input checks
# (orthonormal, isometry, unitary; invariant x ||T||, commuting
# x ||T|| ||S||), and the relative slack of both comparisons of
# posinormal.operator_norm_corollary_check.
RESIDUAL_TOL = 1e-9
# AGREE_TOL: two computations of one number agree within it: spectrum()'s
# eigenvalue product against the determinant (relative), and verify's
# spectrum against {0, 1, 2} and obstruction against e1.  Also the step
# lambda_min (1 + AGREE_TOL) at which a member must hold: the CLI's
# certificate_holds_above, verify's Prop 2.6 restriction.
AGREE_TOL = 1e-8
# REPORT_TOL: scaled by ||T|| in spectrum_union_gap, eigenvalues closer
# than it are one value in a reported spectrum and it bounds the union gap
# (the CLI's decompose report, verify's union claim).  Absolute, it bounds
# verify's Example 3.6 moments.  Also the step lambda_min (1 + REPORT_TOL) of
# verify's _lam_above, and (1 - REPORT_TOL) of cli's certificate_fails_below.
REPORT_TOL = 1e-6

# spectrum() cross-checks the eigenvalues against the determinant up to this dim.
_DET_CHECK_MAX_DIM = 12
# certified_inverse tries its certificate from this dim on.  The certificate
# (det, inverse, two Frobenius norms) and a thin SVD break even between dims
# 16 and 32, at 1 and 2 OpenBLAS threads (numpy 2.4, 2 cores); at dim 64 the
# certificate takes 0.43 against 1.2 ms, at 128 1.5-2.2 against 6.2-6.7 ms.
# A certificate that fails is paid on top of the SVD, which at dim 64 adds
# at most about a third, where at 32 it would nearly double the rung.
_INVERSE_MIN_DIM = 64


def as_array(values, dtype, what: str) -> np.ndarray:
    """np.asarray(values, dtype); a ValidationError naming ``what`` if numpy fails."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: {exc}") from exc


def as_matrix(values) -> np.ndarray:
    """Coerce to a validated complex matrix (2-D, finite, at least 1x1)."""
    m = as_array(values, complex, "matrix")
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"matrix must be at least 1x1, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite (no NaN/inf)")
    return m


def require_square(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got {m.shape}")
    return m


def is_integer(value) -> bool:
    """The one test for integer inputs: an int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def quiet_overflow(fn):
    """Decorator: ``fn`` runs with numpy's overflow, invalid-value and
    division-by-zero warnings off.  Each decorated function gets its own
    ``np.errstate``, whose decorator form keeps its state per call, so
    calls nest and recurse; one instance shared as a ``with`` block could
    not be entered twice.  Arithmetic on validated data runs this way;
    require_finite or lapack then reports an overflow, or a division by a
    value that underflowed to 0, as a NumericalFailure, not as a warning."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")(fn)


def require_finite(m: np.ndarray, what: str) -> np.ndarray:
    """m itself; NumericalFailure when an entry overflowed to inf or nan."""
    if not np.isfinite(m).all():
        raise NumericalFailure(f"{what} overflows")
    return m


def lapack(name: str, operand, what: str, **options):
    """numpy.linalg.<name>(operand, **options); NumericalFailure "<what>
    overflows" when the operand is not finite, and NumericalFailure when
    the routine fails (LinAlgError).  The routine is looked up on
    np.linalg at each call, so a patched np.linalg sees every call."""
    require_finite(operand, what)
    try:
        return getattr(np.linalg, name)(operand, **options)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"{name} of {what} failed: {exc}") from exc


@quiet_overflow
def matpow(m, p: int) -> np.ndarray:
    """p-th power of a square matrix; p = 0 gives the identity."""
    m = require_square(m)
    if not is_integer(p) or p < 0:
        raise ValidationError(f"power must be a non-negative integer, got {p!r}")
    return require_finite(lapack("matrix_power", m, "base of a power", n=int(p)),
                          f"matrix power {p}")


def operator_norm(m) -> float:
    """Largest singular value; empty blocks have norm 0.  NumericalFailure
    when m is not finite: m is a product formed inside posilab."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(lapack("norm", m, "operand of an operator norm", ord=2))


def norm_bounds(m) -> tuple[float, float]:
    """lo <= ||m||_2 <= hi without an SVD: the largest column norm and the
    Frobenius norm (Golub & Van Loan, 2.3), widened by rounding so a test
    they settle agrees with operator_norm; (0, inf) on overflow."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(over="ignore"):  # squares summed without temporaries
        columns = (np.einsum("ij,ij->j", m.real, m.real)
                   + np.einsum("ij,ij->j", m.imag, m.imag))
    slack = 4.0 * m.size * np.finfo(float).eps
    hi = float(np.sqrt(columns.sum()) * (1.0 + slack))
    if not np.isfinite(hi):
        return 0.0, float("inf")
    return float(np.sqrt(columns.max()) * (1.0 - slack)), hi


def at_most_scaled(x: float, tol: float, m) -> bool:
    """x <= tol * s with s = ||m||_2^2: a relative test, so scaling x by
    c^2 and m by c leaves it as it is.  The SVD of m runs only when
    norm_bounds(m) straddle the threshold; NumericalFailure when s
    overflows."""
    lo, hi = norm_bounds(m)
    if hi * hi < np.inf:
        if x <= tol * lo * lo:
            return True
        if x > tol * hi * hi:
            return False
    s = operator_norm(m)
    return x <= tol * require_finite(s * s, "squared norm of the threshold scale")


def symmetrize(h) -> np.ndarray:
    """(H + H*)/2, the Hermitian part of H, equal to its adjoint bit for bit;
    for a stack of matrices, of each one (the adjoint is over the last two axes)."""
    return (h + h.conj().swapaxes(-1, -2)) / 2.0


def significant(values, tol: float) -> np.ndarray:
    """Mask of the values with |v| > tol * max|v|, none when all vanish: the
    rank rule for the eigenvalues of a PSD matrix and condexp's support rule
    for block means.  posinormal's range ladder cuts every rung T Q at
    DEFAULT_TOL * ||T||, a fixed rule."""
    mags = np.abs(np.asarray(values))
    return mags > tol * mags.max(initial=0.0)


def spectrum(m) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted by (real, imag).

    For dimensions <= 12 the eigenvalues are cross-checked against the
    determinant on M scaled by 2^-e, e the binary exponent of the largest
    real or imaginary part of M: det(2^-e M) against the product of the
    2^-e lambda_i.  The scaling is exact, so neither side overflows or
    underflows because of the scale of M.  A disagreement beyond AGREE_TOL
    relative raises NumericalFailure.  The eigenvalues returned are M's.
    """
    m = require_square(m)
    vals = np.sort_complex(lapack("eigvals", m, "matrix"))
    n = m.shape[0]
    if n <= _DET_CHECK_MAX_DIM:
        e = _exponent(m)
        det = complex(lapack("det", ldexp(m, -e), "2^-e M"))
        prod = complex(np.prod(ldexp(vals, -e)))
        # The one max(1, .) floor kept: 2^-e M has scale 1; relative needs an error model.
        scale = max(1.0, abs(det), abs(prod))
        if abs(det - prod) > AGREE_TOL * scale:
            raise NumericalFailure(
                f"eigenvalue product {prod:.6e} disagrees with determinant "
                f"{det:.6e} beyond relative {AGREE_TOL:.1e} (both times 2^{-e})"
            )
    return vals


def ldexp(z: np.ndarray, e: int) -> np.ndarray:
    """2^e z, exactly whenever no part leaves the float range."""
    return np.ldexp(z.real, e) + 1j * np.ldexp(z.imag, e)


def _exponent(m: np.ndarray) -> int:
    """The binary exponent e of the largest real or imaginary part of M:
    the parts of 2^-e M lie in (-1, 1), the largest at 1/2 or above."""
    return int(np.frexp(max(np.abs(m.real).max(), np.abs(m.imag).max()))[1])


@quiet_overflow
def certified_inverse(m: np.ndarray) -> np.ndarray | None:
    """M^-1 when it certifies sigma_min(M) > DEFAULT_TOL * ||M||_2 without
    an SVD, else None; always None below dim _INVERSE_MIN_DIM, where one
    SVD is cheaper.  M is square and finite.

    Everything is computed on S = 2^-e M (e from _exponent), an exact
    scaling, so the scale of M does not make det(S) underflow.  det(S) =
    0 is None without an inverse: an exact zero pivot of its LU, where
    inverting S would fail, or a product of pivots below the float range
    (singular values log-spaced over 1e9 at dim 128 are enough).
    Otherwise S^-1 is formed, and the certificate is ||S||_F ||S^-1||_F
    <= 1 / DEFAULT_TOL, each norm the upper bound of norm_bounds and the
    product widened by dim * eps / DEFAULT_TOL, the relative error of a
    computed inverse at that conditioning.  As ||X||_2 <= ||X||_F, it
    bounds sigma_max / sigma_min of M.  A non-finite inverse, or M^-1 =
    2^-e S^-1 leaving the float range, is None too.
    """
    dim = m.shape[0]
    if dim < _INVERSE_MIN_DIM:
        return None
    e = _exponent(m)
    scaled = ldexp(m, -e)
    if lapack("det", scaled, "2^-e M") == 0:
        return None
    inverse = lapack("matrix_power", scaled, "2^-e M", n=-1)
    rounding = 1.0 + dim * np.finfo(float).eps / DEFAULT_TOL
    if not norm_bounds(scaled)[1] * norm_bounds(inverse)[1] * rounding <= 1.0 / DEFAULT_TOL:
        return None  # also when the inverse is not finite: its bound is inf
    inverse = ldexp(inverse, -e)
    return inverse if np.isfinite(inverse).all() else None


def distinct_values(values, tol: float) -> list[complex]:
    """Collapse a multiset of complex numbers to representatives.

    Greedy clustering: a value joins an existing representative when it is
    within ``tol``; values are visited in sorted order so the result is
    deterministic.
    """
    reps: list[complex] = []
    for v in np.sort_complex(np.asarray(values, dtype=complex)):
        v = complex(v)
        if all(abs(v - r) > tol for r in reps):
            reps.append(v)
    return reps


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite nonempty sets of complex numbers."""
    a = [complex(x) for x in a]
    b = [complex(x) for x in b]
    if not a or not b:
        raise ValidationError("hausdorff_distance requires nonempty sets")
    d_ab = max(min(abs(x - y) for y in b) for x in a)
    d_ba = max(min(abs(x - y) for y in a) for x in b)
    return max(d_ab, d_ba)
