"""Membership tests for the k-quasi n-power posinormal hierarchy.

An operator T belongs to the class at parameters (k, n, lambda) when the
Hermitian *gap matrix*

    T*^k (lambda^2 T*T - T^n T*^n) T^k

is positive semidefinite.  The k = 0, n = 1 case is posinormality in the
Rhaly sense (lambda^2 T*T >= TT*); k = 0 with general n is n-power
posinormality (T^n T*^n <= lambda^2 T*T).

The gap tests H = lambda^2 T*T - T^n T*^n on ran T^k only: for Q an
orthonormal basis of ran T^k it is PSD iff Q*HQ = lambda^2 C'*C' - D'*D'
is, with C' = TQ and D' = T*^n Q (Proposition 2.9 is the case
ran T^k = H).  This *pencil* is decided from the thin SVD of C', so
neither T^{k+1} nor a Gram matrix C*C is formed, and the conditioning
that enters is that of T on ran T^k.  Q comes from a *range ladder* (see
_Rung), as ran T^{j+1} = T ran T^j: rung 0 is the thin SVD of T
(Q_0 = I), rung j+1 the thin SVD of T Q_{j+1}, Q_{j+1} the left singular
vectors of rung j that linalg.significant keeps at scale ||T||, the
scale of the rounding in T Q.  From dim 64 on, rung 0 first tries
linalg.certified_inverse, whose T^-1 stands in for the SVD when it
certifies that the cut keeps every singular value.

The pencil is *obstructed* when D' is not negligible on the kernel W0 of
C' (see LambdaResult): the gap then fails at every lambda.  Otherwise, in
the coordinates a = S+ W+* z of a vector Qz of ran T^k, the pencil has
the *normal form* lambda^2 I - M*M with M = D' W+ S+^-1: its eigenvalues
lambda^2 - mu_i, mu_i those of M*M, are the generalized eigenvalues of
(Q*HQ, C'*C') off the kernel of C', and lambda_min^2 = max mu_i (0 when T
vanishes on ran T^k, where the form is empty).  A verdict reads this
form (see is_member and ClassReport); an obstructed pencil reports -inf
and inf: on W0, C' vanishes and D' does not, so the generalized
eigenvalue there is -inf.
The threshold scales with the form, so verdicts are monotone in lambda and
covariant under T -> cT, lambda -> |c|^(n-1) lambda; for c = 2^j exactly.

The module holds one slot, keyed on the bit pattern of T alone (so -0.0
and 0.0 differ, and a caller that changes its T in place gets fresh
products): its own copy of T and S = 2^-e T, T normalized, on which the
powers S^n, the rungs and one pencil per rung and (n, tol) are formed when
first asked for (see _Slot; for invertible T, every k reads rung 0's).
S^n and M are held normalized too, so no product leaves the float range at
any scale or power, and T and 2^j T share every verdict and witness bit for
bit while their entries are normal floats.  min_lambda, is_member,
nilpotency_collapse_check and operator_norm_corollary_check convert the
values they report to T's units, by one exact power of two each; only
gap_matrix forms products in T's units.  On a (T, rung, n, tol) seen
before, min_lambda, classify_grid and is_member make no LAPACK call, and
nilpotency_collapse_check decides T^j = 0 on the held rungs.
Each product has one expression, so a warm call gives the cold result bit
for bit, and no held array is returned to a caller.  A new T replaces the
slot before anything is formed; a product is stored into the slot's dict
once formed, so a formation that raises leaves nothing of it held and
concurrent callers at worst form a product twice.

Both failure certificates are computed when read, by _witness, from the
held rungs and S^n: the kernel obstruction of an obstructed pencil (the
top eigenvector of (D'W0)*(D'W0)), else the top eigenvector of M*M, each
from one eigh and pulled back through the rungs to a unit x whose T^k x
is the failing direction of ran T^k, at the verdict's own k.  A cold
verdict runs eigvalsh only.
"""

import functools
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NumericalFailure, ValidationError
from .linalg import DEFAULT_TOL, RESIDUAL_TOL, saturating_ldexp


@dataclass(frozen=True)
class ClassQuery:
    """Membership parameters: quasi order k >= 0, power n >= 1, real lam > 0 (a float)."""

    k: int
    n: int
    lam: float

    def __post_init__(self):
        if not linalg.is_integer(self.k) or self.k < 0:
            raise ValidationError(f"k must be a non-negative integer, got {self.k!r}")
        if not linalg.is_integer(self.n) or self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n!r}")
        real = isinstance(self.lam, numbers.Real) and not isinstance(self.lam, bool)
        try:
            lam = float(self.lam) if real else np.nan
        except OverflowError as exc:  # an int or Fraction beyond the float range
            raise NumericalFailure(f"lambda overflows: {exc}") from exc
        if not np.isfinite(lam) or lam <= 0.0:
            raise ValidationError(f"lambda must be a positive real, got {self.lam!r}")
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class ClassReport:
    """Outcome of one membership query, read from the normal form of its
    pencil on ran T^k (module docstring): the smallest eigenvalue
    lambda^2 - lambda_min^2 and the norm max_i |lambda^2 - mu_i| of the
    form in T's units (+-inf beyond the float range), both 0 when T vanishes
    on ran T^k and -inf and inf when the pencil is obstructed, and a
    witness when the query fails."""

    holds: bool
    gap_min_eigenvalue: float
    gap_norm: float
    _witness: object = field(repr=False)  # computes the witness, when the query fails

    @property
    def witness(self) -> np.ndarray | None:
        """Unit vector x with <Gx, x> < 0 for the gap G, certifying failure,
        else None: the kernel obstruction, or the top eigenvector of M*M
        pulled back to x (one eigh and one norm per read)."""
        return None if self._witness is None else self._witness()


@dataclass(frozen=True)
class LambdaResult:
    """Minimal feasible lambda for fixed (k, n), or an obstruction.

    Feasible: T is a member at (k, n, lambda) for every lambda >=
    lambda_min, read from rung k of the range ladder (0.0 when T vanishes
    on ran T^k or when it underflows).  Infeasible: no lambda > 0 works,
    because some unit x has T^{k+1} x ~ 0 while T*^n T^k x is not
    negligible (the test of min_lambda): the kernel_obstruction, computed
    when read and pulled back from ran T^k through the held rungs.
    """

    feasible: bool
    lambda_min: float | None
    _obstruction: object = field(repr=False)  # computes it, when infeasible

    @property
    def kernel_obstruction(self) -> np.ndarray | None:
        """The unit x above when infeasible, else None (one eigh and one
        norm per read)."""
        return None if self._obstruction is None else self._obstruction()


# The slot: its own copy of T, the key; (S, e) = linalg.normalize(T); and
# the products of S that do not depend on lambda, by key: ("power", n) for
# S^n = 2^f P as (P, f) (linalg.normalized_power), ("rung", j) for rung j
# of the range ladder and ("pencil", j, n, tol) for the pencil on rung j,
# which every k >= j whose ladder ends at rung j reads, as a _Form.
_Slot = namedtuple("_Slot", "t s e held")

# A held pencil: its mu, _OBSTRUCTED or the eigenvalues, ascending, of
# (2^-f M)*(2^-f M), 2^-f M normalized, so lambda_min(S)^2 = 4^f max mu.
_Form = namedtuple("_Form", "mu f")

# Rung j of the range ladder of the slot's S, for an orthonormal basis Q of
# ran T^j (None at rung 0, where Q = I), from the thin SVD SQ = U S+ W*:
# wps = W+ S+^-1 over the singular values that linalg.significant keeps at
# scale top = ||S||, w0 the right singular vectors it cuts, and next = U+,
# the basis of ran T^{j+1}.  A rung with an empty w0 keeps its full rank:
# ran T^{j+1} is ran T^j, and rung j+1 is rung j.  Readers rely on
# SQ wps = next only, so a certified rung 0 (linalg.certified_inverse)
# holds wps = S^-1, next = I and an empty w0.  Its top is None: top is
# read only below a rung with a kernel, and a certified rung has none.
_Rung = namedtuple("_Rung", "q wps w0 next top")

# The mu of an obstructed pencil.
_OBSTRUCTED = "obstructed"

# The _Slot of the last T queried, or None.
_slot = None


def _holds(slot: _Slot | None, t) -> bool:
    """Whether t is a complex array with the bit pattern of the slot's T."""
    return (slot is not None and isinstance(t, np.ndarray)
            and t.dtype == slot.t.dtype and t.shape == slot.t.shape
            and np.array_equal(slot.t.view(np.uint64),
                               np.ascontiguousarray(t).view(np.uint64)))


def _slot_for(t) -> _Slot:
    """The slot when it holds T's bit pattern, else a new slot with its own
    copy of T, its S and nothing formed, in place of the old one.  T is validated
    unless it is the held T, which was validated when it was stored (a
    real or list T is compared after validation made it complex)."""
    global _slot
    held = _slot
    if _holds(held, t):
        return held
    t = linalg.require_square(t)
    if _holds(held, t):
        return held
    _slot = None  # release the old products before copying T
    t = np.array(t, order="C")
    _slot = held = _Slot(t, *linalg.normalize(t), {})
    return held


def _held(slot: _Slot, key, form):
    """The product under key: the held one, else form(), stored into the
    slot once formed."""
    value = slot.held.get(key)
    if value is None:
        value = slot.held[key] = form()
    return value


@linalg.quiet_overflow
def gap_matrix(t, k: int, n: int, lam: float) -> np.ndarray:
    """Gap matrix T*^k (lam^2 T*T - T^n T*^n) T^k of the definition,
    symmetrized: Hermitian in exact arithmetic, and equal to its adjoint
    bit for bit after.  It is formed here in T's units, from powers of T
    of its own, not the slot's; verdicts read the pencil's normal form."""
    lam = ClassQuery(k=k, n=n, lam=lam).lam
    t = linalg.require_square(t)
    tk, tn = (linalg.ldexp(*linalg.normalized_power(t, p)) for p in (k, n))
    core = (lam * lam * linalg.require_finite(t.conj().T @ t, "T*T")
            - linalg.require_finite(tn @ tn.conj().T, "T^n T*^n"))
    return linalg.require_finite(linalg.symmetrize(tk.conj().T @ core @ tk),
                                 "gap matrix")


def is_member(t, query: ClassQuery, tol: float = DEFAULT_TOL) -> ClassReport:
    """Decide membership at ``query`` from the normal form of the held
    pencil (module docstring): fails at every lambda when the pencil is
    obstructed, else holds iff lambda^2 - lambda_min^2 >= -tol *
    lambda_min^2, and always when T vanishes on ran T^k.  It compares
    2^-g lambda, lambda in the form's units, with the held mu: a square out
    of range decides by its side.

    The first verdict or min_lambda on (T, rung, n, tol) forms the pencil:
    the ladder's SVDs (for a certified rung 0, one det and one inverse
    instead), S^n and one eigvalsh of M*M (and one of the rung's kernel
    Gram when it has one; M*M is not formed when that obstructs); later
    verdicts on it make no LAPACK call.  Reading the witness of a
    failing report runs one eigh, of M*M or of the kernel Gram.
    """
    mu, g, witness = _pencil(_slot_for(t), query.k, query.n, tol)
    if mu is _OBSTRUCTED:
        return ClassReport(False, -np.inf, np.inf, witness)
    if not mu.size:  # T vanishes on ran T^k: the form is empty
        return ClassReport(True, 0.0, 0.0, None)
    lam = saturating_ldexp(query.lam, -g)
    lo, gap = lam * lam - _top(mu), float(np.max(np.abs(lam * lam - mu)))
    holds = lo >= -tol * _top(mu)
    return ClassReport(holds, saturating_ldexp(lo, 2 * g), saturating_ldexp(gap, 2 * g),
                       None if holds else witness)


def require_member(t, query: ClassQuery, tol: float, name: str) -> None:
    """ValidationError unless ``name`` (the operator t) is a member at query."""
    report = is_member(t, query, tol)
    if not report.holds:
        raise ValidationError(f"{name} is not a member at its query; "
                              f"gap min eigenvalue {report.gap_min_eigenvalue:.3e}")


@linalg.quiet_overflow
def _rung(s, below: _Rung | None) -> _Rung:
    """The rung of the range ladder of S above rung ``below`` (None: rung
    0): rung 0 from a certified inverse of S when there is one, else from
    the SVD of S Q."""
    if below is None:
        inverse = linalg.certified_inverse(s)
        if inverse is not None:
            dim = s.shape[0]
            return _Rung(None, inverse, np.zeros((dim, 0), dtype=complex),
                         np.eye(dim, dtype=complex), None)
    q = None if below is None else below.next
    c = s if q is None else s @ q
    u, sv, vh = linalg.lapack("svd", c, "T on ran T^j", full_matrices=False)
    top = float(sv.max(initial=0.0)) if below is None else below.top
    rank = int(np.count_nonzero(linalg.significant(sv, top)))
    w = vh.conj().T
    return _Rung(q, w[:, :rank] / sv[:rank], w[:, rank:].copy(),
                 u if rank == sv.size else u[:, :rank].copy(), top)


def _ladder(slot: _Slot, k: int) -> list:
    """Rungs 0..k; a rung of full rank ends it and is rung k."""
    rungs, below = [], None
    for j in range(k + 1):
        below = _held(slot, ("rung", j), lambda: _rung(slot.s, below))
        rungs.append(below)
        if not below.w0.shape[1]:
            break
    return rungs


def range_basis(t, k: int) -> np.ndarray:
    """Orthonormal basis of ran T^k, a copy of the held ladder's: the
    identity at k = 0, else the ``next`` basis of the last rung up to k - 1."""
    slot = _slot_for(t)
    ClassQuery(k=k, n=1, lam=1.0)  # validates k
    if k == 0:
        return np.eye(slot.s.shape[0], dtype=complex)
    return _ladder(slot, k - 1)[-1].next.copy()


def _pull_back(rungs: list, k: int, z) -> np.ndarray:
    """Unit x with T^k x parallel to Q z, Q the basis of ran T^k at the
    last rung and z in its coordinates, with the phase that makes its
    largest entry real and positive.  A ladder that ended at a full rung
    j < k first takes z back through T on the invariant ran T^j, k - j
    times (U+* Q maps Q's coordinates to those of U+)."""
    last = rungs[-1]
    if len(rungs) <= k:
        to_u = last.next.conj().T if last.q is None else last.next.conj().T @ last.q
        for _ in range(k + 1 - len(rungs)):
            z = last.wps @ (to_u @ z)
    for below in reversed(rungs[:-1]):  # T^k x = Q z, up to scale
        z = below.wps @ z
    top = z[np.argmax(np.abs(z))]
    x = z * (abs(top) / (top * linalg.lapack("norm", z, "certificate"))) + 0.0  # no -0.0
    return linalg.require_finite(x, "certificate")


def _top(mu) -> float:
    """lambda_min^2 = max mu_i of a nonempty normal form, clipped at 0."""
    return max(float(mu[-1]), 0.0)


def _d_prime(rung: _Rung, p) -> np.ndarray:
    """D' = P* Q on ``rung`` (Q = I at rung 0), S^n = 2^f P."""
    return p.conj().T if rung.q is None else p.conj().T @ rung.q


@linalg.quiet_overflow
def _form_pencil(n: int, tol: float, rung: _Rung, power) -> _Form:
    """The pencil at (n, tol) on ``rung`` (see min_lambda) from power = (P,
    f), S^n = 2^f P.  In P's units the floor is at least DEFAULT_TOL ||P||,
    so a kernel Gram below the float range is below it too, and a nonzero
    normalized M has ||M*M|| >= 1: no Gram matrix underflows into a verdict."""
    p, f = power
    dq = _d_prime(rung, p)
    if rung.w0.shape[1]:
        dw = dq @ rung.w0
        top = float(linalg.lapack("eigvalsh", dw.conj().T @ dw, "(D'W0)*(D'W0)")[-1])
        rounding = (DEFAULT_TOL * np.exp2(n * np.log2(rung.top) - f)) ** 2
        if top > rounding and not linalg.at_most_scaled(top, tol, dq):
            return _Form(_OBSTRUCTED, 0)  # M*M is not formed
    if not rung.wps.shape[1]:  # T vanishes on ran T^k: the form is empty
        return _Form(np.zeros(0), 0)
    m, g = linalg.normalize(dq @ rung.wps)
    return _Form(linalg.lapack("eigvalsh", m.conj().T @ m, "M*M"), f + g)


@linalg.quiet_overflow
def _witness(rungs: list, p, k: int, obstructed: bool) -> np.ndarray:
    """The certificate of a failing verdict at quasi order k, from one eigh:
    the top eigenvector of the Gram matrix (D'B)*(D'B) that formed the
    pencil on the last rung, B = W0 for an obstruction and W+ S+^-1 for
    the normal form, D'B normalized, pulled back from B's coordinates to
    x.  D' is formed again on read, so nothing N x r is held."""
    rung = rungs[-1]
    basis = rung.w0 if obstructed else rung.wps
    dw = linalg.normalize(_d_prime(rung, p) @ basis)[0]
    v = linalg.lapack("eigh", dw.conj().T @ dw, "(D'B)*(D'B)")[1][:, -1]
    return _pull_back(rungs, k, basis @ v)


def _power(slot: _Slot, n: int):
    """S^n = 2^f P as (P, f), held."""
    return _held(slot, ("power", n), lambda: linalg.normalized_power(slot.s, n))


def _pencil(slot: _Slot, k: int, n: int, tol: float):
    """(mu, g, certificate): the held pencil at (n, tol) on the last rung
    up to k, else formed and stored with the rungs and S^n it reads; g, with
    which a lambda of its form is 2^g lambda in T's units; and the _witness
    of a failing verdict at k, computed when called.  S^n is not formed
    when ran T^k = {0}."""
    rungs = _ladder(slot, k)
    if not rungs[-1].wps.shape[0]:  # Q has no columns
        return np.zeros(0), 0, None
    power = _power(slot, n)
    mu, f = _held(slot, ("pencil", len(rungs) - 1, n, tol),
                  lambda: _form_pencil(n, tol, rungs[-1], power))
    return (mu, f + slot.e * (n - 1),
            functools.partial(_witness, rungs, power[0], k, mu is _OBSTRUCTED))


def min_lambda(t, k: int, n: int, tol: float = DEFAULT_TOL) -> LambdaResult:
    """Minimal lambda making T a member at (k, n), from the pencil of the
    slot's S = 2^-e T on rung k, SQ = U S+ W*, and D' = S*^n Q.

    Infeasible iff D' is not negligible on the rung's numerical kernel W0:
    ||D' W0||^2, the top eigenvalue of (D' W0)*(D' W0) from eigvalsh, is
    above tol * ||D'||^2, norm bounds of D' first, and above the floor
    (DEFAULT_TOL * ||S||^n)^2, the ladder's cut applied to S^n and compared
    squared, not through linalg.significant.  The kernel_obstruction,
    computed when read, is that Gram matrix's top eigenvector pulled back to
    x (_witness).  Otherwise lambda_min = 2^(e(n-1)) ||D' W+ S+^-1||_2, 0.0
    when T vanishes on ran T^k or when it underflows, and NumericalFailure
    "lambda_min overflows" beyond the float range.  Both tests are relative
    and read S only, so scaling T by c scales lambda_min by |c|^(n-1) and
    keeps feasibility, bit for bit at c = 2^j.  The rank cut is fixed; tol
    decides the obstruction only.
    """
    slot = _slot_for(t)
    ClassQuery(k=k, n=n, lam=1.0)  # validates k, n
    mu, g, obstruction = _pencil(slot, k, n, tol)
    if mu is _OBSTRUCTED:
        return LambdaResult(False, None, obstruction)
    lam = saturating_ldexp(math.sqrt(_top(mu)), g) if mu.size else 0.0
    return LambdaResult(True, linalg.require_finite(lam, "lambda_min"), None)


def _order(m, k: int) -> int:
    """The shifted order m, validated as an integer >= k."""
    if not linalg.is_integer(m) or m < k:
        raise ValidationError(f"m must be an integer >= k={k}, got {m!r}")
    return int(m)


@dataclass(frozen=True)
class NormCorollaryReport:
    """Operator-norm consequence ||T*^n T^m|| <= lam ||T^{m+1}||, its
    values in T's units (+-inf beyond the float range).

    ``holds`` asserts the first-power form, which follows from the vector
    inequality by taking suprema.  The squared-lambda variant is evaluated
    and reported but never asserted: not homogeneous, it depends on scale.
    """

    holds: bool
    lhs: float
    rhs_first_power: float
    rhs_squared: float
    holds_squared: bool


def operator_norm_corollary_check(t, k: int, n: int, lam: float,
                                  m: int) -> NormCorollaryReport:
    """Check the operator-norm inequality for a member at (k, n, lam), with
    relative slack RESIDUAL_TOL, from the slot's powers S^j = 2^f P: the
    verdicts compare ||P_n* P_m|| with lam^i ||P_{m+1}|| in its units, lam
    moved there by exact powers of two, so no side leaves the float range."""
    query = ClassQuery(k=k, n=n, lam=lam)
    m = _order(m, k)
    require_member(t, query, DEFAULT_TOL, "operator")
    slot = _slot_for(t)
    (pm, fm), (pn, fn), (pb, fb) = (_power(slot, j) for j in (m, n, m + 1))
    lhs, g = linalg.operator_norm(pn.conj().T @ pm), fn + fm + (n + m) * slot.e
    (a, h), base = math.frexp(query.lam), linalg.operator_norm(pb)
    x = fb + (m + 1) * slot.e - g  # lam^i ||T^{m+1}|| = 2^(g + x + ih) a^i base, lam = 2^h a
    rhs1, rhs2 = (saturating_ldexp(a ** i * base, x + i * h) for i in (1, 2))
    return NormCorollaryReport(
        holds=lhs <= rhs1 + RESIDUAL_TOL * max(lhs, rhs1),
        lhs=saturating_ldexp(lhs, g),
        rhs_first_power=saturating_ldexp(a * base, g + x + h),
        rhs_squared=saturating_ldexp(a * a * base, g + x + 2 * h),
        holds_squared=lhs <= rhs2 + RESIDUAL_TOL * max(lhs, rhs2),
    )


@dataclass(frozen=True)
class NilpotencyReport:
    """Collapse of T^k for nilpotent members (T^{k+1} = 0).

    The collapse T^k = 0 is provable only when k >= n (the argument
    factors through T^{k-n}); ``asserted`` records whether this run was in
    the provable regime.  For k < n the measured norm is reported without
    a verdict being claimed.  ``passes`` reads T^k = 0 off the range ladder
    of S = 2^-e T, whose cut DEFAULT_TOL * ||S|| on every rung is 2^-e ``bound``.
    """

    asserted: bool
    norm_t_k: float
    bound: float
    passes: bool


def nilpotency_collapse_check(t, k: int, n: int) -> NilpotencyReport:
    """Check that T^{k+1} = 0 plus membership forces T^k = 0 (for k >= n);
    T^j = 0 iff the ladder's basis of ran T^j is empty, at any scale of T.
    ||T^k|| is reported as ||S^k|| 2^(ke), from the held S^k."""
    slot = _slot_for(t)
    ClassQuery(k=k, n=n, lam=1.0)  # validates k, n
    if range_basis(t, k + 1).shape[1]:
        raise ValidationError(f"T^{k + 1} is not numerically zero")
    collapsed = not range_basis(t, k).shape[1]  # the gap is 0: a member at every lambda
    if not collapsed and not min_lambda(t, k, n).feasible:
        raise ValidationError("operator is not a member at (k, n) for any lambda")
    (p, f), top = _power(slot, k), _ladder(slot, 0)[0].top
    return NilpotencyReport(k >= n, saturating_ldexp(linalg.operator_norm(p), f + k * slot.e),
                            saturating_ldexp(DEFAULT_TOL * top, slot.e), collapsed)


def classify_grid(t, k_max: int,
                  n_max: int) -> dict[tuple[int, int], LambdaResult]:
    """min_lambda (at DEFAULT_TOL) over the parameter grid 0 <= k <= k_max,
    1 <= n <= n_max, on the one slot: the ladder up to rung k_max and each
    power S^n are formed once for the whole grid, and one pencil per rung
    and n (for invertible T, one per n: every k reads rung 0)."""
    linalg.require_square(t)
    ClassQuery(k=k_max, n=n_max, lam=1.0)  # validates k_max, n_max
    return {(k, n): min_lambda(t, k, n)
            for k in range(k_max + 1) for n in range(1, n_max + 1)}
