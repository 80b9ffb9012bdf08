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
ran T^k = H).  This *pencil* is decided from the thin SVD
C' = U S W*, so neither T^{k+1} nor a Gram matrix C*C is formed, and the
conditioning that enters is that of T on ran T^k.  Q comes from a *range
ladder*, as ran T^{j+1} = T ran T^j: rung 0 is the thin SVD of T
(Q_0 = I), rung j+1 the thin SVD of T Q_{j+1}, Q_{j+1} the left singular
vectors of rung j above the cut DEFAULT_TOL * ||T||, the scale of the
rounding in T Q.  A rung that keeps its full rank has found a
T-invariant range and is every later rung too: for invertible T the whole
ladder is one SVD of T.

The pencil is *obstructed* when D' is not negligible on the kernel W0 of
C' (see LambdaResult): the gap then fails at every lambda.  Otherwise, in
the coordinates a = S+ W+* z of a vector Qz of ran T^k, the pencil has
the *normal form* lambda^2 I - M*M with M = D' W+ S+^-1: its eigenvalues
lambda^2 - mu_i, mu_i those of M*M, are the generalized eigenvalues of
(Q*HQ, C'*C') off the kernel of C', and lambda_min^2 = max mu_i (0 when T
vanishes on ran T^k, where the form is empty).  A verdict reads this
form.  Its ``gap_min_eigenvalue`` is lambda^2 - lambda_min^2, its
``gap_norm`` max_i |lambda^2 - mu_i|, and it holds iff
lambda^2 - lambda_min^2 >= -tol * lambda_min^2; an empty form reports 0
and 0 and holds.  An obstructed pencil reports -inf and inf: on W0, C'
vanishes and D' does not, so the generalized eigenvalue there is -inf.
The threshold scales with the form, so verdicts are monotone in lambda and
covariant under T -> cT, lambda -> |c|^(n-1) lambda.

The module holds one slot, keyed on the bit pattern of T alone (so -0.0
and 0.0 differ, and a caller that changes its T in place gets fresh
products): its own copy of T and, each formed when first asked for, the
powers T^n, the rungs and one pencil per rung and (n, tol), which every
k at or past the rung where the ladder ends reads (for invertible T, rung
0's).  A pencil is held as data: the eigenvalues mu of M*M, or the marker
_OBSTRUCTED.  min_lambda, classify_grid and is_member read the pencil, so
on a (T, rung, n, tol) seen before none of them makes a LAPACK call;
gap_matrix and the claim checks form their powers themselves.  Each
product has one expression, so a warm call gives the cold result bit for
bit, and no held array is returned to a caller.  A new T replaces the
slot before anything is formed; a product is stored into the slot's dict
once formed, so a formation that raises leaves nothing of it held and
concurrent callers at worst form a product twice.

Both failure certificates are computed when read, by _witness, from the
held rungs and T^n: the kernel obstruction of an obstructed pencil (the
top eigenvector of (D'W0)*(D'W0)), else the top eigenvector of M*M, each
from one eigh and pulled back through the rungs to a unit x whose T^k x
is the failing direction of ran T^k, at the verdict's own k.  A cold
verdict runs eigvalsh only.  The obstruction test reads the top
eigenvalue of (D'W0)*(D'W0) and is settled by linalg.at_most_scaled,
norm bounds first, so it is the one the exact norm gives.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NumericalFailure, ValidationError
from .linalg import DEFAULT_TOL, RESIDUAL_TOL


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
    """Outcome of one membership query, read from the normal form of its
    pencil on ran T^k (module docstring): the smallest eigenvalue
    lambda^2 - lambda_min^2 and the norm max_i |lambda^2 - mu_i| of the
    form, both 0 when T vanishes on ran T^k and -inf and inf when the
    pencil is obstructed, and a witness when the query fails."""

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
    on ran T^k).  Infeasible: no lambda > 0 works, because some unit x has
    T^{k+1} x ~ 0 while T*^n T^k x is not negligible: y = T^k x, scaled to
    a unit vector, has ||T*^n y||^2 > tol * ||T*^n P||^2, P the orthogonal
    projector onto ran T^k, and ||T*^n y|| > DEFAULT_TOL * ||T||^n.  That x
    is the kernel_obstruction, computed when read and pulled back from
    ran T^k through the held rungs, with the phase that makes its largest
    entry real and positive.
    """

    feasible: bool
    lambda_min: float | None
    _obstruction: object = field(repr=False)  # computes it, when infeasible

    @property
    def kernel_obstruction(self) -> np.ndarray | None:
        """The unit x above when infeasible, else None (one eigh and one
        norm per read)."""
        return None if self._obstruction is None else self._obstruction()


# The slot: its own copy of T, and the products of T that do not depend on
# lambda, by key: ("power", n) for T^n, ("rung", j) for rung j of the range
# ladder and ("pencil", j, n, tol) for the pencil on rung j, which every
# k >= j whose ladder ends at rung j reads: _OBSTRUCTED, or the eigenvalues
# mu of M*M, ascending.
_Slot = namedtuple("_Slot", "t held")

# Rung j of the range ladder, for an orthonormal basis Q of ran T^j (None
# at rung 0, where Q = I), from the thin SVD TQ = U S W*: wps = W+ S+^-1
# over the singular values above the cut DEFAULT_TOL * top, top = ||T||,
# w0 the right singular vectors below it, and next = U+, the basis of
# ran T^{j+1}.  A rung with an empty w0 keeps its full rank: ran T^{j+1}
# is ran T^j, and rung j+1 is rung j.
_Rung = namedtuple("_Rung", "q wps w0 next top")

# The held pencil of an obstructed rung, in place of mu.
_OBSTRUCTED = "obstructed"

# The _Slot of the last T queried, or None.
_slot = None


def _slot_for(t) -> _Slot:
    """Validate T; the slot when it holds T's bit pattern, else a new slot
    with its own copy of T and nothing formed, in place of the old one."""
    global _slot
    t = linalg.require_square(t)
    held = _slot
    if held is not None and np.array_equal(held.t.view(np.uint64),
                                           np.ascontiguousarray(t).view(np.uint64)):
        return held
    _slot = None  # release the old products before copying T
    _slot = held = _Slot(np.array(t, order="C"), {})
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
    bit for bit after.  It is formed here, from powers of T of its own;
    verdicts read the pencil's normal form instead."""
    lam = ClassQuery(k=k, n=n, lam=float(lam)).lam
    t = linalg.require_square(t)
    tk, tn = linalg.matpow(t, k), linalg.matpow(t, n)
    core = (lam ** 2 * linalg.require_finite(t.conj().T @ t, "T*T")
            - linalg.require_finite(tn @ tn.conj().T, "T^n T*^n"))
    return linalg.require_finite(linalg.symmetrize(tk.conj().T @ core @ tk),
                                 "gap matrix")


def is_member(t, query: ClassQuery, tol: float = DEFAULT_TOL) -> ClassReport:
    """Decide membership at ``query`` from the normal form of the held
    pencil (module docstring): fails at every lambda when the pencil is
    obstructed, else holds iff lambda^2 - lambda_min^2 >= -tol *
    lambda_min^2, and always when T vanishes on ran T^k.

    The first verdict or min_lambda on (T, rung, n, tol) forms the pencil:
    the ladder's SVDs, T^n and one eigvalsh of M*M (and one of the rung's
    kernel Gram when it has one; M*M is not formed when that obstructs);
    later verdicts on it make no LAPACK call.  Reading the witness of a
    failing report runs one eigh, of M*M or of the kernel Gram.
    """
    mu, witness = _pencil(_slot_for(t), query.k, query.n, tol)
    if mu is _OBSTRUCTED:
        return ClassReport(False, -np.inf, np.inf, witness)
    if not mu.size:  # T vanishes on ran T^k: the form is empty
        return ClassReport(True, 0.0, 0.0, None)
    lam2, top = float(query.lam) ** 2, _top(mu)
    lo = lam2 - top
    holds = lo >= -tol * top
    return ClassReport(holds, lo, float(np.max(np.abs(lam2 - mu))),
                       None if holds else witness)


def require_member(t, query: ClassQuery, tol: float, name: str) -> None:
    """ValidationError unless ``name`` (the operator t) is a member at query."""
    report = is_member(t, query, tol)
    if not report.holds:
        raise ValidationError(f"{name} is not a member at its query; "
                              f"gap min eigenvalue {report.gap_min_eigenvalue:.3e}")


@linalg.quiet_overflow
def _rung(t, below: _Rung | None) -> _Rung:
    """The rung of the range ladder above rung ``below`` (None: rung 0)."""
    q = None if below is None else below.next
    c = t if q is None else t @ q
    u, s, vh = linalg.lapack("svd", c, "T on ran T^j", full_matrices=False)
    top = float(s.max(initial=0.0)) if below is None else below.top
    rank = int(np.count_nonzero(s > DEFAULT_TOL * top))
    w = vh.conj().T
    return _Rung(q, w[:, :rank] / s[:rank], w[:, rank:].copy(),
                 u if rank == s.size else u[:, :rank].copy(), top)


def _ladder(slot: _Slot, k: int) -> list:
    """Rungs 0..k; a rung of full rank ends it and is rung k."""
    rungs, below = [], None
    for j in range(k + 1):
        below = _held(slot, ("rung", j), lambda: _rung(slot.t, below))
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
        return np.eye(slot.t.shape[0], dtype=complex)
    return _ladder(slot, k - 1)[-1].next.copy()


def _pull_back(t, rungs: list, k: int, z) -> np.ndarray:
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


def _d_prime(rung: _Rung, tn) -> np.ndarray:
    """D' = T*^n Q on ``rung`` (Q = I at rung 0), from T^n."""
    return tn.conj().T if rung.q is None else tn.conj().T @ rung.q


@linalg.quiet_overflow
def _form_pencil(n: int, tol: float, rung: _Rung, tn):
    """The pencil at (n, tol) on ``rung``, from T^n (see min_lambda):
    _OBSTRUCTED, or the eigenvalues mu of M*M, ascending."""
    dq = _d_prime(rung, tn)
    if rung.w0.shape[1]:
        dw = dq @ rung.w0
        top = float(linalg.lapack("eigvalsh", dw.conj().T @ dw, "(D'W0)*(D'W0)")[-1])
        rounding = (DEFAULT_TOL * np.float64(rung.top) ** n) ** 2  # of T^n
        if top > rounding and not linalg.at_most_scaled(top, tol, dq):
            return _OBSTRUCTED  # M*M is not formed: it may overflow
    if not rung.wps.shape[1]:  # T vanishes on ran T^k: the form is empty
        return np.zeros(0)
    m = dq @ rung.wps
    return linalg.lapack("eigvalsh", m.conj().T @ m, "M*M")


@linalg.quiet_overflow
def _witness(t, rungs: list, tn, k: int, obstructed: bool) -> np.ndarray:
    """The certificate of a failing verdict at quasi order k, from one eigh:
    the top eigenvector of the Gram matrix (D'B)*(D'B) that formed the
    pencil on the last rung, B = W0 for an obstruction and W+ S+^-1 for
    the normal form, pulled back from B's coordinates to x.  D' is formed
    again on read, so nothing N x r is held."""
    rung = rungs[-1]
    basis = rung.w0 if obstructed else rung.wps
    dw = _d_prime(rung, tn) @ basis
    v = linalg.lapack("eigh", dw.conj().T @ dw, "(D'B)*(D'B)")[1][:, -1]
    return _pull_back(t, rungs, k, basis @ v)


def _pencil(slot: _Slot, k: int, n: int, tol: float):
    """(pencil, certificate): the held pencil at (n, tol) on the last rung
    up to k, else formed and stored with the rungs and T^n it reads, and
    the _witness of a failing verdict at k, computed when called."""
    rungs = _ladder(slot, k)
    tn = _held(slot, ("power", n), lambda: linalg.matpow(slot.t, n))
    pencil = _held(slot, ("pencil", len(rungs) - 1, n, tol),
                   lambda: _form_pencil(n, tol, rungs[-1], tn))
    return pencil, functools.partial(_witness, slot.t, rungs, tn, k,
                                     pencil is _OBSTRUCTED)


def min_lambda(t, k: int, n: int, tol: float = DEFAULT_TOL) -> LambdaResult:
    """Minimal lambda making T a member at (k, n), from the pencil on rung
    k of the range ladder, TQ = U S W*, and D' = T*^n Q.

    Infeasible iff D' is not negligible on the rung's numerical kernel W0:
    ||D' W0||^2, the top eigenvalue of (D' W0)*(D' W0) from eigvalsh, is
    above tol * ||D'||^2, norm bounds of D' first, and above
    (DEFAULT_TOL * ||T||^n)^2, the fixed cut of the ladder applied to T^n,
    whose rounding is on the scale of ||T||^n.  The kernel_obstruction is
    computed when read: the top eigenvector a of that Gram matrix gives
    y = Q W0 a, and x is pulled back from it through the wps of the rungs
    below (T^k x is parallel to y).  Otherwise lambda_min =
    ||D' W+ S+^-1||_2, the root of the top eigenvalue of its Gram matrix,
    and 0.0 when T vanishes on ran T^k.  Both tests are relative, so
    scaling T by c scales lambda_min by |c|^(n-1) and keeps feasibility.
    The rank cut is fixed; tol decides the obstruction only.  Where a
    Gram matrix overflows, neither test can be read: NumericalFailure.
    """
    slot = _slot_for(t)
    ClassQuery(k=k, n=n, lam=1.0)  # validates k, n
    mu, obstruction = _pencil(slot, k, n, tol)
    if mu is _OBSTRUCTED:
        return LambdaResult(False, None, obstruction)
    return LambdaResult(True, float(np.sqrt(_top(mu))) if mu.size else 0.0, None)


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


@linalg.quiet_overflow
def operator_norm_corollary_check(t, k: int, n: int, lam: float,
                                  m: int) -> NormCorollaryReport:
    """Check the operator-norm inequality, with relative slack RESIDUAL_TOL
    (so scaling T leaves the verdicts alone), for a member at (k, n, lam)."""
    query = ClassQuery(k=k, n=n, lam=float(lam))
    m = _order(m, k)
    require_member(t, query, DEFAULT_TOL, "operator")
    t = linalg.require_square(t)
    tm, tn = linalg.matpow(t, m), linalg.matpow(t, n)
    lhs = linalg.operator_norm(tn.conj().T @ tm)
    base = linalg.operator_norm(t @ tm)  # ||T^{m+1}||
    rhs1 = query.lam * base
    rhs2 = query.lam ** 2 * base
    return NormCorollaryReport(
        holds=lhs <= rhs1 + RESIDUAL_TOL * max(lhs, rhs1),
        lhs=lhs,
        rhs_first_power=rhs1,
        rhs_squared=rhs2,
        holds_squared=lhs <= rhs2 + RESIDUAL_TOL * max(lhs, rhs2),
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


@linalg.quiet_overflow
def nilpotency_collapse_check(t, k: int, n: int) -> NilpotencyReport:
    """Check that T^{k+1} = 0 plus membership forces T^k = 0 (for k >= n);
    "zero" means at most DEFAULT_TOL * max(1, ||T||)^power, in float64;
    NumericalFailure when that bound overflows."""
    t = linalg.require_square(t)
    ClassQuery(k=k, n=n, lam=1.0)  # validates k, n
    tk = linalg.matpow(t, k)
    t_norm = np.float64(max(1.0, linalg.operator_norm(t)))
    power_bound = float(linalg.require_finite(DEFAULT_TOL * t_norm ** (k + 1),
                                              f"bound on T^{k + 1}"))
    if linalg.operator_norm(t @ tk) > power_bound:
        raise ValidationError(f"T^{k + 1} is not numerically zero")
    if not min_lambda(t, k, n).feasible:
        raise ValidationError(
            "operator is not a member at (k, n) for any lambda"
        )
    measured = linalg.operator_norm(tk)
    bound = float(DEFAULT_TOL * t_norm ** k)
    return NilpotencyReport(
        asserted=k >= n,
        norm_t_k=measured,
        bound=bound,
        passes=measured <= bound,
    )


def classify_grid(t, k_max: int,
                  n_max: int) -> dict[tuple[int, int], LambdaResult]:
    """min_lambda (at DEFAULT_TOL) over the parameter grid 0 <= k <= k_max,
    1 <= n <= n_max, on the one slot: the ladder up to rung k_max and each
    power T^n are formed once for the whole grid, and one pencil per rung
    and n (for invertible T, one per n: every k reads rung 0)."""
    linalg.require_square(t)
    ClassQuery(k=k_max, n=n_max, lam=1.0)  # validates k_max, n_max
    return {(k, n): min_lambda(t, k, n)
            for k in range(k_max + 1) for n in range(1, n_max + 1)}
