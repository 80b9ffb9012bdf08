"""Structural consequences of membership.

Centerpiece: the block upper-triangular splitting of an operator whose
k-th power has non-dense range.  With Q = [range | kernel] assembled from
orthonormal bases of closure(T^k H) and ker(T*^k),

    Q* T Q = [[A, B], [0, C]],

the compression A inherits the k = 0 (n-power posinormal) property at the
same lambda, C is nilpotent of order k, and the distinct spectra satisfy
spectrum(T) = spectrum(A) union {0}.

The remaining checks package the closure operations: restriction to an
invariant subspace, multiplication by a commuting isometry, unitary
conjugation, the dense-range upgrade to the k = 0 class, and Kronecker
products of members.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, posinormal
from .errors import ValidationError
from .linalg import DEFAULT_TOL, REPORT_TOL, RESIDUAL_TOL, adjoint
from .posinormal import ClassQuery, ClassReport


@dataclass(frozen=True)
class Decomposition:
    """Block form of T on closure(T^k H) + ker(T*^k).

    ``residual_lower_left`` measures the lower-left block that the
    invariance of the range forces to vanish; ``nilpotency_residual`` is
    ||C^k||.  ``full_range`` flags the degenerate case rank(T^k) = dim,
    where the kernel part is empty and A is all of T (up to basis).
    """

    range_basis: np.ndarray   # orthonormal columns spanning closure(T^k H)
    kernel_basis: np.ndarray  # orthonormal columns spanning ker(T*^k)
    block_a: np.ndarray
    block_b: np.ndarray
    block_c: np.ndarray
    residual_lower_left: float
    nilpotency_residual: float
    full_range: bool

    def reconstruct(self) -> np.ndarray:
        q = np.hstack([self.range_basis, self.kernel_basis])
        upper = np.hstack([self.block_a, self.block_b])
        dim_k = self.kernel_basis.shape[1]
        lower = np.hstack([
            np.zeros((dim_k, self.block_a.shape[1]), dtype=complex),
            self.block_c,
        ])
        return q @ np.vstack([upper, lower]) @ adjoint(q)


def decompose(t, k: int, n: int) -> Decomposition:
    """Split T along closure(T^k H) + ker(T*^k) and extract the blocks.

    The range basis is posinormal's range ladder's (the identity at k = 0),
    cut at DEFAULT_TOL * ||T|| on every rung without forming T^k, so at any
    conditioning of T^k; ker(T*^k) comes from one complete QR of it.

    Works for arbitrary square T; the membership-dependent facts (A in the
    k = 0 class, spectrum union) are contracts on the output checked by
    the caller or the test-suite, not preconditions here.  When ran T^k is
    the whole space the degenerate splitting is returned with
    ``full_range`` set instead of failing, so pipelines can branch.
    """
    t = linalg.require_square(t)
    ClassQuery(k=k, n=n, lam=1.0)  # validates k, n
    q_range = posinormal.range_basis(t, k)
    rank, dim = q_range.shape[1], t.shape[0]
    q_kernel = (linalg.lapack("qr", q_range, "range basis", mode="complete")[0][:, rank:]
                if rank < dim else np.zeros((dim, 0), dtype=complex))
    block_a = adjoint(q_range) @ t @ q_range
    block_b = adjoint(q_range) @ t @ q_kernel
    block_c = adjoint(q_kernel) @ t @ q_kernel
    residual = linalg.operator_norm(adjoint(q_kernel) @ t @ q_range)
    power, f = linalg.normalized_power(block_c, k)  # C^k = 2^f P
    nilp = linalg.saturating_ldexp(linalg.operator_norm(power), f)
    return Decomposition(
        range_basis=q_range,
        kernel_basis=q_kernel,
        block_a=block_a,
        block_b=block_b,
        block_c=block_c,
        residual_lower_left=residual,
        nilpotency_residual=linalg.require_finite(nilp, "nilpotency residual"),
        full_range=rank == dim,
    )


def spectrum_union_gap(decomp: Decomposition,
                       t) -> tuple[list[complex], list[complex], float, bool]:
    """distinct(spec T), distinct(spec A) (empty when A is 0x0), the
    Hausdorff distance between the first and the second with 0 added, and
    the verdict spec T = spec A u {0}: that distance is <= REPORT_TOL * ||T||.

    Distinct values are clustered within REPORT_TOL * ||T|| too, so all four
    scale with T; 0 joins A's side unless the range is full.
    """
    t = linalg.require_square(t)
    tol = REPORT_TOL * linalg.operator_norm(t)
    spec_t = linalg.distinct_values(linalg.spectrum(t), tol=tol)
    spec_a = []  # fully nilpotent: only the kernel block remains
    if decomp.range_basis.shape[1] > 0:
        spec_a = linalg.distinct_values(linalg.spectrum(decomp.block_a), tol=tol)
    union = spec_a if decomp.full_range else linalg.distinct_values(spec_a + [0.0], tol=tol)
    gap = linalg.hausdorff_distance(spec_t, union)
    return spec_t, spec_a, gap, gap <= tol


def _require_isometry(x: np.ndarray, message: str) -> None:
    """ValidationError ``message``.format(r) unless r = ||X*X - I|| <= RESIDUAL_TOL."""
    residual = linalg.operator_norm(adjoint(x) @ x - np.eye(x.shape[1]))
    if residual > RESIDUAL_TOL:
        raise ValidationError(message.format(residual))


def restrict_to_invariant(t, basis, k: int, n: int,
                          lam: float) -> tuple[np.ndarray, ClassReport]:
    """Compress T to an invariant subspace and test the compression.

    ``basis`` is a matrix M whose columns span the subspace.  Rejected
    unless the columns are orthonormal and the invariance residual
    ||TM - M(M*TM)||, which is ||(I - MM*)TM|| for orthonormal M, is
    below RESIDUAL_TOL * ||T||.  For a member T the compression is again
    a member at the same lambda.
    """
    t = linalg.require_square(t)
    m = linalg.as_matrix(basis)
    if m.shape[0] != t.shape[0] or m.shape[1] < 1:
        raise ValidationError(
            f"subspace basis shape {m.shape} incompatible with operator {t.shape}")
    _require_isometry(m, "subspace basis not orthonormal: residual {:.3e}")
    compressed = adjoint(m) @ t @ m
    residual = linalg.operator_norm(t @ m - m @ compressed)
    if residual > RESIDUAL_TOL * linalg.operator_norm(t):
        raise ValidationError(f"subspace is not invariant under T: residual {residual:.3e}")
    report = posinormal.is_member(compressed, ClassQuery(k=k, n=n, lam=lam))
    return compressed, report


def isometry_product_check(t, s, k: int, n: int, lam: float) -> ClassReport:
    """Membership of TS for a member T and a commuting isometry S; they
    commute when ||TS - ST|| <= RESIDUAL_TOL * ||T|| ||S||."""
    t = linalg.require_square(t)
    s = linalg.require_square(s)
    if t.shape != s.shape:
        raise ValidationError(f"shape mismatch: T {t.shape} vs S {s.shape}")
    _require_isometry(s, "S is not an isometry: ||S*S - I|| = {:.3e}")
    comm = linalg.operator_norm(t @ s - s @ t)
    if comm > RESIDUAL_TOL * linalg.operator_norm(t) * linalg.operator_norm(s):
        raise ValidationError(f"T and S do not commute: residual {comm:.3e}")
    query = ClassQuery(k=k, n=n, lam=lam)
    posinormal.require_member(t, query, DEFAULT_TOL, "T")
    return posinormal.is_member(t @ s, query)


def unitary_conjugate_check(t, u, k: int, n: int, lam: float) -> ClassReport:
    """Membership of U*TU for unitary U; the verdict matches T's.

    U is rejected when ||U*U - I|| exceeds RESIDUAL_TOL.  For square U that is
    max |sigma_i^2 - 1| over its singular values, so it equals ||UU* - I||.
    """
    t = linalg.require_square(t)
    u = linalg.require_square(u)
    if t.shape != u.shape:
        raise ValidationError(f"shape mismatch: T {t.shape} vs U {u.shape}")
    _require_isometry(u, "U is not unitary: ||U*U - I|| = {:.3e}")
    return posinormal.is_member(adjoint(u) @ t @ u, ClassQuery(k=k, n=n, lam=lam))


def dense_range_upgrade(t, k: int, n: int, lam: float) -> ClassReport:
    """Upgrade a member with full-rank T^k to the k = 0 class.

    When T^k has dense range the quasi layer carries no information and
    the bare inequality T^n T*^n <= lam^2 T*T holds outright.  The rank is
    read from posinormal's range ladder, whose rungs never form T^k: ran T^k
    is the whole space iff k = 0 or T keeps its full rank at rung 0, at any
    conditioning of T^k.  Both verdicts use DEFAULT_TOL.
    """
    t = linalg.require_square(t)
    query = ClassQuery(k=k, n=n, lam=lam)
    rank = posinormal.range_basis(t, k).shape[1]
    if rank < t.shape[0]:
        raise ValidationError(
            f"T^{k} is rank deficient (rank {rank} of {t.shape[0]}); "
            "dense-range upgrade does not apply"
        )
    posinormal.require_member(t, query, DEFAULT_TOL, "T")
    return posinormal.is_member(t, ClassQuery(k=0, n=n, lam=lam))


@linalg.quiet_overflow
def tensor_check(t, s, query: ClassQuery, mu: float,
                 tol: float = DEFAULT_TOL) -> ClassReport:
    """Membership of the Kronecker product T (x) S at lambda * mu.

    T must be a member at ``query`` and S at the same (k, n) with lambda
    ``mu``; the product is then a member at lambda * mu.  NumericalFailure
    when T (x) S or lambda * mu overflows: both are computed, not inputs.
    """
    # require_member validates each factor as a square matrix.
    posinormal.require_member(t, query, tol, "T")
    posinormal.require_member(s, ClassQuery(k=query.k, n=query.n, lam=mu), tol, "S")
    lam = linalg.require_finite(query.lam * mu, "lambda * mu")
    product = linalg.require_finite(np.kron(t, s), "T (x) S")
    return posinormal.is_member(product, ClassQuery(query.k, query.n, lam), tol=tol)
