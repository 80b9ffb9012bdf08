"""Independent oracle implementations used to cross-check the package.

Everything here is deliberately written against raw numpy and scipy, with
different algorithms than the library (bisection instead of the SVD
formula, pivoted QR instead of SVDs for the range of T^k, explicit loops
instead of projector algebra), so agreement between the two is
meaningful.
"""

import numpy as np
import scipy.linalg

from posilab.linalg import DEFAULT_TOL, SUPPORT_RTOL


def adj(m):
    return np.asarray(m, dtype=complex).conj().T


def mpow(m, p):
    out = np.eye(np.asarray(m).shape[0], dtype=complex)
    for _ in range(p):
        out = out @ m
    return out


def gap_oracle(t, k, n, lam):
    """Definition-form gap matrix, straight from the formula."""
    t = np.asarray(t, dtype=complex)
    core = lam ** 2 * adj(t) @ t - mpow(t, n) @ adj(mpow(t, n))
    return adj(mpow(t, k)) @ core @ mpow(t, k)


def min_eig(h):
    h = np.asarray(h, dtype=complex)
    return float(np.linalg.eigvalsh((h + adj(h)) / 2.0)[0])


def member_oracle(t, k, n, lam, tol=1e-10):
    """Membership decision on the normal form: infeasible pencils fail,
    else the smallest eigenvalue lam^2 - lambda_min^2 must be at least
    -tol * lambda_min^2."""
    if not kernel_feasible(t, k, n, tol):
        return False
    w = normal_form(t, k, n, lam)
    return not w.size or w[0] >= -tol * (lam ** 2 - w[0])


def range_basis(t, k, tol=1e-10):
    """Orthonormal basis of ran T^k from k steps of ran T^{j+1} = T ran T^j,
    each orthonormalized by a QR with column pivoting whose rank counts
    |R_ii| > tol |R_00| (the library uses SVDs).  T^k itself is never
    formed, so its conditioning, cond(T)^k, does not enter."""
    t = np.asarray(t, dtype=complex)
    q = np.eye(t.shape[0], dtype=complex)
    for _ in range(k):
        if q.shape[1] == 0:
            break
        qr, r, _ = scipy.linalg.qr(t @ q, mode="economic", pivoting=True)
        d = np.abs(np.diag(r))
        q = qr[:, :int(np.sum(d > tol * d[0])) if d[0] > 0 else 0]
    return q


def compressed_pencil(t, k, n):
    """(C', D') = (TQ, T*^n Q) for Q = range_basis(t, k): the gap is PSD iff
    lambda^2 C'*C' - D'*D' is, since it tests the core on ran T^k only."""
    q = range_basis(t, k)
    return np.asarray(t, dtype=complex) @ q, adj(mpow(t, n)) @ q


def normal_form(t, k, n, lam):
    """Eigenvalues, ascending, of the gap in the normal form of its pencil
    on ran T^k: the generalized eigenvalues of lam^2 C'*C' - D'*D' against
    C'*C' (scipy's generalized eigh), for (C', D') = compressed_pencil
    restricted to the complement of ker C', whose basis comes from a QR of
    C'* with column pivoting and range_basis's cut.  Empty when C'
    vanishes.  They are lam^2 - mu_i, lambda_min^2 the largest mu_i."""
    c, d = compressed_pencil(t, k, n)
    if c.shape[1]:
        qr, r, _ = scipy.linalg.qr(adj(c), mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        rank = int(np.sum(diag > 1e-10 * diag[0])) if diag[0] > 0 else 0
        c, d = c @ qr[:, :rank], d @ qr[:, :rank]
    if not c.shape[1]:
        return np.zeros(0)
    mu = scipy.linalg.eigh(adj(d) @ d, adj(c) @ c, eigvals_only=True)
    return lam ** 2 - mu[::-1]


def kernel_feasible(t, k, n, tol=1e-10):
    """Feasibility of the pencil on ran T^k: the right singular vectors of
    C' with sigma <= 1e-10 sigma_max span its numerical kernel, and D' must
    keep its energy there within tol * ||D'||^2.

    Bisection alone cannot decide feasibility where C' is exactly
    singular: at lambda ~ 1e8 the rounding of lambda^2 C'*C' already
    outweighs the tolerance, so it would find a lambda where none exists;
    bisect_min_lambda asks this test first.
    """
    c, d = compressed_pencil(t, k, n)
    if c.shape[1] == 0:
        return True
    _, s, vh = np.linalg.svd(c)
    kernel = adj(vh[s <= 1e-10 * s[0]]) if s[0] > 0 else np.eye(c.shape[1])
    if kernel.shape[1] == 0:
        return True
    return np.linalg.norm(d @ kernel, 2) ** 2 <= tol * np.linalg.norm(d, 2) ** 2


def bisect_min_lambda(t, k, n, tol=1e-10, iters=120):
    """Minimal feasible lambda by pure bisection on membership of the
    compressed pencil lambda^2 C'*C' - D'*D' >= -tol * max(1, ||D'||^2).

    Returns None when kernel_feasible calls the pencil infeasible, or when
    no lambda up to 2^60 is feasible.
    """
    if not kernel_feasible(t, k, n, tol):
        return None
    c, d = compressed_pencil(t, k, n)
    if c.shape[1] == 0:
        return 0.0
    threshold = -tol * max(1.0, np.linalg.norm(d, 2) ** 2)

    def member(lam):
        return min_eig(lam ** 2 * adj(c) @ c - adj(d) @ d) >= threshold

    hi = 1.0
    for _ in range(60):
        if member(hi):
            break
        hi *= 2.0
    else:
        return None
    if member(1e-14):
        return 0.0
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
    return hi


def conditional_expectation_oracle(masses, blocks, f):
    """Blockwise weighted means with explicit python loops."""
    masses = np.asarray(masses, dtype=float)
    f = np.asarray(f, dtype=complex)
    out = np.empty_like(f)
    for block in blocks:
        idx = list(block)
        total = sum(masses[i] for i in idx)
        mean = sum(masses[i] * f[i] for i in idx) / total
        for i in idx:
            out[i] = mean
    return out


def weighted_operator_matrix_oracle(masses, blocks, w, u):
    """Entrywise formula for the operator matrix in orthonormal coords."""
    masses = np.asarray(masses, dtype=float)
    w = np.asarray(w, dtype=complex)
    u = np.asarray(u, dtype=complex)
    n = masses.size
    out = np.zeros((n, n), dtype=complex)
    root = np.sqrt(masses)
    for block in blocks:
        idx = list(block)
        total = sum(masses[i] for i in idx)
        for i in idx:
            for j in idx:
                out[i, j] = w[i] * u[j] * root[i] * root[j] / total
    return out


def _unit_block_indicators(masses, blocks):
    """N x B matrix V, column b the unit indicator of block b in the
    orthonormal atom basis: sqrt(mass_i / mass of the block) on its atoms."""
    masses = np.asarray(masses, dtype=float)
    v = np.zeros((masses.size, len(blocks)))
    for b, block in enumerate(blocks):
        total = sum(masses[i] for i in block)
        for i in block:
            v[i, b] = np.sqrt(masses[i] / total)
    return v


def block_embedding(masses, blocks, w, u):
    """N x 2B matrix Q with T = Q T_c Q*, by Gram-Schmidt block by block.

    For block b, column 2b is x_b / ||x_b|| and column 2b + 1 the
    normalized residual of y_b against it, x_b = W v_b and y_b = U* v_b, v_b
    the unit block indicator; each residual is taken twice.  Where a vector
    leaves no residual, the column is the block's standard basis vector with
    the largest one, and where the block has no room left (the second
    column of a one-atom block) it is zero.
    """
    w = np.asarray(w, dtype=complex)
    u = np.asarray(u, dtype=complex)
    v = _unit_block_indicators(masses, blocks)
    q = np.zeros((v.shape[0], 2 * len(blocks)), dtype=complex)
    for b, block in enumerate(blocks):
        found = []

        def residual(r):
            for _ in range(2):
                for e in found:
                    r = r - np.vdot(e, r) * e
            return r

        for vec in (w * v[:, b], np.conj(u) * v[:, b]):
            if len(found) == len(block):
                break
            r = residual(vec)
            if not np.linalg.norm(r) > 0.0:
                r = max((residual(np.eye(v.shape[0])[i]) for i in block),
                        key=np.linalg.norm)
            found.append(r / np.linalg.norm(r))
        for j, e in enumerate(found):
            q[:, 2 * b + j] = e
    return q


def qr_compression(masses, blocks, w, u):
    """Q* T Q for Q from a Householder QR of [W V | U* V], V the unit block
    indicators: an r x r compression of T, r = min(N, 2B)."""
    w = np.asarray(w, dtype=complex)
    u = np.asarray(u, dtype=complex)
    v = _unit_block_indicators(masses, blocks)
    q = np.linalg.qr(np.hstack([w[:, None] * v, np.conj(u)[:, None] * v]))[0]
    return (adj(q) @ (w[:, None] * v)) @ (v.T @ (u[:, None] * q))


def _dense_direct_sum(alpha, left, right):
    """(+)_b alpha_b left_b right_b*, 2B x 2B, for B x 2 arrays left and
    right and a scalar or B-vector alpha: block b in rows and columns 2b
    and 2b + 1."""
    count = left.shape[0]
    alpha = np.broadcast_to(np.asarray(alpha, dtype=complex), (count,))
    out = np.zeros((2 * count, 2 * count), dtype=complex)
    for b in range(count):
        out[2 * b:2 * b + 2, 2 * b:2 * b + 2] = alpha[b] * np.outer(left[b],
                                                                    right[b].conj())
    return out


def _support(values):
    mags = np.abs(values)
    return mags > SUPPORT_RTOL * mags.max(initial=0.0)


def _chi_ratio(num, den, mask):
    return np.where(mask, num / np.where(mask, den, 1.0), 0.0)


def _chi_pow(base, expo, mask):
    return np.where(mask, np.where(mask, base, 1.0) ** expo, 0.0)


def _dense_norm(m):
    return float(np.linalg.norm(m, 2))


def dense_norm_formula(op):
    """The fields of condexp.norm_formula_check, ||T|| from an SVD of the
    2B x 2B T_c."""
    matrix_norm = _dense_norm(op.compressed)
    blockwise = float(np.sqrt(np.max(op.e_w2 * op.e_u2)))
    dev = abs(matrix_norm - blockwise)
    return {"matrix_norm": matrix_norm, "blockwise_norm": blockwise,
            "deviation": dev, "passed": dev <= DEFAULT_TOL * matrix_norm}


def _dense_hermitian_power(h, m):
    """H^m for Hermitian PSD H: integer m by repeated product, else by one
    eigh of the whole matrix, eigenvalues <= DEFAULT_TOL times the largest
    read as 0."""
    if isinstance(m, (int, np.integer)):
        return mpow(h, int(m))
    w, v = np.linalg.eigh((h + adj(h)) / 2.0)
    return (v * _chi_pow(w, float(m), w > DEFAULT_TOL * w[-1])) @ adj(v)


def dense_lemma31(op, m):
    """The fields of condexp.lemma31_check, every side a 2B x 2B matrix."""
    t = op.compressed

    def deviation(side, ex, ey, gram):
        alpha = _chi_pow(ex, float(m) - 1.0, _support(ex)) * ey ** float(m)
        lhs = _dense_hermitian_power(gram, m)
        diff = _dense_norm(lhs - _dense_direct_sum(alpha, side, side))
        return diff / _dense_norm(lhs) if diff else 0.0

    dev1 = deviation(op.c, op.e_u2, op.e_w2, adj(t) @ t)
    dev2 = deviation(op.a, op.e_w2, op.e_u2, t @ adj(t))
    return {"power": float(m), "deviation_t_star_t": dev1,
            "deviation_t_t_star": dev2, "passed": max(dev1, dev2) <= DEFAULT_TOL}


def dense_polar(op):
    """The fields of condexp.polar_decomposition_check, with one eigh of
    the 2B x 2B |T| for its spectrum and range."""
    t, ew2, eu2 = op.compressed, op.e_w2, op.e_u2
    chi_s, chi_g = _support(eu2), _support(ew2)
    modulus = _dense_direct_sum(np.sqrt(_chi_ratio(ew2, eu2, chi_s)), op.c, op.c)
    partial_iso = _dense_direct_sum(
        np.sqrt(_chi_ratio(1.0, ew2 * eu2, chi_s & chi_g)), op.a, op.c)
    t_norm = _dense_norm(t)
    factor = _dense_norm(partial_iso @ modulus - t)
    squared = _dense_norm(modulus @ modulus - adj(t) @ t)
    w, vecs = np.linalg.eigh((modulus + adj(modulus)) / 2.0)
    mags = np.abs(w)
    basis = vecs[:, mags > DEFAULT_TOL * mags.max()]
    iso = _dense_norm(adj(partial_iso) @ partial_iso - basis @ adj(basis))
    return {"factor_residual": factor, "modulus_min_eigenvalue": float(w[0]),
            "modulus_squared_residual": squared, "partial_isometry_residual": iso,
            "passed": bool(
                factor <= DEFAULT_TOL * t_norm
                and w[0] >= -DEFAULT_TOL * mags.max()
                and squared <= DEFAULT_TOL * t_norm ** 2
                and iso <= DEFAULT_TOL)}


def random_member(rng, dim, k, n, margin=1e-4, tries=50):
    """Seeded random matrix plus a lambda at which it is a member.

    Draws complex Gaussian matrices until the pencil is feasible with a
    positive lambda, then returns (t, lambda_min * (1 + margin),
    lambda_min) where lambda_min comes from the bisection oracle.  No draw
    is rejected for the conditioning of a power of T.
    """
    for _ in range(tries):
        t = (rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
        lam = bisect_min_lambda(t, k, n)
        if lam is None or lam <= 1e-8:
            continue
        return t, lam * (1 + margin), lam
    raise RuntimeError(f"no usable sample for dim={dim}, k={k}, n={n}")


def ginibre(rng, dim):
    """Complex Ginibre matrix, entries of variance 1/dim."""
    return (rng.standard_normal((dim, dim))
            + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2 * dim)


def haar_unitary(rng, dim):
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def nilpotent_tail(rng, dim, m):
    """(T, Q_head) with T = V [[G, X], [0, J]] V*: a Ginibre head G of size
    dim - m, a Ginibre coupling X, the nilpotent shift J of the recorded
    size m, V Haar and Q_head its first dim - m columns.

    ran T^k is span(Q_head) plus J^k's range, and the kernel of T is the
    direction of the tail's first vector, which T*^n does not annihilate
    (X couples it to the head).  So (k, n) is feasible iff m <= k, and then
    ran T^k = span(Q_head), T acts there as G = Q_head* T Q_head, and
    lambda_min = ||T*^n Q_head G^{-1}||_2.
    """
    head = dim - m
    t = ginibre(rng, dim)
    t[head:, :] = 0.0
    t[head:, head:] = np.eye(m, k=1)
    v = haar_unitary(rng, dim)
    return v @ t @ adj(v), v[:, :head]


def inverse_lambda_min(t, n):
    """||T*^n T^{-1}||_2, lambda_min at every k for invertible T, whose
    ran T^k is the whole space: T*^n T^{-1} is (T^{-*} T^n)*."""
    return np.linalg.norm(np.linalg.solve(adj(t), mpow(t, n)), 2)


def head_lambda_min(t, n, q_head):
    """lambda_min on the invariant range span(q_head), on which T acts
    invertibly as G = q_head* T q_head: ||T*^n q_head G^{-1}||_2."""
    g = adj(q_head) @ np.asarray(t, dtype=complex) @ q_head
    return np.linalg.norm(np.linalg.solve(adj(g), adj(adj(mpow(t, n)) @ q_head)), 2)


def kronecker_pairs(seed, count):
    """Seeded (T, S, k, n) for Theorem 2.11: complex Gaussian factors of
    dims 2-5, each with one zero column with probability 1/3, k in 0-2 and
    n in 1-3.  A and B of T (x) S are A_T (x) A_S and B_T (x) B_S, so the
    product's lambda_min is lambda_min(T) lambda_min(S) when both factors
    are feasible, at any conditioning of the product."""
    rng = np.random.default_rng(seed)

    def factor():
        dim = int(rng.integers(2, 6))
        t = (rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2 * dim)
        if rng.random() < 1 / 3:
            t[:, int(rng.integers(dim))] = 0.0
        return t

    return [(factor(), factor(), int(rng.integers(0, 3)), int(rng.integers(1, 4)))
            for _ in range(count)]


def partition_defect(blocks, atom_count):
    """Message for the first defect of a partition, index by index, or None."""
    seen = set()
    for bi, block in enumerate(blocks):
        if len(block) == 0:
            return f"partition[{bi}] is empty"
        for pos, i in enumerate(block):
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                return f"partition[{bi}][{pos}] holds {i!r}, not an atom index"
            if not 0 <= i < atom_count:
                return (f"partition[{bi}][{pos}] references atom {i}, "
                        f"valid range is 0..{atom_count - 1}")
            if i in seen:
                return f"partition[{bi}][{pos}]: atom {i} appears in two blocks"
            seen.add(i)
    missing = sorted(set(range(atom_count)) - seen)
    return f"partition does not cover atoms {missing}" if missing else None
