"""Independent oracle implementations used to cross-check the package.

Everything here is deliberately written against raw numpy, with different
algorithms than the library (bisection instead of pencil compression,
explicit loops instead of projector algebra), so agreement between the
two is meaningful.
"""

import numpy as np


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
    """Membership decision with the lambda-independent tolerance scale."""
    d = adj(mpow(t, n)) @ mpow(t, k)
    scale = np.linalg.norm(d, 2) ** 2
    return min_eig(gap_oracle(t, k, n, lam)) >= -tol * max(1.0, scale)


def kernel_feasible(t, k, n, tol=1e-10):
    """Feasibility of the pencil from SVDs alone: the right singular
    vectors of C = T^{k+1} with sigma^2 <= tol * sigma_max^2 span its
    numerical kernel, and D = T*^n T^k must keep their energy within
    tol * max(1, ||D||^2).

    Bisection alone cannot decide feasibility where C is exactly
    singular: at lambda ~ 1e8 the rounding of lambda^2 C*C already
    outweighs the tolerance, so it would find a lambda where none exists;
    bisect_min_lambda asks this test first.
    """
    c = mpow(t, k + 1)
    d = adj(mpow(t, n)) @ mpow(t, k)
    _, s, vh = np.linalg.svd(c)
    kernel = adj(vh[s ** 2 <= tol * s[0] ** 2])
    if kernel.shape[1] == 0:
        return True
    energy = np.linalg.norm(d @ kernel, 2) ** 2
    return energy <= tol * max(1.0, np.linalg.norm(d, 2) ** 2)


def bisect_min_lambda(t, k, n, tol=1e-10, iters=120):
    """Minimal feasible lambda by pure bisection on membership.

    Returns None when kernel_feasible calls the pencil infeasible, or when
    no lambda up to 2^60 is feasible.
    """
    if not kernel_feasible(t, k, n, tol):
        return None
    hi = 1.0
    for _ in range(60):
        if member_oracle(t, k, n, hi, tol):
            break
        hi *= 2.0
    else:
        return None
    if member_oracle(t, k, n, 1e-14, tol):
        return 0.0
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if member_oracle(t, k, n, mid, tol):
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


def random_member(rng, dim, k, n, margin=1e-4, max_power_cond=1e4, tries=50):
    """Seeded random matrix plus a lambda at which it is a member.

    Draws complex Gaussian matrices until the pencil is feasible with a
    positive lambda and the relevant power is not too ill-conditioned,
    then returns (t, lambda_min * (1 + margin), lambda_min) where
    lambda_min comes from the bisection oracle.
    """
    for _ in range(tries):
        t = (rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
        power = mpow(t, k + 1)
        s = np.linalg.svd(power, compute_uv=False)
        if s[0] <= 0 or s[-1] <= 0 or s[0] / s[-1] > max_power_cond:
            continue
        lam = bisect_min_lambda(t, k, n)
        if lam is None or lam <= 1e-8:
            continue
        return t, lam * (1 + margin), lam
    raise RuntimeError(f"no usable sample for dim={dim}, k={k}, n={n}")


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
        for i in block:
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                return f"partition[{bi}] holds {i!r}, not an atom index"
            if not 0 <= i < atom_count:
                return (f"partition[{bi}] references atom {i}, "
                        f"valid range is 0..{atom_count - 1}")
            if i in seen:
                return f"atom {i} appears in two blocks"
            seen.add(i)
    missing = sorted(set(range(atom_count)) - seen)
    return f"partition does not cover atoms {missing}" if missing else None
