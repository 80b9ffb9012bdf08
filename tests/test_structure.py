import numpy as np
import pytest

from posilab import linalg, posinormal, structure
from posilab.errors import ValidationError
from posilab.fixtures import invariant_block_matrix, nilpotent_shift, split_range_matrix
from posilab.posinormal import ClassQuery

import oracles
from oracles import haar_unitary


def random_rank_deficient(rng, dim, corank=1):
    x = rng.standard_normal((dim, dim - corank)) + 1j * rng.standard_normal((dim, dim - corank))
    y = rng.standard_normal((dim, dim - corank)) + 1j * rng.standard_normal((dim, dim - corank))
    return (x @ y.conj().T) / dim


# --- decompose -------------------------------------------------------------------

def test_decompose_split_range_matrix():
    t = split_range_matrix()
    decomp = structure.decompose(t, 1, 2)
    assert not decomp.full_range
    assert decomp.range_basis.shape[1] == 3
    assert decomp.kernel_basis.shape[1] == 1
    assert decomp.residual_lower_left <= 1e-12
    assert decomp.nilpotency_residual <= 1e-12
    # block A keeps the nonzero spectrum; distinct union matches
    spec_a = sorted(np.round(linalg.spectrum(decomp.block_a).real, 8))
    np.testing.assert_allclose(spec_a, [0.0, 1.0, 2.0], atol=1e-8)
    assert structure.spectrum_union_gap(decomp, t)[2] <= 1e-6
    # for a member, the compression passes the k = 0 test at the same lambda
    lam = posinormal.min_lambda(t, 1, 2).lambda_min * (1 + 1e-6)
    assert posinormal.is_member(t, ClassQuery(1, 2, lam)).holds
    assert posinormal.is_member(decomp.block_a, ClassQuery(0, 2, lam)).holds


def test_decompose_fully_nilpotent():
    t = nilpotent_shift(3)
    decomp = structure.decompose(t, 3, 2)
    assert decomp.range_basis.shape[1] == 0
    assert decomp.kernel_basis.shape[1] == 3
    # block C is all of T in the kernel basis; C^3 = 0
    assert decomp.nilpotency_residual <= 1e-12
    assert linalg.operator_norm(decomp.reconstruct() - t) <= 1e-12
    _, spec_a, gap, _ = structure.spectrum_union_gap(decomp, t)
    assert spec_a == [] and gap <= 1e-6


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
def test_spectrum_union_is_covariant(scale):
    t = scale * np.random.default_rng(3).standard_normal((6, 6))
    spec_t, spec_a, gap, ok = structure.spectrum_union_gap(structure.decompose(t, 1, 1), t)
    assert len(spec_t) == len(spec_a) == 6
    assert ok and gap <= 1e-12 * scale


def test_decompose_unitary_degenerate(rng):
    u = haar_unitary(rng, 4)
    decomp = structure.decompose(u, 1, 1)
    assert decomp.full_range
    assert decomp.kernel_basis.shape[1] == 0
    q = decomp.range_basis
    np.testing.assert_allclose(decomp.block_a, q.conj().T @ u @ q, atol=1e-12)


def test_decompose_reconstruction_random(rng):
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        t = random_rank_deficient(rng, dim, corank=int(rng.integers(1, dim)))
        decomp = structure.decompose(t, k, 1)
        scale = max(1.0, linalg.operator_norm(t))
        assert linalg.operator_norm(decomp.reconstruct() - t) <= 1e-8 * scale
        assert decomp.residual_lower_left <= 1e-8 * scale
        t_norm_k = max(1.0, linalg.operator_norm(t) ** k)
        assert decomp.nilpotency_residual <= 1e-8 * t_norm_k


def test_decompose_keeps_a_graded_invertible_operator_whole(rng):
    # ran T^3 of an invertible T is the whole space.  An SVD of T^3, whose
    # cond is 1e12, cut at DEFAULT_TOL split this T 5+1 with a lower-left
    # residual of 7e-5; the range ladder's rung 0 keeps its full rank.
    s = np.logspace(0.0, -4.0, 6)
    t = haar_unitary(rng, 6) @ (s[:, None] * haar_unitary(rng, 6).conj().T)
    decomp = structure.decompose(t, 3, 1)
    assert decomp.full_range
    assert (decomp.range_basis.shape[1], decomp.kernel_basis.shape[1]) == (6, 0)
    assert decomp.residual_lower_left == 0.0


def _check_split(t, k, dim_c, same_range=True):
    """decompose at k against the recorded size dim_c of its kernel block:
    a unitary [range | kernel], both residuals within 1e-8 of their scale
    (the lower left within the invariance residual of the oracle's
    pivoted-QR basis of ran T^k where that is larger) and, with
    ``same_range``, the range projector of that basis."""
    decomp = structure.decompose(t, k, 1)
    dim = len(t)
    assert decomp.kernel_basis.shape[1] == dim_c, (dim, k)
    assert decomp.full_range == (dim_c == 0)
    q = oracles.range_basis(t, k)
    assert not same_range or linalg.operator_norm(
        decomp.range_basis @ decomp.range_basis.conj().T - q @ q.conj().T) <= 1e-8
    basis = np.hstack([decomp.range_basis, decomp.kernel_basis])
    assert linalg.operator_norm(basis.conj().T @ basis - np.eye(dim)) <= 1e-12
    norm = linalg.operator_norm(t)
    oracle = linalg.operator_norm(t @ q - q @ (q.conj().T @ t @ q))
    assert decomp.residual_lower_left <= max(1e-8 * norm, oracle), (dim, k)
    assert decomp.nilpotency_residual <= 1e-8 * norm ** k, (dim, k)


def test_decompose_splits_off_a_nilpotent_tail_of_recorded_size():
    # ran T^k is the head plus J^k's range, so C has size min(k, m).
    rng = np.random.default_rng(2511)
    for _ in range(40):
        dim, m = int(rng.integers(5, 17)), int(rng.integers(1, 5))
        t, _ = oracles.nilpotent_tail(rng, dim, m)
        t = t * 10.0 ** rng.uniform(-1.0, 1.0)
        for k in range(5):
            _check_split(t, k, min(k, m))


def test_decompose_direct_sum_splits_off_the_tail_only():
    # T + cS with S invertible: the tail of T of recorded size m is split
    # off, and cS stays whole down to |c| = 1e-6.  Rounding moves the range
    # of a tail of size m by about eps^(1/m), which beside |c| <= 1e-4
    # reaches cS: the two ladders' projectors then differ by up to 0.3, so
    # there the range is checked by its invariance only, and beside a tail
    # of size 3 at |c| = 1e-6 both ranges are invariant to only 2.5e-8 ||T||.
    rng = np.random.default_rng(2512)
    for i in range(60):
        c = (1e-2, 1e-4, 1e-6)[i % 3] * np.exp(2j * np.pi * rng.uniform())
        m = int(rng.integers(0, 4))
        d1, d2 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        t = oracles.nilpotent_tail(rng, d1 + m, m)[0] if m else oracles.ginibre(rng, d1)
        total = np.zeros((len(t) + d2, len(t) + d2), dtype=complex)
        total[:len(t), :len(t)] = t
        total[len(t):, len(t):] = c * oracles.ginibre(rng, d2)
        for k in range(5):
            _check_split(total, k, min(k, m), same_range=not m or abs(c) > 1e-3)


def test_decompose_keeps_graded_invertible_operators_whole():
    # U diag(s) V* with cond(T)^k up to 1e12, and V = U in every second
    # draw, where cond(T^k) is cond(T)^k: ran T^k is the whole space.
    rng = np.random.default_rng(2513)
    for i in range(40):
        dim, k = int(rng.integers(3, 17)), int(rng.integers(0, 5))
        s = np.logspace(0.0, -rng.uniform(1.0, 12.0 / max(k, 3)), dim)
        u = haar_unitary(rng, dim)
        v = u if i % 2 else haar_unitary(rng, dim)
        t = u @ (s[:, None] * v.conj().T)
        _check_split(t * 10.0 ** rng.uniform(-1.0, 1.0), k, 0)


# --- restriction -----------------------------------------------------------------

def test_restrict_full_space_is_unitary_conjugation():
    t = np.diag([2.0, 1.0])
    lam = 2.0 * (1 + 1e-9)
    compressed, report = structure.restrict_to_invariant(
        t, np.eye(2, dtype=complex), 0, 2, lam)
    np.testing.assert_allclose(compressed, t)
    assert report.holds


def test_restrict_diagonal():
    t = np.diag([2.0, 1.0, 3.0])
    basis = np.eye(3, dtype=complex)[:, :2]
    compressed, report = structure.restrict_to_invariant(t, basis, 0, 2, 9.01)
    np.testing.assert_allclose(compressed, np.diag([2.0, 1.0]))
    # T itself is a member at lambda = 9.01 > 3^(n-1); restriction inherits
    assert posinormal.is_member(t, ClassQuery(0, 2, 9.01)).holds
    assert report.holds


def test_restrict_invariant_block_matrix():
    t = invariant_block_matrix()
    lam = posinormal.min_lambda(t, 1, 2).lambda_min * (1 + 1e-8)
    basis = np.eye(4, dtype=complex)[:, :2]
    compressed, report = structure.restrict_to_invariant(t, basis, 1, 2, lam)
    np.testing.assert_allclose(compressed, [[1, 1], [0, 2]])
    assert report.holds


def test_restrict_rejects_non_invariant():
    t = np.array([[0, 1], [0, 0]], dtype=complex)
    basis = np.array([[0.0], [1.0]], dtype=complex)  # span{e2}: T e2 = e1
    with pytest.raises(ValidationError, match="not invariant"):
        structure.restrict_to_invariant(t, basis, 0, 1, 1.0)
    # The residual is judged against ||T||: T e4 = e3 at 2^-34 too, where
    # it is below RESIDUAL_TOL in absolute terms.
    e4 = np.eye(4, dtype=complex)[:, 3:]
    with pytest.raises(ValidationError, match="not invariant"):
        structure.restrict_to_invariant(2.0 ** -34 * invariant_block_matrix(), e4, 0, 1, 1.0)
    with pytest.raises(ValidationError, match="orthonormal"):
        structure.restrict_to_invariant(t, 2.0 * np.eye(2), 0, 1, 1.0)


def test_operands_of_the_wrong_shape_are_rejected():
    t = np.diag([2.0, 1.0])
    with pytest.raises(ValidationError, match=r"basis shape \(3, 1\) incompatible"):
        structure.restrict_to_invariant(t, np.ones((3, 1)), 0, 1, 1.0)
    with pytest.raises(ValidationError, match="shape mismatch"):
        structure.isometry_product_check(t, np.eye(3), 0, 2, 2.5)
    with pytest.raises(ValidationError, match="shape mismatch"):
        structure.unitary_conjugate_check(t, np.eye(3), 0, 1, 1.0)


def test_restriction_preserves_membership_schur(rng):
    # invariant subspaces from Schur forms of random members
    hits = 0
    for _ in range(20):
        dim = int(rng.integers(3, 6))
        k = int(rng.integers(0, 2))
        n = int(rng.integers(1, 3))
        try:
            t, lam, _ = oracles.random_member(rng, dim, k, n)
        except RuntimeError:
            continue
        from scipy.linalg import schur
        upper, q = schur(t, output="complex")
        j = int(rng.integers(1, dim))
        _, report = structure.restrict_to_invariant(t, q[:, :j], k, n, lam)
        assert report.holds
        hits += 1
    assert hits >= 5


# --- isometry product --------------------------------------------------------------

def test_isometry_identity_factor():
    t = np.diag([2.0, 1.0])
    report = structure.isometry_product_check(t, np.eye(2), 0, 2, 2.5)
    assert report.holds


def test_isometry_commuting_diagonal():
    t = np.diag([2.0, 1.0])
    s = np.diag([1.0, -1.0])
    report = structure.isometry_product_check(t, s, 0, 2, 2.5)
    assert report.holds


def test_isometry_scalar_operator(rng):
    # T = c I commutes with every unitary; gap computed directly
    c = 0.7
    s = haar_unitary(rng, 3)
    lam = c ** 2 * (1 + 1e-9)  # lambda_min of cI at n = 3 is |c|^{n-1}
    report = structure.isometry_product_check(c * np.eye(3), s, 1, 3, lam)
    assert report.holds


def test_isometry_rejections(rng):
    t = np.diag([2.0, 1.0])
    with pytest.raises(ValidationError, match="isometry"):
        structure.isometry_product_check(t, 2 * np.eye(2), 0, 2, 2.5)
    s = haar_unitary(rng, 2)
    # generic unitary does not commute with diag(2, 1)
    if linalg.operator_norm(t @ s - s @ t) > 1e-6:
        with pytest.raises(ValidationError, match="commute"):
            structure.isometry_product_check(t, s, 0, 2, 2.5)
    # judged against ||T|| ||S||, so at 2^-34 too
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError, match="commute"):
        structure.isometry_product_check(2.0 ** -34 * t, swap, 0, 2, 2.5)
    with pytest.raises(ValidationError, match="not a member"):
        structure.isometry_product_check(nilpotent_shift(3), np.eye(3), 0, 2, 1.0)


# --- unitary conjugation -------------------------------------------------------------

def test_unitary_identity_conjugation():
    t = nilpotent_shift(3)
    base = posinormal.is_member(t, ClassQuery(3, 2, 1.0))
    conj = structure.unitary_conjugate_check(t, np.eye(3), 3, 2, 1.0)
    assert conj.holds == base.holds


def test_unitary_householder_on_shift(rng):
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = v / np.linalg.norm(v)
    u = np.eye(3) - 2 * np.outer(v, v.conj())
    report = structure.unitary_conjugate_check(nilpotent_shift(3), u, 3, 2, 1.0)
    assert report.holds


def test_unitary_permutation_diagonal():
    t = np.diag([2.0, 1.0])
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    base = posinormal.is_member(t, ClassQuery(0, 2, 1.5))
    conj = structure.unitary_conjugate_check(t, perm, 0, 2, 1.5)
    assert conj.holds == base.holds


def test_unitary_gap_spectrum_invariant(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u = haar_unitary(rng, dim)
        k, n, lam = 1, 2, 1.3
        base_gap = posinormal.gap_matrix(t, k, n, lam)
        conj_gap = posinormal.gap_matrix(u.conj().T @ t @ u, k, n, lam)
        a = np.linalg.eigvalsh((base_gap + base_gap.conj().T) / 2)
        b = np.linalg.eigvalsh((conj_gap + conj_gap.conj().T) / 2)
        scale = max(1.0, float(np.max(np.abs(a))))
        assert np.max(np.abs(a - b)) <= 1e-9 * scale
        report = structure.unitary_conjugate_check(t, u, k, n, lam)
        assert report.holds == posinormal.is_member(t, ClassQuery(k, n, lam)).holds


def test_unitary_rejects_non_unitary():
    # ||U*U - I|| is 3, 3 and about 2e-6, each above the 1e-9 tolerance
    for u in (np.diag([1.0, 2.0]), 2.0 * np.eye(2), np.diag([1.0, 1.0 + 1e-6])):
        with pytest.raises(ValidationError, match="not unitary"):
            structure.unitary_conjugate_check(np.eye(2), u, 0, 1, 1.0)


# --- dense range upgrade ---------------------------------------------------------------

def test_dense_range_upgrade_invertible_normal(rng):
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = g + g.conj().T + 5 * np.eye(3)  # positive definite, hence normal, invertible
    lam = posinormal.min_lambda(h, 2, 2).lambda_min * (1 + 1e-8)
    assert structure.dense_range_upgrade(h, 2, 2, lam).holds


def test_dense_range_upgrade_diagonal():
    t = np.diag([2.0, 1.0])
    lam = posinormal.min_lambda(t, 2, 2).lambda_min * (1 + 1e-8)
    report = structure.dense_range_upgrade(t, 2, 2, lam)
    assert report.holds
    # diagonal closed form: the k = 0 threshold is the same 2^{n-1}
    assert posinormal.min_lambda(t, 0, 2).lambda_min == pytest.approx(2.0, rel=1e-9)


def test_dense_range_upgrade_unitary(rng):
    u = haar_unitary(rng, 4)
    report = structure.dense_range_upgrade(u, 3, 4, 1.0)
    assert report.holds
    assert report.gap_norm <= 1e-10


def test_dense_range_upgrade_reads_the_ladder(rng):
    # An invertible graded T with cond(T) = 1e4: cond(T^3) = 1e12, so an SVD
    # of T^3 cut at DEFAULT_TOL calls it rank deficient, but ran T^3 is the
    # whole space, which rung 0 of the ladder sees.  The upgrade applies,
    # and lambda_min is ||T*^n T^-1|| at k = 3 and at k = 0 alike.
    s = np.logspace(0.0, -4.0, 6)
    t = haar_unitary(rng, 6) @ (s[:, None] * haar_unitary(rng, 6).conj().T)
    t3 = np.linalg.matrix_power(t, 3)
    assert np.linalg.cond(t3) > 1e10
    s3 = np.linalg.svd(t3, compute_uv=False)
    assert np.count_nonzero(s3 > linalg.DEFAULT_TOL * s3[0]) < 6
    assert posinormal.range_basis(t, 3).shape[1] == 6
    lam_min = posinormal.min_lambda(t, 3, 2).lambda_min
    assert lam_min == pytest.approx(oracles.inverse_lambda_min(t, 2), rel=1e-8)
    assert structure.dense_range_upgrade(t, 3, 2, lam_min * (1 + 1e-8)).holds


def test_dense_range_upgrade_rejects_rank_deficient():
    with pytest.raises(ValidationError, match="rank deficient"):
        structure.dense_range_upgrade(nilpotent_shift(3), 3, 2, 1.0)


# --- tensor products ---------------------------------------------------------------------

def test_tensor_identity_pair():
    report = structure.tensor_check(np.eye(2), np.eye(2), ClassQuery(1, 1, 1.0), 1.0)
    assert report.holds
    assert report.gap_norm <= 1e-12


def test_tensor_shift_pair():
    t = nilpotent_shift(3)
    report = structure.tensor_check(t, t, ClassQuery(3, 2, 1.0), 1.0)
    # (T (x) T)^3 = T^3 (x) T^3 = 0 kills the gap entirely
    assert report.holds
    assert report.gap_norm <= 1e-12


def test_tensor_diagonal_closed_form():
    d1, d2 = np.diag([2.0, 1.0]), np.diag([3.0, 1.0])
    lam = 2.0 * (1 + 1e-9)   # max d^{n-1} for n = 2
    mu = 3.0 * (1 + 1e-9)
    report = structure.tensor_check(d1, d2, ClassQuery(0, 2, lam), mu)
    assert report.holds


def test_tensor_default_tol_is_the_membership_default():
    # gap (lam^2 - 1) I = -5e-10 I: a member at tol 1e-9, not at 1e-10
    t, lam = np.eye(2), float(np.sqrt(1.0 - 5e-10))
    assert not posinormal.is_member(t, ClassQuery(0, 1, lam)).holds
    with pytest.raises(ValidationError, match="not a member"):
        structure.tensor_check(t, np.eye(2), ClassQuery(0, 1, lam), 1.0)
    assert structure.tensor_check(t, np.eye(2), ClassQuery(0, 1, lam), 1.0,
                                  tol=1e-9).holds


def test_tensor_rejects_nonmember():
    with pytest.raises(ValidationError, match="not a member"):
        structure.tensor_check(nilpotent_shift(3), np.eye(3), ClassQuery(0, 2, 1.0), 1.0)


def test_tensor_preservation_random(rng):
    hits = 0
    for _ in range(15):
        k = int(rng.integers(0, 2))
        n = int(rng.integers(1, 3))
        try:
            t, lam, _ = oracles.random_member(rng, int(rng.integers(2, 5)), k, n)
            s, mu, _ = oracles.random_member(rng, int(rng.integers(2, 5)), k, n)
        except RuntimeError:
            continue
        report = structure.tensor_check(t, s, ClassQuery(k, n, lam), mu, tol=1e-9)
        assert report.holds
        hits += 1
    assert hits >= 5


# --- Theorem 2.11 as an exact oracle for min_lambda --------------------------------

KRONECKER_PAIRS = oracles.kronecker_pairs(2507, 300)

# Pairs 22, 32, 179 and 268 are products of two feasible factors that a
# Gram pencil on C = (T (x) S)^{k+1}, whose conditioning is squared, called
# infeasible; the range ladder decides them on ran (T (x) S)^k.
@pytest.mark.parametrize("case", range(len(KRONECKER_PAIRS)))
def test_kronecker_min_lambda_is_the_product(case):
    t, s, k, n = KRONECKER_PAIRS[case]
    lt, ls = posinormal.min_lambda(t, k, n), posinormal.min_lambda(s, k, n)
    product = posinormal.min_lambda(np.kron(t, s), k, n)
    if lt.feasible and ls.feasible:
        assert product.feasible
        assert product.lambda_min == pytest.approx(lt.lambda_min * ls.lambda_min, rel=1e-6)
        return

    def d_nonzero(m):
        return bool(np.any(oracles.adj(oracles.mpow(m, n)) @ oracles.mpow(m, k)))

    # Infeasible iff a factor has a null direction of C that D sees, and the
    # other factor's B = D*D does not vanish (an infeasible factor has B != 0).
    assert product.feasible == (not ((not lt.feasible and d_nonzero(s))
                                     or (not ls.feasible and d_nonzero(t))))
