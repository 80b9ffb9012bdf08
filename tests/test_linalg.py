import warnings

import numpy as np
import pytest

from posilab import linalg, structure
from posilab.errors import NumericalFailure, ValidationError
from posilab.fixtures import nilpotent_shift, split_range_matrix

import oracles


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        linalg.as_matrix([1, 2, 3])  # 1-D
    with pytest.raises(ValidationError):
        linalg.as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValidationError):
        linalg.as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValidationError):
        linalg.as_matrix([[np.inf + 1j, 0], [0, 1]])


# --- normalized_power: the one power kernel ------------------------------------

def test_matpow_zero_is_identity():
    m = np.array([[5, 1], [2, 3]], dtype=complex)
    assert np.array_equal(linalg.ldexp(*linalg.normalized_power(m, 0)), np.eye(2))


def test_matpow_shift_cubes_to_zero():
    power = linalg.ldexp(*linalg.normalized_power(nilpotent_shift(3).astype(complex), 3))
    assert np.array_equal(power, np.zeros((3, 3)))


def test_matpow_split_range_square():
    # direct multiplication oracle
    t = split_range_matrix()
    expected = oracles.mpow(t, 2)
    power = linalg.ldexp(*linalg.normalized_power(t, 2))
    assert np.array_equal(power, np.linalg.matrix_power(t, 2))
    assert np.array_equal(power, expected)
    assert np.array_equal(expected[:2, :2], [[4, 3], [0, 1]])
    assert np.array_equal(expected[2:, 2:], np.zeros((2, 2)))


def test_normalized_power_is_matrix_power_while_that_is_in_range():
    # 2^f P is numpy's matrix_power bit for bit while that stays in the
    # normal floats, for every p whose binary form numpy decomposes, on a
    # normalized M, an unnormalized one and a (B, 2, 2) stack alike.
    rng = np.random.default_rng(5)
    m = linalg.normalize(oracles.ginibre(rng, 6))[0]
    stack = np.stack([oracles.ginibre(rng, 2) * 10.0 ** j for j in (-3, 0, 5)])
    for base in (m, 1e5 * m, 3e-7 * m, stack):
        for p in range(12):
            power, f = linalg.normalized_power(base, p)
            assert np.array_equal(linalg.ldexp(power, f), np.linalg.matrix_power(base, p)), p
    # S = [[2^-10, 1], [0, 2^-10]]: S^p = 2^(-10p) [[1, 1024p], [0, 1]]
    # leaves the float range from p = 107 on; P keeps it, largest part in [1, 2).
    s = np.array([[2.0 ** -10, 1.0], [0.0, 2.0 ** -10]], dtype=complex)
    for p in (120, 300, 10 ** 6):
        (power, f), exact = linalg.normalized_power(s, p), np.array([[1, 1024 * p], [0, 1]])
        assert 1.0 <= abs(power[0, 1]) < 2.0
        assert np.allclose(power / power[0, 1], exact / exact[0, 1], rtol=1e-12, atol=0.0)
        assert f + np.log2(abs(power[0, 1])) == pytest.approx(np.log2(1024.0 * p) - 10 * p)
    assert np.array_equal(linalg.normalized_power(nilpotent_shift(3).astype(complex), 5)[0],
                          np.zeros((3, 3)))


# --- range spaces --------------------------------------------------------------
# The range of T and its complement ker T*, as decompose takes them at k = 1:
# the basis of the range ladder's rung 0 and one complete QR of it.

def _projector(basis):
    return basis @ basis.conj().T


def test_rank_spaces_zero_matrix():
    decomp = structure.decompose(np.zeros((3, 3)), 1, 1)
    assert decomp.range_basis.shape == (3, 0)
    np.testing.assert_allclose(_projector(decomp.kernel_basis), np.eye(3))


def test_rank_spaces_identity():
    decomp = structure.decompose(np.eye(4), 1, 1)
    assert decomp.range_basis.shape == (4, 4)
    assert decomp.kernel_basis.shape == (4, 0)


def test_rank_spaces_split_range_matrix():
    # column-space oracle: columns of T span {e1, e2, e3}
    decomp = structure.decompose(split_range_matrix(), 1, 1)
    assert decomp.range_basis.shape[1] == 3
    np.testing.assert_allclose(_projector(decomp.range_basis),
                               np.diag([1.0, 1.0, 1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(_projector(decomp.kernel_basis),
                               np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-12)


def test_rank_nullity_and_kernel_annihilation(rng):
    for _ in range(25):
        dim = int(rng.integers(1, 11))
        inner = int(rng.integers(1, dim + 1))
        m = ((rng.standard_normal((dim, inner)) + 1j * rng.standard_normal((dim, inner)))
             @ (rng.standard_normal((inner, dim)) + 1j * rng.standard_normal((inner, dim))))
        decomp = structure.decompose(m, 1, 1)
        assert decomp.range_basis.shape == (dim, inner)
        assert decomp.kernel_basis.shape == (dim, dim - inner)
        # the range basis spans the column space of M
        assert linalg.operator_norm(_projector(decomp.range_basis) @ m - m) <= (
            1e-9 * linalg.operator_norm(m))
        # the cokernel is ker(M*): it annihilates M from the left
        assert (linalg.operator_norm(decomp.kernel_basis.conj().T @ m)
                <= 1e-9 * max(1.0, linalg.operator_norm(m)))


# --- spectrum ----------------------------------------------------------------

def test_spectrum_diagonal():
    vals = linalg.spectrum(np.diag([0.0, 1.0, 2.0]))
    np.testing.assert_allclose(vals, [0.0, 1.0, 2.0], atol=1e-12)


def test_spectrum_split_range_multiset():
    vals = np.sort(linalg.spectrum(split_range_matrix()).real)
    np.testing.assert_allclose(vals, [0.0, 0.0, 1.0, 2.0], atol=1e-10)


def test_spectrum_jordan_block():
    vals = linalg.spectrum(np.array([[0, 1], [0, 0]], dtype=complex))
    np.testing.assert_allclose(np.abs(vals), [0.0, 0.0], atol=1e-7)


def test_spectrum_adjoint_conjugates(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 8))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = np.sort_complex(linalg.spectrum(m)).conj()
        b = np.sort_complex(linalg.spectrum(m.conj().T))
        a = np.sort_complex(a)
        assert max(abs(a - b)) <= 1e-8 * max(1.0, float(max(abs(a))))


def test_spectrum_of_a_power_of_two_multiple_is_scaled_exactly():
    """At 2^+-300 M the determinant of M itself would overflow or underflow;
    the cross-check scales by a power of two, so it raises no warning, and
    the eigenvalues are M's scaled exactly."""
    m = np.random.default_rng(3).standard_normal((6, 6))
    base = linalg.spectrum(m)
    for p in (300, -300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(linalg.spectrum(np.ldexp(m, p)), base * 2.0 ** p), p


@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1.0, 1e100, 1e200])
def test_spectrum_cross_check_holds_at_every_scale(scale, monkeypatch):
    """Eigenvalues 0.1% off disagree with the determinant at every scale of
    M.  Unscaled, the determinant is inf at 1e100 and 0 at 1e-100, so the
    check passed on nan and on 0 = 0."""
    m = scale * np.random.default_rng(3).standard_normal((6, 6))
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) * 1.001)
    with pytest.raises(NumericalFailure, match="disagrees with determinant"):
        linalg.spectrum(m)


# --- operator norm -----------------------------------------------------------

def test_operator_norm_diagonal():
    assert linalg.operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)


def test_operator_norm_unitary(rng):
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    q, _ = np.linalg.qr(g)
    assert linalg.operator_norm(q) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_shift():
    # sigma_max = sqrt(lambda_max(M* M)) = sqrt(4) = 2
    assert linalg.operator_norm(np.array([[0, 2], [0, 0]])) == pytest.approx(2.0)


def test_lapack_names_a_failure(monkeypatch):
    # A non-finite operand is named: a product that overflowed is a
    # NumericalFailure, and operator_norm no longer calls it invalid input.
    overflowed = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericalFailure, match=r"^T\*T overflows$"):
        linalg.lapack("eigvalsh", overflowed, "T*T")
    with pytest.raises(NumericalFailure, match="overflows"):
        linalg.operator_norm(overflowed)
    # A LAPACK failure is a NumericalFailure too.
    with pytest.raises(NumericalFailure, match="^cholesky of H failed: "):
        linalg.lapack("cholesky", -np.eye(2), "H")
    # The routine is looked up on np.linalg at the call.
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array([7.0]))
    assert linalg.lapack("eigvals", np.eye(1), "T") == 7.0


def test_norm_bounds_bracket_operator_norm(rng):
    cases = [np.eye(3), np.ones((4, 4)), np.array([[0.0, 2.0], [0.0, 0.0]]),
             np.outer([1.0, 2.0, 3.0], [1j, -1.0])]
    for _ in range(20):
        rows, cols = (int(x) for x in rng.integers(1, 9, 2))
        cases.append(rng.standard_normal((rows, cols))
                     + 1j * rng.standard_normal((rows, cols)))
    for m in cases:
        lo, hi = linalg.norm_bounds(m)
        exact = linalg.operator_norm(m)
        assert lo <= exact <= hi
        # column and Frobenius norms, widened by a few hundred ulps at most
        assert lo == pytest.approx(np.max(np.linalg.norm(m, axis=0)), rel=1e-13)
        assert hi == pytest.approx(np.linalg.norm(m), rel=1e-13)
    assert linalg.norm_bounds(np.full((2, 2), 1e300)) == (0.0, float("inf"))


def test_at_most_scaled_agrees_with_exact(rng, monkeypatch):
    # x <= tol * ||m||^2: the SVD runs only when the bounds straddle the
    # threshold.
    calls = []
    exact = linalg.operator_norm
    monkeypatch.setattr(linalg, "operator_norm",
                        lambda m: calls.append(1) or exact(m))
    m = np.diag([10.0, 1.0, 1.0])  # ||m||^2 = 100, Frobenius^2 = 102
    assert linalg.at_most_scaled(0.99e-8, 1e-10, m)
    assert linalg.at_most_scaled(1.03e-8, 1e-10, m) is False
    assert calls == []  # column norm 10 and Frobenius sqrt(102) settle both
    # 101e-10 lies between the bounds 100e-10 and 102e-10: the SVD decides
    assert linalg.at_most_scaled(1.01e-8, 1e-10, m) is False
    assert calls == [1]
    # a relative test, so scaling m and x together changes nothing
    for c in (1e-6, 1.0, 1e6):
        assert linalg.at_most_scaled(0.99e-8 * c * c, 1e-10, c * m)
        assert not linalg.at_most_scaled(1.01e-8 * c * c, 1e-10, c * m)
    with pytest.raises(NumericalFailure, match="overflows"):
        linalg.at_most_scaled(1.0, 1e-10, 1e200 * m)
    for _ in range(40):
        x = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-6, 3)
        tol = 10.0 ** rng.uniform(-10, -1)
        s = exact(x) ** 2
        value = tol * s * 10.0 ** rng.uniform(-0.2, 0.2)
        assert linalg.at_most_scaled(value, tol, x) == (value <= tol * s)


@pytest.mark.parametrize("exponent", [-320, -310, -300, -150, 0, 150, 300, 307])
def test_a_certified_inverse_at_every_scale(exponent):
    # At any scale of a well-conditioned 64 x 64 T, the certificate of
    # S = 2^-e T, the argument posinormal's slot passes, gives a finite
    # inverse of S, quietly: S's largest part lies in [1, 2) whatever the
    # scale of T, also where T's entries are subnormal and S holds fewer bits.
    t = 10.0 ** exponent * oracles.ginibre(np.random.default_rng(3), 64)
    s = linalg.normalize(t)[0]
    assert 1.0 <= np.abs(s.view(np.float64)).max() < 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inverse = linalg.certified_inverse(s)
    assert np.linalg.norm(s @ inverse - np.eye(64), 2) <= 1e-12


def test_significant_is_the_one_rank_rule():
    assert linalg.significant([3.0, 1e-9, 2e-10, 0.0], 3.0).tolist() == [
        True, True, False, False]
    # magnitudes, in any order: the eigenvalues of a PSD matrix ascend
    assert linalg.significant([-1e-17, 1e-3, 5.0], 5.0).tolist() == [False, True, True]
    assert not linalg.significant(np.zeros(3), 0.0).any()
    assert linalg.significant(np.array([]), 0.0).shape == (0,)
    # the caller names the scale: it is not read off the values
    assert linalg.significant([1e-9], 1.0).tolist() == [True]
    assert linalg.significant([1e-9], 100.0).tolist() == [False]


# --- distinct values / hausdorff ---------------------------------------------

def test_distinct_values_clusters():
    vals = [0.0, 1e-9, 1.0, 1.0 + 2e-9, 2.0]
    reps = linalg.distinct_values(vals, tol=1e-6)
    assert len(reps) == 3


def test_hausdorff_distance_simple():
    assert linalg.hausdorff_distance([0.0, 1.0], [0.0, 1.5]) == pytest.approx(0.5)
    assert linalg.hausdorff_distance([1j], [1j]) == 0.0


def test_hausdorff_distance_rejects_an_empty_set():
    for a, b in (([], [1.0]), ([1.0], []), ([], [])):
        with pytest.raises(ValidationError, match="nonempty"):
            linalg.hausdorff_distance(a, b)
