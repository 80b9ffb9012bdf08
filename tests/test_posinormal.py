import dataclasses
import re
import sys
import threading

import numpy as np
import pytest

from posilab import linalg, posinormal
from posilab.errors import NumericalFailure, ValidationError
from posilab.fixtures import (
    clipped_shift,
    invariant_block_matrix,
    nilpotent_shift,
    split_range_matrix,
)
from posilab.posinormal import ClassQuery

import oracles


def haar_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- gap matrix ----------------------------------------------------------------

def test_gap_identity_vanishes():
    gap = posinormal.gap_matrix(np.eye(3), 1, 1, 1.0)
    np.testing.assert_allclose(gap, np.zeros((3, 3)), atol=1e-14)


def test_gap_nilpotent_annihilates():
    gap = posinormal.gap_matrix(nilpotent_shift(3), 3, 2, 0.37)
    np.testing.assert_allclose(gap, np.zeros((3, 3)), atol=1e-14)


def test_gap_shift_closed_form():
    # lam^2 diag(0,1,1) - diag(1,0,0), by direct multiplication
    lam = 7.0
    gap = posinormal.gap_matrix(nilpotent_shift(3), 0, 2, lam)
    np.testing.assert_allclose(gap, np.diag([-1.0, lam ** 2, lam ** 2]), atol=1e-12)


def test_gap_matches_oracle_randomly(rng):
    for _ in range(25):
        dim = int(rng.integers(1, 6))
        t = (rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim)))
        k = int(rng.integers(0, 3))
        n = int(rng.integers(1, 4))
        lam = float(rng.uniform(0.2, 3.0))
        gap = posinormal.gap_matrix(t, k, n, lam)
        expected = oracles.gap_oracle(t, k, n, lam)
        scale = max(1.0, linalg.operator_norm(expected))
        assert linalg.operator_norm(gap - expected) <= 1e-10 * scale
        # Hermitian: equal to its adjoint bit for bit
        assert np.array_equal(gap, gap.conj().T)


def test_query_validation():
    with pytest.raises(ValidationError):
        ClassQuery(k=-1, n=1, lam=1.0)
    with pytest.raises(ValidationError):
        ClassQuery(k=0, n=0, lam=1.0)
    with pytest.raises(ValidationError):
        ClassQuery(k=0, n=1, lam=0.0)
    with pytest.raises(ValidationError):
        ClassQuery(k=0, n=1, lam=float("nan"))
    # one integer rule: an int or a numpy integer, never a bool or a float
    for k, n in ((True, 1), (0, True), (1.0, 1), (0, 2.0)):
        with pytest.raises(ValidationError):
            ClassQuery(k=k, n=n, lam=1.0)
    assert ClassQuery(k=np.int64(1), n=np.int32(2), lam=1.0).n == 2


# --- membership ----------------------------------------------------------------

def test_member_shift_quasi_class():
    report = posinormal.is_member(nilpotent_shift(3), ClassQuery(3, 2, 1.0))
    assert report.holds
    assert report.gap_norm <= 1e-12
    assert report.witness is None


def test_member_shift_fails_without_quasi_layer():
    # gap(1,1) entry is -1 whatever lambda is
    for lam in (1.0, 1e3, 1e6):
        report = posinormal.is_member(nilpotent_shift(3), ClassQuery(0, 2, lam))
        assert not report.holds
        np.testing.assert_allclose(np.abs(report.witness), [1, 0, 0], atol=1e-9)
        assert report.gap_min_eigenvalue == pytest.approx(-1.0, abs=1e-9)


def test_member_unitary_zero_gap(rng):
    u = haar_unitary(rng, 4)
    report = posinormal.is_member(u, ClassQuery(2, 3, 1.0))
    assert report.holds
    assert report.gap_norm <= 1e-12


def test_is_posinormal_cases(rng):
    # normal operator: T*T = TT*
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = g + g.conj().T
    # posinormality is membership at k = 0, n = 1
    assert posinormal.is_member(h, ClassQuery(0, 1, 1.0)).holds
    # direct computation: lam^2 diag(0,1) - diag(1,0) is indefinite
    assert not posinormal.is_member(np.array([[0, 1], [0, 0]]), ClassQuery(0, 1, 1.0)).holds
    assert posinormal.is_member(np.diag([2.0, 1.0]), ClassQuery(0, 1, 1.0)).holds
    assert posinormal.is_member(np.diag([2.0, 1.0]), ClassQuery(0, 1, 5.0)).holds


def test_is_n_power_posinormal_cases():
    # n-power posinormality is membership at k = 0
    assert not posinormal.is_member(nilpotent_shift(3), ClassQuery(0, 2, 1e5)).holds
    assert posinormal.is_member(np.eye(3), ClassQuery(0, 5, 1.0)).holds
    # dimension-6 section has the same e1 obstruction (brute-force oracle)
    t = clipped_shift(6)
    assert not oracles.member_oracle(t, 0, 2, 1.0)
    assert not posinormal.is_member(t, ClassQuery(0, 2, 1.0)).holds


# --- min_lambda ------------------------------------------------------------------

def test_min_lambda_identity():
    result = posinormal.min_lambda(np.eye(3), 0, 1)
    assert result.feasible
    assert result.lambda_min == pytest.approx(1.0, abs=1e-12)


def test_min_lambda_shift_obstruction():
    result = posinormal.min_lambda(nilpotent_shift(3), 0, 2)
    assert not result.feasible
    assert result.lambda_min is None
    np.testing.assert_allclose(np.abs(result.kernel_obstruction), [1, 0, 0],
                               atol=1e-12)


def test_min_lambda_matches_bisection_oracle():
    t = invariant_block_matrix()
    result = posinormal.min_lambda(t, 1, 2)
    assert result.feasible
    oracle = oracles.bisect_min_lambda(t, 1, 2)
    assert result.lambda_min == pytest.approx(oracle, rel=1e-7)
    # frozen from the bisection oracle: lambda_min^2 ~ 10.1041
    assert result.lambda_min ** 2 == pytest.approx(10.104121948738282, rel=1e-7)


def test_min_lambda_zero_for_nilpotent_high_k():
    result = posinormal.min_lambda(nilpotent_shift(3), 3, 2)
    assert result.feasible and result.lambda_min == 0.0


def test_min_lambda_certificate_bracketing(rng):
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(0, 3))
        n = int(rng.integers(1, 4))
        try:
            t, _, lam_min = oracles.random_member(rng, dim, k, n)
        except RuntimeError:
            continue
        result = posinormal.min_lambda(t, k, n)
        assert result.feasible
        lam = result.lambda_min
        assert lam == pytest.approx(lam_min, rel=1e-6)
        assert posinormal.is_member(t, ClassQuery(k, n, lam * (1 + 1e-8))).holds
        assert not posinormal.is_member(t, ClassQuery(k, n, lam * (1 - 1e-6))).holds


def test_min_lambda_diagonal_closed_form():
    # diagonal entries d_i: feasibility reads lam^2 d_i^2 >= d_i^{2n}
    # entrywise, so lambda_min at (0, n) is max d_i^{n-1}
    t = np.diag([2.0, 1.0])
    for n in (1, 2, 3):
        result = posinormal.min_lambda(t, 0, n)
        assert result.lambda_min == pytest.approx(2.0 ** (n - 1), rel=1e-10)


# --- norm inequality / corollary ----------------------------------------------

@pytest.mark.parametrize("t, n, lam, orders", [
    # a member at (1, 2, lam), at orders m >= k = 1
    (invariant_block_matrix(), 2,
     posinormal.min_lambda(invariant_block_matrix(), 1, 2).lambda_min * (1 + 1e-6),
     (1, 2, 3)),
    # a member at (3, 2, 1), at orders m > k = 3 where T^m vanishes
    (nilpotent_shift(3), 2, 1.0, (4, 5)),
], ids=["invariant-block", "shift-vanishing-powers"])
def test_vector_inequality_is_the_gap_at_order_m(t, n, lam, orders):
    # Proposition 2.4(i): ||Dx|| <= lam ||Cx|| for every x, with C = T^{m+1}
    # and D = T*^n T^m, is lam^2 C*C - D*D >= 0, the gap at quasi order m.
    rng = np.random.default_rng(1729)
    for m in orders:
        c = np.linalg.matrix_power(t, m + 1)
        d = np.linalg.matrix_power(t.conj().T, n) @ np.linalg.matrix_power(t, m)
        assert posinormal.is_member(t, ClassQuery(m, n, lam)).holds
        for _ in range(64):  # sampled unit vectors as the oracle
            x = rng.standard_normal(len(t)) + 1j * rng.standard_normal(len(t))
            x = x / np.linalg.norm(x)
            assert np.linalg.norm(d @ x) <= lam * np.linalg.norm(c @ x) + 1e-9
        lam_min = posinormal.min_lambda(t, m, n).lambda_min
        if lam_min > 0:  # below lambda_min the witness breaks the inequality
            x = posinormal.is_member(t, ClassQuery(m, n, 0.5 * lam_min)).witness
            assert np.linalg.norm(d @ x) > 0.5 * lam_min * np.linalg.norm(c @ x)


def test_operator_norm_corollary_identity():
    report = posinormal.operator_norm_corollary_check(np.eye(3), 1, 1, 1.0, m=2)
    assert report.holds
    assert report.lhs == pytest.approx(1.0)
    assert report.rhs_first_power == pytest.approx(1.0)


@pytest.mark.parametrize("c", [1.0, 1e-4, 1e-6])
def test_operator_norm_corollary_is_scale_covariant(c):
    # Both sides scale alike, so the verdicts do not depend on c: at c = 1,
    # lhs = 0.0625 is twice rhs_squared, and it stays twice it when c shrinks
    # both sides far below any absolute slack.
    t = c * np.diag([0.5, 0.25]).astype(complex)
    lam = posinormal.min_lambda(t, 1, 2).lambda_min * 1.000001
    report = posinormal.operator_norm_corollary_check(t, 1, 2, lam, m=2)
    assert report.holds
    assert not report.holds_squared
    assert report.lhs == pytest.approx(2 * report.rhs_squared, rel=1e-5)


def test_operator_norm_corollary_nilpotent():
    report = posinormal.operator_norm_corollary_check(
        nilpotent_shift(3), 3, 2, 1.0, m=3)
    assert report.holds
    assert report.lhs == pytest.approx(0.0, abs=1e-14)


def test_operator_norm_corollary_random_member(rng):
    for _ in range(5):
        t = np.triu(rng.standard_normal((4, 4))
                    + 1j * rng.standard_normal((4, 4)))
        result = posinormal.min_lambda(t, 1, 2)
        if not result.feasible or not result.lambda_min:
            continue
        lam = result.lambda_min * (1 + 1e-6)
        report = posinormal.operator_norm_corollary_check(t, 1, 2, lam, m=2)
        assert report.holds


def test_operator_norm_corollary_validates_the_order():
    t = invariant_block_matrix()
    lam = posinormal.min_lambda(t, 1, 2).lambda_min * (1 + 1e-6)
    for m in (0, True, 2.0):  # below k = 1, a bool, a float
        with pytest.raises(ValidationError, match="m must be an integer"):
            posinormal.operator_norm_corollary_check(t, 1, 2, lam, m=m)


def test_operator_norm_corollary_rejects_nonmember():
    with pytest.raises(ValidationError, match="not a member"):
        posinormal.operator_norm_corollary_check(nilpotent_shift(3), 0, 2, 1.0, m=0)


# --- nilpotency collapse --------------------------------------------------------

def test_nilpotency_collapse_zero_matrix():
    for k, n in ((1, 1), (2, 1), (3, 2)):
        report = posinormal.nilpotency_collapse_check(np.zeros((3, 3)), k, n)
        assert report.passes


def test_nilpotency_collapse_shift_asserted():
    report = posinormal.nilpotency_collapse_check(nilpotent_shift(3), 3, 2)
    assert report.asserted and report.passes
    assert report.norm_t_k == pytest.approx(0.0, abs=1e-14)


def test_nilpotency_collapse_report_only_branch():
    report = posinormal.nilpotency_collapse_check(nilpotent_shift(3), 2, 3)
    assert not report.asserted
    # T^2 != 0, so the measured norm is genuinely positive here
    assert report.norm_t_k == pytest.approx(1.0)


def test_nilpotency_collapse_rejects_nonnilpotent():
    with pytest.raises(ValidationError):
        posinormal.nilpotency_collapse_check(np.eye(2), 1, 1)


# --- classify grid --------------------------------------------------------------

def test_classify_grid_identity():
    grid = posinormal.classify_grid(np.eye(2), 2, 2)
    assert set(grid) == {(k, n) for k in range(3) for n in (1, 2)}
    for result in grid.values():
        assert result.feasible
        assert result.lambda_min == pytest.approx(1.0, abs=1e-10)


def test_classify_grid_shift_pattern():
    grid = posinormal.classify_grid(nilpotent_shift(3), 3, 2)
    for k in range(3):
        assert not grid[(k, 2)].feasible
    assert grid[(3, 2)].feasible
    assert grid[(3, 2)].lambda_min == 0.0


def test_classify_grid_diagonal_closed_form():
    grid = posinormal.classify_grid(np.diag([2.0, 1.0]), 2, 2)
    for (k, n), result in grid.items():
        assert result.feasible
        if k == 0:
            assert result.lambda_min == pytest.approx(2.0 ** (n - 1), rel=1e-9)


def test_classify_grid_validates_like_a_query():
    for k_max, n_max in ((-1, 1), (0, 0), (1.5, 2), (2, 1.5), (True, 1)):
        with pytest.raises(ValidationError):
            posinormal.classify_grid(np.eye(2), k_max, n_max)


def test_classify_grid_k_monotone(rng):
    for _ in range(5):
        t = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 2
        grid = posinormal.classify_grid(t, 2, 2)
        for n in (1, 2):
            for k in (0, 1):
                a, b = grid[(k, n)], grid[(k + 1, n)]
                if a.feasible:
                    assert b.feasible
                    assert b.lambda_min <= a.lambda_min + 1e-8


# --- algebraic properties --------------------------------------------------------

def test_lambda_monotonicity(rng):
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        k = int(rng.integers(0, 3))
        n = int(rng.integers(1, 4))
        result = posinormal.min_lambda(t, k, n)
        if not result.feasible or not result.lambda_min:
            continue
        lam1 = result.lambda_min * (1 + 1e-4)
        assert posinormal.is_member(t, ClassQuery(k, n, lam1)).holds
        for factor in (1.5, 4.0, 100.0):
            assert posinormal.is_member(t, ClassQuery(k, n, lam1 * factor)).holds


def test_k_monotonicity_congruence(rng):
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        k = int(rng.integers(0, 3))
        n = int(rng.integers(1, 4))
        result = posinormal.min_lambda(t, k, n)
        if not result.feasible or not result.lambda_min:
            continue
        lam = result.lambda_min * (1 + 1e-4)
        assert posinormal.is_member(t, ClassQuery(k + 1, n, lam)).holds


def test_scaling_covariance(rng):
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        k = int(rng.integers(0, 3))
        n = int(rng.integers(1, 4))
        c = complex(rng.standard_normal() + 1j * rng.standard_normal())
        if abs(c) < 0.1:
            continue
        result = posinormal.min_lambda(t, k, n)
        if not result.feasible or not result.lambda_min:
            continue
        base = result.lambda_min
        for lam, expect in ((base * 1.5, True), (base * 0.5, False)):
            scaled_lam = lam * abs(c) ** (n - 1)
            got = posinormal.is_member(c * t, ClassQuery(k, n, scaled_lam)).holds
            assert got == expect
            assert posinormal.is_member(t, ClassQuery(k, n, lam)).holds == expect


# --- pencil kernel against the oracle ---------------------------------------------

def kernel_case(rng, kind, dim):
    """One operator of the given kind at a scale 10^U(-1, 1).

    generic         complex Gaussian
    graded          U diag(s) V* with s log-spaced from 1 down to 10^-e,
                    e ~ U(1, 2), so cond(T^{k+1}) reaches about 1e8 at k = 3
    nilpotent_tail  Gaussian head plus a nilpotent shift block of size 2-4
                    in a random unitary basis, so T^{k+1} is rank deficient
    """
    if kind == "generic":
        t = (rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2 * dim)
    elif kind == "graded":
        s = np.logspace(0.0, -rng.uniform(1.0, 2.0), dim)
        t = haar_unitary(rng, dim) @ (s[:, None] * haar_unitary(rng, dim).conj().T)
    else:
        tail = int(rng.integers(2, 5))
        t = (rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2 * dim)
        t[dim - tail:, :] = 0.0
        t[dim - tail:, dim - tail:] = np.eye(tail, k=1)
        q = haar_unitary(rng, dim)
        t = q @ t @ q.conj().T
    return t * 10.0 ** rng.uniform(-1.0, 1.0)


def oracle_member(t, k, n, lam, tol=1e-10):
    """(gap, eigenvalues, eigenvectors, threshold, rounding margin) from the
    definition-form gap, numpy's eigh and the exact ||D||_2^2 scale."""
    gap = oracles.gap_oracle(t, k, n, lam)
    w, v = np.linalg.eigh((gap + oracles.adj(gap)) / 2.0)
    d = oracles.adj(oracles.mpow(t, n)) @ oracles.mpow(t, k)
    threshold = -tol * max(1.0, np.linalg.norm(d, 2) ** 2)
    # Rounding of the gap is relative to the terms it subtracts.
    terms = (np.linalg.norm(oracles.mpow(t, k), 2) ** 2
             * (lam ** 2 * np.linalg.norm(t, 2) ** 2
                + np.linalg.norm(oracles.mpow(t, n), 2) ** 2))
    margin = 1e3 * t.shape[0] * np.finfo(float).eps * terms
    return gap, w, v, threshold, margin


def test_is_member_matches_oracle_across_regimes(rng):
    compared = checked = 0
    for kind in ("generic", "graded", "nilpotent_tail"):
        for _ in range(4):
            dim = int(rng.integers(4, 33))
            t = kernel_case(rng, kind, dim)
            for k, n in ((0, 1), (1, 2), (3, 3)):
                result = posinormal.min_lambda(t, k, n)
                if result.feasible and result.lambda_min > 0:
                    lams = [result.lambda_min * f for f in (0.5, 1 + 1e-6, 2.0)]
                else:
                    base = np.linalg.norm(t) ** (n - 1)
                    lams = [base * f for f in (1.0, 1e3)]
                for lam in lams:
                    report = posinormal.is_member(t, ClassQuery(k, n, lam))
                    gap, w, v, threshold, margin = oracle_member(t, k, n, lam)
                    checked += 1
                    assert isinstance(report.holds, bool)  # not numpy.bool_
                    assert abs(report.gap_min_eigenvalue - w[0]) <= margin
                    assert report.gap_norm == pytest.approx(
                        np.max(np.abs(w)), rel=1e-12, abs=margin)
                    if abs(w[0] - threshold) > margin:
                        compared += 1
                        assert report.holds == (w[0] >= threshold)
                    if report.holds:
                        assert report.witness is None
                        continue
                    x = report.witness
                    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
                    rayleigh = float(np.real(x.conj() @ gap @ x))
                    assert abs(rayleigh - w[0]) <= 2 * margin
                    assert abs(abs(x.conj() @ v[:, 0]) - 1.0) <= 1e-6 or (
                        len(w) > 1 and abs(w[1] - w[0]) <= 1e3 * margin)
    # Near-threshold verdicts are rounding-sensitive and skipped above,
    # but they must stay the exception.
    assert compared >= 0.8 * checked


def _count_calls(monkeypatch, module, name):
    """From now on, the shape of the first argument of every call to
    module.name, in call order."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _lambda_at(t, k, n, target):
    """lambda at which the oracle's smallest gap eigenvalue equals target,
    by bisection (it increases with lambda)."""
    lo, hi = 0.0, 1.0
    while oracles.min_eig(oracles.gap_oracle(t, k, n, hi)) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if oracles.min_eig(oracles.gap_oracle(t, k, n, mid)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_verdict_settled_by_bounds_without_svd(rng, monkeypatch):
    t = 3.0 * kernel_case(rng, "generic", 12)
    result = posinormal.min_lambda(t, 1, 2)
    calls = _count_calls(monkeypatch, linalg, "operator_norm")
    for lam, expect in ((result.lambda_min * 2.0, True),
                        (result.lambda_min * 0.5, False)):
        report = posinormal.is_member(t, ClassQuery(1, 2, lam))
        assert report.holds == expect == oracles.member_oracle(t, 1, 2, lam)
    assert calls == []


def test_verdict_svd_fallback_between_bounds(rng, monkeypatch):
    # Place the smallest gap eigenvalue between the thresholds given by the
    # column-norm and Frobenius bounds on s = ||D*D||_2, on both sides of
    # the exact threshold, so only the SVD of D can decide.
    tol = 1e-10
    for trial in range(4):
        dim = int(rng.integers(6, 17))
        t = 3.0 * (rng.standard_normal((dim, dim))
                   + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2 * dim)
        k, n = (0, 1) if trial % 2 else (1, 2)
        d = oracles.adj(oracles.mpow(t, n)) @ oracles.mpow(t, k)
        b = oracles.adj(d) @ d
        s_exact = np.linalg.norm(d, 2) ** 2
        s_lo, s_hi = np.max(np.linalg.norm(b, axis=0)), np.linalg.norm(b)
        assert 1.0 < s_lo < s_exact < s_hi
        for s_target, expect in (((s_lo + s_exact) / 2, True),
                                 ((s_exact + s_hi) / 2, False)):
            lam = _lambda_at(t, k, n, -tol * s_target)
            calls = _count_calls(monkeypatch, linalg, "operator_norm")
            report = posinormal.is_member(t, ClassQuery(k, n, lam), tol=tol)
            assert report.holds == expect == oracles.member_oracle(t, k, n, lam, tol)
            assert calls == [d.shape]  # exactly one SVD, of D
            monkeypatch.undo()


def test_gap_form_disagreement_is_numerical_failure(monkeypatch):
    gap = np.diag([100.0, 1.0, 1.0, 1.0]).astype(complex)
    calls = _count_calls(monkeypatch, linalg, "operator_norm")
    # Agreement settled by the Frobenius bound: no SVD.
    posinormal._check_forms_agree(gap, gap + 1e-12 * np.eye(4))
    assert calls == []
    # Frobenius 1.8e-8 exceeds 1e-10 * 100, but the spectral deviation
    # 0.9e-10 relative does not: the SVD decides, and the forms agree.
    posinormal._check_forms_agree(gap, gap + 0.9e-8 * np.eye(4))
    assert len(calls) == 2
    # A perturbed pair is a numerical failure (CLI exit 2), not bad input.
    with pytest.raises(NumericalFailure, match="forms disagree"):
        posinormal._check_forms_agree(gap, gap + 2e-8 * np.eye(4))
    assert not issubclass(NumericalFailure, ValidationError)


def test_gram_is_hermitian_to_rounding(rng):
    # _gram_eigen tests A = C*C for overflow only: the product is Hermitian
    # by construction, up to a few N eps of rounding, at any scale of T.
    eps = np.finfo(float).eps
    for dim in (8, 32, 128):
        for kind in ("generic", "graded", "nilpotent_tail"):
            t = kernel_case(rng, kind, dim)
            for scale in (1e-3, 1.0, 1e3):
                for k in range(4):
                    a = posinormal._gram(oracles.mpow(scale * t, k + 1))
                    asym = np.linalg.norm(a - a.conj().T, 2)
                    assert asym <= 4 * dim * eps * np.linalg.norm(a, 2), (dim, kind, scale, k)


def test_classify_grid_forms_each_power_once(rng, monkeypatch):
    for kind in ("generic", "nilpotent_tail"):
        t = kernel_case(rng, kind, 6)
        expected = {(k, n): posinormal.min_lambda(t, k, n)
                    for k in range(4) for n in range(1, 4)}
        powers = []
        exact = linalg.matpow
        monkeypatch.setattr(linalg, "matpow",
                            lambda m, p: powers.append(p) or exact(m, p))
        eigen = _count_calls(monkeypatch, posinormal, "_gram_eigen")
        c = _count_calls(monkeypatch, posinormal, "_power_c")
        grid = posinormal.classify_grid(t, 3, 3)
        monkeypatch.undo()
        assert sorted(powers) == [0, 1, 2, 3]
        assert len(c) == 4  # C = T^{k+1} once per k, k = 0..3
        assert len(eigen) == 4  # A = C*C once per k
        for key, result in expected.items():
            assert grid[key].feasible == result.feasible
            assert grid[key].lambda_min == result.lambda_min
            if result.kernel_obstruction is None:
                assert grid[key].kernel_obstruction is None
            else:
                assert np.array_equal(grid[key].kernel_obstruction,
                                      result.kernel_obstruction)
        if kind == "nilpotent_tail":
            assert not all(result.feasible for result in grid.values())


def test_min_lambda_feasibility_matches_bisection_on_nilpotent_tails(rng):
    # T^{k+1} is exactly rank deficient here; the bisection oracle asks
    # kernel_feasible first, since bisection alone finds a lambda where
    # none exists.
    verdicts = set()
    for _ in range(6):
        t = kernel_case(rng, "nilpotent_tail", int(rng.integers(8, 17)))
        for k, n in ((0, 1), (1, 2), (2, 1), (3, 3)):
            result = posinormal.min_lambda(t, k, n)
            oracle = oracles.bisect_min_lambda(t, k, n)
            assert result.feasible == (oracle is not None)
            verdicts.add(result.feasible)
    assert verdicts == {True, False}


# --- the kernel test of min_lambda ---------------------------------------------------

def test_kernel_test_settled_by_bounds_without_svd(rng, monkeypatch):
    # Where A = C*C has a numerical kernel, its B-energy is either well
    # above the threshold (a nilpotent tail) or at rounding level (a graded
    # T at k = 3): the bounds on ||B||_2 decide, and agree with the SVDs.
    # A graded T has such a kernel only now and then, so draw until four
    # cases of each kind have been seen.
    seen = {"graded": 0, "nilpotent_tail": 0}
    for kind in seen:
        for _ in range(60):
            if seen[kind] >= 4:
                break
            t = kernel_case(rng, kind, int(rng.integers(6, 17)))
            for k, n in ((0, 1), (1, 2), (2, 1), (3, 3)):
                c = oracles.mpow(t, k + 1)
                s = np.linalg.svd(c, compute_uv=False)
                if not np.any(s ** 2 <= 1e-10 * s[0] ** 2):
                    continue  # A has no numerical kernel
                seen[kind] += 1
                calls = _count_calls(monkeypatch, linalg, "operator_norm")
                result = posinormal.min_lambda(t, k, n)
                monkeypatch.undo()
                assert calls == []
                assert result.feasible == oracles.kernel_feasible(t, k, n)
    assert min(seen.values()) >= 4


def test_kernel_test_svd_fallback_between_bounds(rng, monkeypatch):
    # k = 0, n = 1: C = T and D = T*.  T e1 = 0 puts e1 in ker A exactly,
    # and its B-energy is ||T* e1||^2 = ||row 1 of T||^2.  Set that energy
    # between the thresholds given by the column-norm and Frobenius bounds
    # on ||B||_2 = ||T||^2, on both sides of the exact threshold, so only
    # the SVD of B can decide.
    tol = 1e-10
    for _ in range(4):
        dim = int(rng.integers(6, 17))
        head = 3.0 * (rng.standard_normal((dim, dim))
                      + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2 * dim)
        head[:, 0] = 0.0
        row = head[0].copy()
        head[0] = 0.0
        b0 = head @ oracles.adj(head)
        s_lo, s_hi = np.max(np.linalg.norm(b0, axis=0)), np.linalg.norm(b0)
        s_exact = np.linalg.norm(head, 2) ** 2
        for s_target, expect in (((s_lo + s_exact) / 2, True),
                                 ((s_exact + s_hi) / 2, False)):
            t = head.copy()
            t[0] = row * np.sqrt(tol * s_target) / np.linalg.norm(row)
            b = t @ oracles.adj(t)
            assert 1.0 < np.max(np.linalg.norm(b, axis=0)) < np.linalg.norm(b, 2)
            assert np.linalg.norm(b, 2) < np.linalg.norm(b)
            calls = _count_calls(monkeypatch, linalg, "operator_norm")
            result = posinormal.min_lambda(t, 0, 1, tol=tol)
            monkeypatch.undo()
            assert result.feasible == expect == oracles.kernel_feasible(t, 0, 1, tol)
            assert calls == [b.shape]  # exactly one SVD, of B
            if not expect:
                assert abs(result.kernel_obstruction[0]) == pytest.approx(1.0, abs=1e-9)


# --- the witness of a failing verdict ----------------------------------------------

def _verdict_calls(monkeypatch, verdict):
    """verdict() and the shapes of its eigvalsh, eigh and solve calls."""
    calls = {name: _count_calls(monkeypatch, np.linalg, name)
             for name in ("eigvalsh", "eigh", "solve")}
    result = verdict()
    monkeypatch.undo()
    return result, calls


def _check_witness_on_read(monkeypatch, report, holds, lowest, g, threshold):
    """Reading the witness runs one eigh, of g, when the verdict fails, and
    none when it holds; the witness is a unit vector whose Rayleigh quotient
    is the smallest eigenvalue up to rounding and lies below the threshold."""
    seen, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.copy()) or eigh(a))
    x = report.witness
    monkeypatch.undo()
    if holds:
        assert x is None and seen == []
        return
    assert len(seen) == 1 and np.array_equal(seen[0], g)
    rayleigh = np.vdot(x, g @ x).real
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert abs(rayleigh - lowest) <= 16 * len(g) * np.finfo(float).eps * np.linalg.norm(g, 2)
    assert rayleigh < threshold


def _check_verdicts_at(rng, monkeypatch, dim, kinds=("generic",)):
    """Holding or failing, is_member computes eigenvalues only; reading the
    witness of a failing report runs one eigh, of its gap."""
    tol, k, n = 1e-10, 1, 2
    only_eigvalsh = {"eigvalsh": [(dim, dim)], "eigh": [], "solve": []}
    for kind in kinds:
        t = kernel_case(rng, kind, dim)
        result = posinormal.min_lambda(t, k, n)
        d = oracles.adj(oracles.mpow(t, n)) @ oracles.mpow(t, k)
        if result.feasible and result.lambda_min > 0:
            cases = ((2.0 * result.lambda_min, True), (0.5 * result.lambda_min, False))
        else:
            cases = ((np.linalg.norm(t) ** (n - 1), False),)
        for lam, holds in cases:
            report, calls = _verdict_calls(
                monkeypatch, lambda: posinormal.is_member(t, ClassQuery(k, n, lam), tol))
            assert calls == only_eigvalsh and report.holds == holds
            _check_witness_on_read(monkeypatch, report, holds, report.gap_min_eigenvalue,
                                   posinormal.gap_matrix(t, k, n, lam),
                                   -tol * max(1.0, np.linalg.norm(d, 2) ** 2))


def test_eigenvectors_only_for_a_witness(rng, monkeypatch):
    # At every size a verdict is one eigvalsh; the eigenvector comes only
    # when a failing verdict's witness is read.
    for dim in (12, 40):
        _check_verdicts_at(rng, monkeypatch, dim)


def test_witness_at_dimension_128(rng, monkeypatch):
    # The oracle comparison above stops at dim 32; the benchmark's operators
    # have dim 128, where eigenvalues crowd.
    _check_verdicts_at(rng, monkeypatch, 128, ("generic", "graded", "nilpotent_tail"))


# --- the slot of lambda-independent products -----------------------------------------

def _bits(result):
    """The fields of a LambdaResult or ClassReport, and the witness of a
    ClassReport (a property, read here), each float or array as its bytes,
    for a bit-for-bit comparison."""
    values = [getattr(result, f.name) for f in dataclasses.fields(result)
              if not f.name.startswith("_")]
    if isinstance(result, posinormal.ClassReport):
        values.append(result.witness)
    return tuple(v if v is None or isinstance(v, bool) else np.asarray(v).tobytes()
                 for v in values)


def _lambdas(t, n, result):
    """The three lambdas of a benchmark pencil query: around lambda_min, or
    multiples of ||T||_F^(n-1) when there is no positive lambda_min."""
    if result.feasible and result.lambda_min > 0:
        return [result.lambda_min * f for f in (0.5, 1 + 1e-6, 2.0)]
    return [np.linalg.norm(t) ** (n - 1) * f for f in (1.0, 1e3, 1e6)]


def test_warm_slot_gives_the_cold_results_bit_for_bit(rng, monkeypatch):
    # Cold: the slot is emptied before each call.  Warm: min_lambda and
    # three is_member calls on one (T, k, n) after the slot holds it, with
    # no product formed again.
    infeasible = failing = 0
    for kind in ("generic", "graded", "nilpotent_tail"):
        for dim in (12, 40):
            t = kernel_case(rng, kind, dim)
            for k, n in ((0, 1), (1, 2), (3, 3)):
                monkeypatch.setattr(posinormal, "_slot", None)
                result = posinormal.min_lambda(t, k, n)
                queries = [ClassQuery(k, n, lam) for lam in _lambdas(t, n, result)]
                calls = [lambda: posinormal.min_lambda(t, k, n)] + [
                    lambda q=q: posinormal.is_member(t, q) for q in queries]
                cold = []
                for call in calls:
                    monkeypatch.setattr(posinormal, "_slot", None)
                    cold.append(_bits(call()))
                posinormal.is_member(t, queries[0])
                formed = _count_calls(monkeypatch, posinormal, "_form_pencil")
                assert [_bits(call()) for call in calls] == cold
                assert formed == []
                monkeypatch.undo()
                infeasible += not result.feasible
                failing += sum(not posinormal.is_member(t, q).holds for q in queries)
    assert infeasible > 0 and failing > 0


def test_slot_sees_in_place_changes(rng, monkeypatch):
    # The slot keeps its own copy of T, so a caller that changes its array
    # in place gets the results of the new T.  At k = 1, T^k is T itself.
    t = kernel_case(rng, "generic", 12)
    query = ClassQuery(1, 2, 1.0)
    before = posinormal.min_lambda(t, 1, 2)
    posinormal.is_member(t, query)
    t *= 2.0
    after = (posinormal.min_lambda(t, 1, 2), posinormal.is_member(t, query))
    assert after[0].lambda_min == pytest.approx(2.0 * before.lambda_min, rel=1e-9)
    monkeypatch.setattr(posinormal, "_slot", None)
    assert _bits(after[0]) == _bits(posinormal.min_lambda(t.copy(), 1, 2))
    monkeypatch.setattr(posinormal, "_slot", None)
    assert _bits(after[1]) == _bits(posinormal.is_member(t.copy(), query))
    # The key is the bit pattern: -0.0 in place of 0.0 forms anew.
    t[0, 0] = 0.0
    posinormal.min_lambda(t, 1, 2)
    formed = _count_calls(monkeypatch, posinormal, "_form_pencil")
    posinormal.min_lambda(t, 1, 2)
    t[0, 0] = -0.0
    posinormal.min_lambda(t, 1, 2)
    assert formed == [t.shape]


def test_overflow_leaves_nothing_held(rng, monkeypatch):
    posinormal.min_lambda(kernel_case(rng, "generic", 3), 1, 1)
    # C = T^2 overflows: the formation raises and leaves no slot, and so
    # does the identical next call.
    for _ in range(2):
        with pytest.raises(NumericalFailure, match=re.escape("T^{k+1} overflows")):
            posinormal.is_member(1e200 * np.eye(3), ClassQuery(1, 1, 1.0))
        assert posinormal._slot is None
    # C and D are finite but A = C*C overflows: every read of it raises.
    for _ in range(2):
        with pytest.raises(NumericalFailure, match=re.escape("(T^{k+1})*T^{k+1} overflows")):
            posinormal.min_lambda(1e160 * np.eye(3), 0, 1)
        with pytest.raises(NumericalFailure, match="gap matrix overflows"):
            posinormal.is_member(1e160 * np.eye(3), ClassQuery(0, 1, 1.0))


def test_one_power_each_for_min_lambda_and_three_verdicts(rng, monkeypatch):
    t = kernel_case(rng, "generic", 16)
    monkeypatch.setattr(posinormal, "_slot", None)
    for k, n in ((1, 2), (3, 2), (0, 3)):
        powers = []
        exact = linalg.matpow
        monkeypatch.setattr(linalg, "matpow",
                            lambda m, p: powers.append(p) or exact(m, p))
        result = posinormal.min_lambda(t, k, n)
        for lam in _lambdas(t, n, result):
            posinormal.is_member(t, ClassQuery(k, n, lam))
        monkeypatch.setattr(linalg, "matpow", exact)
        assert sorted(powers) == sorted((k, n))


def test_concurrent_callers_get_their_own_results(rng, monkeypatch):
    # Four threads on two cores, each on its own T, replace the one slot
    # under one another; every result must still be the cold one.
    cases = [(kernel_case(rng, "generic", 12), k, 2) for k in range(4)]
    expected = []
    for t, k, n in cases:
        monkeypatch.setattr(posinormal, "_slot", None)
        result = posinormal.min_lambda(t, k, n)
        query = ClassQuery(k, n, 2.0 * result.lambda_min)
        expected.append((_bits(result), query, _bits(posinormal.is_member(t, query))))
    mismatches = []

    def work(i):
        t, k, n = cases[i]
        lam_bits, query, member_bits = expected[i]
        for _ in range(40):
            if (_bits(posinormal.min_lambda(t, k, n)) != lam_bits
                    or _bits(posinormal.is_member(t, query)) != member_bits):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
