import dataclasses
import functools
import importlib.util
import itertools
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from posilab import fileio, linalg, posinormal, structure
from posilab.errors import NumericalFailure, ValidationError
from posilab.fixtures import (
    clipped_shift,
    invariant_block_matrix,
    nilpotent_shift,
    split_range_matrix,
)
from posilab.posinormal import ClassQuery

import oracles
from oracles import haar_unitary


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
    # T e1 = 0 while T*^2 e1 = e3: the pencil at (0, 2) is obstructed, so
    # the verdict fails at every lambda with a normal form unbounded below,
    # and its witness is the kernel obstruction e1, where the definition's
    # gap is -1 whatever lambda is.
    t = nilpotent_shift(3)
    obstruction = posinormal.min_lambda(t, 0, 2).kernel_obstruction
    for lam in (1.0, 1e3, 1e6):
        report = posinormal.is_member(t, ClassQuery(0, 2, lam))
        assert not report.holds
        assert (report.gap_min_eigenvalue, report.gap_norm) == (-np.inf, np.inf)
        x = report.witness
        assert np.array_equal(x, obstruction) and np.array_equal(x, [1, 0, 0])
        gap = oracles.gap_oracle(t, 0, 2, lam)
        assert np.vdot(x, gap @ x).real == pytest.approx(-1.0, abs=1e-9)


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


# --- exact answers as oracles ----------------------------------------------------

def test_invertible_lambda_min_is_the_same_at_every_k():
    # For invertible T, ran T^k is the whole space, so the class at (k, n)
    # is the class at (0, n) and lambda_min = ||T*^n T^{-1}||_2 at every k.
    # A third of the draws are column-graded; cond(T^{k+1}) reaches 1e15.
    rng = np.random.default_rng(2507)
    for i in range(150):
        dim, k, n = int(rng.integers(3, 17)), int(rng.integers(0, 6)), int(rng.integers(1, 5))
        t = oracles.ginibre(rng, dim)
        if i % 3 == 0:
            t = t * np.logspace(0.0, -rng.uniform(1.0, 3.0), dim)
        for c in (0.1, 1.0, 10.0):
            exact = oracles.inverse_lambda_min(c * t, n)
            result = posinormal.min_lambda(c * t, k, n)
            assert result.feasible, (i, c, k, n)
            assert result.lambda_min == pytest.approx(exact, rel=1e-8), (i, c, k, n)
            assert posinormal.is_member(
                c * t, ClassQuery(k, n, result.lambda_min * (1 + 1e-6))).holds


def test_nilpotent_tail_is_feasible_iff_its_size_is_at_most_k():
    # The tail's size m is recorded by the generator, not inferred: (k, n)
    # is feasible iff m <= k, and then lambda_min is the head's.
    rng = np.random.default_rng(2508)
    verdicts = set()
    for _ in range(60):
        dim, m = int(rng.integers(5, 17)), int(rng.integers(1, 5))
        t, head = oracles.nilpotent_tail(rng, dim, m)
        t = t * 10.0 ** rng.uniform(-1.0, 1.0)
        for k, n in ((0, 1), (1, 2), (2, 1), (3, 3), (4, 2), (5, 1)):
            result = posinormal.min_lambda(t, k, n)
            assert result.feasible == (m <= k), (dim, m, k, n)
            verdicts.add(result.feasible)
            if result.feasible:
                exact = oracles.head_lambda_min(t, n, head)
                assert result.lambda_min == pytest.approx(exact, rel=1e-8), (dim, m, k, n)
    assert verdicts == {True, False}


def test_direct_sum_lambda_min_is_the_larger_one():
    # lambda_min(T + cS) = max(lambda_min(T), |c|^(n-1) lambda_min(S)), and
    # T + cS is feasible iff both summands are.  S is invertible; T is
    # invertible or carries a nilpotent tail of recorded size.  An
    # obstruction carried by cS itself is |c|^n times smaller than D', below
    # any relative tolerance once |c|^n < sqrt(tol), so none is drawn there.
    # Beside a tail, |c| = 1e-6 puts singular values of about 1e-8 ||T||
    # next to the tail's exact zero, and lambda_min is then ill-conditioned:
    # in 60-digit arithmetic a perturbation of T of relative size 1e-16
    # moved it from 2.29 to 37-84.  There only feasibility is checked.
    rng = np.random.default_rng(2509)
    verdicts = set()
    for i in range(150):
        c = (1e-2, 1e-4, 1e-6)[i % 3] * np.exp(2j * np.pi * rng.uniform())
        k, n = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        d1, d2 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        tail = i % 4 == 0
        if tail:
            m = int(rng.integers(1, 4))
            t, head = oracles.nilpotent_tail(rng, d1 + m, m)
            lam_t = oracles.head_lambda_min(t, n, head) if m <= k else None
        else:
            t = oracles.ginibre(rng, d1)
            lam_t = oracles.inverse_lambda_min(t, n)
        s_ = oracles.ginibre(rng, d2)
        total = np.zeros((len(t) + d2, len(t) + d2), dtype=complex)
        total[:len(t), :len(t)], total[len(t):, len(t):] = t, c * s_
        result = posinormal.min_lambda(total, k, n)
        assert result.feasible == (lam_t is not None), (i, k, n)
        verdicts.add(result.feasible)
        if lam_t is not None and not (tail and abs(c) < 1e-5):
            exact = max(lam_t, abs(c) ** (n - 1) * oracles.inverse_lambda_min(s_, n))
            assert result.lambda_min == pytest.approx(exact, rel=1e-8), (i, k, n)
    assert verdicts == {True, False}


def test_rotated_shift_is_the_shift():
    # V J V* for a Haar unitary V and the shift J = nilpotent_shift(m) has
    # no head, and its answers are J's at every scale: feasible iff
    # m <= max(k, n) (T^k = 0 or T^n = 0), with lambda_min 0 up to the
    # rounding of T^n, else an obstruction that is V times J's, up to
    # phase.  A rung on which T is rounding only has rank 0, and T*^n below
    # DEFAULT_TOL ||T||^n on the rung's kernel obstructs nothing.
    rng = np.random.default_rng(2510)
    for m in range(2, 7):
        shift = nilpotent_shift(m)
        for _ in range(4):
            v, scale = haar_unitary(rng, m), 10.0 ** rng.uniform(-1.0, 1.0)
            t = scale * (v @ shift @ v.conj().T)
            for k in range(5):
                for n in range(1, 5):
                    exact = posinormal.min_lambda(shift, k, n)
                    result = posinormal.min_lambda(t, k, n)
                    assert exact.feasible == (m <= max(k, n))
                    assert result.feasible == exact.feasible, (m, k, n)
                    if result.feasible:
                        assert exact.lambda_min == 0.0
                        assert result.lambda_min <= 1e-12 * scale ** (n - 1), (m, k, n)
                    else:
                        overlap = np.vdot(v @ exact.kernel_obstruction,
                                          result.kernel_obstruction)
                        assert abs(overlap) == pytest.approx(1.0, abs=1e-8), (m, k, n)


def test_rotated_graded_and_infeasible_inputs_keep_their_answers():
    # V* T V for a Haar unitary V has T's answers at every (k, n): the same
    # feasibility, lambda_min to 1e-8 relative, and an obstruction that is
    # V* times T's, up to phase.  T is a graded diagonal or a graded
    # U diag(s) W* (singular values log-spaced over 1-3 decades), each with
    # one zero column, or a nilpotent tail beside a generic head.
    rng = np.random.default_rng(2511)
    verdicts = set()
    for i in range(60):
        dim = int(rng.integers(3, 11))
        s = np.logspace(0.0, -rng.uniform(1.0, 3.0), dim)
        if i % 3 == 0:
            t = np.diag(s).astype(complex)
        elif i % 3 == 1:
            t = haar_unitary(rng, dim) @ (s[:, None] * haar_unitary(rng, dim).conj().T)
        else:
            t = oracles.nilpotent_tail(rng, dim, int(rng.integers(1, 4)))[0]
        if i % 3 < 2:
            t[:, int(rng.integers(dim))] = 0.0
        v = haar_unitary(rng, dim)
        rotated = v.conj().T @ t @ v
        for k in range(4):
            for n in (1, 2, 3):
                exact = posinormal.min_lambda(t, k, n)
                result = posinormal.min_lambda(rotated, k, n)
                assert result.feasible == exact.feasible, (i, k, n)
                verdicts.add((i % 3, result.feasible))
                if exact.feasible:
                    assert result.lambda_min == pytest.approx(exact.lambda_min,
                                                              rel=1e-8), (i, k, n)
                else:
                    overlap = np.vdot(v.conj().T @ exact.kernel_obstruction,
                                      result.kernel_obstruction)
                    assert abs(overlap) == pytest.approx(1.0, abs=1e-8), (i, k, n)
    assert verdicts == {(0, True), (1, True), (1, False), (2, True), (2, False)}


def test_kernel_obstruction_is_a_kernel_direction_that_t_star_n_sees(rng):
    # The obstruction is a unit x with T^{k+1} x ~ 0 whose image
    # y = T^k x / ||T^k x|| lies in ran T^k with ||T*^n y||^2 above
    # tol * ||T*^n P||^2, P the projector onto ran T^k (from the oracle's
    # pivoted-QR basis).  On the shift fixtures it is a standard basis
    # vector with entry +1.
    tol = 1e-10
    shifts = [nilpotent_shift(3), clipped_shift(6)]
    tails = [oracles.nilpotent_tail(rng, int(rng.integers(6, 17)), 4)[0]
             for _ in range(6)]
    seen = 0
    for t in shifts + tails:
        for k in range(4):
            for n in (1, 2, 3):
                result = posinormal.min_lambda(t, k, n, tol=tol)
                if result.feasible:
                    continue
                seen += 1
                x, q = result.kernel_obstruction, oracles.range_basis(t, k)
                assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
                y = oracles.mpow(t, k) @ x
                y /= np.linalg.norm(y)
                assert np.linalg.norm(t @ y) <= 1e-9 * np.linalg.norm(t, 2)
                assert np.linalg.norm(y - q @ (oracles.adj(q) @ y)) <= 1e-9
                dq = oracles.adj(oracles.mpow(t, n)) @ q
                assert (np.linalg.norm(oracles.adj(oracles.mpow(t, n)) @ y) ** 2
                        > tol * np.linalg.norm(dq, 2) ** 2)
                if any(t is shift for shift in shifts):
                    assert sorted(np.abs(x)) == [0.0] * (len(x) - 1) + [1.0]
                    assert x[np.argmax(np.abs(x))] == 1.0
    assert seen >= 30


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
MATRIX_FIXTURES = sorted(p for p in FIXTURES.glob("*.json")
                         if p.stem != "interval_two_block_8")


def test_certificates_on_the_fixtures_hold_on_the_definition():
    # On every matrix fixture at k 0-3 and n 1-3, each certificate holds on
    # the definition's gap as gap_matrix forms it: at lambda_min (1 - 1e-6)
    # the verdict fails with a witness x with x*Gx < 0, and an infeasible
    # pair fails at 1, 1e3 and 1e6 x ||T||^(n-1) with the kernel obstruction
    # as its witness.
    seen = {True: 0, False: 0}
    for path in MATRIX_FIXTURES:
        t = fileio.load_matrix(path)
        for k in range(4):
            for n in (1, 2, 3):
                result = posinormal.min_lambda(t, k, n)
                if result.feasible and result.lambda_min == 0.0:
                    continue  # every lambda > 0 holds
                if result.feasible:
                    lams = [result.lambda_min * (1 - 1e-6)]
                else:
                    unit = np.linalg.norm(t, 2) ** (n - 1)
                    lams = [unit * f for f in (1.0, 1e3, 1e6)]
                for lam in lams:
                    report = posinormal.is_member(t, ClassQuery(k, n, lam))
                    assert not report.holds, (path.stem, k, n, lam)
                    x = report.witness
                    if not result.feasible:
                        assert np.array_equal(x, result.kernel_obstruction)
                    gap = posinormal.gap_matrix(t, k, n, lam)
                    assert np.vdot(x, gap @ x).real < 0, (path.stem, k, n, lam)
                seen[result.feasible] += 1
    assert seen[True] >= 20 and seen[False] >= 10, seen


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
            report = posinormal.is_member(t, ClassQuery(m, n, 0.5 * lam_min))
            x = report.witness
            assert np.linalg.norm(d @ x) > 0.5 * lam_min * np.linalg.norm(c @ x)
            _check_witness(t, m, n, 0.5 * lam_min, report, True)


def test_operator_norm_corollary_identity():
    report = posinormal.operator_norm_corollary_check(np.eye(3), 1, 1, 1.0, m=2)
    assert report.holds
    assert report.lhs == pytest.approx(1.0)
    assert report.rhs_first_power == pytest.approx(1.0)


@pytest.mark.parametrize("c", [2.0 ** -600, 2.0 ** -300, 1e-6, 1e-4, 1.0, 4.0,
                               2.0 ** 300, 2.0 ** 600])
def test_operator_norm_corollary_is_scale_covariant(c):
    # T = c diag(0.5, 0.25) at (1, 2), m = 2: lambda_min = c / 2, and the
    # first-power form is homogeneous, lhs = c^4 / 16 = lambda_min ||T^3||,
    # so it holds at every c, with both sides inf or 0 in T's units where
    # c^4 leaves the float range.  The squared form is not homogeneous:
    # lambda^2 ||T^3|| / lhs = c / 2, so it fails below c = 2 and holds
    # above, where it is decided on 2^-e T and neither side underflows.
    t = c * np.diag([0.5, 0.25]).astype(complex)
    lam = posinormal.min_lambda(t, 1, 2).lambda_min * 1.000001
    report = posinormal.operator_norm_corollary_check(t, 1, 2, lam, m=2)
    assert report.holds
    assert report.holds_squared == (c > 2.0)
    assert report.lhs == pytest.approx(report.rhs_first_power / 1.000001, rel=1e-9, abs=0.0)


def test_operator_norm_corollary_holds_at_every_scale():
    # split_range 2^j is a member at (1, 2, lambda_min (1 + 1e-6)) for
    # every j, and the first-power form holds at every order m: no power
    # of T is formed in T's units, so nothing overflows or underflows.
    t = split_range_matrix()
    for j in range(-600, 601, 100):
        scaled = linalg.ldexp(t, j)
        lam = posinormal.min_lambda(scaled, 1, 2).lambda_min * (1 + 1e-6)
        for m in (1, 2, 3):
            assert posinormal.operator_norm_corollary_check(scaled, 1, 2, lam, m).holds, (j, m)


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


@pytest.mark.parametrize("scale", [1e-6, 1e-9])
def test_nilpotency_collapse_sees_a_small_invertible_t(scale):
    # ||T^2|| = scale^2 is below an absolute bound, but the ladder keeps ran T^2
    with pytest.raises(ValidationError, match="T\\^2 is not numerically zero"):
        posinormal.nilpotency_collapse_check(scale * np.eye(3), 1, 1)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e160])
def test_nilpotency_collapse_is_covariant(scale):
    # T^4 = 0 and T^3 = 0 are read off the range ladder, also at 1e160, where
    # T^2 overflows
    report = posinormal.nilpotency_collapse_check(scale * nilpotent_shift(3), 3, 2)
    assert report.asserted and report.passes
    assert report.norm_t_k == 0.0
    assert report.bound == pytest.approx(1e-10 * scale)


def test_nilpotency_collapse_rejects_nonnilpotent():
    with pytest.raises(ValidationError):
        posinormal.nilpotency_collapse_check(np.eye(2), 1, 1)


def test_nilpotency_collapse_rejects_a_nonmember():
    # T^3 = 0, but at (2, 1) ran T^2 = span(e1) and T* e1 != 0 = T e1
    with pytest.raises(ValidationError, match="not a member"):
        posinormal.nilpotency_collapse_check(nilpotent_shift(3), 2, 1)


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


def _compressed_min_eig(t, k, n, lam):
    """Smallest eigenvalue of lam^2 C'*C' - D'*D' on the oracle's basis of
    ran T^k, and the rounding band of the Gram form around it."""
    c, d = oracles.compressed_pencil(t, k, n)
    g = lam ** 2 * oracles.adj(c) @ c - oracles.adj(d) @ d
    band = 100 * len(t) * np.finfo(float).eps * (
        lam ** 2 * np.linalg.norm(c, 2) ** 2 + np.linalg.norm(d, 2) ** 2)
    return oracles.min_eig(g), band


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


@functools.cache
def _widened_draws():
    """Draws (kind, T, k, n, c) of the widened scaling tests: generic,
    graded and nilpotent-tail T at dims up to 16, k up to 3, n up to 3,
    and c with |c| in [0.1, 10]."""
    rng, draws = np.random.default_rng(42), []
    for i in range(60):
        kind = ("generic", "graded", "nilpotent_tail")[i % 3]
        dim = int(rng.integers(2 if kind != "nilpotent_tail" else 6, 17))
        t = kernel_case(rng, kind, dim)
        k, n = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        c = complex(rng.standard_normal() + 1j * rng.standard_normal())
        draws.append((kind, t, k, n, c * 10.0 ** rng.uniform(-1.0, 1.0) / abs(c)))
    return draws


def test_scaling_covariance_widened():
    # Scaling T by c scales lambda_min by |c|^(n-1) and keeps feasibility.
    # At both scales the pencil on ran T^k is PSD at (1 + 1e-6) lambda_min
    # and indefinite beyond rounding at (1 - 1e-6) lambda_min, and is_member
    # holds at (1 + 1e-6) lambda_min.
    infeasible = checked = 0
    for i, (kind, t, k, n, c) in enumerate(_widened_draws()):
        result, scaled = posinormal.min_lambda(t, k, n), posinormal.min_lambda(c * t, k, n)
        assert scaled.feasible == result.feasible, (i, kind, k, n)
        if not result.feasible:
            infeasible += 1
            continue
        assert scaled.lambda_min == pytest.approx(
            abs(c) ** (n - 1) * result.lambda_min, rel=1e-8), (i, kind, k, n)
        for m, lam in ((t, result.lambda_min), (c * t, scaled.lambda_min)):
            above, band = _compressed_min_eig(m, k, n, lam * (1 + 1e-6))
            assert above >= -band, (i, kind, k, n)
            below, band = _compressed_min_eig(m, k, n, lam * (1 - 1e-6))
            assert below < -band, (i, kind, k, n)
            assert posinormal.is_member(m, ClassQuery(k, n, lam * (1 + 1e-6))).holds
            checked += 1
    assert infeasible > 0 and checked > 60


@pytest.mark.parametrize("draw", range(60))
def test_is_member_scaling_covariance_widened(draw):
    # is_member holds at 1.5 lambda_min and fails at 0.5 lambda_min on T and
    # on cT, with lambda scaled by |c|^(n-1); an infeasible T fails at
    # ||T||^(n-1) and 1e3 ||T||^(n-1) at both scales.
    kind, t, k, n, c = _widened_draws()[draw]
    result = posinormal.min_lambda(t, k, n)
    if result.feasible:
        cases = ((result.lambda_min * 1.5, True), (result.lambda_min * 0.5, False))
    else:
        unit = np.linalg.norm(t, 2) ** (n - 1)
        cases = ((unit, False), (unit * 1e3, False))
    for lam, expect in cases:
        assert posinormal.is_member(t, ClassQuery(k, n, lam)).holds == expect
        scaled = ClassQuery(k, n, lam * abs(c) ** (n - 1))
        assert posinormal.is_member(c * t, scaled).holds == expect


@functools.cache
def _sweep_operators():
    """(kind, T) of the scale sweep: at each dim 3-8 a Ginibre T, a graded
    T (singular values log-spaced from 1 to 1e-6), a rotated nilpotent
    tail of size 3 and the exact shift; then one well-conditioned 64 x 64
    Ginibre T, whose rung 0 is the certified inverse."""
    rng, operators = np.random.default_rng(12), []
    for dim in range(3, 9):
        operators += [("generic", oracles.ginibre(rng, dim)),
                      ("graded", _graded(rng, dim, np.logspace(0.0, -6.0, dim))),
                      ("tail", oracles.nilpotent_tail(rng, dim, 3)[0]),
                      ("shift", nilpotent_shift(dim).astype(complex))]
    return operators + [("certified", oracles.ginibre(rng, 64))]


def _normal(x) -> bool:
    """Whether every entry of x is 0 or a normal float."""
    x = np.abs(np.asarray(x, dtype=float))
    return bool(np.isfinite(x).all() and (x[x > 0] >= np.finfo(float).tiny).all())


@pytest.mark.parametrize("index", range(25))
def test_answers_are_covariant_under_exact_scaling(index):
    """T -> 2^j T for j = -1000, -950, ..., 1000, at (k, n) in (0, 1),
    (0, 2), (1, 2), (2, 1) and (1, 3).  A case counts where the entries of
    2^j T and the exact lambda_min 2^(j(n-1)) are normal floats.  There,
    min_lambda gives T's feasibility and lambda_min 2^(j(n-1)), to 1e-12
    relative, and is_member at lambda_min (1 -+ 1e-3) 2^(j(n-1)) (an
    infeasible T at 2^(j(n-1))) gives T's verdicts and witnesses, wherever
    that lambda is a normal float and its square is finite.  The 64 x 64 T
    keeps its certified rung 0 at every scale."""
    kind, t = _sweep_operators()[index]
    counted = 0
    for k, n in ((0, 1), (0, 2), (1, 2), (2, 1), (1, 3)):
        base = posinormal.min_lambda(t, k, n)
        lams = ([base.lambda_min * (1 - 1e-3), base.lambda_min * (1 + 1e-3)]
                if base.feasible and base.lambda_min else [1.0])
        reports = [posinormal.is_member(t, ClassQuery(k, n, lam)) for lam in lams]
        witnesses = [report.witness for report in reports]
        for j in range(-1000, 1001, 50):
            with np.errstate(over="ignore"):
                scaled = linalg.ldexp(t, j)
                lam_min = np.ldexp(base.lambda_min or 0.0, j * (n - 1))
                queries = np.ldexp(lams, j * (n - 1))
            if not _normal(scaled.view(np.float64)) or not _normal(lam_min):
                continue
            counted += 1
            result = posinormal.min_lambda(scaled, k, n)
            assert result.feasible == base.feasible, (kind, k, n, j)
            if result.feasible:
                assert result.lambda_min == pytest.approx(lam_min, rel=1e-12, abs=0.0), (
                    kind, k, n, j)
            if kind == "certified":
                assert posinormal._slot.held[("rung", 0)].top is None, j
            for lam, report, witness in zip(queries, reports, witnesses):
                with np.errstate(over="ignore"):
                    if not (lam > 0 and _normal(lam) and np.isfinite(lam * lam)):
                        continue
                got = posinormal.is_member(scaled, ClassQuery(k, n, float(lam)))
                assert got.holds == report.holds, (kind, k, n, j)
                if witness is not None:
                    assert np.allclose(got.witness, witness, rtol=0.0, atol=1e-12), (
                        kind, k, n, j)
    assert counted >= 150


# --- pencil kernel against the oracle ---------------------------------------------

def _graded(rng, dim, s):
    """U diag(s) V* for Haar U and V."""
    return haar_unitary(rng, dim) @ (s[:, None] * haar_unitary(rng, dim).conj().T)


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
        t = _graded(rng, dim, np.logspace(0.0, -rng.uniform(1.0, 2.0), dim))
    else:
        tail = int(rng.integers(2, 5))
        t = (rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2 * dim)
        t[dim - tail:, :] = 0.0
        t[dim - tail:, dim - tail:] = np.eye(tail, k=1)
        q = haar_unitary(rng, dim)
        t = q @ t @ q.conj().T
    return t * 10.0 ** rng.uniform(-1.0, 1.0)


def _check_witness(t, k, n, lam, report, feasible):
    """The witness of a failing report is a unit x on which the
    definition's gap (the oracle's) is negative.  On a feasible pencil
    y = T^k x is the top generalized eigenvector of the normal form: its
    Rayleigh quotient lam^2 - ||T*^n y||^2 / ||T y||^2 is
    gap_min_eigenvalue."""
    x = report.witness
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    gap = oracles.gap_oracle(t, k, n, lam)
    assert np.vdot(x, gap @ x).real < 0
    if feasible:
        y = oracles.mpow(t, k) @ x
        ratio = (np.linalg.norm(oracles.adj(oracles.mpow(t, n)) @ y)
                 / np.linalg.norm(t @ y)) ** 2
        assert lam ** 2 - ratio == pytest.approx(report.gap_min_eigenvalue, rel=1e-8)


def test_is_member_matches_oracle_across_regimes(rng):
    # Against the oracle's normal form, from its pivoted-QR basis of
    # ran T^k and scipy's generalized eigh: an obstructed pencil fails
    # with -inf and inf, else gap_min_eigenvalue and gap_norm are the
    # smallest and largest magnitude of lam^2 - mu_i, and the verdict is
    # the oracle's threshold -tol lambda_min^2 wherever rounding cannot
    # decide it.
    tol = 1e-10
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
                feasible = oracles.kernel_feasible(t, k, n, tol)
                assert result.feasible == feasible
                for lam in lams:
                    report = posinormal.is_member(t, ClassQuery(k, n, lam), tol)
                    checked += 1
                    assert isinstance(report.holds, bool)  # not numpy.bool_
                    w = oracles.normal_form(t, k, n, lam)
                    if not feasible:
                        compared += 1
                        assert not report.holds
                        assert (report.gap_min_eigenvalue, report.gap_norm) == (
                            -np.inf, np.inf)
                    elif not w.size:  # T vanishes on ran T^k
                        compared += 1
                        assert report.holds
                        assert report.gap_min_eigenvalue == report.gap_norm == 0.0
                    else:
                        lam2_min = lam ** 2 - w[0]
                        margin = 1e-8 * (lam ** 2 + lam2_min)
                        assert abs(report.gap_min_eigenvalue - w[0]) <= margin
                        assert abs(report.gap_norm - np.max(np.abs(w))) <= margin
                        if abs(w[0] + tol * lam2_min) > margin:
                            compared += 1
                            assert report.holds == (w[0] >= -tol * lam2_min)
                    if report.holds:
                        assert report.witness is None
                    else:
                        _check_witness(t, k, n, lam, report, feasible)
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


def test_verdict_settled_by_bounds_without_svd(rng, monkeypatch):
    # The normal form's threshold -tol lambda_min^2 is read off the held
    # pencil, so no norm of D is bounded or taken, and the verdicts agree
    # with the oracle's normal form.
    t = 3.0 * kernel_case(rng, "generic", 12)
    result = posinormal.min_lambda(t, 1, 2)
    calls = _count_calls(monkeypatch, linalg, "operator_norm")
    for lam, expect in ((result.lambda_min * 2.0, True),
                        (result.lambda_min * 0.5, False)):
        report = posinormal.is_member(t, ClassQuery(1, 2, lam))
        assert report.holds == expect == oracles.member_oracle(t, 1, 2, lam)
    assert calls == []


def test_verdict_svd_fallback_between_bounds(rng, monkeypatch):
    # The normal form's threshold needs no norm bounds and no SVD fallback:
    # it is exact, and lambda a quarter of the tolerance on either side of it,
    # lambda^2 = (1 - f tol) lambda_min^2 with f = 3/4 or 5/4, is decided
    # as the oracle's exact lambda_min = ||T*^n T^-1|| of an invertible T
    # says, with no SVD, and gap_min_eigenvalue is -f tol lambda_min^2.
    tol = 1e-6
    for trial in range(4):
        dim = int(rng.integers(6, 17))
        t = 3.0 * kernel_case(rng, "generic", dim)
        k, n = (0, 1) if trial % 2 else (1, 2)
        exact = oracles.inverse_lambda_min(t, n)
        lam_min = posinormal.min_lambda(t, k, n, tol).lambda_min
        assert lam_min == pytest.approx(exact, rel=1e-9)
        for f, expect in ((0.75, True), (1.25, False)):
            lam = lam_min * np.sqrt(1.0 - f * tol)
            svds = _count_calls(monkeypatch, np.linalg, "svd")
            report = posinormal.is_member(t, ClassQuery(k, n, lam), tol=tol)
            monkeypatch.undo()
            assert report.holds == expect == (lam ** 2 >= (1.0 - tol) * exact ** 2)
            assert report.holds == oracles.member_oracle(t, k, n, lam, tol)
            assert svds == []
            assert report.gap_min_eigenvalue == pytest.approx(-f * tol * lam_min ** 2,
                                                              rel=1e-6)


def test_classify_grid_forms_each_power_once(rng, monkeypatch):
    # On an empty slot the grid forms S^n once per n (min_lambda reads S^n
    # and the rungs, never S^k) and runs one SVD per rung: one in all for
    # an invertible T, whose rung 0 keeps its full rank, none from dim 64
    # on, where T^-1 certifies that, and one more per k while a nilpotent
    # tail shrinks ran T^k.  Every cell is min_lambda's result bit for bit.
    for kind, dim in itertools.product(("generic", "graded", "nilpotent_tail"), (6, 64)):
        t = kernel_case(rng, kind, dim)
        expected = {(k, n): _bits(posinormal.min_lambda(t, k, n))
                    for k in range(4) for n in range(1, 4)}
        monkeypatch.setattr(posinormal, "_slot", None)
        powers = []
        exact = linalg.normalized_power
        monkeypatch.setattr(linalg, "normalized_power",
                            lambda m, p: powers.append(p) or exact(m, p))
        svds = _count_calls(monkeypatch, np.linalg, "svd")
        grid = posinormal.classify_grid(t, 3, 3)
        monkeypatch.undo()
        assert sorted(powers) == [1, 2, 3]
        if kind == "nilpotent_tail":  # tail size 2-4: rungs 0..min(size, 3)
            assert 3 <= len(svds) <= 4
            assert not all(result.feasible for result in grid.values())
        else:
            assert svds == ([] if dim >= 64 else [t.shape])
        assert {key: _bits(result) for key, result in grid.items()} == expected


def test_one_ladder_serves_every_k_and_the_grid(rng, monkeypatch):
    # The reuse the slot is for: on one T, min_lambda at four (k, n) and then
    # the (3, 3) grid run exactly one SVD for an invertible T (none at dim
    # 128, where T^-1 certifies rung 0) and at most one per rung 0..3 for a
    # nilpotent tail; the verdicts that follow, settled by the norm bounds
    # of D, run none (a nilpotent tail of size 4 has no feasible pair, so
    # the verdicts are counted per kind).
    pairs = ((0, 1), (1, 2), (2, 1), (3, 3))
    for kind in ("generic", "graded", "nilpotent_tail"):
        verdicts = 0
        for dim in (12, 40, 128):
            t = kernel_case(rng, kind, dim)
            monkeypatch.setattr(posinormal, "_slot", None)
            svds = _count_calls(monkeypatch, np.linalg, "svd")
            results = [posinormal.min_lambda(t, k, n) for k, n in pairs]
            posinormal.classify_grid(t, 3, 3)
            if kind == "nilpotent_tail":
                assert 2 <= len(svds) <= 4
            else:
                assert svds == ([] if dim >= 64 else [t.shape])
            ladder = len(svds)
            norms = _count_calls(monkeypatch, linalg, "operator_norm")
            for (k, n), result in zip(pairs, results):
                if result.feasible and result.lambda_min > 0:
                    for lam in (2.0 * result.lambda_min, 0.5 * result.lambda_min):
                        posinormal.is_member(t, ClassQuery(k, n, lam))
                        verdicts += 1
            monkeypatch.undo()
            assert norms == [] and len(svds) == ladder
        assert verdicts > 0


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

def singular_normal(rng, dim):
    """Q diag(d) Q* with Q Haar and 1-3 of the d zero: ker T = ker T*, so
    D' = T*^n Q vanishes on the kernel of every rung (to rounding)."""
    d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    d[:int(rng.integers(1, 4))] = 0.0
    q = haar_unitary(rng, dim)
    return (q * d) @ q.conj().T


def test_kernel_test_settled_by_bounds_without_svd(rng, monkeypatch):
    # Where rung k of the ladder has a numerical kernel, D' = T*^n Q is
    # either far from negligible on it (a nilpotent tail longer than k) or
    # vanishes there to rounding (a singular normal T): the bounds on
    # ||D'||_2 decide without an SVD, and agree with the oracle's
    # pivoted-QR ladder.
    seen = {"nilpotent_tail": set(), "singular_normal": set()}
    for kind, verdicts in seen.items():
        for _ in range(6):
            dim = int(rng.integers(6, 17))
            t = (kernel_case(rng, kind, dim) if kind == "nilpotent_tail"
                 else singular_normal(rng, dim))
            for k, n in ((0, 1), (1, 2), (2, 1), (3, 3)):
                rung = posinormal._ladder(posinormal._slot_for(t), k)[-1]
                if rung.w0.shape[1] == 0:
                    continue  # T has no kernel on ran T^k
                calls = _count_calls(monkeypatch, linalg, "operator_norm")
                result = posinormal.min_lambda(t, k, n)
                monkeypatch.undo()
                assert calls == []
                assert result.feasible == oracles.kernel_feasible(t, k, n)
                verdicts.add(result.feasible)
    assert seen == {"nilpotent_tail": {False}, "singular_normal": {True}}


def test_kernel_test_svd_fallback_between_bounds(rng, monkeypatch):
    # k = 0, n = 1: rung 0 is the SVD of T and D' = T*.  T e1 = 0 puts e1 in
    # the rung's kernel exactly, and D' keeps ||T* e1||^2 = ||row 1 of T||^2
    # there.  Set that energy between the thresholds given by the
    # column-norm and Frobenius bounds on ||D'||_2^2 = ||T||^2, on both
    # sides of the exact threshold, so only the SVD of D' can decide.
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
            assert calls == [b.shape]  # exactly one SVD, of D' = T*
            if not expect:
                assert abs(result.kernel_obstruction[0]) == pytest.approx(1.0, abs=1e-9)


# --- the witness of a failing verdict ----------------------------------------------

# Every numpy.linalg routine posilab calls, and solve.
_LINALG = ("eigh", "eigvalsh", "eigvals", "svd", "norm", "matrix_power", "det",
           "qr", "solve")


def _linalg_calls(monkeypatch, call):
    """call() and the shapes of the numpy.linalg calls it made, by name,
    the names without calls left out."""
    calls = {name: _count_calls(monkeypatch, np.linalg, name) for name in _LINALG}
    result = call()
    monkeypatch.undo()
    return result, {name: shapes for name, shapes in calls.items() if shapes}


def _check_verdicts_at(rng, monkeypatch, dim, kinds=("generic",)):
    """After min_lambda, a verdict, holding or failing, makes no LAPACK
    call.  Reading the witness of a failing report runs one eigh, of the
    r x r Gram matrix M*M of the normal form, r = dim ran T^{k+1}, or of
    an obstructed pencil's r0 x r0 kernel Gram (D'W0)*(D'W0), r0 = dim of
    rung k's kernel, and, to normalize it, one norm; an obstructed
    pencil's witness is its kernel obstruction, bit for bit.  The witness
    certifies the failure on the definition's gap (_check_witness)."""
    tol, k, n = 1e-10, 1, 2
    for kind in kinds:
        t = kernel_case(rng, kind, dim)
        result = posinormal.min_lambda(t, k, n)
        if result.feasible and result.lambda_min > 0:
            cases = ((2.0 * result.lambda_min, True), (0.5 * result.lambda_min, False))
        else:
            cases = ((np.linalg.norm(t) ** (n - 1), False),)
        for lam, holds in cases:
            report, calls = _linalg_calls(
                monkeypatch, lambda: posinormal.is_member(t, ClassQuery(k, n, lam), tol))
            assert calls == {} and report.holds == holds
            x, calls = _linalg_calls(monkeypatch, lambda: report.witness)
            if holds:
                assert x is None and calls == {}
                continue
            if result.feasible:
                r = oracles.range_basis(t, k + 1).shape[1]
            else:
                r = posinormal._ladder(posinormal._slot_for(t), k)[-1].w0.shape[1]
                assert np.array_equal(x, result.kernel_obstruction)
            assert calls == {"eigh": [(r, r)], "norm": [(dim,)]}
            _check_witness(t, k, n, lam, report, result.feasible)


def test_eigenvectors_only_for_a_witness(rng, monkeypatch):
    # At every size the verdicts after min_lambda make no LAPACK call; the
    # eigenvector comes only when a failing verdict's witness is read.
    for dim in (12, 40):
        _check_verdicts_at(rng, monkeypatch, dim)


def test_witness_at_dimension_128(rng, monkeypatch):
    # The oracle comparison above stops at dim 32; the benchmark's operators
    # have dim 128, where eigenvalues crowd.
    _check_verdicts_at(rng, monkeypatch, 128, ("generic", "graded", "nilpotent_tail"))


# --- the slot of lambda-independent products -----------------------------------------

def _bits(result):
    """The fields of a LambdaResult or ClassReport, and the witness of a
    ClassReport or the kernel obstruction of a LambdaResult (properties,
    read here), each float or array as its bytes, for a bit-for-bit
    comparison."""
    values = [getattr(result, f.name) for f in dataclasses.fields(result)
              if not f.name.startswith("_")]
    values.append(result.witness if isinstance(result, posinormal.ClassReport)
                  else result.kernel_obstruction)
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
    # three is_member calls per (k, n), all on one slot for T, which then
    # holds products formed for other (k, n) too; a second warm pass forms
    # nothing (the held keys stay as they were).
    infeasible = failing = 0
    pairs = ((0, 1), (3, 3), (1, 2))  # rung 3 before rung 1, T^3 before T^1
    for kind in ("generic", "graded", "nilpotent_tail"):
        for dim in (12, 40):
            t = kernel_case(rng, kind, dim)
            calls, cold = [], []
            for k, n in pairs:
                monkeypatch.setattr(posinormal, "_slot", None)
                result = posinormal.min_lambda(t, k, n)
                queries = [ClassQuery(k, n, lam) for lam in _lambdas(t, n, result)]
                calls += [lambda k=k, n=n: posinormal.min_lambda(t, k, n)] + [
                    lambda q=q: posinormal.is_member(t, q) for q in queries]
                infeasible += not result.feasible
                failing += sum(not posinormal.is_member(t, q).holds for q in queries)
            for call in calls:
                monkeypatch.setattr(posinormal, "_slot", None)
                cold.append(_bits(call()))
            monkeypatch.setattr(posinormal, "_slot", None)
            assert [_bits(call()) for call in calls] == cold
            held = posinormal._slot
            keys = set(held.held)
            assert [_bits(call()) for call in calls] == cold
            assert posinormal._slot is held and set(held.held) == keys
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
    held = posinormal._slot
    posinormal.min_lambda(t, 1, 2)
    assert posinormal._slot is held
    t[0, 0] = -0.0
    posinormal.min_lambda(t, 1, 2)
    assert posinormal._slot is not held
    assert np.signbit(posinormal._slot.t[0, 0].real)


def test_overflow_leaves_nothing_held(rng, monkeypatch):
    posinormal.min_lambda(kernel_case(rng, "generic", 3), 1, 1)
    # A new T releases the old slot first, and a formation that fails (here
    # the eigvalsh of M*M) stores no pencil, so only rung 0 and S^400 are
    # held; the identical next call raises again.
    t = 0.75 * np.ones((8, 8)) + 0.25 * np.eye(8)  # normal, ||T|| = 6.25
    exact = np.linalg.eigvalsh

    def failing(a, *args, **kwargs):
        if a.shape == t.shape:  # M*M; rung 0 has no kernel
            raise np.linalg.LinAlgError("did not converge")
        return exact(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    for _ in range(2):
        with pytest.raises(NumericalFailure, match=re.escape("eigvalsh of M*M failed")):
            posinormal.is_member(t, ClassQuery(0, 400, 1.0))
        assert set(posinormal._slot.held) == {("rung", 0), ("power", 400)}
    monkeypatch.undo()
    # S^n and M are held normalized, so no power of T overflows before the
    # answer is read: lambda_min = 6.25^(n - 1), beyond the float range
    # from n = 389 on, where the verdict still decides by its side.
    assert posinormal.min_lambda(t, 0, 300).lambda_min == pytest.approx(6.25 ** 299, rel=1e-12)
    for n in (400, 700):
        with pytest.raises(NumericalFailure, match="lambda_min overflows"):
            posinormal.min_lambda(t, 0, n)
        report = posinormal.is_member(t, ClassQuery(0, n, 1e150))
        assert not report.holds and report.gap_min_eigenvalue == -np.inf
        assert report.gap_norm == np.inf
    # The verdict and min_lambda form neither T*T nor a Gram matrix C*C, so
    # they are exact where both overflow; gap_matrix, which forms T*T, is
    # not, and it leaves the slot as it was.
    for _ in range(2):
        assert posinormal.min_lambda(1e160 * np.eye(3), 0, 1).lambda_min == 1.0
        report = posinormal.is_member(1e200 * np.eye(3), ClassQuery(1, 1, 1.0))
        assert report.holds and report.gap_norm <= 1e-12
        held = posinormal._slot
        with pytest.raises(NumericalFailure, match=re.escape("T*T overflows")):
            posinormal.gap_matrix(1e160 * np.eye(3), 0, 1, 1.0)
        assert posinormal._slot is held
    # A lambda_min beyond the float range: about 1e400 at n = 3.
    with pytest.raises(NumericalFailure, match="lambda_min overflows"):
        posinormal.min_lambda(np.array([[1e200, 1.0], [0.0, 1.0]]), 0, 3)


@pytest.mark.parametrize("shift", [nilpotent_shift(3), clipped_shift(6)],
                         ids=["shift3", "clipped6"])
@pytest.mark.parametrize("k, n", [(0, 2), (1, 2)])
def test_a_scaled_shift_is_never_feasible(shift, k, n):
    """T*^n T^k is not 0 on ker T^{k+1}, so no lambda works at any scale.
    The pencil is formed on 2^-e T, whose largest part lies in [1, 2) at
    every scale, so no scale of T makes the kernel Gram that decides it
    overflow or underflow."""
    for j in range(-323, 308):
        assert not posinormal.min_lambda(10.0 ** j * shift, k, n).feasible, j


def test_nilpotency_bound_overflow_is_a_numerical_failure():
    # T^2 != 0: the range ladder sees it without forming T^2, whose entry
    # 1e320 is beyond the float range, and no power bound is formed
    with pytest.raises(ValidationError, match="T\\^2 is not numerically zero"):
        posinormal.nilpotency_collapse_check(1e160 * nilpotent_shift(3), 1, 1)


def test_no_power_leaves_the_float_range_before_the_answer():
    """S^n and M are held normalized, so neither underflows nor overflows at
    any n: the identity keeps lambda_min = 1 and fails just below it, and a
    T whose largest part is far above its spectral radius keeps lambda_min
    = ||T*^n T^-1|| (k = 0, T invertible) at powers where S^n, with S =
    T / 1024, is below the float range.  For T = c [[a, 1], [0, 0]] at
    (0, 2), lambda_min = c a^2 (rank one: sigma |u*v|^2 for T = sigma u
    v*); with a = 2^-600 and c = 2^1000, M is 2^-1200 in S's units and its
    Gram matrix would underflow to 0."""
    for n in (600, 1100, 10 ** 6):
        assert posinormal.min_lambda(np.eye(2), 0, n).lambda_min == 1.0
        assert posinormal.is_member(np.eye(2), ClassQuery(0, n, 1.0)).holds
        assert not posinormal.is_member(np.eye(2), ClassQuery(0, n, 1.0 - 1e-9)).holds
    t = np.array([[1.0, 1024.0], [0.0, 1.0]])
    for n in (120, 300):
        exact = np.linalg.norm(np.linalg.matrix_power(t, n).T @ np.linalg.inv(t), 2)
        assert posinormal.min_lambda(t, 0, n).lambda_min == pytest.approx(exact, rel=1e-12)
    t = np.array([[2.0 ** 400, 2.0 ** 1000], [0.0, 0.0]])
    assert posinormal.min_lambda(t, 0, 2).lambda_min == pytest.approx(2.0 ** -200, rel=1e-12)
    assert not posinormal.is_member(t, ClassQuery(0, 2, 2.0 ** -201)).holds
    assert posinormal.is_member(t, ClassQuery(0, 2, 2.0 ** -199)).holds


@pytest.mark.xfail(strict=True, reason=(
    "the obstruction floor DEFAULT_TOL ||S||^n of _form_pencil grows with n "
    "while S^n = S stays put: from n = 67 it is above ||D' W0||"))
def test_an_idempotent_stays_obstructed_at_every_n():
    """T = [[1, 1], [0, 0]] is idempotent, T^n = T: at k = 0 the kernel of
    T is spanned by (1, -1) / sqrt(2), which T*^n = T* maps to a unit
    vector, so no lambda works at any n.  The floor DEFAULT_TOL ||S||^n,
    ||S|| = sqrt(2), passes 1 from n = 67 on.  A probe read the floor from the held
    power instead, as DEFAULT_TOL ||P||_F: that mends this test and left
    the dense-pencil verdicts of pool seeds 1-3 as they were, but it broke
    test_rotated_shift_is_the_shift at (m, k, n) = (2, 0, 2) and the 2^1000
    case of test_no_power_leaves_the_float_range_before_the_answer, where
    S^n is rounding only.  A correct floor needs a rounding bound that
    normalized_power carries through its products."""
    t = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert [posinormal.min_lambda(t, 0, n).feasible for n in (67, 100, 500, 2000)] == [
        False] * 4


def test_a_vanishing_range_forms_no_power():
    # T^3 = 0, so at k = 3 the gap vanishes and T^2, which overflows at
    # 1e160, is never formed: feasible with lambda_min = 0, and a member
    # at every lambda, at every scale.
    for scale in (1.0, 1e160):
        t = scale * nilpotent_shift(3)
        result = posinormal.min_lambda(t, 3, 2)
        assert result.feasible and result.lambda_min == 0.0
        report = posinormal.is_member(t, ClassQuery(3, 2, 1.0))
        assert report.holds and report.gap_min_eigenvalue == report.gap_norm == 0.0


def test_the_held_t_is_validated_once(rng, monkeypatch):
    # A warm verdict compares bits with the held T, validated when it was
    # stored, and does not validate again; input that is not the held T
    # is validated as before, and a list with T's entries finds the slot.
    t = kernel_case(rng, "generic", 8)
    query = ClassQuery(1, 2, 1.0)
    posinormal.is_member(t, query)
    held = posinormal._slot
    coerced = _count_calls(monkeypatch, linalg, "as_matrix")
    posinormal.is_member(t, query)
    posinormal.min_lambda(t, 1, 2)
    assert coerced == []
    monkeypatch.undo()
    bad = t.copy()
    bad[2, 3] = np.nan
    for value in (bad, t[0].tolist(), [[1.0, 2.0], [3.0]], "T"):
        with pytest.raises(ValidationError):
            posinormal.is_member(value, query)
        assert posinormal._slot is held
    posinormal.is_member(t.tolist(), query)
    assert posinormal._slot is held


def test_one_power_each_for_min_lambda_and_three_verdicts(rng, monkeypatch):
    # One slot serves every (k, n) on T: min_lambda forms S^n once per n,
    # and is_member, which reads the held pencil, forms no power.
    t = kernel_case(rng, "generic", 16)
    monkeypatch.setattr(posinormal, "_slot", None)
    powers = []
    exact = linalg.normalized_power
    monkeypatch.setattr(linalg, "normalized_power",
                        lambda m, p: powers.append(p) or exact(m, p))
    for k, n in ((1, 2), (3, 2), (0, 3)):
        result = posinormal.min_lambda(t, k, n)
        for lam in _lambdas(t, n, result):
            posinormal.is_member(t, ClassQuery(k, n, lam))
    monkeypatch.setattr(linalg, "normalized_power", exact)
    assert powers == [2, 3]


def test_verdicts_read_the_held_pencil(rng, monkeypatch):
    # After min_lambda(T, k, n), the three verdicts a benchmark query makes
    # at the same (T, k, n) make no numpy.linalg call.  On a fresh T a cold
    # verdict makes the ladder's SVDs and one eigvalsh, of the Gram matrix
    # M*M of the normal form, only (S^n is formed by matmul): one SVD for an
    # invertible T, and from dim 64 on, in its place, the det and the
    # inverse of the certificate, which a nilpotent tail also pays before
    # its SVDs; a nilpotent tail adds a rung per k and an eigvalsh of the
    # rung's kernel Gram, and an obstructed pencil forms no M*M.  No eigh runs.
    for kind, dim in itertools.product(("generic", "graded", "nilpotent_tail"), (16, 128)):
        t = kernel_case(rng, kind, dim)
        certificate = {"det", "matrix_power"} if dim >= 64 else set()  # det, inverse
        for k, n in ((0, 1), (1, 2), (3, 3)):
            monkeypatch.setattr(posinormal, "_slot", None)
            result = posinormal.min_lambda(t, k, n)
            queries = [ClassQuery(k, n, lam) for lam in _lambdas(t, n, result)]
            _, calls = _linalg_calls(
                monkeypatch, lambda: [posinormal.is_member(t, q) for q in queries])
            assert calls == {}, (kind, k, n)
            monkeypatch.setattr(posinormal, "_slot", None)
            _, calls = _linalg_calls(monkeypatch, lambda: posinormal.is_member(t, queries[0]))
            if kind != "nilpotent_tail":
                r = len(t)
                rung = ({"det": [t.shape], "matrix_power": [t.shape]} if certificate
                        else {"svd": [t.shape]})
                assert calls == {**rung, "eigvalsh": [(r, r)]}, (kind, k, n)
            elif result.feasible:  # tail size at most k = 3
                r = oracles.range_basis(t, k + 1).shape[1]
                r0 = posinormal._ladder(posinormal._slot_for(t), k)[-1].w0.shape[1]
                assert calls["eigvalsh"] == [(r0, r0)] * bool(r0) + [(r, r)], (k, n)
                assert set(calls) == {"svd", "eigvalsh"} | certificate, (k, n)
                assert 2 <= len(calls["svd"]) <= k + 1
            else:  # the obstruction is not computed until it is read
                assert set(calls) == {"svd", "eigvalsh"} | certificate, (k, n)
                assert len(calls["eigvalsh"]) == 1, (k, n)


def _dense_workload():
    """posibench/workloads.py, whose dense_pool and dense_run are the
    benchmark's dense-pencil queries, loaded as a module."""
    path = Path(__file__).parents[1] / "posibench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("posibench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_slot_holds_data_and_certificates_come_on_read(monkeypatch):
    # One pass over the benchmark's seed-1 dense-pencil pool (dim 128, its
    # grids and splits included).  After every query the slot holds data
    # only: powers of S as (P, f), rungs, and each pencil as a _Form, its
    # mu a real vector or the obstruction marker, never a callable or a
    # witness vector.  On every obstructed pencil (a nilpotent tail) a cold
    # verdict runs no eigh, only the failed certificate's det and inverse
    # (matrix_power at n = -1), the ladder's SVDs and eigvalsh (S^n is
    # formed by matmul); kernel_obstruction reads the same bits twice, and
    # they are the witness of the failing verdict at the same (k, n).
    workload, obstructed = _dense_workload(), 0
    for query in workload.dense_pool(1):
        output = workload.dense_run(query)
        for key, value in posinormal._slot.held.items():
            assert not callable(value), key
            if key[0] == "rung":
                assert isinstance(value, posinormal._Rung), key
            elif key[0] == "power":  # S^n = 2^f P as (P, f)
                p, f = value
                assert isinstance(p, np.ndarray) and p.ndim == 2 and isinstance(f, int), key
            else:
                assert isinstance(value, posinormal._Form) and isinstance(value.f, int), key
                assert value.mu is posinormal._OBSTRUCTED or (
                    isinstance(value.mu, np.ndarray) and value.mu.ndim == 1
                    and value.mu.dtype == np.float64), key
        if query.kind != "pencil" or output[0].feasible:
            continue
        obstructed += 1
        t, k, n, scale = query.payload
        monkeypatch.setattr(posinormal, "_slot", None)
        report, calls = _linalg_calls(
            monkeypatch, lambda: posinormal.is_member(t, ClassQuery(k, n, scale)))
        assert not report.holds and set(calls) == {"det", "svd", "matrix_power", "eigvalsh"}
        x = output[0].kernel_obstruction
        assert np.array_equal(x, output[0].kernel_obstruction)
        assert np.array_equal(x, report.witness)
    assert obstructed > 0


def test_pencils_are_shared_past_the_ladders_end(rng, monkeypatch):
    # The slot holds one pencil per rung and n: every k at or past the rung
    # where the ladder ends reads it.  For invertible T that is rung 0, so
    # after min_lambda at (0, n), n = 1..3, the (3, 3) grid and the split at
    # k = 2 make no numpy.linalg call.  Beside a nilpotent tail of size 2
    # the ladder ends at rung 2, and k = 3 reads k = 2's pencils.  The
    # witness of a failing verdict is pulled back at the verdict's own k.
    for tail in (0, 2):
        t = (kernel_case(rng, "generic", 12) if not tail
             else oracles.nilpotent_tail(rng, 12, tail)[0])
        monkeypatch.setattr(posinormal, "_slot", None)
        for n in (1, 2, 3):
            posinormal.min_lambda(t, tail, n)
        if tail:  # the rungs below rung 2 and the pencils on them
            posinormal.classify_grid(t, 1, 3)
        (grid, split), calls = _linalg_calls(monkeypatch, lambda: (
            posinormal.classify_grid(t, 3, 3),
            None if tail else structure.decompose(t, 2, 1)))
        assert calls == {}, tail
        assert tail or split.full_range
        for k, n in grid:
            if k > tail:
                assert _bits(grid[k, n]) == _bits(grid[tail, n]), (tail, k, n)
        for n in (1, 2, 3):
            lam = 0.5 * grid[tail, n].lambda_min
            witnesses = []
            for k in (tail, 3):
                report = posinormal.is_member(t, ClassQuery(k, n, lam))
                assert not report.holds
                x = report.witness
                gap = posinormal.gap_matrix(t, k, n, lam)
                assert np.vdot(x, gap @ x).real < 0, (tail, k, n)
                _check_witness(t, k, n, lam, report, True)
                witnesses.append(x)
            assert not np.allclose(*witnesses)


def test_concurrent_callers_get_their_own_results(rng, monkeypatch):
    # Four threads on two cores, each on its own T, replace the one slot
    # under one another and extend it by storing products into it; every
    # result must still be the cold one.
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
            posinormal.min_lambda(t, k + 1, n)  # extends the ladder of t

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


def test_the_ladders_rank_is_significant_at_the_scale_of_s(rng):
    """Every rung keeps the singular values of S Q that linalg.significant
    keeps at scale sigma_max(S), rung 0's, S = 2^-e T the slot's: here on
    singular values on both sides of the cut, at scales far from 1."""
    spectrum = np.array([1.0, 1e-3, 1e-9, 3e-10, 5e-11, 1e-12, 0.0, 0.0])
    for scale in (2.0 ** -600, 1.0, 3.0 ** 400):
        t = _graded(rng, 8, spectrum) * scale
        s = linalg.normalize(t)[0]
        top = np.linalg.svd(s, compute_uv=False)[0]
        ranks = []
        for j in range(1, 4):
            sv = np.linalg.svd(s @ posinormal.range_basis(t, j - 1), compute_uv=False)
            ranks.append(posinormal.range_basis(t, j).shape[1])
            assert ranks[-1] == np.count_nonzero(linalg.significant(sv, top)), (scale, j)
        assert ranks[0] == 4, scale  # 3e-10 is kept, 5e-11 is cut


# --- rung 0 from a certified inverse ---------------------------------------------------

def _rung_zero_cases(rng, dim):
    """(name, T) at one dim: a generic T; graded T, with singular values
    log-spaced from 1 down to 10^-spread (at dim 128 from 1e9 on, det of
    the LU underflows to 0, and the SVD decides); gapped T, with two
    singular values at 10^-spread and the others at 1, so that
    ||T||_F ||T^-1||_F is about sqrt(2 dim) times cond(T): at 1e9.5 the
    ladder's cut at 1e-10 ||T|| keeps every singular value, but the
    certificate's bound 1e10 does not hold, and at 1e10.5 the cut drops
    two; an exactly singular T without a zero row (column 3 is zero, so
    its LU meets an exact zero pivot); and nilpotent tails of sizes 2 and 3."""
    cases = [("generic", kernel_case(rng, "generic", dim))]
    cases += [(f"graded 1e{spread}", _graded(rng, dim, np.logspace(0.0, -spread, dim)))
              for spread in (1.5, 6.0, 9.0, 10.5)]
    cases += [(f"gapped 1e{spread}",
               _graded(rng, dim, np.repeat([1.0, 10.0 ** -spread], [dim - 2, 2])))
              for spread in (8.5, 9.5, 10.5)]
    singular = oracles.ginibre(rng, dim)
    singular[:, 3] = 0.0
    cases.append(("singular", singular))
    cases += [(f"tail {m}", oracles.nilpotent_tail(rng, dim, m)[0]) for m in (2, 3)]
    return cases


def _definition_gap(t, k, n, lam, x):
    """x*G x = lam^2 ||T^{k+1} x||^2 - ||T*^n T^k x||^2 for the gap G of
    the definition, from matrix-vector products, over lam^2 ||T^{k+1} x||^2."""
    y = x
    for _ in range(k):
        y = t @ y
    d = y
    for _ in range(n):
        d = t.conj().T @ d
    top = lam ** 2 * np.linalg.norm(t @ y) ** 2
    return (top - np.linalg.norm(d) ** 2) / top


@pytest.mark.parametrize("dim", [64, 128])
def test_a_certified_rung_zero_gives_the_svd_verdicts(rng, monkeypatch, dim):
    # Each T twice on an empty slot: as it comes, and with the certificate
    # patched to fail, so rung 0 is the SVD's.  Feasibility is the same,
    # and lambda_min agrees within 1e-10 relative, or within eps * cond(T)
    # where rounding in T^-1 and in the small singular values allows more
    # (1.4e-9 at cond 1e9).  On a certified T the witness of the verdict at
    # lambda_min (1 - 1e-3) is negative on the definition's gap wherever
    # eps * cond(T)^(k+1), the rounding of its pull-back, is below 1e-6,
    # and decompose returns the full range with block A = T.
    paths, witnesses = set(), 0
    for name, t in _rung_zero_cases(rng, dim):
        cond, certified = np.linalg.cond(t), linalg.certified_inverse(t) is not None
        results, full_range = {}, {}
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(linalg, "certified_inverse", lambda m: None)
            for k, n in ((0, 1), (1, 2), (2, 1), (3, 3)):
                monkeypatch.setattr(posinormal, "_slot", None)
                results[patched, k, n] = posinormal.min_lambda(t, k, n)
            split = structure.decompose(t, 2, 1)
            if certified and not patched:
                assert split.full_range and np.array_equal(split.block_a, t), name
            full_range[patched] = split.full_range
        monkeypatch.undo()
        assert full_range[False] == full_range[True], name
        paths.add((certified, full_range[True]))
        for k, n in ((0, 1), (1, 2), (2, 1), (3, 3)):
            fast, svd = results[False, k, n], results[True, k, n]
            assert fast.feasible == svd.feasible, (name, k, n)
            if not fast.feasible:
                continue
            rel = max(1e-10, np.finfo(float).eps * cond)
            assert fast.lambda_min == pytest.approx(svd.lambda_min, rel=rel, abs=0.0)
            if certified and np.finfo(float).eps * cond ** (k + 1) < 1e-6:
                lam = fast.lambda_min * (1.0 - 1e-3)
                monkeypatch.setattr(posinormal, "_slot", None)
                report = posinormal.is_member(t, ClassQuery(k, n, lam))
                assert not report.holds
                assert _definition_gap(t, k, n, lam, report.witness) < 0, (name, k, n)
                witnesses += 1
    # certified; not certified with a full rung 0 (cond(T) below 1e10, the
    # bound straddled) and without one; never certified without it
    assert paths == {(True, True), (False, True), (False, False)}
    assert witnesses >= 8


def _traced(monkeypatch, call):
    """call() and its numpy.linalg calls in order, as (name, shape of the
    operand, exponent n of a matrix_power, else None)."""
    calls = []
    for name in _LINALG:
        def traced(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(args[0]), kwargs.get("n")))
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, traced)
    result = call()
    monkeypatch.undo()
    return result, calls


def test_the_certificate_runs_one_det_and_one_inverse(rng, monkeypatch):
    # A cold min_lambda on an invertible 128 x 128 T runs no SVD: one det of
    # 2^-e T, one inverse (matrix_power at n = -1) and one eigvalsh; S^n is
    # formed by matmul, and S^1 is S.
    # An exactly singular T stops at det = 0, and a nilpotent tail, whose
    # det is not 0, pays det and inverse before its rung SVDs, which are
    # those of the SVD path.  Below dim 64 the certificate runs nothing.
    def cold(t, k, n, svd_path=False):
        def call():
            if svd_path:
                monkeypatch.setattr(linalg, "certified_inverse", lambda m: None)
            return posinormal.min_lambda(t, k, n)
        monkeypatch.setattr(posinormal, "_slot", None)
        return _traced(monkeypatch, call)[1]

    shape = (128, 128)
    t = kernel_case(rng, "generic", 128)
    assert cold(t, 1, 2) == [("det", shape, None), ("matrix_power", shape, -1),
                             ("eigvalsh", shape, None)]
    singular = oracles.ginibre(rng, 128)
    singular[:, 3] = 0.0
    calls = cold(singular, 0, 1)
    assert calls[:2] == [("det", shape, None), ("svd", shape, None)]
    assert [call for call in calls if call[0] == "matrix_power"] == []
    tail = oracles.nilpotent_tail(rng, 128, 3)[0]
    calls, svd_calls = cold(tail, 3, 3), cold(tail, 3, 3, svd_path=True)
    assert calls[:2] == [("det", shape, None), ("matrix_power", shape, -1)]
    assert calls[2:] == svd_calls
    assert [call[0] for call in svd_calls].count("svd") == 4
    small = kernel_case(rng, "generic", 63)
    assert _traced(monkeypatch, lambda: linalg.certified_inverse(small)) == (None, [])
