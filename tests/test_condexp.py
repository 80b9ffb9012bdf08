"""condexp against the loop-based oracles of tests/oracles.py."""

import dataclasses
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from posilab import condexp, fixtures, linalg, posinormal
from posilab.errors import NumericalFailure, ValidationError
from posilab.posinormal import ClassQuery

import oracles


def crandn(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_space(rng, atoms, blocks, vanishing):
    """Random masses, a random partition into ``blocks`` blocks and complex
    w, u; with ``vanishing`` u is zero on one whole block."""
    masses = rng.uniform(0.2, 1.5, atoms)
    cuts = sorted(rng.choice(range(1, atoms), size=blocks - 1, replace=False))
    parts = [tuple(int(i) for i in p) for p in np.split(rng.permutation(atoms), cuts)]
    w, u = crandn(rng, atoms), crandn(rng, atoms)
    if vanishing:
        u[list(parts[int(rng.integers(blocks))])] = 0.0
    return masses, parts, w, u


# (atoms, blocks): one block, singletons, and generic splits
SHAPES = [(1, 1), (5, 1), (6, 6), (7, 3), (16, 4), (33, 9)]


@pytest.mark.parametrize("atoms, blocks", SHAPES)
@pytest.mark.parametrize("vanishing", [False, True])
def test_conditional_expectation_matches_oracle(atoms, blocks, vanishing):
    rng = np.random.default_rng(1000 * atoms + blocks)
    for _ in range(5):
        masses, parts, w, u = random_space(rng, atoms, blocks, vanishing)
        space = condexp.FiniteMeasureSpace(masses)
        partition = condexp.BlockPartition(parts, atoms)
        for f in (crandn(rng, atoms), u, u * w):
            np.testing.assert_allclose(
                condexp.expand_blockwise(
                    partition, condexp.block_expectations(space, partition, f)),
                oracles.conditional_expectation_oracle(masses, parts, f),
                rtol=1e-12, atol=1e-14)


def _e_property_cases(rng, atoms, blocks):
    """(masses, parts, f, g) with g blockwise constant and f complex, real
    >= 0, real of both signs, and real blockwise constant up to 1e-9."""
    masses, parts, _, _ = random_space(rng, atoms, blocks, False)
    labels = condexp.BlockPartition(parts, atoms).labels
    g = crandn(rng, blocks)[labels]
    z = crandn(rng, atoms)
    for f in (z, np.abs(z) + 0j, z.real + 0j,
              rng.standard_normal(blocks)[labels] + 1e-9 * rng.standard_normal(atoms)):
        yield masses, parts, f, g


def _oracle_violations(masses, parts, f, g):
    """Each property's atomwise violation max(small - big), for positivity
    max(0, -min E(f)), and the largest |side|, from the loop oracle."""
    def e(x):
        return oracles.conditional_expectation_oracle(masses, parts, x)

    e_f, e_f2, e_g2 = e(f), e(np.abs(f) ** 2).real, e(np.abs(g) ** 2).real
    sides = {  # (small, big): the property asks small <= big
        "module": (np.abs(e(g * f) - g * e_f), 0.0),
        "positive": (-e_f.real, 0.0),
        "modulus": (np.abs(e_f) ** 2, e_f2),
        "hoelder": (np.abs(e(f * g)), np.sqrt(e_f2 * e_g2)),
        "jensen": (e(f.real).real ** 2, e(f.real ** 2).real),
    }
    out = {}
    for name, (small, big) in sides.items():
        violation = float(np.max(small - big))
        out[name] = (max(0.0, violation) if name == "positive" else violation,
                     max(1.0, float(np.max(np.abs(small))), float(np.max(np.abs(big)))))
    return out


@pytest.mark.parametrize("atoms, blocks", SHAPES)
def test_E_properties_match_the_atomwise_oracle(atoms, blocks):
    """Every max_violation equals the atomwise one within 1e-13 times the
    largest side, and every property holds on valid data."""
    rng = np.random.default_rng(4000 * atoms + blocks)
    for _ in range(5):
        for masses, parts, f, g in _e_property_cases(rng, atoms, blocks):
            report = condexp.check_E_properties(
                condexp.FiniteMeasureSpace(masses), condexp.BlockPartition(parts, atoms),
                f, g)
            oracle = _oracle_violations(masses, parts, f, g)
            assert [r.name for r in report.results] == list(oracle)
            for r in report.results:
                if r.applicable:
                    violation, scale = oracle[r.name]
                    assert abs(r.max_violation - violation) <= 1e-13 * scale, (
                        r, violation)
            assert report.all_passed, report


def test_E_positivity_applies_to_real_nonnegative_f_only():
    space, partition, _, _ = fixtures.interval_example(8)
    g = condexp.expand_blockwise(partition, [2.0, -1.0j])
    positive = np.linspace(0.0, 3.0, 8)
    for f, applicable in ((positive, True), (positive - 1.0, False),
                          (positive + 1j, False), (positive * 1j, False)):
        report = condexp.check_E_properties(space, partition, f, g)
        result = {r.name: r for r in report.results}["positive"]
        assert result.applicable == applicable, f
        if not applicable:
            assert result.passed and result.max_violation == 0.0


def test_E_properties_reject_a_g_that_is_not_blockwise_constant():
    space, partition, _, _ = fixtures.interval_example(8)
    g = np.ones(8)
    g[0] = 1.0 + 1e-6
    with pytest.raises(ValidationError, match="blockwise constant"):
        condexp.check_E_properties(space, partition, np.ones(8), g)


@pytest.mark.parametrize("scale", [1e-11, 1.0, 1e11])
def test_E_positivity_applies_relative_to_the_size_of_f(scale):
    """Whether f counts as nonnegative is decided against max|f|: f of both
    signs never does, at any scale (with an absolute slack it did at 1e-11,
    and positivity then passed with E(f) = -7.4e-12 on a block), and a
    nonnegative f always does and passes."""
    space, partition, _, _ = fixtures.interval_example(8)
    g = condexp.expand_blockwise(partition, [2.0, -1.0j])
    for f, applicable in ((np.linspace(-1.0, 0.2, 8), False),
                          (np.linspace(0.0, 1.0, 8), True)):
        report = condexp.check_E_properties(space, partition, scale * f, g)
        result = {r.name: r for r in report.results}["positive"]
        assert (result.applicable, result.passed) == (applicable, True), (scale, f)


def test_a_bad_mass_is_named_by_its_atom():
    # the one mass rule, which fileio's documents report as it is
    for masses, where in (([1.0, -2.0, 0.0], "atoms[1].mass"), ([0.0, 1.0], "atoms[0].mass"),
                          ([1.0, 2.0, np.nan], "atoms[2].mass")):
        with pytest.raises(ValidationError, match=re.escape(where)):
            condexp.FiniteMeasureSpace(masses)


def test_spaces_and_functions_reject_bad_inputs():
    for masses in ([], np.ones((2, 2))):
        with pytest.raises(ValidationError, match="nonempty 1-D"):
            condexp.FiniteMeasureSpace(masses)
    for masses in ([1.0, np.inf], [1.0, np.nan], [1.0, 0.0], [1.0, -2.0]):
        with pytest.raises(ValidationError, match="finite and > 0"):
            condexp.FiniteMeasureSpace(masses)
    with pytest.raises(ValidationError, match="got 1 labels for 2 atoms"):
        condexp.FiniteMeasureSpace([1.0, 2.0], ["a"])
    space, partition, _, _ = fixtures.interval_example(8)
    with pytest.raises(ValidationError, match=r"shape \(7,\), expected \(8,\)"):
        condexp.as_function(np.ones(7), space)
    with pytest.raises(ValidationError, match="must be finite"):
        condexp.as_function(np.full(8, np.nan), space)
    with pytest.raises(ValidationError, match="partition is over 8 atoms, space has 3"):
        condexp.block_expectations(condexp.FiniteMeasureSpace(np.ones(3)), partition,
                                   np.ones(3))
    with pytest.raises(ValidationError, match=r"expected 2 block values, got \(3,\)"):
        condexp.expand_blockwise(partition, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e3, 1e6, 1e8])
def test_E_properties_hold_at_every_scale_of_f(scale):
    """The verdicts read a slack relative to the sides, so they hold on
    valid data whatever the size of f: an absolute slack fails rounding
    of blockwise-constant f from |f| ~ 1e3 on."""
    space, partition, _, _ = fixtures.interval_example(8)
    rng = np.random.default_rng(61)
    failed = []
    for draw in range(100):
        g = condexp.expand_blockwise(partition, crandn(rng, 2))
        near = condexp.expand_blockwise(partition, rng.standard_normal(2)).real
        for f in (near + 1e-12 * rng.standard_normal(8), crandn(rng, 8)):
            report = condexp.check_E_properties(space, partition, scale * f, g)
            failed += [(draw, r.name) for r in report.results
                       if r.applicable and not r.passed]
    assert failed == []


def test_E_properties_report_an_overflow():
    space, partition, _, _ = fixtures.interval_example(8)
    g = condexp.expand_blockwise(partition, [1.0, 2.0])
    with pytest.raises(NumericalFailure, match="overflows"):
        condexp.check_E_properties(space, partition, np.full(8, 1e200), g)


@pytest.mark.parametrize("check", [
    lambda op: condexp.thm34_check(op, 2, 1.0),  # E|w|^2 ** 2 underflows to 0
    condexp.polar_decomposition_check,  # E|w|^2 E|u|^2 underflows to 0
], ids=["thm34", "polar"])
def test_a_division_by_an_underflowed_mean_is_a_numerical_failure(check):
    space, partition, w, u = fixtures.interval_example(8)
    op = condexp.build_operator(space, partition, 1e-90 * w, 1e-90 * u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="overflows"):
            check(op)


def assembled(op):
    """Q T_c Q*, Q the oracle's block embedding: the operator in the
    orthonormal atom basis."""
    q = oracles.block_embedding(op.space.masses, op.partition.blocks, op.w, op.u)
    return q @ oracles.compression(op) @ q.conj().T


@pytest.mark.parametrize("atoms, blocks", SHAPES)
@pytest.mark.parametrize("vanishing", [False, True])
def test_operator_matrix_matches_oracle(atoms, blocks, vanishing):
    rng = np.random.default_rng(2000 * atoms + blocks)
    for _ in range(5):
        masses, parts, w, u = random_space(rng, atoms, blocks, vanishing)
        op = condexp.build_operator(condexp.FiniteMeasureSpace(masses),
                                    condexp.BlockPartition(parts, atoms), w, u)
        expected = oracles.weighted_operator_matrix_oracle(masses, parts, w, u)
        t = assembled(op)
        np.testing.assert_allclose(t, expected, rtol=1e-12, atol=1e-14)
        if vanishing:
            # u = 0 on a whole block: those columns of T vanish, up to the
            # rounding of the products with Q.
            dead = u == 0
            assert dead.any()
            eps = np.finfo(float).eps
            assert np.abs(t[:, dead]).max() <= 8 * eps * np.linalg.norm(expected, 2)


def test_operator_applies_w_E_u():
    # The matrix acts in the basis e_i / sqrt(mass_i): T f = w E(u f).
    rng = np.random.default_rng(7)
    masses, parts, w, u = random_space(rng, 12, 4, vanishing=True)
    space = condexp.FiniteMeasureSpace(masses)
    partition = condexp.BlockPartition(parts, 12)
    op = condexp.build_operator(space, partition, w, u)
    f = crandn(rng, 12)
    root = np.sqrt(masses)
    direct = w * oracles.conditional_expectation_oracle(masses, parts, u * f)
    np.testing.assert_allclose(assembled(op) @ (root * f) / root, direct,
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("scale_w, scale_u", [(1.0, 1.0), (1e8, 1e-8), (1e-8, 1e8)])
@pytest.mark.parametrize("vanishing", [None, "u", "w"])
def test_compression_reproduces_the_operator(scale_w, scale_u, vanishing):
    """Q T_c Q* is T to 1e-12 relative, T_c = oracles.compression(op) from
    the B x 2 rows a_b and c_b that op holds, and the oracle's Q is
    orthonormal, for N = 1..40 and one block, singletons, 2B >= N and a
    random B.  A one-atom block leaves no room for its second column of Q,
    and there T_c holds rounding only."""
    rng = np.random.default_rng(41)
    for atoms in range(1, 41):
        for blocks in sorted({1, (atoms + 1) // 2, int(rng.integers(1, atoms + 1)),
                              atoms}):
            masses, parts, w, u = random_space(rng, atoms, blocks, vanishing == "u")
            if vanishing == "w":
                w[list(parts[-1])] = 0.0
            w, u = w * scale_w, u * scale_u
            op = condexp.build_operator(condexp.FiniteMeasureSpace(masses),
                                        condexp.BlockPartition(parts, atoms), w, u)
            expected = oracles.weighted_operator_matrix_oracle(masses, parts, w, u)
            norm = np.linalg.norm(expected, 2)
            q, t_c = oracles.block_embedding(masses, parts, w, u), oracles.compression(op)
            assert op.a.shape == op.c.shape == (blocks, 2)
            assert np.linalg.norm(q @ t_c @ q.conj().T - expected, 2) <= 1e-12 * norm
            dead = np.linalg.norm(q, axis=0) == 0.0
            assert np.count_nonzero(dead) == sum(len(part) == 1 for part in parts)
            assert max(np.abs(t_c[dead]).max(initial=0.0),
                       np.abs(t_c[:, dead]).max(initial=0.0)) <= 1e-12 * norm
            q = q[:, ~dead]
            np.testing.assert_allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-13)
            assert (abs(condexp.norm_formula_check(op).matrix_norm - norm)
                    <= 1e-12 * norm)


@pytest.mark.parametrize("scale_w, scale_u", [(1.0, 1.0), (1e8, 1e-8), (1e-8, 1e8)])
def test_normal_operator_stays_normal(scale_w, scale_u):
    """u = c_b conj(w) on every block makes T = (+)_b c_b x_b x_b* normal.
    T_c's off-diagonal sqrt(p) sqrt(h) is then rounding, so
    ||T_c* T_c - T_c T_c*|| <= 1e-14 ||T_c||^2 (a factor of the 2 x 2 Gram
    [[p, conj(g)], [g, q]] takes sqrt(q - |g|^2 / p) and misses this by
    about 1e-8), and T_c has the singular values and min_lambda of the QR
    build of the oracles, with singleton partitions among the spaces."""
    rng = np.random.default_rng(47)
    for atoms in (1, 2, 5, 9, 17, 30):
        for blocks in sorted({1, int(rng.integers(1, atoms + 1)), atoms}):
            masses, parts, w, u = random_space(rng, atoms, blocks, False)
            for part in parts:
                u[list(part)] = crandn(rng, 1) * np.conj(w[list(part)])
            w, u = w * scale_w, u * scale_u
            t = oracles.compression(condexp.build_operator(
                condexp.FiniteMeasureSpace(masses), condexp.BlockPartition(parts, atoms),
                w, u))
            norm = np.linalg.norm(t, 2)
            assert (np.linalg.norm(t.conj().T @ t - t @ t.conj().T, 2)
                    <= 1e-14 * norm ** 2), (atoms, blocks)
            qr = oracles.qr_compression(masses, parts, w, u)
            values = np.linalg.svd(t, compute_uv=False)
            np.testing.assert_allclose(values[:len(qr)],
                                       np.linalg.svd(qr, compute_uv=False),
                                       rtol=0.0, atol=1e-14 * norm)
            assert values[len(qr):].max(initial=0.0) <= 1e-14 * norm
            for k in range(4):
                for n in (1, 2, 3):
                    ours = posinormal.min_lambda(t, k, n)
                    theirs = posinormal.min_lambda(qr, k, n)
                    assert ours.feasible == theirs.feasible, (atoms, blocks, k, n)
                    if ours.feasible:
                        assert ours.lambda_min == pytest.approx(
                            theirs.lambda_min, rel=1e-8, abs=1e-12 * norm ** (n - 1))


def _section3_spaces(rng, atoms, blocks, kind):
    """random_space with u = 0 on a block ("u"), w = 0 on a block ("w"),
    u = c_b conj(w) on every block ("conj"), w scaled by 3e-6 and 1e-11
    on the first two of three or more blocks ("faint"), or w and u both
    scaled by 3e-6 on the first block ("faint pair"), at each
    scale (w, u) -> (s w, u / s), s = 1 and 1e+-8.  A faint block's
    eigenvalues lie under the cuts taken relative to the largest of all
    blocks, but not under cuts relative to its own."""
    masses, parts, w, u = random_space(rng, atoms, blocks, kind == "u")
    if kind == "w":
        w[list(parts[-1])] = 0.0
    elif kind == "conj":
        for part in parts:
            u[list(part)] = crandn(rng, 1) * np.conj(w[list(part)])
    elif kind == "faint":
        for part, factor in zip(parts[:-1], (3e-6, 1e-11)):
            w[list(part)] *= factor
    elif kind == "faint pair":
        for f in (w, u):
            f[list(parts[0])] *= 3e-6
    space = condexp.FiniteMeasureSpace(masses)
    partition = condexp.BlockPartition(parts, atoms)
    for scale in (1.0, 1e8, 1e-8):
        yield condexp.build_operator(space, partition, w * scale, u / scale)


@pytest.mark.parametrize("atoms, blocks", SHAPES)
@pytest.mark.parametrize("kind", [None, "u", "w", "conj", "faint", "faint pair"])
def test_stacked_checks_match_the_dense_oracles(atoms, blocks, kind):
    """The norm, Lemma 3.1 and polar checks on the (B, 2, 2) stack give the
    dense 2B x 2B checks' verdicts, and every reported number within
    1e-13 max(1, |x|, ||T||)."""
    rng = np.random.default_rng(3000 * atoms + blocks)
    for _ in range(5):
        for op in _section3_spaces(rng, atoms, blocks, kind):
            pairs = [(condexp.norm_formula_check(op), oracles.dense_norm_formula(op)),
                     (condexp.polar_decomposition_check(op), oracles.dense_polar(op))]
            pairs += [(condexp.lemma31_check(op, m), oracles.dense_lemma31(op, m))
                      for m in (1, 2, 3, 0.5, 1.5)]
            t_norm = np.linalg.norm(oracles.compression(op), 2)
            for report, dense in pairs:
                ours = dataclasses.asdict(report)
                assert ours.keys() == dense.keys()
                assert ours.pop("passed") == dense.pop("passed"), (report, dense)
                for name, x in ours.items():
                    y = dense[name]
                    assert abs(x - y) <= 1e-13 * max(1.0, abs(x), abs(y), t_norm), (
                        name, x, y)


@pytest.mark.parametrize("blocks", [2, 64])
def test_each_stacked_check_makes_one_svd(blocks, monkeypatch):
    """Every norm of a check comes from one batched SVD of its block
    stacks, at any block count; none from a dense operator norm."""
    rng = np.random.default_rng(59)
    masses, parts, w, u = random_space(rng, 256, blocks, vanishing=True)
    op = condexp.build_operator(condexp.FiniteMeasureSpace(masses),
                                condexp.BlockPartition(parts, 256), w, u)
    calls = {"svd": 0, "operator_norm": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    counting(np.linalg, "svd")
    counting(linalg, "operator_norm")
    for check in (condexp.norm_formula_check, condexp.polar_decomposition_check,
                  lambda op: condexp.lemma31_check(op, 2),
                  lambda op: condexp.lemma31_check(op, 0.5)):
        calls.update(svd=0, operator_norm=0)
        assert check(op).passed
        assert calls == {"svd": 1, "operator_norm": 0}


def test_interval_example_at_4096_atoms_stays_compressed():
    """Every Section 3 identity holds at 4096 atoms, and the build and all
    six checks at 2^16 atoms in 64 blocks, each within a traced peak of
    16 MiB: one N x 2B complex matrix at 2^16 atoms is 128 MiB, and one
    dense 4096 x 4096 complex matrix 256 MiB."""

    def traced(op_args, run):
        tracemalloc.start()
        try:
            out = run(condexp.build_operator(*op_args))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak
        return out

    def identities(op):
        reports = [condexp.norm_formula_check(op),
                   *(condexp.lemma31_check(op, m) for m in (1, 2, 3, 0.5)),
                   condexp.polar_decomposition_check(op)]
        return reports, condexp.thm35_check(op, 1, 2, 4.0)

    reports, quasi = traced(fixtures.interval_example(4096), identities)
    assert all(r.passed for r in reports), reports
    # The criterion of the article's example holds in all three forms.
    assert quasi.all_agree and quasi.matrix_holds

    rng = np.random.default_rng(53)
    masses, parts, w, u = random_space(rng, 2 ** 16, 64, vanishing=True)
    space = condexp.FiniteMeasureSpace(masses)
    partition = condexp.BlockPartition(parts, 2 ** 16)
    reports = traced((space, partition, w, u), lambda op: [
        condexp.norm_formula_check(op), condexp.lemma31_check(op, 2),
        condexp.polar_decomposition_check(op), condexp.thm33_check(op, 2.0),
        condexp.thm34_check(op, 2, 2.0), condexp.thm35_check(op, 1, 2, 2.0)])
    assert all(r.passed for r in reports[:3]), reports[:3]


def _class_family(seed, count):
    """count seeded spaces of 1-16 blocks, a sixth each generic, with u = 0
    on a block, with w = 0 on a block, with w and u faint (x 3e-6) on a
    block, with u = c_b conj(w) on every block (Cauchy-Schwarz equality) and
    with E(uw) = 0 on a block."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        blocks = int(rng.integers(1, 17))
        atoms = blocks + int(rng.integers(0, 3 * blocks + 1))
        masses, parts, w, u = random_space(rng, atoms, blocks, i % 6 == 1)
        part = list(parts[int(rng.integers(blocks))])
        if i % 6 == 2:
            w[part] = 0.0
        elif i % 6 == 3:
            w[part] *= 3e-6
            u[part] *= 3e-6
        elif i % 6 == 4:
            for each in parts:
                u[list(each)] = crandn(rng, 1) * np.conj(w[list(each)])
        elif i % 6 == 5:  # u - (E(uw) / E|w|^2) conj(w) on the block
            m, wb = masses[part], w[part]
            u[part] -= np.sum(m * u[part] * wb) / np.sum(m * np.abs(wb) ** 2) * np.conj(wb)
        yield condexp.build_operator(condexp.FiniteMeasureSpace(masses),
                                     condexp.BlockPartition(parts, atoms), w, u)


def _stack(op):
    """T's (B, 2, 2) stack of blocks a_b c_b*, formed here."""
    return np.einsum("bi,bj->bij", op.a, op.c.conj())


LAMBDAS_AROUND_1 = (0.5, 2.0, 8.0)


def test_class_verdicts_on_the_stack_are_those_of_dense_T_c():
    """On 240 spaces, k = 0-3 and n = 1-3, min_lambda and is_member read
    the direct sum off T's stack of blocks as they read the dense T_c:
    the same feasibility, lambda_min within 1e-12 relative and the same
    verdict at lambda = 0.5, 2 and 8.  Every certificate of the stack,
    embedded in the direct sum, has x* G x < 0 for T_c's gap G, read as
    lam^2 ||T_c^(k+1) x||^2 < ||T_c*^n T_c^k x||^2: a failing verdict's
    witness at its lambda, and a kernel obstruction at ||T_c||^(n-1), the
    scale of the class's lambda; at lambda = 8, T_c x ~ eps ||T_c|| outweighs
    T_c*^n x on a faint T."""
    def verdicts(t):
        """min_lambda and the three is_member reports at each (k, n), in
        one run per operator so that each reads its slot warm."""
        return {(k, n): (posinormal.min_lambda(t, k, n),
                         [posinormal.is_member(t, ClassQuery(k, n, lam))
                          for lam in LAMBDAS_AROUND_1])
                for k, n in itertools.product(range(4), (1, 2, 3))}

    for op in _class_family(83, 240):
        dense = oracles.compression(op)
        norm, ours, theirs = np.linalg.norm(dense, 2), verdicts(_stack(op)), verdicts(dense)
        for (k, n), (result, reports) in ours.items():
            other, others = theirs[k, n]
            assert result.feasible == other.feasible, (op.partition.blocks, k, n)
            assert [r.holds for r in reports] == [r.holds for r in others], (k, n)
            if result.feasible:
                a, b = result.lambda_min, other.lambda_min
                assert abs(a - b) <= 1e-12 * max(a, b), (k, n, a, b)
                certificates = [(lam, r.witness) for lam, r in zip(LAMBDAS_AROUND_1, reports)
                                if not r.holds]
            else:  # at the scale of the class's lambda
                certificates = [(norm ** (n - 1), result.kernel_obstruction)]
            for lam, x in certificates:  # x* G x, its two terms each to a few ulps
                y = oracles.mpow(dense, k) @ x
                assert (lam * np.linalg.norm(dense @ y)) ** 2 < np.linalg.norm(
                    oracles.adj(oracles.mpow(dense, n)) @ y) ** 2, (k, n, lam)


def test_the_class_checks_hand_lapack_only_2x2_blocks(monkeypatch):
    """thm33, thm34 and thm35 on a space of 64 blocks: every LAPACK operand
    is a stack of blocks at most 2 x 2, none the 128 x 128 T_c."""
    rng = np.random.default_rng(89)
    masses, parts, w, u = random_space(rng, 256, 64, vanishing=True)
    op = condexp.build_operator(condexp.FiniteMeasureSpace(masses),
                                condexp.BlockPartition(parts, 256), w, u)
    shapes, lapack = [], linalg.lapack

    def recorded(name, operand, what, **options):
        shapes.append(np.shape(operand))
        return lapack(name, operand, what, **options)
    monkeypatch.setattr(linalg, "lapack", recorded)
    monkeypatch.setattr(posinormal, "_slot", None)
    condexp.thm33_check(op, 2.0)
    condexp.thm34_check(op, 2, 2.0)
    condexp.thm35_check(op, 1, 2, 2.0)
    assert (64, 2, 2) in shapes
    assert all(max(shape[-2:]) <= 2 for shape in shapes), shapes


@pytest.mark.parametrize("scale_w, scale_u", [(1.0, 1.0), (1e8, 1e-8), (1e-8, 1e8)])
@pytest.mark.parametrize("kind", [None, "u", "w", "conj"])
def test_polar_modulus_is_psd_by_construction(scale_w, scale_u, kind):
    """|T| = Y* diag(m_b) Y with m_b >= 0: its smallest eigenvalue is above
    -1e-13 max(1, ||T||) with no asymmetry test, with u or w zero on a
    block and with u = c conj(w) blockwise."""
    rng = np.random.default_rng(43)
    ops = [condexp.build_operator(*fixtures.interval_example(n)) for n in (8, 4096)]
    for atoms, blocks in SHAPES + [(64, 16), (256, 32)]:
        masses, parts, w, u = random_space(rng, atoms, blocks, kind == "u")
        if kind == "w":
            w[list(parts[-1])] = 0.0
        elif kind == "conj":
            for part in parts:
                u[list(part)] = crandn(rng, 1) * np.conj(w[list(part)])
        ops.append(condexp.build_operator(condexp.FiniteMeasureSpace(masses),
                                          condexp.BlockPartition(parts, atoms),
                                          w * scale_w, u * scale_u))
    for op in ops:
        lowest = condexp.polar_decomposition_check(op).modulus_min_eigenvalue
        t_norm = np.linalg.norm(oracles.compression(op), 2)
        assert -lowest <= 1e-13 * max(1.0, t_norm), (op.space.atom_count, lowest)


@pytest.mark.parametrize("m", [0.25, 0.5, 1.5])
def test_lemma31_holds_at_fractional_powers(m):
    # Rounding-level eigenvalues of T*T's null space must count as 0, not
    # be raised to the power m.
    ops = [condexp.build_operator(*fixtures.interval_example(8))]
    rng = np.random.default_rng(31)
    for atoms, blocks in ((8, 3), (12, 4), (16, 5)):
        masses, parts, w, u = random_space(rng, atoms, blocks, vanishing=True)
        ops.append(condexp.build_operator(condexp.FiniteMeasureSpace(masses),
                                          condexp.BlockPartition(parts, atoms), w, u))
    for op in ops:
        report = condexp.lemma31_check(op, m)
        assert report.passed, (op.space.atom_count, report)


def test_lemma31_holds_on_a_faint_block():
    """Lemma 3.1 at m = 0.5 with w scaled by 3e-6 on one of four blocks."""
    rng = np.random.default_rng(67)
    failures = []
    for draw in range(20):
        masses, parts, w, u = random_space(rng, 16, 4, vanishing=False)
        w[list(parts[0])] *= 3e-6
        op = condexp.build_operator(condexp.FiniteMeasureSpace(masses),
                                    condexp.BlockPartition(parts, 16), w, u)
        report = condexp.lemma31_check(op, 0.5)
        if not report.passed:
            failures.append((draw, report.deviation_t_star_t, report.deviation_t_t_star))
    assert failures == []


def test_polar_holds_on_a_faint_block():
    """The polar check with w and u both scaled by 3e-6 on one of three
    blocks: |T|_b's eigenvalue, about 1e-11 of the others', falls under
    the range cut, so U's closed form must drop the block too, or U*U
    misses the projector onto the range of |T| by 1."""
    rng = np.random.default_rng(73)
    failures = []
    for draw in range(40):
        masses, parts, w, u = random_space(rng, 9, 3, vanishing=False)
        for f in (w, u):
            f[list(parts[0])] *= 3e-6
        op = condexp.build_operator(condexp.FiniteMeasureSpace(masses),
                                    condexp.BlockPartition(parts, 9), w, u)
        report = condexp.polar_decomposition_check(op)
        if not report.passed:
            failures.append((draw, report.partial_isometry_residual))
    assert failures == []


def test_lemma31_rejects_a_bool_power():
    op = condexp.build_operator(*fixtures.interval_example(8))
    for m in (True, False):
        with pytest.raises(ValidationError, match="power m"):
            condexp.lemma31_check(op, m)


def test_partition_takes_integer_indices_only():
    for blocks in ([[0, 1.7]], [[True, 0]], [[0, "1"]]):
        with pytest.raises(ValidationError, match="atom index"):
            condexp.BlockPartition(blocks, 2)
    partition = condexp.BlockPartition([np.array([1, 0], dtype=np.int64)], 2)
    assert partition.blocks == ((1, 0),)
    assert all(type(i) is int for i in partition.blocks[0])


def _one_defect(rng, atoms):
    """A random partition of ``atoms`` atoms, its indices as Python or numpy
    integers, with one defect: an empty block, a non-integer, an index out
    of range, an atom in two blocks, or an atom left out (or none)."""
    cuts = np.sort(rng.choice(np.arange(1, atoms), rng.integers(atoms), replace=False))
    blocks = [list(b) for b in np.split(rng.permutation(atoms), cuts)]
    if rng.integers(2):
        blocks = [[int(i) for i in b] for b in blocks]
    target = blocks[rng.integers(len(blocks))]
    at = int(rng.integers(len(target) + 1))
    kind = int(rng.integers(6))
    if kind == 0:
        blocks.insert(at % (len(blocks) + 1), [])
    elif kind == 1:
        bad = [True, False, np.True_, 1.0, np.float64(2.0), "1", None, 1j]
        target.insert(at, bad[rng.integers(len(bad))])
    elif kind == 2:
        beyond = [-1, atoms, atoms + 5, np.int8(-3), np.uint64(atoms),
                  np.uint64(2 ** 64 - 1), 10 ** 30]
        target.insert(at, beyond[rng.integers(len(beyond))])
    elif kind == 3:
        target.insert(at, int(rng.integers(atoms)))
    elif kind == 4 and len(target) > 1:
        target.pop(at % len(target))
    return blocks


def test_partition_reports_each_defect_as_the_index_loop_does():
    rng = np.random.default_rng(11)
    messages = set()
    for _ in range(600):
        atoms = int(rng.integers(2, 30))
        blocks = _one_defect(rng, atoms)
        expected = oracles.partition_defect(blocks, atoms)
        if expected is None:
            partition = condexp.BlockPartition(blocks, atoms)
            assert partition.blocks == tuple(tuple(int(i) for i in b) for b in blocks)
            assert all(type(i) is int for b in partition.blocks for i in b)
            continue
        with pytest.raises(ValidationError) as info:
            condexp.BlockPartition(blocks, atoms)
        assert str(info.value) == expected
        messages.add(expected)
    for kind in ("is empty", "not an atom index", "valid range", "two blocks",
                 "does not cover"):
        assert any(kind in m for m in messages), kind


@pytest.mark.parametrize("blocks, atoms, message", [
    ([5], 1, r"partition\[0\] is not a sequence"),
    (5, 1, "partition is not a sequence"),
    ({"0": [0]}, 1, "partition is not a sequence"),  # a JSON object
    ([[0]], 1.5, "partition: atom count"),
])
def test_partition_of_the_wrong_type_is_a_validation_error(blocks, atoms, message):
    with pytest.raises(ValidationError, match=message):
        condexp.BlockPartition(blocks, atoms)


def test_interval_example_validates_its_size():
    for n_atoms in (7, 0, 8.0, True):
        with pytest.raises(ValidationError):
            fixtures.interval_example(n_atoms)
    space, partition, w, u = fixtures.interval_example(np.int64(4))
    assert partition.blocks == ((0, 1), (2, 3))
    np.testing.assert_allclose(u.real, [0.125, 0.375, 0.375, 0.125])


@pytest.mark.parametrize("n_atoms", [2, 8, 4096])
def test_interval_example_labels_format_the_midpoints(n_atoms):
    # Labels come from Python floats; they must read as numpy's formatting.
    space = fixtures.interval_example(n_atoms)[0]
    mid = (np.arange(n_atoms) + 0.5) / n_atoms
    assert space.labels == tuple(f"x={x:.6g}" for x in mid)


def _criterion_cases():
    """Seeded operators, their oracle matrix, and per block the oracle's
    moments (E|w|^2, E|u|^2, E(w), E(u), E(uw)).  In some, u or w vanishes
    on a whole block; in one, u is conj(w) times a positive blockwise
    constant, which makes T positive, so posinormal exactly for lambda >= 1."""
    rng = np.random.default_rng(33)
    for atoms, blocks, kind in ((7, 3, None), (12, 4, "u"), (16, 5, "w"),
                                (9, 3, "u"), (10, 4, "positive")):
        masses, parts, w, u = random_space(rng, atoms, blocks, kind == "u")
        if kind == "w":
            w[list(parts[1])] = 0.0
        if kind == "positive":
            for block in parts:
                u[list(block)] = np.conj(w[list(block)]) * rng.uniform(0.5, 2.0)
        op = condexp.build_operator(condexp.FiniteMeasureSpace(masses),
                                    condexp.BlockPartition(parts, atoms), w, u)
        first = [block[0] for block in parts]
        ew2, eu2, ew, eu, euw = (
            oracles.conditional_expectation_oracle(masses, parts, f)[first]
            for f in (np.abs(w) ** 2, np.abs(u) ** 2, w, u, u * w))
        moments = list(zip(ew2.real, eu2.real, ew, eu, euw))
        yield op, oracles.weighted_operator_matrix_oracle(masses, parts, w, u), moments


def _assert_margins(margins, sides):
    """margins equal big - small for the (big, small) of each block."""
    big, small = np.array(sides).T
    scale = max(1.0, float(np.max(np.abs(sides))))
    np.testing.assert_allclose(margins, big - small, rtol=1e-10, atol=1e-12 * scale)


LAMBDAS = (0.25, 0.5, 2.0, 4.0, 16.0)


def test_thm33_criterion_matches_oracles():
    for op, matrix, moments in _criterion_cases():
        for lam in LAMBDAS:
            report = condexp.thm33_check(op, lam)
            assert report.matrix_holds == oracles.member_oracle(matrix, 0, 1, lam)
            _assert_margins(report.block_margins, [
                (lam ** 2 * ew2 * abs(eu) ** 2, eu2 * abs(ew) ** 2)
                for ew2, eu2, ew, eu, _ in moments])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_thm34_criterion_matches_oracles(n):
    for op, matrix, moments in _criterion_cases():
        for lam in LAMBDAS:
            report = condexp.thm34_check(op, n, lam)
            assert report.matrix_holds == oracles.member_oracle(matrix, 0, n, lam)
            _assert_margins(report.block_margins, [
                (lam ** 2 * ew2 * abs(eu) ** 2,
                 abs(euw) ** (2 * n) * (eu2 / ew2 ** n if ew2 > 0 else 0.0)
                 * abs(ew) ** 2)
                for ew2, eu2, ew, eu, euw in moments])


@pytest.mark.parametrize("k, n", [(0, 1), (1, 2), (2, 1), (1, 3)])
def test_thm35_criterion_matches_oracles(k, n):
    for op, matrix, moments in _criterion_cases():
        for lam in LAMBDAS:
            report = condexp.thm35_check(op, k, n, lam)
            assert report.matrix_holds == oracles.member_oracle(matrix, k, n, lam)
            _assert_margins(report.stated_margins, [
                (lam ** 2 * eu2 ** (2 * n - 1)
                 * (ew2 ** (2 * k * n - 1) if ew2 > 0 else 0.0),
                 abs(euw) ** (2 * k + 2))
                for ew2, eu2, ew, eu, euw in moments])
            _assert_margins(report.proof_margins, [
                (lam ** 2 * eu2 * ew2 ** (2 * k) * abs(eu) ** 2,
                 abs(euw) ** (2 * k + n - 1)
                 * (np.sqrt(eu2 / ew2 ** (n - 1)) if ew2 > 0 else 0.0)
                 * abs(ew) ** 2)
                for ew2, eu2, ew, eu, euw in moments])


@pytest.mark.xfail(strict=True, reason=(
    "thm34_check's right side |E(uw)|^{2n} E|u|^2 / (E|w|^2)^n |E w|^2 is not "
    "implied by membership: on the positive T of _criterion_cases, posinormal "
    "at lambda >= 1, it fails at n = 1 for lambda = 2; plugging block "
    "indicators into the definition gives |E(uw)|^{2(n-1)} E|u|^2 |E w|^2"))
def test_thm34_necessity_holds():
    """Membership of the matrix implies the blockwise inequality."""
    failures = [(op.space.atom_count, n, lam)
                for op, _, _ in _criterion_cases()
                for n in (1, 2, 3)
                for lam in LAMBDAS
                if not condexp.thm34_check(op, n, lam).necessity_ok]
    assert failures == []


def _scale_free_verdicts(space, partition, w, u, j):
    """The verdicts that must not depend on the scale of (w, u), with w and
    u scaled by 2^j, so T by 4^j and each lambda by 4^(j(n-1)) as T's class
    is: the matrix verdicts, passed of the norm, Lemma 3.1 and polar checks,
    every field of thm33, and thm34's blockwise verdict at n = 2, the one n
    where the printed Theorem 3.4 is homogeneous."""
    op = condexp.build_operator(space, partition, w * 2.0 ** j, u * 2.0 ** j)
    verdicts = {"norm": condexp.norm_formula_check(op).passed,
                "polar": condexp.polar_decomposition_check(op).passed}
    for m in (1, 2, 0.5, 1.5):
        verdicts["lemma31", m] = condexp.lemma31_check(op, m).passed
    for lam in LAMBDAS:
        report = condexp.thm33_check(op, lam)
        verdicts["thm33", lam] = (report.supports_match, report.blockwise_holds,
                                  report.matrix_holds, report.agree)
        for n in (1, 2, 3):
            report = condexp.thm34_check(op, n, lam * 4.0 ** (j * (n - 1)))
            verdicts["thm34", n, lam] = (report.matrix_holds,
                                         report.blockwise_holds if n == 2 else None)
        for k, n in ((0, 1), (1, 2), (2, 1)):  # at (1, 3) a printed side overflows at 2^40
            report = condexp.thm35_check(op, k, n, lam * 4.0 ** (j * (n - 1)))
            verdicts["thm35", k, n, lam] = report.matrix_holds
    return verdicts


def test_verdicts_are_covariant_under_exact_scaling():
    """Scaling w and u by a power of two is exact, so every verdict above
    is the one at scale 1.  A slack that is absolute below scale 1 fails
    this: at 2^-10 the interval example's thm33 then reads blockwise_holds
    true at lambda 0.5 and disagrees with the matrix."""
    rng = np.random.default_rng(71)
    spaces = [fixtures.interval_example(8)]
    for atoms, blocks, vanishing in ((7, 3, False), (12, 4, False), (16, 5, True)):
        masses, parts, w, u = random_space(rng, atoms, blocks, vanishing)
        spaces.append((condexp.FiniteMeasureSpace(masses),
                       condexp.BlockPartition(parts, atoms), w, u))
    masses, parts, w, u = random_space(rng, 9, 3, False)  # w and u faint on a block
    for f in (w, u):
        f[list(parts[0])] *= 3e-6
    spaces.append((condexp.FiniteMeasureSpace(masses), condexp.BlockPartition(parts, 9), w, u))
    for space in spaces:
        expected = _scale_free_verdicts(*space, 0)
        for j in (-40, -20, -10, 10, 20, 40):
            assert _scale_free_verdicts(*space, j) == expected, (space[0].atom_count, j)
