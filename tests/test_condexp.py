"""condexp against the loop-based oracles of tests/oracles.py."""

import numpy as np
import pytest

from posilab import condexp, fixtures
from posilab.errors import ValidationError

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
                condexp.conditional_expectation(space, partition, f),
                oracles.conditional_expectation_oracle(masses, parts, f),
                rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("atoms, blocks", SHAPES)
@pytest.mark.parametrize("vanishing", [False, True])
def test_operator_matrix_matches_oracle(atoms, blocks, vanishing):
    rng = np.random.default_rng(2000 * atoms + blocks)
    for _ in range(5):
        masses, parts, w, u = random_space(rng, atoms, blocks, vanishing)
        op = condexp.build_operator(condexp.FiniteMeasureSpace(masses),
                                    condexp.BlockPartition(parts, atoms), w, u)
        expected = oracles.weighted_operator_matrix_oracle(masses, parts, w, u)
        np.testing.assert_allclose(op.matrix, expected, rtol=1e-12, atol=1e-14)
        if vanishing:
            # u = 0 on a whole block: those columns of T vanish exactly.
            dead = u == 0
            assert dead.any() and not op.matrix[:, dead].any()


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
    np.testing.assert_allclose(op.matrix @ (root * f) / root, direct,
                               rtol=1e-12, atol=1e-14)


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


def test_partition_takes_integer_indices_only():
    for blocks in ([[0, 1.7]], [[True, 0]], [[0, "1"]]):
        with pytest.raises(ValidationError, match="atom index"):
            condexp.BlockPartition(blocks, 2)
    partition = condexp.BlockPartition([np.array([1, 0], dtype=np.int64)], 2)
    assert partition.blocks == ((1, 0),)
    assert all(type(i) is int for i in partition.blocks[0])


def test_interval_example_validates_its_size():
    for n_atoms in (7, 0, 8.0, True):
        with pytest.raises(ValidationError):
            fixtures.interval_example(n_atoms)
    space, partition, w, u = fixtures.interval_example(np.int64(4))
    assert partition.blocks == ((0, 1), (2, 3))
    np.testing.assert_allclose(u.real, [0.125, 0.375, 0.375, 0.125])
