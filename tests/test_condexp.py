"""condexp against the loop-based oracles of tests/oracles.py."""

import numpy as np
import pytest

from posilab import condexp

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
