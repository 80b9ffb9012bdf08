"""Small operators exercised throughout the test and verification suites."""

import numpy as np

from . import condexp, linalg
from .errors import ValidationError


def nilpotent_shift(dim: int) -> np.ndarray:
    """Strictly upper shift: e_{i+1} -> e_i, nilpotent of order ``dim``."""
    return np.eye(dim, k=1, dtype=complex)


def clipped_shift(dim: int) -> np.ndarray:
    """(x1, x2, x3, ...) -> (x2, x3, 0, ...): two coordinates survive.

    Finite section of the corresponding sequence-space operator; any
    dim >= 3 reproduces its behaviour exactly since the cube vanishes.
    """
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 1] = 1.0
    m[1, 2] = 1.0
    return m


def invariant_block_matrix() -> np.ndarray:
    """4x4 upper-triangular pair: span{e1, e2} is invariant."""
    return np.array(
        [[1, 1, 0, 0],
         [0, 2, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 0, 0]], dtype=complex)


def split_range_matrix() -> np.ndarray:
    """4x4 with rank-3 first power: splits as a 3+1 block triangle."""
    return np.array(
        [[2, 1, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 0, 0]], dtype=complex)


def interval_example(n_atoms: int):
    """Midpoint discretization of the two-block interval example.

    The unit interval splits at 1/2 into two blocks; w is 2 on the left
    block and 1 on the right, u(x) = x on the left and 1 - x on the right,
    both sampled at the n_atoms midpoints of a uniform grid (masses
    1/n_atoms each).  Returns (space, partition, w, u).
    Requires n_atoms even so the split lands between atoms.
    """
    if not linalg.is_integer(n_atoms) or n_atoms < 2 or n_atoms % 2:
        raise ValidationError(
            f"n_atoms must be an even integer >= 2, got {n_atoms!r}"
        )
    mid = (np.arange(n_atoms) + 0.5) / n_atoms
    space = condexp.FiniteMeasureSpace(
        np.full(n_atoms, 1.0 / n_atoms),
        labels=tuple(f"x={x:.6g}" for x in mid.tolist()),
    )
    half = n_atoms // 2
    partition = condexp.BlockPartition([range(half), range(half, n_atoms)], n_atoms)
    left = mid < 0.5
    w = np.where(left, 2.0, 1.0).astype(complex)
    u = np.where(left, mid, 1.0 - mid).astype(complex)
    return space, partition, w, u
