"""Nothing raw escapes the API: on valid input at extreme scales every
entry point returns or raises ValidationError or NumericalFailure, never a
LinAlgError, an OverflowError or a numpy warning, and never hands back a
certificate that is not a finite unit vector."""

import warnings

import numpy as np

from posilab import condexp, fixtures, posinormal, structure
from posilab.errors import NumericalFailure, ValidationError
from posilab.posinormal import ClassQuery


def _unit(x) -> None:
    assert x is None or abs(np.linalg.norm(x) - 1.0) <= 1e-12, x


def _operator(rng, case: int, dim: int) -> np.ndarray:
    """A third each: generic complex T and shifts at 10^U(-160, 160), and
    graded T with entries at 10^U(-60, 60) each."""
    if case % 3 == 0:
        t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return t * 10.0 ** rng.uniform(-160, 160)
    if case % 3 == 1:
        shift = (fixtures.nilpotent_shift(dim) if case % 2
                 else fixtures.clipped_shift(max(dim, 3)))
        return 10.0 ** rng.uniform(-160, 160) * shift
    return rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-60, 60, (dim, dim))


def test_extreme_scales_fail_only_through_the_api():
    """300 cases of dims 2-8; the condexp checks run on the interval space
    of 2 dim atoms with w and u each scaled by 10^U(-160, 160)."""
    rng = np.random.default_rng(5)
    raw, typed = [], 0
    for case in range(300):
        dim = int(rng.integers(2, 9))
        t = _operator(rng, case, dim)
        k, n, lam = int(rng.integers(0, 4)), int(rng.integers(1, 4)), 10.0 ** rng.uniform(-3, 3)
        space, partition, w, u = fixtures.interval_example(2 * dim)
        w, u = w * 10.0 ** rng.uniform(-160, 160), u * 10.0 ** rng.uniform(-160, 160)

        def op():
            return condexp.build_operator(space, partition, w, u)
        calls = {
            "min_lambda": lambda: _unit(posinormal.min_lambda(t, k, n).kernel_obstruction),
            "is_member": lambda: _unit(posinormal.is_member(t, ClassQuery(k, n, lam)).witness),
            "classify_grid": lambda: posinormal.classify_grid(t, 2, 2),
            "gap_matrix": lambda: posinormal.gap_matrix(t, k, n, lam),
            "decompose": lambda: structure.spectrum_union_gap(structure.decompose(t, k, n), t),
            "nilpotency": lambda: posinormal.nilpotency_collapse_check(t, k, n),
            "corollary": lambda: posinormal.operator_norm_corollary_check(t, k, n, lam, k),
            "dense_range": lambda: structure.dense_range_upgrade(t, k, n, lam),
            "tensor": lambda: structure.tensor_check(t, np.diag([2.0, 1.0]),
                                                     ClassQuery(k, n, lam), 10.0),
            "norm": lambda: condexp.norm_formula_check(op()),
            "lemma31": lambda: condexp.lemma31_check(op(), 2 if case % 2 else 0.5),
            "polar": lambda: condexp.polar_decomposition_check(op()),
            "thm33": lambda: condexp.thm33_check(op(), lam),
            "thm34": lambda: condexp.thm34_check(op(), n, lam),
            "thm35": lambda: condexp.thm35_check(op(), k, n, lam),
        }
        for name, call in calls.items():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    call()
            except (ValidationError, NumericalFailure):
                typed += 1
            except Exception as exc:  # every other kind is the finding
                raw.append((case, name, type(exc).__name__, str(exc)[:60]))
    assert raw == []
    assert typed > 1000  # the sweep reaches the scales where failures occur
