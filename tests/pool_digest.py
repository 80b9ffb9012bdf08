"""One sha256 over every output of the benchmark's numerical pools.

Usage:

    python3 tests/pool_digest.py CHECKOUT_ROOT

imports posilab from CHECKOUT_ROOT/src and the pools from
CHECKOUT_ROOT/posibench/workloads.py, runs each query once, in pool order:
the dense-pencil pools of seeds 1-3 and the condexp-blocks pools of seeds
1-10.  It reads every witness and kernel obstruction, and hashes every
verdict, lambda_min, gap value, witness and report field, floats and arrays
by their bits.  It prints the query count and the digest.  Two checkouts
that print the same digest give the same results bit for bit on these
pools.  The digest depends on the BLAS build and its thread count, so
compare checkouts on one machine under one OPENBLAS_NUM_THREADS.
Nothing is written: bytecode caching is off, so the checkout's
posibench/ is only read.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

DENSE_SEEDS = (1, 2, 3)
CONDEXP_SEEDS = tuple(range(1, 11))
# Properties read on top of the dataclass fields: the failure certificates.
CERTIFICATES = ("witness", "kernel_obstruction")


def _feed(h, value) -> None:
    """Hash value by type and content, recursively."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype} {value.shape};".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        h.update(f"{type(value).__name__}(".encode())
        for f in dataclasses.fields(value):
            if not f.name.startswith("_"):
                h.update(f"{f.name}=".encode())
                _feed(h, getattr(value, f.name))
        for name in CERTIFICATES:
            if hasattr(value, name):
                h.update(f"{name}=".encode())
                _feed(h, getattr(value, name))
        h.update(b")")
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, (float, np.floating)):
        h.update(f"{float(value).hex()};".encode())
    else:  # None, bool, int, str, complex
        h.update(f"{type(value).__name__} {value!r};".encode())


def digest(root: Path) -> tuple[int, str]:
    """(query count, sha256 hex) of the pools of the checkout at root."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root)]
    from posibench import workloads

    h, count = hashlib.sha256(), 0
    pools = ([(workloads.dense_pool(seed), workloads.dense_run) for seed in DENSE_SEEDS]
             + [(workloads.condexp_pool(seed), workloads.condexp_run)
                for seed in CONDEXP_SEEDS])
    for items, run in pools:
        for query in items:
            _feed(h, (query.kind, query.case, run(query)))
            count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    queries, sha = digest(Path(sys.argv[1]).resolve())
    print(f"queries: {queries}")
    print(f"sha256: {sha}")
