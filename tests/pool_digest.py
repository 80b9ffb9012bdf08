"""Two sha256 digests over the outputs of the benchmark's numerical pools.

Usage:

    python3 tests/pool_digest.py CHECKOUT_ROOT

imports posilab from CHECKOUT_ROOT/src and the pools from
CHECKOUT_ROOT/posibench/workloads.py, runs each query once, in pool order:
the dense-pencil pools of seeds 1-3 and the condexp-blocks pools of seeds
1-10.  It prints the query count and two digests:

- sha256, over the bits: every verdict, lambda_min, gap value, witness and
  kernel obstruction (each read) and report field, floats and arrays by
  their bits.  Two checkouts that print it alike give the same results bit
  for bit on these pools.  It depends on the BLAS build and its thread
  count, so compare checkouts on one machine under one
  OPENBLAS_NUM_THREADS.
- verdicts, over the verdicts only: every boolean (holds, passed,
  feasible, agree, ...) and every None, in the same order.  It does not
  depend on the BLAS thread count.

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


def _feed(h, value, verdicts) -> None:
    """Hash value by type and content, recursively; with ``verdicts``, its
    booleans and Nones only."""
    if verdicts and not isinstance(value, (dict, list, tuple)) and not (
            dataclasses.is_dataclass(value)):
        if value is None or isinstance(value, (bool, np.bool_)):
            h.update(f"{value!r};".encode())
    elif isinstance(value, np.ndarray):
        h.update(f"array {value.dtype} {value.shape};".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        h.update(f"{type(value).__name__}(".encode())
        for f in dataclasses.fields(value):
            if not f.name.startswith("_"):
                h.update(f"{f.name}=".encode())
                _feed(h, getattr(value, f.name), verdicts)
        for name in CERTIFICATES:
            if hasattr(value, name):
                h.update(f"{name}=".encode())
                _feed(h, getattr(value, name), verdicts)
        h.update(b")")
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value):
            _feed(h, key, verdicts)
            _feed(h, value[key], verdicts)
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item, verdicts)
        h.update(b"]")
    elif isinstance(value, (float, np.floating)):
        h.update(f"{float(value).hex()};".encode())
    else:  # None, bool, int, str, complex
        h.update(f"{type(value).__name__} {value!r};".encode())


def digest(root: Path) -> tuple[int, str, str]:
    """(query count, sha256 hex of the bits, of the verdicts) of the pools
    of the checkout at root."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root)]
    from posibench import workloads

    bits, verdicts, count = hashlib.sha256(), hashlib.sha256(), 0
    pools = ([(workloads.dense_pool(seed), workloads.dense_run) for seed in DENSE_SEEDS]
             + [(workloads.condexp_pool(seed), workloads.condexp_run)
                for seed in CONDEXP_SEEDS])
    for items, run in pools:
        for query in items:
            output = (query.kind, query.case, run(query))
            _feed(bits, output, False)
            _feed(verdicts, output, True)
            count += 1
    return count, bits.hexdigest(), verdicts.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    queries, sha, verdict_sha = digest(Path(sys.argv[1]).resolve())
    print(f"queries: {queries}")
    print(f"sha256: {sha}")
    print(f"verdicts: {verdict_sha}")
