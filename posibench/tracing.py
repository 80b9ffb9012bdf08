"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces module attributes with wrappers that record one span
per call: name, start, end and the index of the enclosing span.  Calls
between posilab modules go through module attributes (``linalg.matpow``,
``posinormal.is_member``), so the wrappers see them; calls inside a module
look up the module globals, which are the same attributes.  The ``lapack``
layer is the set of ``numpy.linalg`` functions posilab calls; its flop
counts are computed from argument shapes, not measured.

Spans stay in memory until ``write`` and ``summarize`` run after the
timed loop.
"""

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array

import numpy as np

# numpy.linalg entry points used by posilab.
LAPACK_FUNCTIONS = ("eigh", "eigvalsh", "eigvals", "svd", "norm",
                    "matrix_power", "det", "qr")

# The lapack layer first, then the posilab modules, callee to caller.
LAYERS = ("lapack", "linalg", "posinormal", "structure", "condexp",
          "fileio", "verify", "cli")

CONDEXP_CHECKS = ("norm_formula_check", "lemma31_check",
                  "polar_decomposition_check", "thm33_check", "thm34_check",
                  "thm35_check")


def _matmuls_in_power(p: int) -> int:
    """Matrix products numpy.linalg.matrix_power performs for exponent p."""
    p = abs(int(p))
    if p <= 1:
        return 0
    if p <= 3:
        return p - 1
    return (p.bit_length() - 1) + (bin(p).count("1") - 1)


def lapack_flops(name: str, args, kwargs) -> float:
    """Real flop count of one numpy.linalg call, computed from shapes.

    Dense-kernel counts from Golub and Van Loan, Matrix Computations
    (4th ed.), section 5 and figure 8.6.1; a complex operand costs four
    times the real count.
    """
    a = np.asarray(args[0]) if args else None
    if a is None or a.ndim < 1:
        return 0.0
    factor = 4.0 if np.iscomplexobj(a) else 1.0
    if a.ndim == 1:
        return factor * 2.0 * a.size
    m, n = a.shape[-2], a.shape[-1]
    big, small = max(m, n), min(m, n)
    if name == "eigh":
        flops = 9.0 * n ** 3
    elif name == "eigvalsh":
        flops = 4.0 * n ** 3 / 3.0
    elif name == "eigvals":
        flops = 10.0 * n ** 3
    elif name == "det":
        flops = 2.0 * n ** 3 / 3.0
    elif name == "qr":
        flops = 4.0 * big * small ** 2 - 4.0 * small ** 3 / 3.0
    elif name == "matrix_power":
        power = args[1] if len(args) > 1 else kwargs.get("n", 1)
        flops = _matmuls_in_power(power) * 2.0 * n ** 3
    elif name == "svd" and kwargs.get("compute_uv", True):
        flops = 4.0 * big ** 2 * small + 8.0 * big * small ** 2 + 9.0 * small ** 3
    elif name in ("svd", "norm2"):
        flops = 4.0 * big * small ** 2 - 4.0 * small ** 3 / 3.0
    else:  # Frobenius or other elementwise norms
        flops = 2.0 * a.size
    return factor * flops


def _is_matrix_two_norm(args, kwargs) -> bool:
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ in (2, -2) and np.ndim(args[0]) == 2


class Tracer:
    """Records spans around patched module functions.

    Span i has name ``names[name_ids[i]]``, times ``starts[i]`` and
    ``ends[i]``, the index ``parents[i]`` of the enclosing span (-1 at the
    top) and ``flops[i]``.  Compact arrays keep a long traced run small.
    ``install`` patches, ``uninstall`` restores the original attributes.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.flops = array("d")
        self._stack = []
        self._patches = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        return self._record(name, 0.0, fn, args, kwargs)

    def _record(self, name, flops, fn, args, kwargs):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.flops.append(flops)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def _patch(self, owner, attr: str, make_name):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = make_name(args, kwargs)
            layer, _, func = name.partition(".")
            flops = lapack_flops(func, args, kwargs) if layer == "lapack" else 0.0
            return tracer._record(name, flops, original, args, kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self):
        """Patch numpy.linalg and every public function of the posilab
        module of each layer, plus the private ``_claim_*`` functions of
        ``verify``, so each paper claim gets its own span.
        """
        for attr in LAPACK_FUNCTIONS:
            if attr == "norm":
                self._patch(np.linalg, attr, lambda a, k: "lapack.norm2"
                            if _is_matrix_two_norm(a, k) else "lapack.norm")
            else:
                self._patch(np.linalg, attr,
                            lambda a, k, _n=f"lapack.{attr}": _n)
        for layer in LAYERS[1:]:
            module = importlib.import_module(f"posilab.{layer}")
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and not (layer == "verify"
                                                 and attr.startswith("_claim_")):
                    continue
                self._patch(module, attr, lambda a, k, _n=f"{layer}.{attr}": _n)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict):
        """Write gzip-compressed JSON lines: a header with the span names,
        then [id, name id, start, end, parent, flops] per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "names": self.names}) + "\n")
            fh.writelines(
                f"[{i}, {n}, {s!r}, {e!r}, {p}, {f!r}]\n"
                for i, (n, s, e, p, f) in enumerate(zip(
                    self.name_ids, self.starts, self.ends, self.parents,
                    self.flops)))

    def summarize(self) -> dict:
        """Per-layer aggregates over all recorded spans.

        Self time of a span is its duration minus the durations of its
        direct children (one thread, so children never overlap).
        """
        count = len(self.starts)
        durations_of = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * count
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations_of[i]
        matrix_name = [_is_matrix_work(n) for n in self.names]
        in_check = [False] * count
        under_matrix = [False] * count
        layer_self = {}
        calls = {}
        durations = {}
        check_time = 0.0
        matrix_time = 0.0
        queries = 0
        query_time = 0.0
        for i in range(count):
            name_id, parent, dur = self.name_ids[i], self.parents[i], durations_of[i]
            name = self.names[name_id]
            layer, _, func = name.partition(".")
            layer_self[layer] = layer_self.get(layer, 0.0) + dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(dur)
            if layer == "bench":
                queries += 1
                query_time += dur
            if parent >= 0:
                in_check[i] = in_check[parent]
                under_matrix[i] = (under_matrix[parent]
                                   or matrix_name[self.name_ids[parent]])
            if layer == "condexp" and func in CONDEXP_CHECKS:
                in_check[i] = True
                check_time += dur
            elif in_check[i] and matrix_name[name_id] and not under_matrix[i]:
                matrix_time += dur
        return {
            "queries": queries,
            "query_time": query_time,
            "layer_self": layer_self,
            "calls": calls,
            "durations": durations,
            "flops": sum(self.flops),
            "check_time": check_time,
            "matrix_time": matrix_time,
        }


def _is_matrix_work(name: str) -> bool:
    """Spans that operate on the dense N x N operator of a condexp check."""
    layer = name.partition(".")[0]
    return (layer in ("lapack", "linalg", "posinormal")
            or name == "condexp.conditional_projector")
