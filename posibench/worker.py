"""One benchmark process: set up, signal ready, run the closed loop, report.

Started by run.py as ``python3 posibench/worker.py '<json options>'``.
It imports posilab from the checkout's ``src``, builds the workload's
seeded query pool and prints ``ready``; the parent's set-up time ends
there.  A probe (``"probe": true``) exits at that point.  Otherwise it
runs one untimed warm-up query, then one client sends queries back to
back until ``seconds`` have passed, checks each output after timing it,
and prints one JSON line with its measurements.
"""

import collections
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# numpy, and the benchmark modules that import it, are imported only after
# the timed ``import posilab``, so import_s includes numpy's import as a
# user of posilab pays it.


def blas_info() -> dict:
    """BLAS library, version and thread count as the process sees them."""
    import numpy as np

    info = {"env_OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["vendor"] = build.get("name", "unknown")
    info["version"] = build.get("version", "unknown")
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    info["runtime_config"] = config().decode()
                    info["threads"] = int(threads())
                    return info
    info["threads"] = "unknown"
    return info


def layer_metrics(summary: dict) -> dict:
    """Per-query layer metrics from a Tracer summary."""
    from tracing import CONDEXP_CHECKS, LAYERS

    queries = max(summary["queries"], 1)
    calls, durations = summary["calls"], summary["durations"]
    layer_self = summary["layer_self"]

    def per_query(*names):
        return sum(calls.get(n, 0) for n in names) / queries

    def median_ms(*names):
        values = [d for n in names for d in durations.get(n, ())]
        return statistics.median(values) * 1e3 if values else 0.0

    lapack_names = [n for n in calls if n.startswith("lapack.")]
    metrics = {
        "lapack.calls_per_query": per_query(*lapack_names),
        "lapack.eigh.calls_per_query": per_query("lapack.eigh"),
        "lapack.eigvalsh.calls_per_query": per_query("lapack.eigvalsh"),
        "lapack.svd.calls_per_query": per_query("lapack.svd", "lapack.norm2"),
        "lapack.matrix_power.calls_per_query": per_query("lapack.matrix_power"),
        "lapack.busy_share": (layer_self.get("lapack", 0.0)
                              / max(summary["query_time"], 1e-12)),
        "lapack.flops_per_query": summary["flops"] / queries,
    }
    for layer in LAYERS:
        if layer != "cli":
            metrics[f"{layer}.self_ms_per_query"] = (
                layer_self.get(layer, 0.0) / queries * 1e3)
    metrics.update({
        "linalg.hermitian_asymmetry.calls_per_query":
            per_query("linalg.hermitian_asymmetry"),
        "linalg.operator_norm.calls_per_query": per_query("linalg.operator_norm"),
    })
    for fn in ("is_member", "min_lambda", "gap_matrix", "membership_scale",
               "classify_grid"):
        metrics[f"posinormal.{fn}.ms"] = median_ms(f"posinormal.{fn}")
    metrics["structure.decompose.ms"] = median_ms("structure.decompose")
    metrics["condexp.build_operator.ms"] = median_ms("condexp.build_operator")
    metrics["condexp.conditional_projector.calls_per_query"] = per_query(
        "condexp.conditional_projector")
    for check in CONDEXP_CHECKS:
        metrics[f"condexp.{check}.ms"] = median_ms(f"condexp.{check}")
    metrics["condexp.matrix_share"] = (
        summary["matrix_time"] / summary["check_time"]
        if summary["check_time"] else 0.0)
    metrics["fileio.load.ms"] = median_ms("fileio.load_matrix", "fileio.load_space")
    metrics["verify.run_claim_suite.ms"] = median_ms("verify.run_claim_suite")
    metrics["verify.claim_max_ms"] = max(
        (median_ms(n) for n in durations if n.startswith("verify._claim_")),
        default=0.0)
    metrics["cli.self_ms_per_invocation"] = layer_self.get("cli", 0.0) / queries * 1e3
    return metrics


def run_loop(workload, seconds: float, tracer):
    """Closed loop with one client; returns the per-query record."""
    from workloads import FAILURE_CLASSES, FINDINGS

    latencies = array("d")  # no float objects, so memory barely grows with the count
    failures = collections.Counter()
    findings = collections.Counter()
    cases = collections.Counter()
    outcomes = collections.Counter()
    failed = 0
    reported = False
    items = workload.items
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        query = items[i % len(items)]
        i += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(query)
            else:
                output = tracer.span("bench.query", workload.run, query)
            error = None
        except Exception as exc:  # a failed query, recorded and counted
            output, error = None, exc
        latencies.append(time.perf_counter() - start)
        cases[query.case] += 1
        if error is not None:
            kinds, found = {"exception"}, set()
            if not reported:
                reported = True
                traceback.print_exception(error, file=sys.stderr)
        else:
            kinds, found = workload.check(query, output)
            outcome = workload.outcome and workload.outcome(query, output)
            if outcome:
                outcomes[f"{query.case}/{outcome}"] += 1
        failures.update(kinds)
        findings.update(found)
        failed += bool(kinds)
        if time.perf_counter() >= deadline:
            break
    return {
        "attempted": len(latencies),
        "failed": failed,
        "failures": {k: failures.get(k, 0) for k in FAILURE_CLASSES},
        "findings": {k: findings.get(k, 0) for k in FINDINGS},
        "cases": dict(cases),
        "outcomes": dict(outcomes),
        "latencies_ms": [x * 1e3 for x in latencies],
        "busy_s": sum(latencies),
    }


def main() -> int:
    options = json.loads(sys.argv[1])
    protocol = sys.stdout
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import posilab
    import_s = time.perf_counter() - start
    if Path(posilab.__file__).resolve().parent != ROOT / "src" / "posilab":
        print(f"posilab imported from {posilab.__file__}, not from the checkout",
              file=sys.stderr)
        return 3

    import workloads

    workdir = ROOT / ".posibench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(options["workload"], options["seed"],
                                   ROOT, workdir)
        protocol.write("ready\n")
        protocol.flush()
        result = {"import_s": import_s}
        if not options["probe"]:
            result.update(measure(workload, options))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


def measure(workload, options) -> dict:
    """Warm up, run the timed loop and collect the worker's measurements."""
    from tracing import Tracer

    warm = time.perf_counter()
    try:
        workload.run(workload.items[0])
    except Exception:  # counted when the timed loop meets the same query
        pass
    warmup_ms = (time.perf_counter() - warm) * 1e3

    tracer = Tracer() if options["traced"] else None
    if tracer is not None:
        tracer.install()
    try:
        record = run_loop(workload, options["seconds"], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["warmup_ms"] = warmup_ms
    record["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["env"] = {
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "blas": blas_info(),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.summarize())
        if options.get("spans_out"):
            tracer.write(options["spans_out"], {
                "workload": options["workload"], "seed": options["seed"],
                "phase": options.get("phase"), "env": record["env"]})
    return record


if __name__ == "__main__":
    sys.exit(main())
