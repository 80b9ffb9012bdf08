"""posilab benchmark: three closed-loop workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 posibench/run.py --workload dense-pencil --seed 1 --seconds 30 --trace 0
    python3 posibench/run.py --quick

With ``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json:
set-up time (median of six fresh processes: five probes and the measuring
worker), then one client sending queries back to back for ``--seconds``.
With ``--trace 1`` the time is split over three workers, untraced, traced,
and traced with OPENBLAS_NUM_THREADS=1, and the per-layer metrics come from
the spans of the traced ones.  Every output is checked after it is timed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, case shares, failure classes and findings.

``--quick`` runs every workload briefly at both trace settings and checks
that metric names and units match BENCHMARK.json, that every failure class
is counted, and that malformed documents count as an expected exit 1.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("dense-pencil", "condexp-blocks", "cli-fixtures")
SETUP_PROBES = 5

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("ok_share", "share", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

# (name, unit, better, end-to-end metric and workload it should move)
PER_LAYER = (
    ("lapack.calls_per_query", "count", "lower", "dense-pencil queries_per_s, latency"),
    ("lapack.eigh.calls_per_query", "count", "lower", "dense-pencil queries_per_s, latency"),
    ("lapack.eigvalsh.calls_per_query", "count", "lower", "dense-pencil queries_per_s"),
    ("lapack.svd.calls_per_query", "count", "lower", "dense-pencil queries_per_s, latency"),
    ("lapack.matrix_power.calls_per_query", "count", "lower", "dense-pencil queries_per_s, latency"),
    ("lapack.busy_share", "share", "lower", "dense-pencil queries_per_s"),
    ("lapack.flops_per_query", "flop", "lower", "dense-pencil queries_per_s, latency"),
    ("lapack.self_ms_per_query", "ms", "lower", "dense-pencil and condexp-blocks latency"),
    ("linalg.self_ms_per_query", "ms", "lower", "dense-pencil and cli-fixtures latency"),
    ("linalg.hermitian_asymmetry.calls_per_query", "count", "lower", "dense-pencil and cli-fixtures latency"),
    ("linalg.operator_norm.calls_per_query", "count", "lower", "dense-pencil and cli-fixtures latency"),
    ("posinormal.self_ms_per_query", "ms", "lower", "dense-pencil queries_per_s"),
    ("posinormal.is_member.ms", "ms", "lower", "dense-pencil queries_per_s, condexp-blocks latency"),
    ("posinormal.min_lambda.ms", "ms", "lower", "dense-pencil queries_per_s"),
    ("posinormal.gap_matrix.ms", "ms", "lower", "dense-pencil queries_per_s, condexp-blocks latency"),
    ("posinormal.membership_scale.ms", "ms", "lower", "dense-pencil queries_per_s, condexp-blocks latency"),
    ("posinormal.classify_grid.ms", "ms", "lower", "dense-pencil latency_p90_ms"),
    ("posinormal.certificate_miss_share", "share", "lower", "none: known defect of ROADMAP item 3, a correctness figure"),
    ("structure.self_ms_per_query", "ms", "lower", "dense-pencil latency"),
    ("structure.decompose.ms", "ms", "lower", "dense-pencil latency_p90_ms"),
    ("condexp.self_ms_per_query", "ms", "lower", "condexp-blocks queries_per_s"),
    ("condexp.build_operator.ms", "ms", "lower", "condexp-blocks queries_per_s, peak_rss_mib"),
    ("condexp.conditional_projector.calls_per_query", "count", "lower", "condexp-blocks queries_per_s, peak_rss_mib"),
    ("condexp.norm_formula_check.ms", "ms", "lower", "condexp-blocks queries_per_s"),
    ("condexp.lemma31_check.ms", "ms", "lower", "condexp-blocks queries_per_s"),
    ("condexp.polar_decomposition_check.ms", "ms", "lower", "condexp-blocks queries_per_s"),
    ("condexp.thm33_check.ms", "ms", "lower", "condexp-blocks queries_per_s"),
    ("condexp.thm34_check.ms", "ms", "lower", "condexp-blocks queries_per_s"),
    ("condexp.thm35_check.ms", "ms", "lower", "condexp-blocks queries_per_s"),
    ("condexp.matrix_share", "share", "lower", "condexp-blocks queries_per_s, peak_rss_mib"),
    ("fileio.self_ms_per_query", "ms", "lower", "cli-fixtures latency"),
    ("fileio.load.ms", "ms", "lower", "cli-fixtures latency"),
    ("verify.self_ms_per_query", "ms", "lower", "cli-fixtures queries_per_s"),
    ("verify.run_claim_suite.ms", "ms", "lower", "cli-fixtures queries_per_s"),
    ("verify.claim_max_ms", "ms", "lower", "cli-fixtures queries_per_s"),
    ("cli.self_ms_per_invocation", "ms", "lower", "cli-fixtures latency"),
    ("import.posilab_s", "s", "lower", "setup_s on every workload"),
    ("traced.queries_per_s", "1/s", "higher", "queries_per_s (traced run)"),
    ("traced.latency_p50_ms", "ms", "lower", "latency_p50_ms (traced run)"),
    ("untraced.queries_per_s", "1/s", "higher", "queries_per_s (same run, untraced)"),
    ("trace.overhead_share", "share", "lower", "none: cost of tracing itself"),
    ("threads1.queries_per_s", "1/s", "higher", "queries_per_s at OPENBLAS_NUM_THREADS=1"),
    ("threads1.latency_p50_ms", "ms", "lower", "latency_p50_ms at OPENBLAS_NUM_THREADS=1"),
    ("threads1.lapack.busy_share", "share", "lower", "queries_per_s at OPENBLAS_NUM_THREADS=1"),
    ("threads1.lapack.self_ms_per_query", "ms", "lower", "latency at OPENBLAS_NUM_THREADS=1"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _worker(options: dict, env_overrides: dict, timeout: float):
    """Start a worker, time it until ``ready``, return (setup_s, result)."""
    env = dict(os.environ, **env_overrides)
    command = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(options)]
    started = time.perf_counter()
    # Unbuffered, so readline takes only the ready line and communicate()
    # still sees everything after it.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            bufsize=0)
    try:
        deadline = started + timeout
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - started
        if line.strip() != b"ready":
            raise BenchError(f"worker did not become ready: {line.strip()!r}")
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode} "
                         f"and {len(lines)} result lines")
    return setup_s, json.loads(lines[-1])


def _latency_summary(latencies_ms: list) -> tuple:
    if len(latencies_ms) < 2:
        return latencies_ms[0], latencies_ms[0]
    p90 = statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]
    return statistics.median(latencies_ms), p90


def _options(args, seconds, probe=False, traced=False, phase=None, spans_out=None):
    return {"workload": args.workload, "seed": args.seed, "seconds": seconds,
            "probe": probe, "traced": traced, "phase": phase,
            "spans_out": spans_out}


def measure_end_to_end(args):
    """Set-up probes plus one untraced measuring worker."""
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        setup_s, probe = _worker(_options(args, 0.0, probe=True), {}, 120.0)
        setups.append(setup_s)
        imports.append(probe["import_s"])
    setup_s, record = _worker(_options(args, args.seconds), {}, args.seconds + 120.0)
    setups.append(setup_s)
    p50, p90 = _latency_summary(record["latencies_ms"])
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": record["attempted"] / record["busy_s"],
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "ok_share": 1.0 - record["failed"] / record["attempted"],
        "peak_rss_mib": record["peak_rss_kib"] / 1024.0,
    }
    info = {"setup_samples_s": setups, "import_samples_s": imports}
    return metrics, [record], info


def measure_per_layer(args):
    """Untraced, traced and traced single-threaded workers, a third each."""
    share = args.seconds / 3.0
    spans_dir = ROOT / ".posibench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    phases = {}
    for phase, traced, env in (("untraced", False, {}),
                               ("traced", True, {}),
                               ("threads1", True, {"OPENBLAS_NUM_THREADS": "1"})):
        # One file per workload and phase: a later run replaces it.
        spans_out = (str(spans_dir / f"{args.workload}-{phase}.jsonl.gz")
                     if traced else None)
        _, phases[phase] = _worker(
            _options(args, share, traced=traced, phase=phase, spans_out=spans_out),
            env, share + 120.0)
    traced, single, plain = phases["traced"], phases["threads1"], phases["untraced"]
    metrics = dict(traced["layers"])
    qps = {name: r["attempted"] / r["busy_s"] for name, r in phases.items()}
    metrics.update({
        "import.posilab_s": statistics.median(r["import_s"] for r in phases.values()),
        "traced.queries_per_s": qps["traced"],
        "traced.latency_p50_ms": _latency_summary(traced["latencies_ms"])[0],
        "untraced.queries_per_s": qps["untraced"],
        "trace.overhead_share": qps["untraced"] / qps["traced"] - 1.0,
        "threads1.queries_per_s": qps["threads1"],
        "threads1.latency_p50_ms": _latency_summary(single["latencies_ms"])[0],
        "threads1.lapack.busy_share": single["layers"]["lapack.busy_share"],
        "threads1.lapack.self_ms_per_query": single["layers"]["lapack.self_ms_per_query"],
    })
    side_by_side = {
        name: {"blas_threads": record["env"]["blas"]["threads"],
               **{k: v for k, v in record["layers"].items()
                  if k.endswith("self_ms_per_query")}}
        for name, record in (("default_threads", traced), ("threads1", single))
    }
    return metrics, [plain, traced, single], {"side_by_side": side_by_side,
                                               "spans_dir": str(spans_dir)}


def _sum_counts(records, key):
    total = {}
    for record in records:
        for name, value in record[key].items():
            total[name] = total.get(name, 0) + value
    return total


def run(args) -> tuple:
    measure = measure_per_layer if args.trace else measure_end_to_end
    values, records, info = measure(args)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    findings = _sum_counts(records, "findings")
    if args.trace:
        values["posinormal.certificate_miss_share"] = (
            findings["certificate_miss"] / attempted)
    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = {spec[0]: {"value": values[spec[0]], "unit": spec[1]}
               for spec in catalogue}
    report = {
        "env": {**records[0]["env"], "nproc": os.cpu_count(),
                "affinity_cpus": len(os.sched_getaffinity(0)),
                "git_commit": _git_commit()},
        "cases": _sum_counts(records, "cases"),
        "outcomes": _sum_counts(records, "outcomes"),
        "failures": _sum_counts(records, "failures"),
        "findings": findings,
        "failed_share": failed / attempted,
        "latency_samples": [len(r["latencies_ms"]) for r in records],
        "warmup_ms": [r["warmup_ms"] for r in records],
        **info,
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def print_report(args, report: dict, result: dict) -> None:
    print(f"posibench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for key, value in report.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    attempted = result["attempted"]
    shares = {k: round(v / attempted, 4) for k, v in sorted(report["cases"].items())}
    print(f"case_shares: {json.dumps(shares)}")
    moves = {spec[0]: spec[3] for spec in PER_LAYER}
    for name, metric in result["metrics"].items():
        note = f"  (should move: {moves[name]})" if name in moves else ""
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps(result))


def _validate_checkout() -> None:
    for needed in (ROOT / "src" / "posilab" / "__init__.py", ROOT / "fixtures"):
        if not needed.exists():
            raise BenchError(f"checkout is missing {needed.relative_to(ROOT)}")


def quick() -> int:
    """Self-test: short runs of every workload plus the checker cases."""
    sys.path.insert(0, str(ROOT / "src"))
    import selftest

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = selftest.check_catalogue(spec, END_TO_END, PER_LAYER)
    problems += selftest.check_failure_classes()
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1.5,
                                      trace=trace)
            report, result = run(args)
            problems += selftest.check_result(spec, args, report, result)
    for problem in problems:
        print(f"FAIL {problem}")
    print("quick: ok" if not problems else f"quick: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    try:
        _validate_checkout()
        if args.quick:
            return quick()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        report, result = run(args)
    except BenchError as exc:
        print(f"posibench: {exc}", file=sys.stderr)
        return 2
    print_report(args, report, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
