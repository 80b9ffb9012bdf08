"""Checks behind ``run.py --quick``; each returns a list of problems."""

import contextlib
import io
import json
from types import SimpleNamespace

import numpy as np

import posilab.condexp as condexp
import posilab.posinormal as posinormal
import worker
import workloads
from workloads import FAILURE_CLASSES, Query, Workload


def check_catalogue(spec: dict, end_to_end, per_layer) -> list:
    """The metrics run.py reports are the ones BENCHMARK.json declares."""
    problems = []
    for key, catalogue in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        reported = {c[0]: (c[1], c[2]) for c in catalogue}
        if declared != reported:
            diff = sorted(set(declared.items()) ^ set(reported.items()))
            problems.append(f"{key} differs from BENCHMARK.json: {diff}")
    return problems


def _single_query_record(run, check, query):
    """Counters of run_loop for exactly one query (seconds=0 stops after it)."""
    with contextlib.redirect_stderr(io.StringIO()):  # injected tracebacks
        return worker.run_loop(Workload("selftest", [query], run, check), 0.0, None)


def _paper_verify_text(golden: dict, flip: bool) -> str:
    claims = [{"claim_id": cid, "status": status}
              for cid, status in sorted(golden["claims"].items())]
    if flip:
        claims[0]["status"] = "mismatch" if claims[0]["status"] == "match" else "match"
    return json.dumps({"summary": golden["summary"], "claims": claims}) + "\nclaims: 33\n"


def check_failure_classes() -> list:
    """Feed one wrong output per failure class through the real counters."""
    golden = json.loads(workloads.GOLDEN_PAPER_VERIFY.read_text())
    cli_check = workloads.make_cli_check(golden)
    holds = posinormal.ClassReport(True, 0.0, 1.0, None)
    fails = posinormal.ClassReport(False, -1.0, 1.0, np.ones(2))
    feasible = posinormal.LambdaResult(True, 1.0, None)
    good_norm = condexp.NormFormulaReport(1.0, 1.0, 0.0, True)
    bad_norm = condexp.NormFormulaReport(1.0, 2.0, 1.0, False)

    def condexp_output(norm):
        passing = SimpleNamespace(passed=True, necessity_ok=True, agree=True,
                                  all_agree=True)
        return {"norm": norm, "lemma31": passing, "polar": passing,
                "thm33": passing, "thm34": passing, "thm35": passing}

    def raises(query):
        raise RuntimeError("injected")

    def returns(value):
        return lambda query: value

    pencil = Query("pencil", "generic", (None, 0, 1))
    operator = Query("operator", "full_support", ())
    malformed = Query("malformed", "malformed", (["check", "bad.json"], 1))
    lam_min = Query("lambda-min", "matrix", (["lambda-min", "m.json"], 0))
    condexp_cli = Query("condexp", "space", (["condexp", "s.json", "norm"], 0))
    paper = Query("paper-verify", "paper_verify", (["paper-verify"], 0))
    cases = [
        # (failure class expected or None, run, check, query)
        ("exception", raises, workloads.dense_check, pencil),
        (None, returns((feasible, [fails, holds, holds])),
         workloads.dense_check, pencil),
        ("identity", returns(condexp_output(bad_norm)), workloads.condexp_check, operator),
        (None, returns(condexp_output(good_norm)), workloads.condexp_check, operator),
        ("exit_code", returns((0, "")), cli_check, malformed),
        (None, returns((1, "")), cli_check, malformed),
        ("certificate", returns((0, "certificate_holds_above: false\n")), cli_check, lam_min),
        ("identity", returns((0, "passed: false\n")), cli_check, condexp_cli),
        ("golden", returns((0, _paper_verify_text(golden, True))), cli_check, paper),
        (None, returns((0, _paper_verify_text(golden, False))), cli_check, paper),
    ]
    problems = []
    seen = set()
    for expected, run, check, query in cases:
        record = _single_query_record(run, check, query)
        counted = {k for k, v in record["failures"].items() if v}
        want = {expected} if expected else set()
        if counted != want or record["failed"] != len(want):
            problems.append(f"{query.kind}: expected {want or 'no failure'}, "
                            f"counted {counted or 'none'}")
        seen |= want
    if seen != set(FAILURE_CLASSES):
        problems.append(f"failure classes without a case: {set(FAILURE_CLASSES) - seen}")
    # A dense-pencil certificate miss is the known defect of ROADMAP item 3:
    # counted as a finding, not as a failed query.
    miss = _single_query_record(returns((feasible, [fails, fails, holds])),
                                workloads.dense_check, pencil)
    if miss["failed"] or miss["findings"]["certificate_miss"] != 1:
        problems.append(f"dense certificate miss: failed={miss['failed']}, "
                        f"findings={miss['findings']}")
    return problems


def check_result(spec: dict, args, report: dict, result: dict) -> list:
    """Shape of one run's result line and report."""
    where = f"{args.workload} trace={args.trace}"
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if declared != reported:
        problems.append(f"{where}: metrics {sorted(set(declared) ^ set(reported))} "
                        "differ from BENCHMARK.json")
    if set(report["failures"]) != set(FAILURE_CLASSES):
        problems.append(f"{where}: failure classes {sorted(report['failures'])}")
    if not result["attempted"] >= 1 or not result["correct"]:
        problems.append(f"{where}: attempted={result['attempted']} "
                        f"correct={result['correct']}")
    if args.workload == "cli-fixtures":
        if not report["cases"].get("malformed"):
            problems.append(f"{where}: no malformed document was run")
        if report["failures"]["exit_code"]:
            problems.append(f"{where}: malformed documents counted as failures")
    return problems
