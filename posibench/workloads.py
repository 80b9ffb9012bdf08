"""Seeded inputs, queries and correctness checks of the three workloads.

Every workload is a fixed pool of queries generated from the seed; the
worker cycles through the pool until its time is up.  ``run`` is the timed
call into posilab; ``check`` looks at its output afterwards and returns the
failure classes and findings of that query.

Failure classes (a query fails when it has at least one):
  exception    the call raised, or cli.main let an exception escape
  exit_code    cli.main returned another exit code than expected
  certificate  the CLI printed ``certificate_holds_above: false`` for a
               fixture
  identity     a proved identity failed: norm formula, Lemma 3.1, polar
               decomposition or Theorem 3.4 necessity
  golden       paper-verify summary or a claim status differs from
               golden/paper_verify.json

Findings are not failures.  ``thm33_disagree`` and ``thm35_disagree`` count
verdicts that disagree with the matrix test, which are findings about the
article.  ``certificate_miss`` counts dense-pencil queries where min_lambda
reported lambda_min but is_member fails at lambda_min * (1 + 1e-6): the
known defect of ROADMAP item 3 on ill-conditioned T^{k+1}.  The seed fixes
which queries miss, but the run length fixes how often the loop meets them,
so misses are counted apart from ``failed``.
"""

import contextlib
import copy
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import posilab.cli as cli
import posilab.condexp as condexp
import posilab.posinormal as posinormal
import posilab.structure as structure

FAILURE_CLASSES = ("exception", "exit_code", "certificate", "identity", "golden")
FINDINGS = ("thm33_disagree", "thm35_disagree", "certificate_miss")

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PAPER_VERIFY = BENCH_DIR / "golden" / "paper_verify.json"


@dataclass(frozen=True)
class Query:
    kind: str      # what the query calls
    case: str      # input class, reported as a share
    payload: tuple


# ---------------------------------------------------------------------------
# dense-pencil

DENSE_DIM = 128
DENSE_POOL = 24          # operators per seed; a third of each class
DENSE_CLASSES = ("generic", "graded", "nilpotent_tail")
DENSE_PAIRS = ((0, 1), (1, 2), (2, 1), (3, 3))
LAMBDA_FACTORS = (0.5, 1.0 + 1e-6, 2.0)
CERTIFICATE = 1          # index of lambda_min * (1 + 1e-6) in LAMBDA_FACTORS
# Without a positive lambda_min, is_member runs at these multiples of
# ||T||^(n-1), the scale of lambda_min, so every query makes the same calls.
# After an infeasible verdict all three must fail (as in paper-verify's
# "rejected up to lambda=1e6"); one that holds refutes the verdict.
NO_LAMBDA_MIN_FACTORS = (1.0, 1e3, 1e6)


def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ginibre(rng, n):
    return (rng.standard_normal((n, n))
            + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def dense_operator(rng, case: str, n: int = DENSE_DIM) -> np.ndarray:
    """One operator of the given class at a scale 10^U(-1, 1).

    generic         complex Ginibre matrix
    graded          U diag(s) V* with s log-spaced from 1 down to 10^-e,
                    e ~ U(1, 2), so cond(T^{k+1}) reaches about 1e8 at k = 3
    nilpotent_tail  Ginibre head plus a nilpotent shift block of size 2-8
                    in a random unitary basis; T^{k+1} is rank deficient
    """
    if case == "generic":
        t = _ginibre(rng, n)
    elif case == "graded":
        s = np.logspace(0.0, -rng.uniform(1.0, 2.0), n)
        t = _unitary(rng, n) @ (s[:, None] * _unitary(rng, n).conj().T)
    else:
        tail = int(rng.integers(2, 9))
        head = n - tail
        t = _ginibre(rng, n)
        t[head:, :] = 0.0
        t[head:, head:] = np.eye(tail, k=1)
        q = _unitary(rng, n)
        t = q @ t @ q.conj().T
    return t * 10.0 ** rng.uniform(-1.0, 1.0)


def dense_pool(seed: int) -> list:
    rng = np.random.default_rng(seed)
    items = []
    for i in range(DENSE_POOL):
        case = DENSE_CLASSES[i % len(DENSE_CLASSES)]
        t = dense_operator(rng, case)
        norm = float(np.linalg.norm(t))  # Frobenius: a cheap bound on ||T||
        items.extend(Query("pencil", case, (t, k, n, norm ** (n - 1)))
                     for k, n in DENSE_PAIRS)
        if i % 4 == 0:
            items.append(Query("grid", case, (t,)))
            items.append(Query("decompose", case, (t,)))
    return items


def dense_run(query: Query):
    if query.kind == "grid":
        return posinormal.classify_grid(query.payload[0], 3, 3)
    if query.kind == "decompose":
        return structure.decompose(query.payload[0], 2, 1)
    t, k, n, scale = query.payload
    result = posinormal.min_lambda(t, k, n)
    if result.feasible and result.lambda_min > 0:
        lambdas = [result.lambda_min * f for f in LAMBDA_FACTORS]
    else:
        lambdas = [scale * f for f in NO_LAMBDA_MIN_FACTORS]
    return result, [posinormal.is_member(t, posinormal.ClassQuery(k, n, lam))
                    for lam in lambdas]


def _certificate_miss(output) -> bool:
    result, reports = output
    return (result.feasible and result.lambda_min > 0
            and not reports[CERTIFICATE].holds)


def dense_check(query: Query, output):
    findings = set()
    if query.kind == "pencil" and _certificate_miss(output):
        findings.add("certificate_miss")
    return set(), findings


def dense_outcome(query: Query, output):
    """Verdict of a pencil query, counted per case class in the report."""
    if query.kind != "pencil":
        return None
    result, reports = output
    if result.feasible:
        return "feasible_certificate_miss" if _certificate_miss(output) else "feasible"
    if any(r.holds for r in reports):
        return "infeasible_refuted"
    return "infeasible"


# ---------------------------------------------------------------------------
# condexp-blocks

CONDEXP_ATOMS = 256
CONDEXP_POOL = 8         # spaces per seed; every second one has u = 0 on a block
CONDEXP_LAMBDA = 2.0


def condexp_space(rng, vanishing: bool, atoms: int = CONDEXP_ATOMS):
    """Random space with B ~ U{2..16} blocks and complex w, u.

    With ``vanishing`` u is zero on one whole block, so E|u|^2 vanishes
    there and the chi (support indicator) convention is exercised.
    """
    blocks = int(rng.integers(2, 17))
    space = condexp.FiniteMeasureSpace(rng.uniform(0.2, 1.5, atoms))
    order = rng.permutation(atoms)
    cuts = sorted(rng.choice(range(1, atoms), size=blocks - 1, replace=False))
    partition = condexp.BlockPartition(
        [tuple(int(i) for i in part) for part in np.split(order, cuts)], atoms)
    w = rng.standard_normal(atoms) + 1j * rng.standard_normal(atoms)
    u = rng.standard_normal(atoms) + 1j * rng.standard_normal(atoms)
    if vanishing:
        u[list(partition.blocks[int(rng.integers(blocks))])] = 0.0
    return space, partition, w, u


def condexp_pool(seed: int) -> list:
    rng = np.random.default_rng(seed)
    items = []
    for i in range(CONDEXP_POOL):
        vanishing = i % 2 == 1
        items.append(Query("operator", "vanishing_block" if vanishing
                           else "full_support", condexp_space(rng, vanishing)))
    return items


def condexp_run(query: Query):
    op = condexp.build_operator(*query.payload)
    return {
        "norm": condexp.norm_formula_check(op),
        "lemma31": condexp.lemma31_check(op, 2),
        "polar": condexp.polar_decomposition_check(op),
        "thm33": condexp.thm33_check(op, CONDEXP_LAMBDA),
        "thm34": condexp.thm34_check(op, 2, CONDEXP_LAMBDA),
        "thm35": condexp.thm35_check(op, 1, 2, CONDEXP_LAMBDA),
    }


def condexp_check(query: Query, output):
    failures = set()
    if not (output["norm"].passed and output["lemma31"].passed
            and output["polar"].passed and output["thm34"].necessity_ok):
        failures.add("identity")
    findings = set()
    if output["thm33"].agree is False:
        findings.add("thm33_disagree")
    if not output["thm35"].all_agree:
        findings.add("thm35_disagree")
    return failures, findings


# ---------------------------------------------------------------------------
# cli-fixtures

CONDEXP_SUBCHECKS = ("norm", "lemma31", "polar", "thm33", "thm34", "thm35")

# Tensor products whose verdict is known in closed form: (file a, file b,
# k, n, lambda threshold of a, of b, expected exit code).  For diag(d) with
# d > 0 the class needs lambda >= max d^(n-1); the 3x3 shift has T^3 = 0,
# so its gap at k = 3 vanishes for every lambda, and at (0, 2) no lambda
# works (Example 2.2), which tensor_check rejects with exit code 1.
TENSOR_CASES = (
    ("nilpotent_shift_3", "nilpotent_shift_3", 3, 2, 0.0, 0.0, 0),
    ("diag_2_1", "diag_2_1", 0, 2, 2.0, 2.0, 0),
    ("identity_2", "diag_2_1", 1, 1, 1.0, 1.0, 0),
    ("nilpotent_shift_3", "identity_2", 0, 2, 0.0, 1.0, 1),
)

MALFORMED_PER_POOL = 3


def _mutate_matrix(rng, doc: dict) -> str:
    choice = int(rng.integers(5))
    doc = copy.deepcopy(doc)
    if choice == 0:
        del doc["entries"]
    elif choice == 1:
        doc["dim_rows"] += 1
    elif choice == 2:
        doc["entries"][0][0] = [1.0, 0.0, 0.0]
    elif choice == 3:
        doc["entries"][-1][-1] = ["one", 0.0]
    else:
        text = json.dumps(doc)
        return text[: len(text) // 2]
    return json.dumps(doc)


def _mutate_space(rng, doc: dict) -> str:
    choice = int(rng.integers(3))
    doc = copy.deepcopy(doc)
    if choice == 0:
        doc["atoms"][int(rng.integers(len(doc["atoms"])))]["mass"] = -1.0
    elif choice == 1:
        doc["partition"] = doc["partition"][:-1]  # atoms left uncovered
    else:
        doc["w"] = doc["w"][:-1]
    return json.dumps(doc)


def cli_pool(seed: int, root: Path, workdir: Path) -> list:
    """One pass over the fixtures: every applicable subcommand per file,
    the tensor cases, paper-verify and a few malformed documents.

    Malformed documents are written to ``workdir``.
    """
    rng = np.random.default_rng(seed)
    fixtures = {}
    for path in sorted((root / "fixtures").glob("*.json")):
        fixtures[path.stem] = (path, json.loads(path.read_text()))
    items = []
    matrices, spaces = [], []
    for name, (path, doc) in fixtures.items():
        p = str(path)
        if "atoms" in doc:
            spaces.append(name)
            for sub in CONDEXP_SUBCHECKS:
                argv = ["condexp", p, sub,
                        "--k", str(int(rng.integers(0, 3))),
                        "--n", str(int(rng.integers(1, 4))),
                        "--lambda", repr(float(rng.uniform(0.5, 5.0))),
                        "--power", str(int(rng.integers(1, 4)))]
                items.append(Query("condexp", "space", (argv, 0)))
            continue
        matrices.append(name)
        items.append(Query("check", "matrix", (
            ["check", p, "--k", str(int(rng.integers(0, 4))),
             "--n", str(int(rng.integers(1, 4))),
             "--lambda", repr(10.0 ** rng.uniform(-0.3, 1.2))], 0)))
        items.append(Query("lambda-min", "matrix", (
            ["lambda-min", p, "--k", str(int(rng.integers(0, 4))),
             "--n", str(int(rng.integers(1, 4)))], 0)))
        items.append(Query("decompose", "matrix", (
            ["decompose", p, "--k", str(int(rng.integers(0, 4)))], 0)))
    def above(threshold):
        if threshold == 0.0:
            return 10.0 ** rng.uniform(-1.0, 1.0)
        return threshold * (1.0 + rng.uniform(0.05, 1.0))

    for a, b, k, n, lam_a, lam_b, code in TENSOR_CASES:
        argv = ["tensor", str(fixtures[a][0]), str(fixtures[b][0]),
                "--k", str(k), "--n", str(n),
                "--lambda", repr(above(lam_a)), "--mu", repr(above(lam_b))]
        items.append(Query("tensor", "matrix_pair", (argv, code)))
    for i in range(MALFORMED_PER_POOL):
        path = workdir / f"malformed_{i}.json"
        if spaces and i == MALFORMED_PER_POOL - 1:
            doc = fixtures[spaces[int(rng.integers(len(spaces)))]][1]
            path.write_text(_mutate_space(rng, doc))
            argv = ["condexp", str(path), "norm"]
        else:
            doc = fixtures[matrices[int(rng.integers(len(matrices)))]][1]
            path.write_text(_mutate_matrix(rng, doc))
            argv = ["check", str(path), "--k", "1", "--n", "1", "--lambda", "1.0"]
        items.append(Query("malformed", "malformed", (argv, 1)))
    items.append(Query("paper-verify", "paper_verify", (["paper-verify"], 0)))
    return items


def cli_run(query: Query):
    argv, _ = query.payload
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _golden_statuses(text: str, golden: dict) -> bool:
    """True when the paper-verify document matches the golden statuses."""
    body = text.rstrip("\n")
    body = body[: body.rfind("\n")]  # drop the trailing "claims: ..." line
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        return False
    statuses = {c["claim_id"]: c["status"] for c in doc.get("claims", [])}
    return doc.get("summary") == golden["summary"] and statuses == golden["claims"]


def make_cli_check(golden: dict):
    def cli_check(query: Query, output):
        code, text = output
        failures, findings = set(), set()
        if code != query.payload[1]:
            failures.add("exit_code")
            return failures, findings
        if code != 0:
            return failures, findings
        lines = set(text.splitlines())
        if "certificate_holds_above: false" in lines:
            failures.add("certificate")
        if "passed: false" in lines or "necessity_ok: false" in lines:
            failures.add("identity")
        if "agree: false" in lines:
            findings.add("thm33_disagree")
        if "all_agree: false" in lines:
            findings.add("thm35_disagree")
        if query.kind == "paper-verify" and not _golden_statuses(text, golden):
            failures.add("golden")
        return failures, findings
    return cli_check


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    items: list
    run: object
    check: object
    outcome: object = None


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    if name == "dense-pencil":
        return Workload(name, dense_pool(seed), dense_run, dense_check,
                        dense_outcome)
    if name == "condexp-blocks":
        return Workload(name, condexp_pool(seed), condexp_run, condexp_check)
    if name == "cli-fixtures":
        golden = json.loads(GOLDEN_PAPER_VERIFY.read_text())
        return Workload(name, cli_pool(seed, root, workdir), cli_run,
                        make_cli_check(golden))
    raise ValueError(f"unknown workload {name!r}")
