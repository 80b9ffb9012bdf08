"""The command line and the document formats: exit codes 0/1/2 over the
fixtures, malformed documents naming their bad field, and the fixture
files as written by fileio."""

import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from posilab import cli, condexp, fileio, fixtures, linalg, posinormal, verify
from posilab.errors import NumericalFailure, ValidationError

import oracles

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SPACE = FIXTURES / "interval_two_block_8.json"
MATRICES = sorted(p for p in FIXTURES.glob("*.json") if p != SPACE)
CONDEXP_CHECKS = ("norm", "lemma31", "polar", "thm33", "thm34", "thm35")


def run(argv):
    """cli.main with every warning turned into an error, so a numerical
    warning that leaks out of the library fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main([str(a) for a in argv])


# --- exit code 0 on every fixture -----------------------------------------------

@pytest.mark.parametrize("path", MATRICES, ids=lambda p: p.stem)
def test_matrix_subcommands_exit_zero(path, capsys):
    identity = FIXTURES / "identity_2.json"
    for argv in (["check", path, "--k", 1, "--n", 2, "--lambda", 1.5],
                 ["lambda-min", path, "--k", 2, "--n", 1],
                 ["decompose", path, "--k", 1],
                 # every fixture is a member at (3, 1, 10), the identity at mu = 1
                 ["tensor", path, identity, "--k", 3, "--n", 1,
                  "--lambda", 10, "--mu", 1]):
        assert run(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == ""
        assert str(path) in out.splitlines()[0]
    assert "holds: true" in out.splitlines()  # the tensor verdict


def _printed_witness(lines) -> np.ndarray:
    text = lines[-1].removeprefix("witness: [").removesuffix("]")
    return np.array([complex(z) for z in text.split(", ")])


def test_failing_check_prints_its_witness_from_one_eigh(capsys, monkeypatch):
    # A feasible pencil: the verdict computes eigenvalues only, and the
    # printed witness is one eigh of the 2x2 Gram matrix M*M of its normal
    # form, pulled back to an x on which the definition's gap is negative.
    # diag(2, 1) at (0, 2) has lambda_min = 2, so lambda = 1 fails.
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    assert run(["check", FIXTURES / "diag_2_1.json",
                "--k", 0, "--n", 2, "--lambda", 1.0]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "holds: false" in lines and "gap_min_eigenvalue: -3" in lines
    assert lines[-1].startswith("witness: [") and shapes == [(1, 2, 2)]
    x = _printed_witness(lines)
    gap = oracles.gap_oracle(np.diag([2.0, 1.0]), 0, 2, 1.0)
    assert np.vdot(x, gap @ x).real < 0
    # An obstructed pencil fails at every lambda: its witness is the kernel
    # obstruction e1, found by the one eigh on the kernel of rung 0.
    shapes.clear()
    assert run(["check", FIXTURES / "nilpotent_shift_3.json",
                "--k", 0, "--n", 2, "--lambda", 1.0]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "holds: false" in lines and "gap_min_eigenvalue: -inf" in lines
    assert lines[-1] == "witness: [1+0j, 0+0j, 0+0j]" and shapes == [(1, 1, 1)]


# Two eigenvalues 3e-7 apart are one value at REPORT_TOL, the clustering of
# spectrum_union_gap, so the printed spectra list them once.
NEAR_DOUBLE = np.diag([1.0, 1.0 + 3e-7, 0.0])


@pytest.mark.parametrize("matrix", [*MATRICES, NEAR_DOUBLE],
                         ids=[*(p.stem for p in MATRICES), "near_double"])
def test_decompose_prints_the_spectra_it_compares(matrix, tmp_path, capsys):
    path = matrix
    if not isinstance(matrix, Path):
        path = tmp_path / "m.json"
        path.write_text(fileio.dumps_matrix(matrix))
    for k in range(4):
        assert run(["decompose", path, "--k", k]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        for key in ("spectrum_T", "spectrum_A"):
            values = [complex(v) for v in lines.get(key, "").split(", ") if v]
            assert all(abs(a - b) > linalg.REPORT_TOL
                       for a, b in itertools.combinations(values, 2)), (k, lines[key])
    if matrix is NEAR_DOUBLE:  # k = 3: T^3 keeps the eigenvalues 1 and 1 + 3e-7
        assert (lines["spectrum_T"], lines["spectrum_A"]) == ("0+0j, 1+0j", "1+0j")
        assert lines["spectrum_union_hausdorff"] == "0"


@pytest.mark.parametrize("check", CONDEXP_CHECKS)
def test_condexp_subcommands_exit_zero(check, capsys):
    assert run(["condexp", SPACE, check, "--k", 1, "--n", 2,
                "--lambda", 4, "--power", 2]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(f"space: {SPACE} (8 atoms, 2 blocks)")


# --- exit code 1 on malformed documents ---------------------------------------

def _matrix_doc():
    return json.loads((FIXTURES / "invariant_block_4.json").read_text())


def _space_doc():
    return json.loads(SPACE.read_text())


def _mutated(doc, path, value):
    """doc with the entry at ``path`` (a key sequence) replaced, or deleted
    when value is None."""
    doc = json.loads(json.dumps(doc))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    if value is None:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value
    return json.dumps(doc)


def _beyond_range(doc, path, value):
    """_mutated, with each inf in ``value`` written as the literal 1e400,
    which json reads as inf."""
    return _mutated(doc, path, value).replace("Infinity", "1e400")


MALFORMED_MATRICES = [
    ("missing entries", _mutated(_matrix_doc(), ["entries"], None), "entries"),
    ("row count", _mutated(_matrix_doc(), ["dim_rows"], 5), "entries"),
    ("column count", _mutated(_matrix_doc(), ["dim_cols"], 0), "dim_cols"),
    ("triple", _mutated(_matrix_doc(), ["entries", 0, 0], [1.0, 0.0, 0.0]),
     "entries[0][0]"),
    ("string", _mutated(_matrix_doc(), ["entries", 3, 2], ["one", 0.0]),
     "entries[3][2]"),
    ("short row", _mutated(_matrix_doc(), ["entries", 1], [[0.0, 0.0]]),
     "entries[1]"),
    ("infinite", _mutated(_matrix_doc(), ["entries", 2, 1], [float("inf"), 0.0]),
     "entries[2][1]"),
    # an integer literal beyond the float range: a format error, not an OverflowError
    ("huge integer", _mutated(_matrix_doc(), ["entries", 0, 0], [10 ** 400, 0.0]),
     "entries[0][0]"),
    ("truncated", json.dumps(_matrix_doc())[:40], "document"),
    ("not an object", "[1, 2]", "document root"),
    ("huge dim_cols", json.dumps({"dim_rows": 2, "dim_cols": 10 ** 15,
                                  "entries": [[[1.0, 0.0]], [[0.0, 1.0]]]}),
     "entries[0]"),
    # a well-formed document of a matrix that is not square
    ("not square", json.dumps({"dim_rows": 2, "dim_cols": 3,
                               "entries": [[[1.0, 0.0]] * 3, [[0.0, 1.0]] * 3]}),
     "expected a square matrix"),
]

MALFORMED_SPACES = [
    ("missing atoms", _mutated(_space_doc(), ["atoms"], None), "atoms"),
    ("negative mass", _mutated(_space_doc(), ["atoms", 3, "mass"], -1.0),
     "atoms[3].mass"),
    ("huge mass", _mutated(_space_doc(), ["atoms", 1, "mass"], 10 ** 400),
     "atoms[1].mass"),
    ("float mass beyond range",
     _beyond_range(_space_doc(), ["atoms", 1, "mass"], float("inf")), "atoms[1].mass"),
    ("uncovered atoms", _mutated(_space_doc(), ["partition", 1], None),
     "partition"),
    ("bad index", _mutated(_space_doc(), ["partition", 0, 1], "x"),
     "partition[0][1]"),
    ("float index", _mutated(_space_doc(), ["partition", 0, 1], 1.7),
     "partition[0][1]"),
    ("bool index", _mutated(_space_doc(), ["partition", 0, 1], True),
     "partition[0][1]"),
    ("short w", _mutated(_space_doc(), ["w", 7], None), "w"),
    ("bad u value", _mutated(_space_doc(), ["u", 2], [1.0]), "u[2]"),
    ("huge w value", _mutated(_space_doc(), ["w", 3], [0.0, 10 ** 400]), "w[3]"),
    ("float w value beyond range",
     _beyond_range(_space_doc(), ["w", 3], [0.0, float("inf")]), "w[3]"),
    ("float u value beyond range",
     _beyond_range(_space_doc(), ["u", 5], [float("inf"), 0.0]), "u[5]"),
    ("empty atoms", _mutated(_space_doc(), ["atoms"], []), "atoms"),
    ("atom not an object", _mutated(_space_doc(), ["atoms", 2], 1.0), "atoms[2]"),
    ("empty partition", _mutated(_space_doc(), ["partition"], []), "partition"),
    ("empty block", _mutated(_space_doc(), ["partition", 1], []), "partition[1]"),
    ("block not an array", _mutated(_space_doc(), ["partition", 0], 5), "partition[0]"),
]


@pytest.mark.parametrize("text, field", [(t, f) for _, t, f in MALFORMED_MATRICES],
                         ids=[name for name, _, _ in MALFORMED_MATRICES])
def test_malformed_matrix_exits_one_naming_the_field(text, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (["check", path, "--k", 1, "--n", 1, "--lambda", 1.0],
                 ["lambda-min", path, "--k", 1, "--n", 1],
                 ["decompose", path, "--k", 1]):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {field}"), err


@pytest.mark.parametrize("text, field", [(t, f) for _, t, f in MALFORMED_SPACES],
                         ids=[name for name, _, _ in MALFORMED_SPACES])
def test_malformed_space_exits_one_naming_the_field(text, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["condexp", path, "norm"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {field}"), err


def test_document_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    assert run(["check", path, "--k", 1, "--n", 1, "--lambda", 1]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: document:"), err


def test_paths_that_cannot_be_read_or_written_exit_one(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["check", missing, "--k", 1, "--n", 1, "--lambda", 1]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and str(missing) in err, err
    report = tmp_path / "no such directory" / "report.json"
    assert run(["paper-verify", "--out", report]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and str(report) in err, err
    assert not report.parent.exists()


@pytest.mark.parametrize("power", ["nan", "inf", "-inf", "0"])
def test_bad_power_exits_one_naming_it(power, capsys):
    assert run(["condexp", SPACE, "lemma31", f"--power={power}"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: power"), err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "-inf"])
def test_bad_tolerance_exits_one_naming_it(tol, capsys):
    identity = FIXTURES / "identity_2.json"
    for argv in (["check", identity, "--k", 0, "--n", 1, "--lambda", 1],
                 ["lambda-min", FIXTURES / "diag_2_1.json", "--k", 0, "--n", 2],
                 ["tensor", identity, identity, "--k", 0, "--n", 1,
                  "--lambda", 1, "--mu", 1]):
        assert run([*argv, f"--tol={tol}"]) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and "error: argument --tol: " in err, err
    # decompose takes its rank from the range ladder's fixed cut, and the
    # condexp checks their slack from DEFAULT_TOL: neither takes --tol
    for argv in (["decompose", identity, "--k", 0], ["condexp", SPACE, "polar"]):
        assert run([*argv, f"--tol={tol}"]) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and f"error: unrecognized arguments: --tol={tol}" in err, err


# --- exit code 2 on overflow ----------------------------------------------------

def _overflow_cases(tmp_path):
    huge = tmp_path / "huge.json"  # lambda_min at (0, 3) is about 1e400
    huge.write_text(fileio.dumps_matrix(np.array([[1e200, 1.0], [0.0, 1.0]])))
    # V (G + J_3) V* 2^600 at k = 2, G a 3x3 Gaussian head: C^2 = 0 up to
    # rounding, about 5e-16 ||C||^2 = 5e-16 2^1200
    rng = np.random.default_rng(0)
    rotated, v = np.zeros((6, 6), dtype=complex), oracles.haar_unitary(rng, 6)
    rotated[:3, :3], rotated[3:, 3:] = oracles.ginibre(rng, 3), fixtures.nilpotent_shift(3)
    tail = tmp_path / "tail.json"
    tail.write_text(fileio.dumps_matrix(linalg.ldexp(v @ rotated @ v.conj().T, 600)))
    edge = tmp_path / "edge.json"  # lambda_min at (0, 2) is within 1e-8 of the largest float
    edge.write_text(fileio.dumps_matrix(np.diag([1.79769313e308, 1.0])))
    heavy = tmp_path / "heavy.json"  # a valid space whose E|w|^2 overflows
    space, partition, _, u = fixtures.interval_example(8)
    heavy.write_text(fileio.dumps_space(space, partition, np.full(8, 1e200), u))
    # E|w|^2 E|u|^2 and |E(uw)|^6 overflow, the operator and its moments do not
    square = tmp_path / "square.json"
    square.write_text(fileio.dumps_space(space, partition, np.full(8, 1e154),
                                         np.full(8, 1e154)))
    tall = tmp_path / "tall.json"  # lambda^2 E|w|^2 overflows at lambda = 1e100
    tall.write_text(fileio.dumps_space(space, partition, np.full(8, 1e100), u))
    identity = FIXTURES / "identity_2.json"
    big = tmp_path / "big.json"  # a member at lambda = 1 whose T (x) T overflows
    big.write_text(fileio.dumps_matrix(np.array([[1e200]])))
    return [
        ["lambda-min", huge, "--k", 0, "--n", 3],              # lambda_min
        ["decompose", tail, "--k", 2],                         # C^k
        ["lambda-min", edge, "--k", 0, "--n", 2],              # lambda_min (1 + AGREE_TOL)
        ["condexp", SPACE, "thm33", "--lambda", 1e200],        # lambda^2 E|w|^2
        ["condexp", SPACE, "thm34", "--lambda", 1e200],
        ["condexp", SPACE, "thm35", "--lambda", 1e200],
        ["tensor", identity, identity, "--k", 0, "--n", 1,   # lambda * mu
         "--lambda", 1e160, "--mu", 1e160],
        ["tensor", big, big, "--k", 0, "--n", 1, "--lambda", 1, "--mu", 1],  # T (x) S
        ["condexp", SPACE, "lemma31", "--power", 1e300],       # (T*T)^m
        ["condexp", square, "norm"],                           # blockwise norm
        ["condexp", square, "thm34", "--n", 3],
        ["condexp", tall, "thm33", "--lambda", 1e100],
        ["condexp", tall, "thm35", "--lambda", 1e100],
        *(["condexp", heavy, check] for check in CONDEXP_CHECKS),
    ]


def test_overflow_is_a_numerical_failure(tmp_path, capsys):
    for argv in _overflow_cases(tmp_path):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("numerical failure:") and "overflows" in err, err
        assert out == "", (argv, out)  # no half report before the failure


def _report(capsys) -> dict:
    """The report lines printed since the last read, as name -> value."""
    out, err = capsys.readouterr()
    assert err == ""
    return dict(line.split(": ", 1) for line in out.splitlines()[1:])


# (k, n) of the scaled runs, and the scales 2^j.
SCALED_QUERIES = ((0, 1), (0, 2), (1, 2), (2, 1), (1, 3))
SCALES = (-1000, -500, -250, 250, 500, 1000)


@pytest.mark.parametrize("path", MATRICES, ids=lambda p: p.stem)
def test_entry_points_agree_at_extreme_scales(path, tmp_path, capsys):
    """Each Section 2 fixture T written as 2^j T: lambda-min and check
    print lambda_min 2^(j(n-1)) and the gap values 2^(2j(n-1)) times
    those of T, to the 12 printed digits, with T's verdicts and witness,
    and exit 0.  A scale counts where the gap values, in units of
    4^(j(n-1)), stay within the float range."""
    t = fileio.load_matrix(path)
    scaled = tmp_path / "scaled.json"
    for k, n in SCALED_QUERIES:
        result = posinormal.min_lambda(t, k, n)
        assert run(["lambda-min", path, "--k", k, "--n", n]) == 0
        plain_min, checks = _report(capsys), []
        for lam in ((result.lambda_min or 1.0) * step for step in (1 - 1e-3, 1 + 1e-3)):
            assert run(["check", path, "--k", k, "--n", n, "--lambda", lam]) == 0
            checks.append((lam, posinormal.is_member(t, posinormal.ClassQuery(k, n, lam)),
                           _report(capsys)))
        for j in SCALES:
            if abs(j) * (n - 1) > 500:
                continue
            scaled.write_text(fileio.dumps_matrix(linalg.ldexp(t, j)))
            units = j * (n - 1)
            assert run(["lambda-min", scaled, "--k", k, "--n", n]) == 0
            expected = dict(plain_min)
            if result.feasible:
                expected["lambda_min"] = cli._fmt(np.ldexp(result.lambda_min, units))
            assert _report(capsys) == expected, (k, n, j)
            for lam, report, plain_check in checks:
                lam_j = float(np.ldexp(lam, units))
                assert run(["check", scaled, "--k", k, "--n", n, "--lambda", lam_j]) == 0
                assert _report(capsys) == {
                    **plain_check, "query": f"k={k} n={n} lambda={cli._fmt(lam_j)}",
                    "gap_min_eigenvalue": cli._fmt(np.ldexp(report.gap_min_eigenvalue,
                                                            2 * units)),
                    "gap_norm": cli._fmt(np.ldexp(report.gap_norm, 2 * units))}, (k, n, j)


def test_an_answer_that_once_overflowed(tmp_path, capsys):
    """T = [[1e120, 1], [0, 1]] at (2, 3) and [[1e146, 1e150], [0, 1e146]]
    at (0, 2) exited 2 where T^n or M*M overflowed.  Formed on 2^-e T,
    they fail at lambda = 1 with lambda_min 1e240 and 2.0000000025e154,
    and the tensor check rejects the second as a factor (exit 1).  The
    same two at (0, 3) and (1, 2), and the identity at lambda = 1e200,
    exited 2 where lambda^2 left the float range, which the slot never
    forms in T's units: they print their lambda_min with both certificate
    lines true, and holds with gap values inf.  decompose on 1e200 times
    the 3x3 shift at k = 3 exited 2 where C^2 overflowed, though C^3 = C^k
    is exactly 0: its normalized power prints residual 0."""
    big, steep = tmp_path / "big.json", tmp_path / "steep.json"
    big.write_text(fileio.dumps_matrix(np.array([[1e120, 1.0], [0.0, 1.0]])))
    steep.write_text(fileio.dumps_matrix(np.array([[1e146, 1e150], [0.0, 1e146]])))
    for path, (k, n), lam_min in ((big, (2, 3), 1e240), (steep, (0, 2), 2.0000000025e154)):
        assert posinormal.min_lambda(fileio.load_matrix(path), k, n).lambda_min == (
            pytest.approx(lam_min, rel=1e-12))
        assert run(["check", path, "--k", k, "--n", n, "--lambda", 1]) == 0
        report = _report(capsys)
        assert report["holds"] == "false" and report["gap_min_eigenvalue"] == "-inf"
        x = _printed_witness([f"witness: {report['witness']}"])
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-5)  # 6 printed digits
    identity = FIXTURES / "identity_2.json"
    assert run(["tensor", steep, identity, "--k", 0, "--n", 2,
                "--lambda", 1, "--mu", 1]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "T is not a member at its query" in err, err
    for path, (k, n), lam_min in ((big, (0, 3), "1e+240"),
                                  (steep, (1, 2), "2.0000000025e+154")):
        assert run(["lambda-min", path, "--k", k, "--n", n]) == 0
        assert _report(capsys) == {
            "query": f"k={k} n={n}", "feasible": "true", "lambda_min": lam_min,
            "certificate_holds_above": "true", "certificate_fails_below": "true"}
    assert run(["check", identity, "--k", 0, "--n", 1, "--lambda", 1e200]) == 0
    assert _report(capsys) == {"query": "k=0 n=1 lambda=1e+200", "holds": "true",
                               "gap_min_eigenvalue": "inf", "gap_norm": "inf"}
    shift = tmp_path / "shift.json"  # ran T^3 = 0, so C = T
    shift.write_text(fileio.dumps_matrix(1e200 * np.eye(3, k=1)))
    assert run(["decompose", shift, "--k", 3]) == 0
    report = _report(capsys)
    assert report["nilpotency_residual"] == "0" and report["spectrum_union_ok"] == "true"


def _graded_draw(exponent: float, index: int) -> np.ndarray:
    """Draw ``index`` (from 0) of default_rng(0): dims 2-12, entries
    standard normal times 10^U(-exponent, exponent) each."""
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        dim = rng.integers(2, 13)
        m = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-exponent, exponent,
                                                                  (dim, dim))
    return m


@pytest.mark.parametrize("matrix, argv", [
    # the kernel Gram (D'W0)*(D'W0) overflowed: at 1e100 feasible with lambda_min 0
    (1e100 * fixtures.nilpotent_shift(3), ["lambda-min", "--k", 0, "--n", 2]),
    # ... and eigvalsh of it raised a raw LinAlgError
    (1e78 * fixtures.clipped_shift(6), ["lambda-min", "--k", 0, "--n", 2]),
    (_graded_draw(100, 2), ["lambda-min", "--k", 1, "--n", 2]),
    # the pulled-back witness was printed as NaN
    (_graded_draw(40, 52), ["check", "--k", 3, "--n", 1, "--lambda", 1]),
], ids=["shift-1e100", "clipped-1e78", "graded-draw-2", "graded-draw-52"])
def test_a_scale_once_undecidable_gets_the_oracles_answer(matrix, argv, tmp_path, capsys):
    """These exited 2, or worse, while the pencil was formed on T itself.
    Each now exits 0 with the dense oracle's answer on S = 2^-e T, in T's
    units: the feasibility and lambda_min of lambda-min, the verdict of
    check with a unit witness."""
    path = tmp_path / "t.json"
    path.write_text(fileio.dumps_matrix(matrix))
    assert run([argv[0], path, *argv[1:]]) == 0
    report = _report(capsys)
    k, n = argv[2], argv[4]
    t = linalg.as_matrix(matrix)
    s, e = linalg.normalize(t)
    if argv[0] == "check":
        holds = oracles.member_oracle(s, k, n, np.ldexp(float(argv[6]), -e * (n - 1)))
        assert report["holds"] == str(holds).lower()
        x = _printed_witness([f"witness: {report['witness']}"])
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-5)
        return
    feasible = oracles.kernel_feasible(s, k, n)
    assert report["feasible"] == str(feasible).lower()
    if feasible:
        expected = np.ldexp(oracles.bisect_min_lambda(s, k, n), e * (n - 1))
        assert float(report["lambda_min"]) == pytest.approx(expected, rel=1e-8)


def test_decompose_of_a_huge_valid_matrix_is_clean(tmp_path, capsys):
    """At |entries| ~ 1e100 the determinant of T overflows; spectrum's
    cross-check runs on T scaled by a power of two, so no warning leaks
    (run turns one into an error) and the run exits 0."""
    path = tmp_path / "big.json"
    path.write_text(fileio.dumps_matrix(
        1e100 * np.random.default_rng(3).standard_normal((6, 6))))
    assert run(["decompose", path, "--k", 1]) == 0
    assert capsys.readouterr().err == ""


def _failing(*args, **kwargs):
    raise NumericalFailure("injected failure")


# Each subcommand with the computation it makes last, as the module and
# attribute it calls; every condexp check is its own last computation.
LAST_COMPUTATIONS = [
    (["check", FIXTURES / "diag_2_1.json", "--k", 0, "--n", 2, "--lambda", 1],
     posinormal, "is_member"),
    # the certificates after lambda_min
    (["lambda-min", FIXTURES / "diag_2_1.json", "--k", 0, "--n", 2],
     posinormal, "is_member"),
    (["decompose", FIXTURES / "split_range_4.json", "--k", 1], linalg, "spectrum"),
    (["tensor", FIXTURES / "identity_2.json", FIXTURES / "diag_2_1.json",
      "--k", 1, "--n", 1, "--lambda", 1.5, "--mu", 1.5], posinormal, "is_member"),
    *((["condexp", SPACE, check], condexp, name) for check, name in zip(
        CONDEXP_CHECKS, ("norm_formula_check", "lemma31_check",
                         "polar_decomposition_check", "thm33_check", "thm34_check",
                         "thm35_check"))),
    (["paper-verify"], verify, "dumps_report"),
]


@pytest.mark.parametrize("argv, module, name", LAST_COMPUTATIONS,
                         ids=[f"{argv[0]}-{name}" for argv, _, name in LAST_COMPUTATIONS])
def test_a_failure_at_the_end_prints_no_half_report(argv, module, name, monkeypatch,
                                                     capsys):
    """The subcommand returns its lines and main prints them after it has
    returned, so a failure in its last computation leaves stdout empty."""
    monkeypatch.setattr(module, name, _failing)
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "numerical failure: injected failure\n", (out, err)


def test_decompose_computes_each_spectrum_once(monkeypatch, capsys):
    """spectrum(T) and spectrum(A) run once each: the printed spectra are the
    ones spectrum_union_gap compares."""
    calls, spectrum = [], linalg.spectrum
    monkeypatch.setattr(linalg, "spectrum", lambda m: calls.append(m.shape) or spectrum(m))
    assert run(["decompose", FIXTURES / "split_range_4.json", "--k", 1]) == 0
    assert calls == [(4, 4), (3, 3)]
    assert "spectrum_A: 0+0j, 1+0j, 2+0j" in capsys.readouterr().out.splitlines()


# --- the parser ------------------------------------------------------------------

def test_parsed_arguments_with_defaults():
    tol = {"tol": 1e-10}
    cases = {
        "check": (["check", "m.json", "--k", "1", "--n", "2", "--lambda", "3"],
                  {"matrix_file": "m.json", "k": 1, "n": 2, "lam": 3.0, **tol}),
        "lambda-min": (["lambda-min", "m.json", "--k", "0", "--n", "1"],
                       {"matrix_file": "m.json", "k": 0, "n": 1, **tol}),
        "decompose": (["decompose", "m.json", "--k", "2"],
                      {"matrix_file": "m.json", "k": 2, "n": 1}),
        "tensor": (["tensor", "a.json", "b.json", "--k", "1", "--n", "1",
                    "--lambda", "2", "--mu", "3", "--tol", "1e-9"],
                   {"matrix_file_a": "a.json", "matrix_file_b": "b.json",
                    "k": 1, "n": 1, "lam": 2.0, "mu": 3.0, "tol": 1e-9}),
        "condexp": (["condexp", "s.json", "norm"],
                    {"space_file": "s.json", "check": "norm", "k": 1, "n": 1,
                     "lam": 1.0, "power": 1.0}),
        "paper-verify": (["paper-verify"], {"out": None, "seed": 20250810}),
    }
    parser = cli.build_parser()
    assert set(cases) == set(parser._subparsers._group_actions[0].choices)
    for command, (argv, expected) in cases.items():
        parsed = vars(parser.parse_args(argv))
        assert parsed.pop("func").__name__ == "_cmd_" + command.replace("-", "_")
        assert parsed == {"command": command, **expected}, command


def test_importing_cli_builds_no_parser():
    code = ("import posilab.cli as cli; "
            "print(cli.build_parser.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0\n"


@pytest.mark.parametrize("seed", [-1, -2])
def test_a_negative_seed_is_an_input_error(seed, capsys):
    # A seed is a non-negative integer: numpy rejects a negative one, and
    # -1 would get past it only because every claim seeds at seed + 1 or more.
    assert run(["paper-verify", "--seed", seed]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: seed must be a non-negative integer, got {seed}\n"
    with pytest.raises(ValidationError, match="non-negative integer"):
        verify.run_claim_suite(2.0)


def test_check_prints_a_witness_at_large_k(tmp_path, capsys):
    # An invertible T reads every k on rung 0, and its witness at k takes z
    # back through T k times, growing up to 2x a step; z stays normalized,
    # so check prints it at a k where 2^k is beyond the float range.
    path = tmp_path / "t.json"
    path.write_text(fileio.dumps_matrix(np.array([[1.0, 0.3], [0.0, 0.5]])))
    assert run(["check", path, "--k", 2000, "--n", 2, "--lambda", 0.3]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "holds: false" in lines
    x = _printed_witness(lines)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-5 and abs(x[1]) > abs(x[0]) > 0.5


def test_reused_parser_prints_what_a_fresh_one_prints(tmp_path, capsys):
    """One parser serves every call of the process, and no call's flags
    reach the next: each call prints what it prints as the first call."""
    report = tmp_path / "report.json"
    # At lambda = 1.9999 diag(2, 1) is a member under --tol 1e-3 only.
    check = ["check", FIXTURES / "diag_2_1.json", "--k", 0, "--n", 2,
             "--lambda", 1.9999]
    calls = [check + ["--tol", "1e-3"], ["check", "--k"],
             ["paper-verify", "--out", report, "--seed", 7],
             check, ["check", "--k"], ["paper-verify"]]

    def call(argv):
        code = run(argv)
        out, err = capsys.readouterr()
        written = report.read_text() if report.exists() else ""
        report.unlink(missing_ok=True)
        return [code] + [[line for line in text.splitlines()
                          if '"elapsed_s":' not in line]
                         for text in (out, err, written)]

    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        first.append(call(argv))
    assert [outcome[0] for outcome in first] == [0, 1, 0, 0, 1, 0]
    assert "holds: true" in first[0][1] and "holds: false" in first[3][1]
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    assert [call(argv) for argv in calls] == first
    assert cli.build_parser() is parser


# --- the fixture files -----------------------------------------------------------

FIXTURE_DOCUMENTS = {
    "clipped_shift_6": lambda: fileio.dumps_matrix(fixtures.clipped_shift(6)),
    "diag_2_1": lambda: fileio.dumps_matrix(np.diag([2.0, 1.0])),
    "identity_2": lambda: fileio.dumps_matrix(np.eye(2)),
    "interval_two_block_8": lambda: fileio.dumps_space(*fixtures.interval_example(8)),
    "invariant_block_4": lambda: fileio.dumps_matrix(fixtures.invariant_block_matrix()),
    "nilpotent_shift_3": lambda: fileio.dumps_matrix(fixtures.nilpotent_shift(3)),
    "split_range_4": lambda: fileio.dumps_matrix(fixtures.split_range_matrix()),
}


def test_fixture_files_are_serialized_operators():
    assert sorted(p.stem for p in FIXTURES.glob("*.json")) == sorted(FIXTURE_DOCUMENTS)
    for stem, dumps in FIXTURE_DOCUMENTS.items():
        assert (FIXTURES / f"{stem}.json").read_text() == dumps(), stem


def test_documents_round_trip():
    for path in MATRICES:
        assert fileio.dumps_matrix(fileio.load_matrix(path)) == path.read_text()
    assert fileio.dumps_space(*fileio.load_space(SPACE)) == SPACE.read_text()


# Values a 64-bit float round trip must keep: signed zeros, subnormals, the
# largest magnitudes and values that need all 17 significant digits.
EDGE_VALUES = (0.0, -0.0, 5e-324, -2.2250738585072e-309, 1e300, -1e300,
               0.1, 2.0 / 3.0, -1.2345678901234567e-8)
LABELS = ("a", "atom 7", "\u03b2", 'q"uote', "back\\slash", "")


def _values(rng, count) -> np.ndarray:
    """Edge values mixed with Gaussian ones at random scales."""
    picks = rng.choice(EDGE_VALUES, size=count)
    gauss = rng.standard_normal(count) * 10.0 ** rng.uniform(-20, 20, count)
    return np.where(rng.random(count) < 0.5, picks, gauss)


def _complex(rng, count) -> np.ndarray:
    z = np.empty(count, dtype=complex)  # re + 1j * im would lose an imaginary -0.0
    z.real, z.imag = _values(rng, count), _values(rng, count)
    return z


def _bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes()


def test_random_documents_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(20250810)
    path = tmp_path / "doc.json"
    for _ in range(60):
        rows, cols = (int(x) for x in rng.integers(1, 7, size=2))
        m = _complex(rng, rows * cols).reshape(rows, cols)
        path.write_text(fileio.dumps_matrix(m))
        loaded = fileio.load_matrix(path)
        assert _bits(loaded) == _bits(m)
        assert fileio.dumps_matrix(loaded) == path.read_text()
    for _ in range(60):
        atoms = int(rng.integers(1, 21))
        masses = np.abs(_values(rng, atoms))
        masses[masses == 0.0] = 1.0
        labels = [str(rng.choice(LABELS)) + str(i) * int(rng.integers(2))
                  for i in range(atoms)]
        space = condexp.FiniteMeasureSpace(masses, labels)
        cuts = sorted(rng.choice(range(1, atoms), size=int(rng.integers(atoms)),
                                 replace=False)) if atoms > 1 else []
        blocks = [tuple(int(i) for i in b)
                  for b in np.split(rng.permutation(atoms), cuts)]
        partition = condexp.BlockPartition(blocks, atoms)
        w, u = _complex(rng, atoms), _complex(rng, atoms)
        path.write_text(fileio.dumps_space(space, partition, w, u))
        space2, partition2, w2, u2 = fileio.load_space(path)
        assert _bits(space2.masses) == _bits(masses)
        assert space2.labels == space.labels
        assert partition2.blocks == partition.blocks
        assert _bits(w2) == _bits(w) and _bits(u2) == _bits(u)
        assert fileio.dumps_space(space2, partition2, w2, u2) == path.read_text()
