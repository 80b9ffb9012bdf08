"""The command line's stdout and exit codes, pinned byte for byte.

``tests/golden/cli_transcript.txt`` records, for each argv of ``CALLS``,
the exit code and everything the call printed to stdout.  A change that
means to change the report rewrites the file on purpose:

    PYTHONPATH=src python tests/test_cli_transcript.py

Paths are relative to the repository root; ``$TMP`` stands for a
directory holding the generated ``DOCUMENTS``.
"""

import contextlib
import io
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np

from posilab import cli, fileio, fixtures

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli_transcript.txt"
MATRICES = ("clipped_shift_6", "diag_2_1", "identity_2", "invariant_block_4",
            "nilpotent_shift_3", "split_range_4")
SPACE = "fixtures/interval_two_block_8.json"


def _mean_free_u() -> str:
    """The 8-atom space with E(u) = 0 but E|u|^2 > 0 on block 0, where
    Theorem 3.3 claims no equivalence."""
    space, partition, w, u = fixtures.interval_example(8)
    first, second = partition.blocks[0][:2]
    u = np.where(partition.labels == 0, 0.0, u)
    u[first], u[second] = 1.0 / space.masses[first], -1.0 / space.masses[second]
    return fileio.dumps_space(space, partition, w, u)


# Documents the calls read from $TMP: one malformed (exit 1) and one whose
# lambda_min at (0, 3), about 1e400, overflows (exit 2), neither printing
# anything to stdout; one whose T^n is beyond the float range, though
# 2^-e T decides it; and a space whose Theorem 3.3 verdicts are not compared.
DOCUMENTS = {
    "not_an_object.json": "[1, 2]",
    "big.json": fileio.dumps_matrix(np.array([[1e120, 1.0], [0.0, 1.0]])),
    "huge.json": fileio.dumps_matrix(np.array([[1e200, 1.0], [0.0, 1.0]])),
    "mean_free_u.json": _mean_free_u(),
}


def _calls() -> list[str]:
    calls = []
    for name in MATRICES:
        path = f"fixtures/{name}.json"
        calls += [f"check {path} --k 1 --n 2 --lambda 1.5",
                  f"check {path} --k 0 --n 1 --lambda 3",
                  f"lambda-min {path} --k 0 --n 2"]
        calls += [f"decompose {path} --k {k}" for k in range(4)]
    # the closed-form tensor pairs of the benchmark, the last one exit 1
    calls += ["tensor fixtures/nilpotent_shift_3.json fixtures/nilpotent_shift_3.json"
              " --k 3 --n 2 --lambda 0.5 --mu 2",
              "tensor fixtures/diag_2_1.json fixtures/diag_2_1.json"
              " --k 0 --n 2 --lambda 2.5 --mu 3",
              "tensor fixtures/identity_2.json fixtures/diag_2_1.json"
              " --k 1 --n 1 --lambda 1.25 --mu 1.5",
              "tensor fixtures/nilpotent_shift_3.json fixtures/identity_2.json"
              " --k 0 --n 2 --lambda 1 --mu 1.5"]
    for check in ("norm", "lemma31", "polar", "thm33", "thm34", "thm35"):
        calls += [f"condexp {SPACE} {check} --k 1 --n 2 --lambda 4 --power 2",
                  f"condexp {SPACE} {check} --k 0 --n 1 --lambda 1.5 --power 0.5"]
    return calls + ["condexp $TMP/mean_free_u.json thm33 --lambda 2",
                    "check $TMP/not_an_object.json --k 1 --n 1 --lambda 1",
                    "check $TMP/big.json --k 2 --n 3 --lambda 1",
                    "lambda-min $TMP/huge.json --k 0 --n 3"]


CALLS = _calls()


def transcript(tmp: Path) -> str:
    """Each call as "$ argv  # exit code" and its stdout."""
    for name, text in DOCUMENTS.items():
        (tmp / name).write_text(text)
    records = []
    for call in CALLS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(shlex.split(call.replace("$TMP", str(tmp))))
        records.append(f"$ {call}  # exit {code}\n"
                       + out.getvalue().replace(str(tmp), "$TMP"))
    return "".join(records)


def test_cli_transcript_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert transcript(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(ROOT):
        GOLDEN.write_text(transcript(Path(tmp)))
