from pathlib import Path

from posilab import cli

GOLDEN = Path(__file__).parent / "golden" / "paper_verify.txt"


def test_paper_verify_matches_golden(capsys):
    """The paper-verify report is fixed byte for byte, apart from the
    per-claim timings."""
    assert cli.main(["paper-verify"]) == 0
    out = capsys.readouterr().out
    kept = [line for line in out.splitlines(keepends=True)
            if '"elapsed_s":' not in line]
    assert "".join(kept) == GOLDEN.read_text()
