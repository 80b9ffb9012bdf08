import json
from pathlib import Path

from posilab import cli

GOLDEN = Path(__file__).parent / "golden" / "paper_verify.txt"
BENCH_GOLDEN = Path(__file__).parents[1] / "posibench" / "golden" / "paper_verify.json"


def test_paper_verify_matches_golden(capsys):
    """The paper-verify report is fixed byte for byte, apart from the
    per-claim timings."""
    assert cli.main(["paper-verify"]) == 0
    out = capsys.readouterr().out
    kept = [line for line in out.splitlines(keepends=True)
            if '"elapsed_s":' not in line]
    assert "".join(kept) == GOLDEN.read_text()


def test_golden_files_agree():
    """The report's golden file and the benchmark's (which holds only the
    seed, summary and statuses) agree, so neither drifts alone.  The report
    is one JSON document followed by a summary line."""
    report, _ = json.JSONDecoder().raw_decode(GOLDEN.read_text())
    bench = json.loads(BENCH_GOLDEN.read_text())
    assert report["seed"] == bench["seed"]
    assert report["summary"] == bench["summary"]
    assert {c["claim_id"]: c["status"] for c in report["claims"]} == bench["claims"]
