import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "request_phases.py"
PHASES = ["json.loads", "document_from_dict", "cloud", "curve", "linkage", "_resolve", "result_to_dict", "writer", "total"]


def test_one_round_times_every_phase_at_both_revisions(source_repository):
    run = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "--rounds", "1"], cwd=source_repository, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    title, header, *rows = run.stdout.splitlines()
    assert "seed 42" in title and "median of 1 rounds" in title
    assert header.split() == ["phase", "HEAD", "working", "tree", "ratio"]
    assert [row.split()[0] for row in rows] == PHASES
    for row in rows:
        _, base, unit, head, _, ratio = row.split()
        assert unit == "us" and float(base) > 0 and float(head) > 0 and float(ratio) > 0

