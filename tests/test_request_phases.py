import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "request_phases.py"
PHASES = ["json.loads", "document_from_dict", "cloud", "curve", "linkage", "_resolve", "result_to_dict", "writer", "total"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_one_round_times_every_phase_at_both_revisions(tmp_path):
    # a repository of the source alone: its HEAD against its working tree
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path, check=True, capture_output=True)

    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "src")
    run = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "--rounds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    title, header, *rows = run.stdout.splitlines()
    assert "seed 42" in title and "median of 1 rounds" in title
    assert header.split() == ["phase", "HEAD", "working", "tree", "ratio"]
    assert [row.split()[0] for row in rows] == PHASES
    for row in rows:
        _, base, unit, head, _, ratio = row.split()
        assert unit == "us" and float(base) > 0 and float(head) > 0 and float(ratio) > 0


def test_a_wrong_command_line_is_usage():
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stderr.startswith("usage: python3 tools/request_phases.py BASE [HEAD]")
