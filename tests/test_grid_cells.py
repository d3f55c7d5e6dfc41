import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "grid_cells.py"
GROUPS = ["densityk", "dbscan", "kdist", "omd", "centroid", "dtur", "all"]


def source_repository(path: Path):
    # a repository of the source alone, committed; returns its git runner
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=path, check=True, capture_output=True)

    shutil.copytree(ROOT / "src", path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "src")
    return git


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_one_round_times_every_cell_group_at_both_revisions(tmp_path):
    # its HEAD against its working tree
    source_repository(tmp_path)
    run = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "--rounds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    title, header, *rows = run.stdout.splitlines()
    assert "seed 42" in title and "median of 1 rounds" in title
    assert header.split() == ["cells", "HEAD", "working", "tree", "ratio"]
    assert [row.split()[0] for row in rows] == GROUPS
    for row in rows:
        _, base, unit, head, _, ratio = row.split()
        assert unit == "us" and float(base) > 0 and float(head) > 0 and float(ratio) > 0


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_revisions_that_write_different_texts_are_refused(tmp_path):
    # a working tree on a sphere one metre wider moves every distance error
    source_repository(tmp_path)
    geo = tmp_path / "src" / "densityk" / "geo.py"
    geo.write_text(geo.read_text().replace("EARTH_RADIUS_M = 6_371_000.0", "EARTH_RADIUS_M = 6_371_001.0"))
    run = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "--rounds", "1", "--seed", "7"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 1
    assert "the two revisions write different texts" in run.stderr
    assert run.stdout == ""


def test_a_wrong_command_line_is_usage():
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stderr.startswith("usage: python3 tools/grid_cells.py BASE [HEAD]")
