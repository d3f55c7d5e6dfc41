import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "grid_cells.py"
GROUPS = ["densityk", "dbscan", "kdist", "omd", "centroid", "dtur", "all"]


def test_one_round_times_every_cell_group_at_both_revisions(source_repository):
    run = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "--rounds", "1"], cwd=source_repository, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    title, header, *rows = run.stdout.splitlines()
    assert "seed 42" in title and "median of 1 rounds" in title
    assert header.split() == ["cells", "HEAD", "working", "tree", "ratio"]
    assert [row.split()[0] for row in rows] == GROUPS
    for row in rows:
        _, base, unit, head, _, ratio = row.split()
        assert unit == "us" and float(base) > 0 and float(head) > 0 and float(ratio) > 0


def test_revisions_that_write_different_texts_are_refused(source_repository):
    # a working tree on a sphere one metre wider moves every distance error
    geo = source_repository / "src" / "densityk" / "geo.py"
    geo.write_text(geo.read_text().replace("EARTH_RADIUS_M = 6_371_000.0", "EARTH_RADIUS_M = 6_371_001.0"))
    run = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "--rounds", "1", "--seed", "7"],
        cwd=source_repository,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 1
    assert "the two revisions write different texts" in run.stderr
    assert run.stdout == ""

