import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "kernel_shapes.py"
PASS_ONE = [
    "large-docs seed 42",
    "large-docs seed 7",
    "uniform 4,000",
    "regional 3,000 in 10 km",
    "city block 1,000 in 1 km",
    "two cities 2 x 1,000",
    "global 1,200 + 500 in 1 km",
    "duplicates + antipodes 1,000",
]
PASS_TWO = [
    "large-docs seed 42 at 2 km",
    "large-docs seed 7 at 2 km",
    "uniform 4,000 at 3,000 km",
    "uniform 4,000 at 8,000 km",
    "uniform 4,000 at 20,000 km",
    "box 3,000 at 1 km",
    "box 3,000 at 5 km",
    "box 3,000 at 20 km",
    "uniform 10,000 at 300 km",
]


def test_one_round_times_every_shape_at_both_revisions(source_repository):
    run = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "--rounds", "1"], cwd=source_repository, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    one, two = run.stdout.split("\n\n")
    title, header, *rows = one.splitlines()
    assert title.startswith("pass one at delta_d 100 m, median of 1 rounds")
    assert header.split() == ["shape", "HEAD", "working", "tree", "ratio", "fallback", "fallback"]
    assert [row[:30].strip() for row in rows] == PASS_ONE
    for row in rows:
        base, unit, head, _, ratio, *shares = row[30:].split()
        assert unit == "ms" and float(base) > 0 and float(head) > 0 and float(ratio) > 0
        assert shares[0] == shares[1] and 0 <= float(shares[0]) <= 1  # one source at both revisions
    title, header, *rows = two.splitlines()
    assert title.startswith("pass two, the pairs within a limit, median of 1 rounds")
    assert header.split() == ["shape", "HEAD", "working", "tree", "ratio", "pairs"]
    assert [row[:30].strip() for row in rows] == PASS_TWO
    for row in rows:
        base, unit, head, _, ratio, pairs = row[30:].split()
        assert unit == "ms" and float(base) > 0 and float(head) > 0 and float(ratio) > 0
        assert int(pairs.replace(",", "")) > 0


def test_revisions_whose_curves_differ_are_refused(source_repository):
    # a working tree on a sphere one metre wider moves pairs across ring edges
    geo = source_repository / "src" / "densityk" / "geo.py"
    geo.write_text(geo.read_text().replace("EARTH_RADIUS_M = 6_371_000.0", "EARTH_RADIUS_M = 6_371_001.0"))
    run = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "--rounds", "1"], cwd=source_repository, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 1
    assert run.stderr == "large-docs seed 42: the curves differ\n"
    assert run.stdout == ""

