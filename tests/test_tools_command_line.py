import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).parents[1] / "tools"
USAGE = {
    "kernel_shapes.py": "usage: python3 tools/kernel_shapes.py BASE [HEAD] [--rounds N]\n",
    "request_phases.py": "usage: python3 tools/request_phases.py BASE [HEAD] [--rounds N]\n",
    "grid_cells.py": "usage: python3 tools/grid_cells.py BASE [HEAD] [--rounds N] [--seed S]\n",
    "src_lines.py": "usage: python3 tools/src_lines.py BASE [HEAD]\n",
}
# every tool's: a missing, a non-integer and a zero --rounds, an unknown option, three revisions
WRONG = [[], ["HEAD", "--rounds"], ["HEAD", "--rounds", "x"], ["HEAD", "--rounds", "0"], ["HEAD", "--bogus"], ["A", "B", "C"]]
MORE_WRONG = {
    "kernel_shapes.py": [["HEAD", "--seed", "7"]],
    "request_phases.py": [["HEAD", "--rounds", "-1"], ["HEAD", "--seed", "7"]],
    "grid_cells.py": [["HEAD", "--seed"], ["HEAD", "--seed", "1.5"], ["HEAD", "--seed", "-1"]],
    "src_lines.py": [],
}


def _run(tool, args, cwd):
    return subprocess.run([sys.executable, str(TOOLS / tool), *args], cwd=cwd, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("tool", USAGE)
def test_a_wrong_command_line_is_the_usage_line_and_an_unknown_revision_is_gits_message(tool, source_repository):
    # each exits 2 with one line on stderr and nothing on stdout
    for args in WRONG + MORE_WRONG[tool]:
        run = _run(tool, args, source_repository)
        assert (run.returncode, run.stderr, run.stdout) == (2, USAGE[tool], ""), args
    for args in (["nosuchrev"], ["HEAD", "nosuchrev"]):
        run = _run(tool, args, source_repository)
        assert run.returncode == 2 and run.stdout == "", args
        assert run.stderr.startswith("fatal: ") and "nosuchrev" in run.stderr and run.stderr.count("\n") == 1, run.stderr


@pytest.mark.parametrize("tool", ["request_phases.py", "kernel_shapes.py"])
def test_a_worker_that_dies_ends_in_one_line_naming_its_revision(tool, source_repository):
    # a working tree without the curve source: request_phases.py's worker
    # dies building its inputs, kernel_shapes.py's at its first request;
    # its traceback comes first, then the tool's one line, exit 1
    geo = source_repository / "src" / "densityk" / "geo.py"
    geo.write_text(geo.read_text() + "\ndel _rings_within\n")
    run = _run(tool, ["HEAD", "--rounds", "1"], source_repository)
    assert (run.returncode, run.stdout) == (1, ""), run.stderr
    *worker, last = run.stderr.splitlines()
    assert last == "the worker of the working tree ended without a reply"
    assert worker[-1].startswith("AttributeError: ") and "_rings_within" in worker[-1]
    assert "JSONDecodeError" not in run.stderr


def test_a_request_to_a_worker_that_has_exited_ends_in_the_same_line(tmp_path, monkeypatch, capsys):
    # a worker that answers once and exits: the next request's pipe breaks
    monkeypatch.syspath_prepend(str(TOOLS))
    import revisions

    tool = tmp_path / "once.py"
    tool.write_text("import sys\nprint('[]', flush=True)\nsys.stdin.readline()\nprint('1', flush=True)\n")
    worker = revisions.Worker(str(tool), "src", [], "HEAD abc")
    assert (worker.first, worker.ask("a")) == ([], 1)
    worker.process.wait()
    with pytest.raises(SystemExit) as ended:
        worker.ask("b")
    worker.close()  # a pipe it leaves open fails the test as a ResourceWarning
    assert ended.value.code == 1
    assert capsys.readouterr().err == "the worker of HEAD abc ended without a reply\n"
