import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("src_lines", Path(__file__).parents[1] / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

BEFORE = '''"""Module docstring."""

import math


def f(x):
    return math.sqrt(x)
'''

AFTER = '''"""Module docstring,
now on two lines."""

import math


def f(x):
    """Root of x."""
    # the positive root
    y = math.sqrt(x)  # a trailing comment: code

    return y
'''


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_lines_are_classed_on_their_own_side_and_total_the_numstat(tmp_path, monkeypatch):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], check=True, capture_output=True, text=True
        ).stdout

    monkeypatch.chdir(tmp_path)
    module = tmp_path / "src" / "densityk" / "m.py"
    module.parent.mkdir(parents=True)
    git("init", "-q")
    for text in (BEFORE, AFTER):
        module.write_text(text)
        git("add", "-A")
        git("commit", "-q", "-m", "m")
    (tmp_path / "src" / "densityk" / "new.py").write_text("x = 1\n")  # untracked: not in the diff
    module.write_text(AFTER + "z = 2\n")

    committed = src_lines.line_changes("HEAD~1", "HEAD")
    assert committed == {"src/densityk/m.py": {"code": [2, 1], "docs": [4, 1], "blank": [1, 0]}}
    added, removed, _ = git("diff", "--numstat", "HEAD~1", "HEAD").split()
    assert sum(a for a, _ in committed["src/densityk/m.py"].values()) == int(added)
    assert sum(r for _, r in committed["src/densityk/m.py"].values()) == int(removed)
    assert src_lines.line_changes("HEAD")["src/densityk/m.py"]["code"] == [1, 0]  # the working tree
