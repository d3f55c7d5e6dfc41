"""The change in ``src/densityk`` lines between two revisions, split into
code, documentation (docstrings and comments) and blank lines.

    python3 tools/src_lines.py BASE [HEAD]

Run it inside the repository. BASE and HEAD are git revisions; without
HEAD the working tree is compared, as ``git diff BASE`` compares it. The
lines added and removed are those of ``git diff -U0 --no-renames``, so the
totals equal ``git diff --numstat``'s. Each line is classed on its own
side: a line inside a docstring (the string that opens a module, class or
function, found with ``ast``) or a comment line is documentation, an empty
one blank, any other code. A line of code that ends in a comment is code.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

SRC = "src/densityk"
KINDS = ("code", "docs", "blank")
_HUNK = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def _docstring_lines(source: str) -> set[int]:
    # the line numbers spanned by the docstrings of the module and of each class and function
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _classes(source: str | None) -> list[str]:
    # the kind of each line of a file, indexed by line number - 1
    if source is None:
        return []
    docs = _docstring_lines(source)
    kinds = []
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if number in docs or text.startswith("#"):
            kinds.append("docs")
        else:
            kinds.append("code" if text else "blank")
    return kinds


def _source(revision: str | None, path: str) -> str | None:
    # the file at a revision (the working tree for None), or None where it does not exist
    if revision is None:
        file = Path(_git("rev-parse", "--show-toplevel").strip()) / path
        return file.read_text(encoding="utf-8") if file.exists() else None
    listed = _git("ls-tree", "--name-only", revision, "--", path).strip()
    return _git("show", f"{revision}:{path}") if listed else None


def line_changes(base: str, head: str | None = None) -> dict[str, dict[str, list[int]]]:
    """For each changed ``.py`` file under ``src/densityk``, the lines of
    each kind added and removed, as ``{path: {kind: [added, removed]}}``."""
    diff = _git("diff", "-U0", "--no-renames", "--no-color", "--no-ext-diff", base, *([head] if head else []), "--", SRC)
    changes: dict[str, dict[str, list[int]]] = {}
    old = new = path = None
    header = False  # between a file's "diff --git" line and its first hunk
    for line in diff.splitlines():
        if line.startswith("diff --git "):
            header, path = True, None
        elif header and line.startswith(("--- a/", "+++ b/")) and line.endswith(".py"):
            path = line[6:]
        elif line.startswith("@@") and path is not None:
            header = False
            if path not in changes:
                changes[path] = {kind: [0, 0] for kind in KINDS}
                old, new = _classes(_source(base, path)), _classes(_source(head, path))
            start_old, count_old, start_new, count_new = _HUNK.match(line).groups()
            for number in range(int(start_old), int(start_old) + int(count_old or 1)):
                changes[path][old[number - 1]][1] += 1
            for number in range(int(start_new), int(start_new) + int(count_new or 1)):
                changes[path][new[number - 1]][0] += 1
    return changes


def _cell(added: int, removed: int) -> str:
    return f"+{added} -{removed} ({added - removed:+d})"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2) or any(arg.startswith("-") for arg in argv):
        print("usage: python3 tools/src_lines.py BASE [HEAD]", file=sys.stderr)
        return 2
    try:
        changes = line_changes(*argv)
    except subprocess.CalledProcessError as error:
        print(" ".join(error.stderr.split()), file=sys.stderr)  # git's message, on one line
        return 2
    rows = [(Path(path).name, counts) for path, counts in sorted(changes.items())]
    total = {kind: [sum(c[kind][k] for _, c in rows) for k in (0, 1)] for kind in KINDS}
    rows.append(("total", total))
    print(f"{'file':<16}" + "".join(f"{kind:>20}" for kind in (*KINDS, "all")))
    for name, counts in rows:
        every = [sum(counts[kind][k] for kind in KINDS) for k in (0, 1)]
        print(f"{name:<16}" + "".join(f"{_cell(*counts[kind]):>20}" for kind in KINDS) + f"{_cell(*every):>20}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
