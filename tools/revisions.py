"""Two revisions of ``src``, timed side by side: the harness of the timing
tools in this directory.

    python3 tools/TOOL.py BASE [HEAD] [--rounds N] [...]

Run a tool inside the repository. BASE and HEAD are git revisions; without
HEAD the working tree's ``src`` is timed. Each revision's ``src`` is
exported and served by its own worker process, the tool itself started as
``TOOL --worker SRC [ARG ...]``, with ``OPENBLAS_NUM_THREADS=1`` in that
process's environment, so a gain is not hidden BLAS threads. A worker
builds its inputs, prints one JSON line about them, then answers each
request line with one JSON line (:func:`serve`). A tool refuses to time two
revisions whose answers about their outputs differ, with exit 1
(:func:`agree`). Every round asks each worker each request in turn, the
first worker alternating round by round, so drift in the machine falls on
both alike (:func:`rounds`). A wrong command line exits 2 with the usage
line, an unknown revision with git's message, each on one line; a worker
that dies exits 1 with one line naming its revision (:class:`Worker`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def _fail(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def command_line(tool: str, argv: list[str], options: dict[str, int]) -> tuple[str, str | None, list[int]]:
    """BASE, HEAD (None for the working tree) and the value of each integer
    option of a tool's arguments ``argv``. ``options`` maps each option's
    usage, such as ``"--rounds N"``, to its default. A wrong command line,
    or ``--rounds`` below 1, exits 2 with the usage line."""
    usage = f"usage: python3 tools/{Path(tool).name} BASE [HEAD]" + "".join(f" [{option}]" for option in options)
    flags = [option.split()[0] for option in options]
    values, revisions = list(options.values()), []
    args = iter(argv)
    for arg in args:
        if not arg.startswith("-"):
            revisions.append(arg)
            continue
        try:
            values[flags.index(arg)] = int(next(args))
        except (ValueError, StopIteration):  # an unknown option, or a missing or non-integer value
            _fail(usage)
    if len(revisions) not in (1, 2) or values[flags.index("--rounds")] < 1:
        _fail(usage)
    return revisions[0], revisions[1] if len(revisions) == 2 else None, values


def _git(*args: str) -> bytes:
    # git's output; git's message, on one line, and exit 2 where it fails
    try:
        return subprocess.run(["git", *args], check=True, capture_output=True).stdout
    except subprocess.CalledProcessError as error:
        _fail(" ".join(error.stderr.decode().split()))


def _export(revision: str | None, into: Path) -> str:
    # the revision's src directory, unpacked into ``into``, or the working tree's
    top = Path(_git("rev-parse", "--show-toplevel").decode().strip())
    if revision is None:
        return str(top / "src")
    with tarfile.open(fileobj=io.BytesIO(_git("-C", str(top), "archive", "--format=tar", revision, "src"))) as tar:
        tar.extractall(into, filter="data")
    return str(into / "src")


class Worker:
    """One revision's worker, named ``revision`` where it fails: ``first``
    is the line it printed once its inputs were built. A worker that ends
    without a reply, or whose pipe breaks, exits 1 with one line naming
    its revision, after whatever the worker itself printed."""

    def __init__(self, tool: str, src: str, args: list[str], revision: str):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        self.process = subprocess.Popen(
            [sys.executable, tool, "--worker", src, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.revision = revision
        self.first = self._reply()

    def _reply(self):
        line = self.process.stdout.readline()
        if not line:
            self._ended()
        return json.loads(line)

    def _ended(self):
        with contextlib.suppress(BrokenPipeError):  # a request left unsent
            self.process.stdin.close()
        self.close()
        print(f"the worker of {self.revision} ended without a reply", file=sys.stderr)
        raise SystemExit(1)

    def ask(self, request: str):
        try:
            self.process.stdin.write(f"{request}\n")
            self.process.stdin.flush()
        except BrokenPipeError:
            self._ended()
        return self._reply()

    def close(self) -> None:
        # both pipes, then the process: every request was flushed, and a
        # pipe that broke was closed by _ended, so closing a dead worker's
        # pipe leaves nothing to write
        self.process.stdin.close()
        self.process.stdout.close()
        self.process.wait()


@contextlib.contextmanager
def workers(tool: str, base: str, head: str | None, *args):
    """The workers of ``base`` and ``head``, each started with ``args``,
    closed on leaving. Both revisions are exported before either starts."""
    names = [f"BASE {base}", f"HEAD {head}" if head else "the working tree"]
    with tempfile.TemporaryDirectory() as scratch:
        sources = [_export(revision, Path(scratch) / str(k)) for k, revision in enumerate((base, head))]
        started: list[Worker] = []
        try:
            for src, name in zip(sources, names):
                started.append(Worker(tool, src, [str(arg) for arg in args], name))
            yield started
        finally:
            for worker in started:
                worker.close()


def serve(first, answer) -> None:
    """A worker's side: prints ``first``, then ``answer(request)`` for each
    request line, each as one JSON line."""
    print(json.dumps(first), flush=True)
    for line in sys.stdin:
        print(json.dumps(answer(line.rstrip("\n"))), flush=True)


def agree(answers: list, message: str):
    """The answer both workers gave; where they differ, ``message`` and exit 1."""
    if answers[0] != answers[1]:
        print(message, file=sys.stderr)
        raise SystemExit(1)
    return answers[0]


def rounds(pair: list[Worker], count: int, requests: list[str]) -> dict[str, tuple[list, list]]:
    """Each request's answers from each worker over ``count`` rounds. Every
    round asks each request of both workers in turn, the first worker
    alternating round by round."""
    answers = {request: ([], []) for request in requests}
    for r in range(count):
        for request in requests:
            for k in (0, 1) if r % 2 == 0 else (1, 0):
                answers[request][k].append(pair[k].ask(request))
    return answers
