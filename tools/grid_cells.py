"""The operations of the benchmark's ``grid-table1`` workload, timed by
cell group at two revisions, interleaved.

    python3 tools/grid_cells.py BASE [HEAD] [--rounds N] [--seed S]

Run it inside the repository. BASE and HEAD are git revisions; without
HEAD the working tree's ``src`` is timed. Each revision's ``src`` runs in
its own worker process with ``OPENBLAS_NUM_THREADS=1`` in that process's
environment. The inputs are the workload's own: each worker builds them
with ``GridTable1().setup(seed, NullTracer())`` from this checkout's
``bench/workloads.py``, which it only reads, against its revision's
``densityk``. The seed is 42 unless ``--seed`` gives another.

An operation is the workload's: ``GridTable1.run`` on one (cell, document)
key, ``run_algorithm`` then ``score_document``, timed with
``time.perf_counter``. Before any timing each worker writes the canonical
``{"result", "score"}`` text of every key, and the two workers' texts are
checked equal, key by key. Every round times every key once in each
worker, the workers in turn, and takes each cell group's mean over its
keys; the cell groups are the grid's algorithms (densityk, dbscan, kdist,
omd, centroid, dtur). The table gives each group's median microseconds
per operation over the rounds at each revision and their ratio, and the
last row those of one operation of the whole grid.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from kernel_shapes import _export

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _worker(src: str, seed: int) -> None:
    # Serves one revision: builds the inputs, prints the cell groups in
    # order and one digest of the canonical text of each key, then answers
    # each "round" line with each group's mean microseconds per operation,
    # one JSON line each.
    sys.path[:0] = [src, str(BENCH)]
    from tracing import NullTracer
    from workloads import GridTable1

    workload = GridTable1()
    workload.setup(seed, NullTracer())
    keys = workload.keys()
    groups = list(dict.fromkeys(cell.algorithm for cell in workload.cells))
    group_of = [groups.index(workload.cells[c].algorithm) for c, _ in keys]
    per_group = [group_of.count(g) for g in range(len(groups))]
    digests = [hashlib.sha256(workload.canonical(workload.run(key)).encode()).hexdigest() for key in keys]
    print(json.dumps([groups, digests]), flush=True)
    run, clock = workload.run, time.perf_counter
    for _ in sys.stdin:
        spent = [0.0] * len(groups)
        for key, g in zip(keys, group_of):
            t0 = clock()
            run(key)
            spent[g] += clock() - t0
        means = [s / count * 1e6 for s, count in zip(spent, per_group)]
        print(json.dumps(means + [sum(spent) / len(keys) * 1e6]), flush=True)


class _Worker:
    def __init__(self, src: str, seed: int):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--worker", src, str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.groups, self.digests = json.loads(self.process.stdout.readline())

    def round(self) -> list[float]:
        self.process.stdin.write("round\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


def _option(argv: list[str], name: str, default: int) -> int:
    # the integer after ``name`` in argv, both removed, or the default
    if name not in argv:
        return default
    at = argv.index(name)
    value = int(argv[at + 1])
    del argv[at : at + 2]
    return value


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        _worker(argv[1], int(argv[2]))
        return 0
    rounds = _option(argv, "--rounds", 15)
    seed = _option(argv, "--seed", 42)
    if len(argv) not in (1, 2):
        print("usage: python3 tools/grid_cells.py BASE [HEAD] [--rounds N] [--seed S]", file=sys.stderr)
        return 2
    base, head = argv[0], argv[1] if len(argv) == 2 else None
    with tempfile.TemporaryDirectory() as scratch:
        workers = [_Worker(_export(rev, Path(scratch) / str(k)), seed) for k, rev in enumerate((base, head))]
        try:
            differ = sum(a != b for a, b in zip(workers[0].digests, workers[1].digests))
            if differ:
                print(f"the two revisions write different texts for {differ} (cell, document) keys", file=sys.stderr)
                return 1
            times = ([], [])
            for r in range(rounds):
                for k in (0, 1) if r % 2 == 0 else (1, 0):
                    times[k].append(workers[k].round())
        finally:
            for w in workers:
                w.close()
    head_label = head or "working tree"
    print(f"one grid-table1 operation by cell group, seed {seed}, mean over the group's keys, median of {rounds} rounds")
    print(f"{'cells':<12}{base[:12]:>14}{head_label[:12]:>14}{'ratio':>8}")
    for g, name in enumerate([*workers[0].groups, "all"]):
        us = [statistics.median(t[g] for t in times[k]) for k in (0, 1)]
        print(f"{name:<12}{us[0]:>11.1f} us{us[1]:>11.1f} us{us[1] / us[0]:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
