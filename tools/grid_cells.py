"""The operations of the benchmark's ``grid-table1`` workload, timed by
cell group at two revisions, interleaved.

    python3 tools/grid_cells.py BASE [HEAD] [--rounds N] [--seed S]

Run it inside the repository; ``tools/revisions.py`` sets out BASE, HEAD,
the two workers and the interleaved rounds. The inputs are the workload's
own: each worker builds them with ``GridTable1().setup(seed,
NullTracer())`` from this checkout's ``bench/workloads.py``, which it only
reads, against its revision's ``densityk``. The seed is 42 unless
``--seed`` gives another.

An operation is the workload's: ``GridTable1.run`` on one (cell, document)
key, ``run_algorithm`` then ``score_document``, timed with
``time.perf_counter``. Before any timing each worker writes the canonical
``{"result", "score"}`` text of every key, and the two workers' texts are
checked equal, key by key. Every round times every key once in each
worker and takes each cell group's mean over its keys; the cell groups
are the grid's algorithms (densityk, dbscan, kdist, omd, centroid, dtur).
The table gives each group's median microseconds per operation over the
rounds at each revision and their ratio, and the last row those of one
operation of the whole grid.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from pathlib import Path

import revisions

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _worker(src: str, seed: int) -> None:
    # Serves one revision: builds the inputs, prints the cell groups in
    # order and one digest of the canonical text of each key, then answers
    # each "round" line with each group's mean microseconds per operation.
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
    run, clock = workload.run, time.perf_counter

    def answer(_):
        spent = [0.0] * len(groups)
        for key, g in zip(keys, group_of):
            t0 = clock()
            run(key)
            spent[g] += clock() - t0
        return [s / count * 1e6 for s, count in zip(spent, per_group)] + [sum(spent) / len(keys) * 1e6]

    revisions.serve([groups, digests], answer)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        _worker(argv[1], int(argv[2]))
        return 0
    base, head, (rounds, seed) = revisions.command_line(__file__, argv, {"--rounds N": 15, "--seed S": 42})
    with revisions.workers(__file__, base, head, seed) as workers:
        (groups, first), (_, second) = (w.first for w in workers)
        differ = sum(a != b for a, b in zip(first, second))
        revisions.agree([first, second], f"the two revisions write different texts for {differ} (cell, document) keys")
        times = revisions.rounds(workers, rounds, ["round"])["round"]
    head_label = head or "working tree"
    print(f"one grid-table1 operation by cell group, seed {seed}, mean over the group's keys, median of {rounds} rounds")
    print(f"{'cells':<12}{base[:12]:>14}{head_label[:12]:>14}{'ratio':>8}")
    for g, name in enumerate([*groups, "all"]):
        us = [statistics.median(t[g] for t in times[k]) for k in (0, 1)]
        print(f"{name:<12}{us[0]:>11.1f} us{us[1]:>11.1f} us{us[1] / us[0]:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
