"""One-off reference figures quoted in bench/README.md.

    python3 bench/figures.py drift     # host speed over 60 s, raw and calibrated
    python3 bench/figures.py workers   # the table1 grid, serial beside workers=2
    python3 bench/figures.py sizes     # large-docs latency and peak at three sizes
    python3 bench/figures.py spread bench/out/*-trace0.json   # IQR/median per metric

None of these is a workload; they back the README's numbers.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc

import run


def drift(seconds: float = 60.0) -> None:
    """A fixed interpreted loop, timed back to back, beside the reference job."""
    from timing import HostSpeed

    host = HostSpeed()
    per_second: dict[int, list[tuple[float, float]]] = {}
    start = time.perf_counter()
    while (now := time.perf_counter()) - start < seconds:
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        loop = time.perf_counter() - t0
        per_second.setdefault(int((now - start) / 5), []).append((loop, host.calibrate(0)))
    print("5-s window: ms per million loop iterations, raw and at the reference speed")
    for window, rows in sorted(per_second.items()):
        raw = statistics.median(r[0] for r in rows) * 1e3
        scaled = statistics.median(r[0] * host.factor(r[1], r[1], 0.0) for r in rows) * 1e3
        print(f"{window * 5:3d}-{window * 5 + 5:<3d} s  raw {raw:6.1f}  calibrated {scaled:6.1f}")


def workers(repeats: int = 3) -> None:
    from densityk import evaluate_corpus
    from tracing import NullTracer
    from workloads import GridTable1

    grid = GridTable1()
    grid.setup(42, NullTracer())
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(repeats):
        for n in (1, 2):
            start = time.perf_counter()
            evaluate_corpus(grid.docs, grid.cells, workers=n)
            times[n].append(time.perf_counter() - start)
    for n, values in times.items():
        print(f"workers={n}: median {statistics.median(values):.2f} s of {[round(v, 2) for v in values]}")


def sizes() -> None:
    from densityk import densityk_pipeline
    from densityk.synth import SynthSpec, synth_generate

    for mentions in (35, 55, 75):
        doc = synth_generate(SynthSpec(n_docs=1, mentions_per_doc=mentions, decoys_per_mention=(30, 30), seed=42))[0]
        n = sum(len(m.candidates) for m in doc.mentions)
        latencies = []
        for _ in range(5):
            start = time.perf_counter()
            densityk_pipeline(doc, 100.0)
            latencies.append(time.perf_counter() - start)
        tracemalloc.start()
        densityk_pipeline(doc, 100.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"n={n}: median {statistics.median(latencies) * 1e3:.0f} ms, traced peak {peak / 1e6:.1f} MB")


def spread(paths: list[str]) -> None:
    """IQR over median of each metric across result records, as the
    acceptance rule computes it."""
    values: dict[str, list[float]] = {}
    for path in paths:
        for name, metric in json.load(open(path))["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, v in values.items():
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"{name:16s} median {med:12.4f}  IQR/median {(q[2] - q[0]) / med:.4f}  ({len(v)} runs)")


if __name__ == "__main__":
    run.import_program()
    what = sys.argv[1]
    if what == "spread":
        spread(sys.argv[2:])
    else:
        {"drift": drift, "workers": workers, "sizes": sizes}[what]()
