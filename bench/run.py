"""Benchmark of densityk on three seeded workloads.

    python3 bench/run.py --workload small-docs --seed 42 --seconds 25 --trace 0

Runs from any directory of a checkout; the package is imported from the
checkout's ``src``. One process, one thread. A run:

1. sets up ``SETUP_REPEATS`` times (generate inputs with ``synth``,
   serialise them, let the program parse them, warm up) and reports the
   median as ``setup_s``, plus the one-off package import;
2. repeats whole rounds of the workload's operations for ``--seconds``
   (and at least ``timing.MIN_OPS`` operations), timing each one and
   timing the host-speed reference jobs about every half second;
3. repeats one round under ``tracemalloc``: for ``peak_alloc_mb`` in an
   untraced run, for the per-stage peaks in a traced one;
4. checks one round of outputs, and that every round gave byte-identical
   canonical output.

Timings are reported at the reference host speed (see ``timing.py``).
The last line of standard output is the result as one JSON object; a
fuller record, and with ``--trace 1`` every span, go to ``bench/out/``.
See ``bench/README.md`` for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
# each workload's tail percentile: the highest with at least ten samples
# beyond it, within a 100-operation round of small-docs, within a
# 2,200-operation round of grid-table1, and over a run's (at least 40)
# large-docs operations
TAIL_PERCENTILE = {"small-docs": 90.0, "large-docs": 75.0, "grid-table1": 99.5}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import densityk from this checkout's ``src``; returns the seconds taken."""
    if not (SRC_DIR / "densityk" / "__init__.py").is_file():
        sys.exit(f"bench: no densityk package under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    start = time.perf_counter()
    import densityk  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(densityk.__file__).resolve().parent != SRC_DIR / "densityk":
        sys.exit(f"bench: densityk imported from {densityk.__file__}, not {SRC_DIR}")
    return elapsed


def main(argv=None) -> int:
    run_start = time.perf_counter()
    args = parse_args(argv)
    import_s = import_program()

    from densityk import DensityKError
    from timing import MIN_OPS, HostSpeed, tail
    from tracing import NullTracer, PeakRecorder, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    percentile = TAIL_PERCENTILE[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    host = HostSpeed()

    # set-up, repeated; each repeat is scaled by the calibrations around it,
    # as interpreted work (synth dominates it)
    calibration = host.calibrate(0)
    import_factor = host.factor(calibration, calibration, 0.0)
    setup_times, synth_times = [], []
    for _ in range(SETUP_REPEATS):
        spans_before = len(tracer.spans) if args.trace else 0
        before = host.calibrate(0)
        start = time.perf_counter()
        workload.setup(args.seed, tracer)
        for key in workload.warmup_keys():
            workload.canonical(workload.run(key))
        elapsed = time.perf_counter() - start
        factor = host.factor(before, host.calibrate(0), 0.0)
        setup_times.append(elapsed * factor)
        if args.trace:
            synth = tracer.spans[spans_before:]
            synth_times.append(factor * sum(s[2] - s[1] for s in synth if s[0] == "synth.synth_generate"))
    host.log.clear()

    # timed phase: whole rounds of the same operations
    keys = workload.keys()
    op_log: list[tuple[int, float]] = []  # (operation index in the round, seconds)
    shares: list[float] = []  # each operation's array share
    round_ends: list[int] = []
    first: list[str | None] = [None] * len(keys)
    failed = mismatched = stage_mismatched = 0
    if args.trace:
        tracer.counts.clear()
    gc.collect()
    host.calibrate(0)
    phase_start = time.perf_counter()
    while True:
        for k, key in enumerate(keys):
            tracer.op = len(op_log)
            start = time.perf_counter()
            try:
                out = tracer.call("op", workload.traced, key, tracer) if args.trace else workload.run(key)
            except DensityKError:
                failed += 1
                continue
            op_log.append((k, time.perf_counter() - start))
            shares.append(workload.array_share(key))
            canonical = workload.canonical(out)
            if first[k] is None:
                first[k] = canonical
            elif canonical != first[k]:
                mismatched += 1
            if args.trace and canonical != workload.reference(key, tracer):
                stage_mismatched += 1
            if host.due():
                host.calibrate(len(op_log))
        round_ends.append(len(op_log))
        if time.perf_counter() - phase_start >= args.seconds and len(round_ends) * len(keys) >= MIN_OPS:
            break
    host.calibrate(len(op_log))
    phase_s = time.perf_counter() - phase_start
    factors = host.factors(shares)

    # one more round under tracemalloc: whole operations, or each stage call
    peak_start = time.perf_counter()
    peaks = PeakRecorder()
    op_peak = 0
    tracemalloc.start()
    for k, key in enumerate(keys):
        if first[k] is None:  # failed in every round
            continue
        if args.trace:
            out = workload.traced(key, peaks)
        else:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = workload.run(key)
            op_peak = max(op_peak, tracemalloc.get_traced_memory()[1] - base)
        if workload.canonical(out) != first[k]:
            mismatched += 1
    tracemalloc.stop()

    problems = []
    check_start = time.perf_counter()
    check_before = host.calibrate(0)
    if None in first:
        problems.append("an operation never completed")
    else:
        problems += workload.check(first, tracer)
    # the check phase (evaluate_corpus) does the round's mix of work
    mean_share = sum(t * w for (_, t), w in zip(op_log, shares)) / sum(t for _, t in op_log)
    check_factor = host.factor(check_before, host.calibrate(0), mean_share)
    check_s = time.perf_counter() - check_start
    if mismatched:
        problems.append(f"{mismatched} outputs differ from the first round's canonical output")
    if stage_mismatched:
        problems.append(f"{stage_mismatched} stage-built results differ from the program's")

    scaled = [t * f for (_, t), f in zip(op_log, factors)]
    rounds = [scaled[a:b] for a, b in zip([0] + round_ends, round_ends)]
    if args.trace:
        metrics = layer_metrics(tracer, peaks, len(rounds), factors, check_factor, synth_times, scaled)
    else:
        samples = sorted(scaled)
        metrics = {
            "ops_per_s": (len(keys) / statistics.median(sum(r) for r in rounds), "1/s"),
            "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "op_tail_ms": (tail(rounds, percentile) * 1e3, "ms"),
            "peak_alloc_mb": (op_peak / 1e6, "MB"),
            "setup_s": (import_s * import_factor + statistics.median(setup_times), "s"),
        }
    result = {
        "correct": not problems,
        "attempted": len(round_ends) * len(keys),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "result": result,
        "problems": problems[:50],
        "rounds": len(round_ends),
        "phase_s": phase_s,
        "peak_pass_s": check_start - peak_start,
        "check_s": check_s,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "tail_percentile": percentile,
        "round_ends": round_ends,
        "op_log": op_log,
        "calibrations": host.log,
        "wall_s": time.perf_counter() - run_start,
    }
    write_outputs(args, record, tracer if args.trace else None)
    for problem in problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


LAYER_TIMES = [
    "corpus.load_document",
    "corpus.to_point_cloud",
    "geo.pairwise_distances",
    "kfunction.compute_k_function",
    "kfunction.derive_cluster_distance",
    "clustering.form_clusters",
    "clustering.rank_clusters",
    "clustering.disambiguate",
    "clustering.densityk_pipeline",
    "baselines.omd",
    "baselines.dbscan",
    "baselines.kdist_epsilon",
    "baselines.centroid_heuristic",
    "baselines.dtur",
    "evaluation.score_document",
    "export.result_to_dict",
    "export.to_canonical_json",
]
LAYER_COUNTS = [
    "corpus.candidates",
    "geo.pairs",
    "kfunction.rings",
    "clustering.edges",
    "clustering.clusters",
    "clustering.failed_mentions",
    "baselines.omd_combinations",
    "export.bytes",
]
LAYER_PEAKS = ["geo.pairwise_distances", "clustering.form_clusters", "baselines.omd"]


def layer_metrics(tracer, peaks, rounds: int, factors, check_factor, synth_times, scaled) -> dict:
    """Per-layer figures of a traced run, at the reference speed. Times and
    counts are per round, i.e. per pass over the workload's fixed inputs."""
    from tracing import CHECK

    busy: dict[str, float] = {}
    for name, start, end, _, op in tracer.spans:
        if op >= 0:
            busy[name] = busy.get(name, 0.0) + (end - start) * factors[op]
    metrics = {f"{n}_ms": (busy.get(n, 0.0) / rounds * 1e3, "ms") for n in LAYER_TIMES}
    evaluate_s = tracer.busy("evaluation.evaluate_corpus", lambda op: op == CHECK)
    metrics["evaluation.evaluate_corpus_ms"] = (evaluate_s * check_factor * 1e3, "ms")
    metrics["synth.synth_generate_ms"] = (statistics.median(synth_times) * 1e3, "ms")
    for n in LAYER_COUNTS:
        metrics[n] = (tracer.counts[n] // rounds, "count")
    pairs = tracer.counts["geo.pairs"]
    metrics["clustering.edge_ratio"] = (tracer.counts["clustering.edges"] / pairs if pairs else 0.0, "ratio")
    for n in LAYER_PEAKS:
        metrics[f"{n}_peak_mb"] = (peaks.peaks[n] / 1e6, "MB")
    metrics["trace.ops_per_s"] = (len(scaled) / sum(scaled), "1/s")
    return metrics


def write_outputs(args, record: dict, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record) + "\n")
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
