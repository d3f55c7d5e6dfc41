"""The phases of one ``densityk disambiguate`` request on a small document,
timed at two revisions, interleaved.

    python3 tools/request_phases.py BASE [HEAD] [--rounds N]

Run it inside the repository; ``tools/revisions.py`` sets out BASE, HEAD,
the two workers and the interleaved rounds. The requests are the
benchmark's ``small-docs`` documents of seed 42, each sent as its
canonical JSON bytes: each worker builds them with ``SmallDocs().setup(42,
NullTracer())`` from this checkout's ``bench/workloads.py``, which it only
reads, against its revision's ``densityk``.

A request is ``densityk_pipeline`` split at its stages, each timed with
``time.perf_counter`` (a profiler's hooks inflate the short phases):

- ``json.loads`` of the bytes;
- ``document_from_dict``;
- ``to_point_cloud``, which builds the cloud's points;
- the density curve with its threshold, its pair distances included;
- the single linkage at the threshold;
- ``clustering._resolve``: ranking and resolving the mentions;
- ``result_to_dict``;
- ``to_canonical_json``, the writer.

Before any timing each worker checks that the split request writes the
pipeline's own text for every document, and the two workers' texts are
checked equal. Every round times each document once in each worker and
takes each phase's mean over the documents; the table gives each phase's
median microseconds over the rounds at each revision and their ratio.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import revisions

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 42
PHASES = ["json.loads", "document_from_dict", "cloud", "curve", "linkage", "_resolve", "result_to_dict", "writer"]


def _worker(src: str) -> None:
    # Serves one revision: builds the requests, prints a digest of their
    # texts, then answers each "round" line with the phases' mean
    # microseconds per request.
    sys.path[:0] = [src, str(BENCH)]
    from densityk import geo
    from densityk.clustering import _dbscan_groups, _resolve, densityk_pipeline
    from densityk.corpus import document_from_dict, load_document, to_canonical_json, to_point_cloud
    from densityk.export import result_to_dict
    from densityk.kfunction import _blocked_k_function, with_cluster_distance
    from tracing import NullTracer
    from workloads import DELTA_D, SmallDocs

    workload = SmallDocs()
    workload.setup(SEED, NullTracer())
    payloads = workload.payloads
    clock = time.perf_counter

    def request(payload: bytes, spent: list[float]) -> str:
        t0 = clock()
        raw = json.loads(payload)
        t1 = clock()
        doc = document_from_dict(raw)
        t2 = clock()
        cloud = to_point_cloud(doc)
        t3 = clock()
        kf = with_cluster_distance(_blocked_k_function(len(cloud), DELTA_D, *geo._rings_within(cloud, DELTA_D, None)))
        t4 = clock()
        labels = _dbscan_groups(cloud, kf.cluster_distance, 1)
        t5 = clock()
        result = _resolve(doc, cloud, labels, kf)
        t6 = clock()
        out = result_to_dict(result)
        t7 = clock()
        text = to_canonical_json(out)
        t8 = clock()
        for k, (a, b) in enumerate(zip((t0, t1, t2, t3, t4, t5, t6, t7), (t1, t2, t3, t4, t5, t6, t7, t8))):
            spent[k] += b - a
        return text

    digest = hashlib.sha256()
    for payload in payloads:
        text = request(payload, [0.0] * len(PHASES))
        if text != to_canonical_json(result_to_dict(densityk_pipeline(load_document(payload), DELTA_D))):
            raise SystemExit(f"{src}: the split request writes another text than the pipeline")
        digest.update(text.encode())

    def answer(_):
        spent = [0.0] * len(PHASES)
        for payload in payloads:
            request(payload, spent)
        return [s / len(payloads) * 1e6 for s in spent]

    revisions.serve(digest.hexdigest(), answer)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        _worker(argv[1])
        return 0
    base, head, (rounds,) = revisions.command_line(__file__, argv, {"--rounds N": 15})
    with revisions.workers(__file__, base, head) as workers:
        revisions.agree([w.first for w in workers], "the two revisions write different texts")
        times = revisions.rounds(workers, rounds, ["round"])["round"]
    head_label = head or "working tree"
    print(f"one small-docs request by phase, seed {SEED}, mean over 100 documents, median of {rounds} rounds")
    print(f"{'phase':<22}{base[:12]:>14}{head_label[:12]:>14}{'ratio':>8}")
    rows = [(name, [statistics.median(t[p] for t in times[k]) for k in (0, 1)]) for p, name in enumerate(PHASES)]
    rows.append(("total", [statistics.median(sum(t) for t in times[k]) for k in (0, 1)]))
    for name, us in rows:
        print(f"{name:<22}{us[0]:>11.1f} us{us[1]:>11.1f} us{us[1] / us[0]:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
