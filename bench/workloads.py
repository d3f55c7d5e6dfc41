"""The three workloads: seeded inputs, the operation each one times, the
same operation built stage by stage for the traced run, and the checks of
its outputs.

Every workload exposes the same methods: ``setup`` builds the inputs from
a seed, ``keys`` lists the operations of one round, ``run`` performs one
operation through the program's own entry point, ``canonical`` turns its
output into canonical JSON, ``traced`` performs it by calling each stage's
public function under a tracer, ``reference`` gives the canonical output
of the program's own pipeline for the traced comparison, and ``check``
verifies one round of canonical outputs. ``array_share`` says how much of
an operation is large numpy passes rather than interpreted work, to weigh
the host-speed reference jobs (see ``timing.HostSpeed``).
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from densityk import (
    AlgorithmConfig,
    centroid_heuristic,
    compute_k_function,
    dbscan,
    densityk_pipeline,
    disambiguate,
    document_to_json,
    dtur,
    evaluate_corpus,
    form_clusters,
    kdist_epsilon,
    load_document,
    omd,
    pairwise_distances,
    rank_clusters,
    result_to_dict,
    run_algorithm,
    score_document,
    table1_grid,
    to_canonical_json,
    to_point_cloud,
    with_cluster_distance,
)
from densityk.clustering import DisambiguationResult
from densityk.synth import SynthSpec, synth_generate

import checks
from tracing import CHECK

DELTA_D = 100.0
DENSITYK = AlgorithmConfig("densityk", (("delta_d", DELTA_D),))


def _synth(tracer, spec: SynthSpec):
    return tracer.call("synth.synth_generate", synth_generate, spec)


# Mentions shaped like the default SynthSpec: 5 to 15 decoys each. The
# counts follow a fixed cycle instead of being drawn, so that every seed
# gives documents of the same sizes and the same amount of work; the seed
# moves only the locations.
DECOYS = (5, 15)
MENTIONS = 5


def _default_shaped(tracer, n_docs: int, seed: int, anchors: int = 0) -> list:
    """Documents of ``MENTIONS`` default-shaped mentions, followed by
    ``anchors`` mentions that keep only their planted candidate."""
    lo, hi = DECOYS
    spec = SynthSpec(n_docs=n_docs, mentions_per_doc=MENTIONS + anchors, decoys_per_mention=(hi, hi), seed=seed)
    docs = []
    for j, doc in enumerate(_synth(tracer, spec)):
        mentions = []
        for m, mention in enumerate(doc.mentions):
            keep = lo + (j * MENTIONS + m) % (hi - lo + 1) if m < MENTIONS else 0
            truth = doc.ground_truth[mention.name]
            decoys = {c.entry_id for c in mention.candidates if c.entry_id != truth}
            kept = set(sorted(decoys, key=lambda e: int(e.rsplit("_e", 1)[1]))[:keep]) | {truth}
            candidates = tuple(c for c in mention.candidates if c.entry_id in kept)
            mentions.append(dataclasses.replace(mention, candidates=candidates))
        docs.append(dataclasses.replace(doc, mentions=tuple(mentions)))
    return docs


def _serialise_and_load(tracer, docs) -> list:
    """What the program receives: the documents as JSON bytes, parsed by it."""
    payloads = [document_to_json(d).encode() for d in docs]
    return [tracer.call("corpus.load_document", load_document, p) for p in payloads]


def _failed_mentions(result: DisambiguationResult) -> int:
    return sum(1 for o in result.outcomes.values() if not o.resolved)


def densityk_stages(tr, doc, delta_d: float = DELTA_D) -> DisambiguationResult:
    """``densityk_pipeline`` rebuilt from the public stage functions."""
    cloud = tr.call("corpus.to_point_cloud", to_point_cloud, doc)
    distances = tr.call(
        "geo.pairwise_distances", pairwise_distances, [p.location for p in cloud.points]
    )
    kf = tr.call("kfunction.compute_k_function", compute_k_function, distances, len(cloud), delta_d)
    kf = tr.call("kfunction.derive_cluster_distance", with_cluster_distance, kf)
    clusters = tr.call("clustering.form_clusters", form_clusters, cloud, kf.cluster_distance)
    ranked = tr.call("clustering.rank_clusters", rank_clusters, clusters)
    result = tr.call("clustering.disambiguate", disambiguate, doc, ranked)
    tr.count("corpus.candidates", len(cloud))
    tr.count("geo.pairs", distances.count)
    tr.count("kfunction.rings", len(kf))
    tr.count("clustering.edges", int(np.searchsorted(distances.values, kf.cluster_distance, "right")))
    tr.count("clustering.clusters", len(clusters))
    tr.count("clustering.failed_mentions", _failed_mentions(result))
    return dataclasses.replace(result, diagnostics=kf)


def _canonical_result(result: DisambiguationResult) -> str:
    return to_canonical_json(result_to_dict(result))


def _check_density(docs, outputs: list[str], literal: bool) -> list[str]:
    problems = []
    for doc, output in zip(docs, outputs):
        cloud = checks.Cloud(doc)
        pairs = checks.pair_distances(cloud, literal)
        problems += checks.check_density_result(cloud, pairs, json.loads(output), DELTA_D)
    return problems


class SmallDocs:
    """The per-request path of ``densityk disambiguate``: JSON bytes in,
    canonical result JSON out."""

    name = "small-docs"
    N_DOCS = 100

    def setup(self, seed: int, tracer) -> None:
        self.docs = _default_shaped(tracer, self.N_DOCS, seed)
        self.payloads = [document_to_json(d).encode() for d in self.docs]

    def keys(self) -> list[int]:
        return list(range(len(self.payloads)))

    def warmup_keys(self) -> list[int]:
        return [0]

    def run(self, i: int) -> str:
        doc = load_document(self.payloads[i])
        return to_canonical_json(result_to_dict(run_algorithm(doc, DENSITYK)))

    def canonical(self, output: str) -> str:
        return output

    def array_share(self, i: int) -> float:
        return 0.0

    def traced(self, i: int, tr) -> str:
        doc = tr.call("corpus.load_document", load_document, self.payloads[i])
        result = densityk_stages(tr, doc)
        payload = tr.call("export.result_to_dict", result_to_dict, result)
        out = tr.call("export.to_canonical_json", to_canonical_json, payload)
        tr.count("export.bytes", len(out.encode()))
        return out

    def reference(self, i: int, tr) -> str:
        doc = load_document(self.payloads[i])
        return _canonical_result(tr.call("clustering.densityk_pipeline", densityk_pipeline, doc, DELTA_D))

    def check(self, outputs: list[str], tr) -> list[str]:
        return _check_density(self.docs, outputs, literal=True)


class LargeDocs:
    """``densityk_pipeline`` on one cloud of 1,705 candidates: 55 mentions
    of 31 candidates each, one of them planted in a 1 km context."""

    name = "large-docs"
    SPEC = dict(n_docs=1, mentions_per_doc=55, decoys_per_mention=(30, 30))

    def setup(self, seed: int, tracer) -> None:
        generated = _synth(tracer, SynthSpec(seed=seed, **self.SPEC))
        self.docs = _serialise_and_load(tracer, generated)

    def keys(self) -> list[int]:
        return list(range(len(self.docs)))

    def warmup_keys(self) -> list[int]:
        return [0]

    def run(self, i: int) -> DisambiguationResult:
        return densityk_pipeline(self.docs[i], DELTA_D)

    def canonical(self, result) -> str:
        return _canonical_result(result)

    def array_share(self, i: int) -> float:
        return 1.0

    def traced(self, i: int, tr) -> DisambiguationResult:
        return densityk_stages(tr, self.docs[i])

    def reference(self, i: int, tr) -> str:
        return _canonical_result(
            tr.call("clustering.densityk_pipeline", densityk_pipeline, self.docs[i], DELTA_D)
        )

    def check(self, outputs: list[str], tr) -> list[str]:
        return _check_density(self.docs, outputs, literal=False)


class GridTable1:
    """``densityk evaluate --grid table1``: every cell over 100 documents of
    five default-shaped mentions plus one unambiguous anchor mention. The
    anchor lets DTUR resolve; the five ambiguous mentions keep OMD's
    enumeration at up to 524,160 combinations a document, under its cap."""

    name = "grid-table1"
    N_DOCS = 100

    def setup(self, seed: int, tracer) -> None:
        self.cells = table1_grid()
        self.docs = _serialise_and_load(tracer, _default_shaped(tracer, self.N_DOCS, seed, anchors=1))

    def keys(self) -> list[tuple[int, int]]:
        return [(c, d) for c in range(len(self.cells)) for d in range(len(self.docs))]

    def warmup_keys(self) -> list[tuple[int, int]]:
        return [(c, 0) for c in range(len(self.cells))]

    def run(self, key: tuple[int, int]):
        doc, cell = self.docs[key[1]], self.cells[key[0]]
        result = run_algorithm(doc, cell)
        return result, score_document(result, doc)

    def canonical(self, output) -> str:
        result, score = output
        return to_canonical_json({"result": result_to_dict(result), "score": dataclasses.asdict(score)})

    def array_share(self, key: tuple[int, int]) -> float:
        # OMD enumerates in large numpy chunks; the other cells are small-cloud work
        return 1.0 if self.cells[key[0]].algorithm == "omd" else 0.0

    def traced(self, key: tuple[int, int], tr):
        doc, cell = self.docs[key[1]], self.cells[key[0]]
        params = cell.param_dict
        if cell.algorithm == "densityk":
            result = densityk_stages(tr, doc, float(params["delta_d"]))
        elif cell.algorithm in ("dbscan", "kdist"):
            cloud = tr.call("corpus.to_point_cloud", to_point_cloud, doc)
            tr.count("corpus.candidates", len(cloud))
            if cell.algorithm == "kdist":
                epsilon = tr.call("baselines.kdist_epsilon", kdist_epsilon, cloud, int(params["k"]))
            else:
                epsilon = float(params["epsilon"])
            clusters = tr.call("baselines.dbscan", dbscan, cloud, epsilon, int(params["min_pts"]))
            ranked = tr.call("clustering.rank_clusters", rank_clusters, clusters)
            result = tr.call("clustering.disambiguate", disambiguate, doc, ranked)
            tr.count("clustering.failed_mentions", _failed_mentions(result))
        elif cell.algorithm == "omd":
            tr.count("baselines.omd_combinations", math.prod(len(m.candidates) for m in doc.mentions))
            result = tr.call("baselines.omd", omd, doc, params["measure"])
        elif cell.algorithm == "centroid":
            result = tr.call("baselines.centroid_heuristic", centroid_heuristic, doc)
        else:
            result = tr.call("baselines.dtur", dtur, doc)
        return result, tr.call("evaluation.score_document", score_document, result, doc)

    def reference(self, key: tuple[int, int], tr) -> str:
        doc, cell = self.docs[key[1]], self.cells[key[0]]
        result = tr.call("evaluation.run_algorithm", run_algorithm, doc, cell)
        return self.canonical((result, score_document(result, doc)))

    def check(self, outputs: list[str], tr) -> list[str]:
        n = len(self.docs)
        parsed = [json.loads(o) for o in outputs]
        clouds = [checks.Cloud(doc) for doc in self.docs]
        largest_epsilon = max(float(c.param_dict.get("epsilon", 0)) for c in self.cells)
        problems = []
        for cloud in clouds:
            problems += checks.check_planted_construction(cloud, largest_epsilon)
        for c, cell in enumerate(self.cells):
            params = cell.param_dict
            # by the corpus's construction these cells must recover every planted entry
            must_recover = cell.algorithm in ("omd", "dtur") or (
                cell.algorithm == "dbscan"
                and float(params["epsilon"]) >= 2_000.0
                and int(params["min_pts"]) <= len(self.docs[0].mentions)
            )
            for d, cloud in enumerate(clouds):
                out = parsed[c * n + d]
                outcomes = out["result"]["outcomes"]
                if checks.precision(cloud, outcomes) != out["score"]["precision"]:
                    problems.append(f"{cell.key} {cloud.doc_id}: score_document precision differs")
                if must_recover and checks.precision(cloud, outcomes) != 1.0:
                    problems.append(f"{cell.key} {cloud.doc_id}: a planted entry was not recovered")
            if cell.algorithm == "densityk":
                cell_outputs = [to_canonical_json(p["result"]) for p in parsed[c * n : (c + 1) * n]]
                problems += _check_density(self.docs, cell_outputs, literal=True)

        tr.op = CHECK
        report = tr.call("evaluation.evaluate_corpus", evaluate_corpus, self.docs, self.cells)
        if [cell.config.key for cell in report.cells] != [c.key for c in self.cells]:
            problems.append("evaluate_corpus reports other cells than the grid")
        for c, cell in enumerate(report.cells):
            ops = [p["score"] for p in parsed[c * n : (c + 1) * n]]
            if cell.errors or [dataclasses.asdict(s) for s in cell.scores] != ops:
                problems.append(f"evaluate_corpus disagrees with the operations on {cell.config.key}")
        return problems


WORKLOADS = {w.name: w for w in (SmallDocs, LargeDocs, GridTable1)}
