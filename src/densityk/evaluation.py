"""The algorithm registry, ground-truth scoring and corpus-level grid
evaluation.

Precision per document is the fraction of ground-truth mentions resolved
to their true entry; failures count against precision. Distance error is
the mean great-circle distance (km) between the selected and true entry
locations, over resolved mentions with truth only. Corpus aggregates are
macro (unweighted per-document) averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .baselines import centroid_heuristic, dbscan_disambiguate, dtur, kdist_disambiguate, omd
from .clustering import DisambiguationResult, densityk_pipeline
from .corpus import DocumentInput
from .errors import DensityKError, MissingTruthError
from .geo import haversine
from .params import CAP, DELTA_D, EPSILON, K, MEASURE, MIN_PTS, UPPER_BOUND, WORKERS, Param

ParamsTuple = tuple[tuple[str, float | int | str], ...]


class Algorithm:
    """An entry point, called as ``run(doc, **params)``, and by name the
    parameters it checks its arguments with."""

    def __init__(self, run: Callable[..., DisambiguationResult], *params: Param) -> None:
        self.run = run
        self.params = {param.name: param for param in params}


ALGORITHMS: dict[str, Algorithm] = {
    "densityk": Algorithm(densityk_pipeline, DELTA_D, UPPER_BOUND),
    "dbscan": Algorithm(dbscan_disambiguate, EPSILON, MIN_PTS),
    "kdist": Algorithm(kdist_disambiguate, K, MIN_PTS),
    "omd": Algorithm(omd, MEASURE, CAP),
    "centroid": Algorithm(centroid_heuristic),
    "dtur": Algorithm(dtur),
}


@dataclass(frozen=True)
class AlgorithmConfig:
    """One grid cell: an algorithm name plus its parameter values.

    Construction checks the name and every parameter against ``ALGORITHMS``
    and raises ``ValueError`` for an unknown name or parameter, a parameter
    given twice, a missing required parameter or a bad value (see
    :meth:`~densityk.params.Param.validate`; a value outside the domain gets
    the entry point's message after the algorithm's name).
    """

    algorithm: str
    params: ParamsTuple = ()

    def __post_init__(self) -> None:
        entry = ALGORITHMS.get(self.algorithm)
        if entry is None:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; known: {', '.join(ALGORITHMS)}"
            )
        seen: set[str] = set()
        for name, value in self.params:
            spec = entry.params.get(name)
            if spec is None:
                takes = ", ".join(entry.params) or "none"
                raise ValueError(f"{self.algorithm} has no parameter {name!r}; it takes: {takes}")
            if name in seen:
                raise ValueError(f"{self.algorithm} parameter {name!r} is given twice")
            seen.add(name)
            spec.validate(value, f"{self.algorithm} ")
        missing = [name for name, spec in entry.params.items() if spec.required and name not in seen]
        if missing:
            raise ValueError(f"{self.algorithm} requires {' and '.join(missing)}")

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def key(self) -> str:
        if not self.params:
            return self.algorithm
        return self.algorithm + ":" + ",".join(f"{k}={v}" for k, v in self.params)


@dataclass(frozen=True)
class DocumentScore:
    doc_id: str
    precision: float
    avg_distance_error_km: float
    resolved_count: int
    failed_count: int
    truth_count: int
    correct_count: int


@dataclass(frozen=True)
class CellReport:
    """Aggregates of one (algorithm, parameters) cell over a corpus."""

    config: AlgorithmConfig
    scores: tuple[DocumentScore, ...]
    errors: tuple[tuple[str, str], ...] = ()  # (doc_id, error description)

    @property
    def macro_precision(self) -> float:
        if not self.scores:
            return 0.0
        return sum(s.precision for s in self.scores) / len(self.scores)

    @property
    def macro_distance_error_km(self) -> float:
        if not self.scores:
            return 0.0
        return sum(s.avg_distance_error_km for s in self.scores) / len(self.scores)


@dataclass(frozen=True)
class CorpusReport:
    cells: tuple[CellReport, ...]
    best_by_algorithm: dict[str, str] = field(default_factory=dict)  # algorithm -> cell key


def score_document(result: DisambiguationResult, doc: DocumentInput) -> DocumentScore:
    """Score one result against the document's ground truth."""
    if not doc.ground_truth:
        raise MissingTruthError(f"document {doc.doc_id!r} has no ground truth")
    truth = doc.ground_truth

    correct = 0
    resolved = 0
    failed = 0
    errors_km: list[float] = []
    for mention in doc.mentions:
        outcome = result.outcomes[mention.name]
        if not outcome.resolved:
            failed += 1
            continue
        resolved += 1
        true_entry = truth.get(mention.name)
        if true_entry is None:
            continue
        if outcome.entry_id == true_entry:
            correct += 1
            errors_km.append(0.0)  # the haversine of a point to itself
            continue
        chosen, true = (  # both are the mention's candidates (see DocumentInput)
            next(c.location for c in mention.candidates if c.entry_id == entry)
            for entry in (outcome.entry_id, true_entry)
        )
        errors_km.append(haversine(chosen, true) / 1000.0)
    truth_count = len(truth)
    return DocumentScore(
        doc_id=doc.doc_id,
        precision=correct / truth_count,
        avg_distance_error_km=sum(errors_km) / len(errors_km) if errors_km else 0.0,
        resolved_count=resolved,
        failed_count=failed,
        truth_count=truth_count,
        correct_count=correct,
    )


def run_algorithm(doc: DocumentInput, config: AlgorithmConfig) -> DisambiguationResult:
    """Run one configured algorithm (density pipeline or a baseline)."""
    entry = ALGORITHMS[config.algorithm]
    return entry.run(doc, **{name: entry.params[name].kind(value) for name, value in config.params})


def _evaluate_cell(docs: list[DocumentInput], config: AlgorithmConfig) -> CellReport:
    scores: list[DocumentScore] = []
    errors: list[tuple[str, str]] = []
    for doc in docs:
        try:
            scores.append(score_document(run_algorithm(doc, config), doc))
        except DensityKError as exc:
            errors.append((doc.doc_id, f"{type(exc).__name__}: {exc}"))
        except ValueError as exc:  # delta_d past the ring limits of this document's distances
            raise ValueError(f"cell {config.key}: {exc}") from exc
    return CellReport(config=config, scores=tuple(scores), errors=tuple(errors))


def check_cells(configs: list[AlgorithmConfig]) -> None:
    """Raise ``ValueError`` naming the first key given twice: a report holds
    one cell a key, as written (``epsilon=2000`` and ``2000.0`` are two)."""
    keys = [config.key for config in configs]
    for k, key in enumerate(keys):
        if key in keys[:k]:
            raise ValueError(f"cell {key} is given twice")


def evaluate_corpus(
    docs: list[DocumentInput],
    configs: list[AlgorithmConfig],
    workers: int = 1,
) -> CorpusReport:
    """Run every configured cell over the corpus and pick each algorithm's
    best cell (highest macro precision, ties to the lower distance error).

    Per-document algorithm errors are recorded as cell annotations; they
    never abort the run. Each cell scores the documents in ``doc_id`` order
    and a macro average counts each document once, so a ``doc_id`` given
    twice is refused with ``ValueError``, as is a repeated cell key (see
    :func:`check_cells`).

    Every document runs in the calling thread. ``workers`` is checked
    (at least 1) and has no other effect. The cells are many small numpy
    calls that hold the interpreter lock, and threads were slower on every
    corpus measured (2 vCPUs, one BLAS thread): the ``table1`` grid took
    0.43 s serially on 100 seed-42 documents, 0.80 s with 2 threads and
    1.08 s with 8, and 2.5-3.5 s on 1,000 documents against 5.0-7.0 s
    with 2; the ``densityk`` and ``dbscan`` cells on 8 documents of 1,705
    candidates took 0.226 s against 0.233 s with 2.
    """
    check_cells(configs)
    WORKERS.check(workers)
    docs = sorted(docs, key=lambda d: d.doc_id)
    for before, doc in zip(docs, docs[1:]):
        if doc.doc_id == before.doc_id:
            raise ValueError(f"document {doc.doc_id!r} is given twice")
    cells = tuple(_evaluate_cell(docs, config) for config in configs)

    best: dict[str, str] = {}
    best_key: dict[str, tuple[float, float]] = {}
    for cell in cells:
        algo = cell.config.algorithm
        key = (-cell.macro_precision, cell.macro_distance_error_km)
        if algo not in best or key < best_key[algo]:
            best[algo] = cell.config.key
            best_key[algo] = key
    return CorpusReport(cells=cells, best_by_algorithm=best)


def table1_grid() -> list[AlgorithmConfig]:
    """The benchmark parameter grid: every tested epsilon/MinPts/k value,
    plus the parameterless algorithms."""
    configs: list[AlgorithmConfig] = [AlgorithmConfig("densityk", (("delta_d", 100.0),))]
    for epsilon in (200.0, 2000.0, 20000.0):
        for min_pts in (1, 5, 10):
            configs.append(
                AlgorithmConfig("dbscan", (("epsilon", epsilon), ("min_pts", min_pts)))
            )
    for k in (5, 10, 25):
        for min_pts in (1, 5, 10):
            configs.append(AlgorithmConfig("kdist", (("k", k), ("min_pts", min_pts))))
    configs.append(AlgorithmConfig("omd", (("measure", "avg_pairwise"),)))
    configs.append(AlgorithmConfig("centroid"))
    configs.append(AlgorithmConfig("dtur"))
    return configs


GRID_PRESETS = {"table1": table1_grid}


def report_to_dict(report: CorpusReport) -> dict:
    return {
        "cells": [
            {
                "algorithm": cell.config.algorithm,
                "params": cell.config.param_dict,
                "key": cell.config.key,
                "macro_precision": cell.macro_precision,
                "macro_distance_error_km": cell.macro_distance_error_km,
                "documents": [
                    {
                        "doc_id": s.doc_id,
                        "precision": s.precision,
                        "avg_distance_error_km": s.avg_distance_error_km,
                        "resolved": s.resolved_count,
                        "failed": s.failed_count,
                        "truth_count": s.truth_count,
                        "correct": s.correct_count,
                    }
                    for s in cell.scores
                ],
                "errors": [
                    {"doc_id": doc_id, "error": message} for doc_id, message in cell.errors
                ],
            }
            for cell in report.cells
        ],
        "best_by_algorithm": dict(sorted(report.best_by_algorithm.items())),
    }


def _csv_line(fields) -> str:
    # csv.writer's minimal quoting, but a field holding a carriage return is
    # quoted too: with "\n" line ends csv.writer leaves a bare \r, which
    # csv.reader takes for the end of the row
    quoted = (
        '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\n\r') else text
        for text in map(str, fields)
    )
    return ",".join(quoted) + "\n"


def report_to_csv(report: CorpusReport) -> str:
    """One row per configuration and document; a field is quoted only where
    it holds a comma, a quote, a newline or a carriage return."""
    return "".join(_csv_lines(report))


def _csv_lines(report: CorpusReport):
    # report_to_csv's text a line at a time, so a writer holds one line
    # rather than the whole text
    yield _csv_line(("doc_id", "algorithm", "params", "precision", "avg_distance_error_km", "resolved", "failed"))
    for cell in report.cells:
        params = ";".join(f"{k}={v}" for k, v in cell.config.params)
        for s in cell.scores:
            scores = (repr(s.precision), repr(s.avg_distance_error_km), s.resolved_count, s.failed_count)
            yield _csv_line((s.doc_id, cell.config.algorithm, params, *scores))
