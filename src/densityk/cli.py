"""Command-line surface.

Exit codes: 0 success; 1 input, schema, or configuration errors, a
command line that does not parse, or an output that cannot be written;
2 algorithm errors (infeasible instances such as a combination explosion
or a document with no unambiguous anchor).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .baselines import AVG_PAIRWISE, DEFAULT_COMBINATION_CAP, HULL_AREA
from .corpus import load_corpus, load_document_file
from .errors import DensityKError, DocumentParseError, DocumentSchemaError
from .evaluation import (
    ALGORITHMS,
    GRID_PRESETS,
    AlgorithmConfig,
    check_cells,
    evaluate_corpus,
    report_to_csv,
    report_to_dict,
    run_algorithm,
)
from .export import (
    _kfunction_csv_pieces,
    clusters_to_geojson,
    result_to_dict,
    to_canonical_json,
)
from .kfunction import DEFAULT_DELTA_D_M, _check_curve_args
from .params import WORKERS
from .synth import SynthSpec, synth_generate, write_corpus

_INPUT_ERRORS = (DocumentParseError, DocumentSchemaError)
_MEASURES = {"avg": AVG_PAIRWISE, "hull": HULL_AREA}


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextmanager
def _writing(path: Path):
    """Exit 1 when the writes in the block cannot write ``path``."""
    try:
        yield
    except OSError as exc:
        _fail(1, f"cannot write {path}: {exc}")


def _config(algorithm: str, flags: dict) -> AlgorithmConfig:
    """The flags the algorithm takes, left out when unset, as its config."""
    params = tuple(
        (name, flags[name]) for name in ALGORITHMS[algorithm].params if flags[name] is not None
    )
    try:
        return AlgorithmConfig(algorithm=algorithm, params=params)
    except ValueError as exc:
        _fail(1, str(exc))


def _on_document(input_path: Path, stage):
    """Load one document and return ``stage(doc)``, exiting 1 on bad input
    or a ``delta_d`` past its ring limits and 2 on an algorithm error."""
    try:
        doc = load_document_file(input_path)
    except _INPUT_ERRORS as exc:
        _fail(1, str(exc))
    except OSError as exc:
        _fail(1, f"cannot read {input_path}: {exc}")
    try:
        return stage(doc)
    except ValueError as exc:  # delta_d past the ring limits of this document's distances
        _fail(1, f"{input_path}: {exc}")
    except DensityKError as exc:
        _fail(2, f"{input_path}: {exc}")


def _algorithm_options(fn):
    fn = click.option("--epsilon", type=float, default=None, help="DBSCAN neighborhood distance, meters.")(fn)
    fn = click.option("--min-pts", type=int, default=None, help="DBSCAN minimum points per cluster.")(fn)
    fn = click.option("--k", type=int, default=None, help="Neighbor rank for the auto-epsilon rule.")(fn)
    fn = click.option("--delta-d", type=float, default=DEFAULT_DELTA_D_M, show_default=True, help="Density curve discretization step, meters.")(fn)
    fn = click.option("--upper-bound", type=float, default=None, help="Optional pair-distance cutoff, meters.")(fn)
    fn = click.option("--measure", type=click.Choice(list(_MEASURES)), default="avg", show_default=True, callback=lambda _ctx, _param, value: _MEASURES[value], help="Minimum-distance objective.")(fn)
    fn = click.option("--cap", type=int, default=DEFAULT_COMBINATION_CAP, show_default=True, help="Most combinations OMD accepts (the product of the candidate counts), checked before the search.")(fn)
    fn = click.option("--algorithm", type=click.Choice(list(ALGORITHMS)), default="densityk", show_default=True)(fn)
    return fn


class _Commands(click.Group):
    # a command line that does not parse is an input error: one line, exit 1
    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.exceptions.NoArgsIsHelpError as exc:  # no command: the command list
            exc.show()
            sys.exit(1)
        except click.ClickException as exc:
            _fail(1, exc.format_message())
        except click.Abort:
            _fail(1, "aborted")


@click.group(cls=_Commands)
def main() -> None:
    """Disambiguate fine-grained place names by clustering their candidate
    locations."""


@main.command()
@click.option("--input", "input_path", type=click.Path(path_type=Path), required=True)
@click.option("--output", "output_path", type=click.Path(path_type=Path), required=True)
@_algorithm_options
def disambiguate(algorithm, input_path, output_path, **flags) -> None:
    """Resolve one document to a result JSON with one outcome per mention."""
    config = _config(algorithm, flags)
    result = _on_document(input_path, lambda doc: run_algorithm(doc, config))
    payload = result_to_dict(result)
    payload["algorithm"] = config.algorithm
    payload["params"] = config.param_dict
    with _writing(output_path):
        output_path.write_text(to_canonical_json(payload), encoding="utf-8")


@main.command()
@click.option("--corpus", "corpus_path", type=click.Path(path_type=Path), required=True, help="Directory of document JSON files or a JSON-lines file.")
@click.option("--output", "output_path", type=click.Path(path_type=Path), required=True)
@click.option("--grid", "grid_name", type=click.Choice(list(GRID_PRESETS)), default=None, help="Named grid preset.")
@click.option("--cell", "cells", multiple=True, help="Explicit cell, e.g. dbscan:epsilon=2000,min_pts=5. Repeatable.")
@click.option("--csv", "csv_path", type=click.Path(path_type=Path), default=None, help="Also write the flattened per-document CSV here.")
@click.option("--workers", type=int, default=1, show_default=True, help="Checked (at least 1) and otherwise ignored: every document runs in one thread, as threads were slower (table1 grid, 100 documents, 2 vCPUs: 0.43 s serial, 0.80 s with 2 threads, 1.08 s with 8).")
def evaluate(corpus_path, output_path, grid_name, cells, csv_path, workers) -> None:
    """Run an algorithm grid over a ground-truthed corpus and report
    per-cell macro precision and distance error."""
    configs: list[AlgorithmConfig] = []
    if grid_name is not None:
        configs.extend(GRID_PRESETS[grid_name]())
    for cell in cells:
        try:
            configs.append(_parse_cell(cell))
        except ValueError as exc:
            _fail(1, f"bad --cell {cell!r}: {exc}")
    if not configs:
        _fail(1, "no cells to evaluate; pass --grid or --cell")
    try:
        check_cells(configs)
        WORKERS.check(workers)
    except ValueError as exc:
        _fail(1, str(exc))
    try:
        docs = load_corpus(corpus_path)
    except _INPUT_ERRORS as exc:
        _fail(1, str(exc))
    except OSError as exc:
        _fail(1, f"cannot read corpus {corpus_path}: {exc}")
    if not docs:
        _fail(1, f"corpus {corpus_path} holds no documents")
    missing = [d.doc_id for d in docs if not d.ground_truth]
    if missing:
        _fail(1, f"documents without ground truth cannot be evaluated: {missing[:5]}")
    try:
        report = evaluate_corpus(docs, configs, workers=workers)
    except ValueError as exc:  # a doc_id given twice, or a cell's delta_d past the ring limits of a document
        _fail(1, str(exc))
    with _writing(output_path):
        output_path.write_text(to_canonical_json(report_to_dict(report)), encoding="utf-8")
    if csv_path is not None:
        with _writing(csv_path):
            csv_path.write_text(report_to_csv(report), encoding="utf-8")


def _parse_cell(text: str) -> AlgorithmConfig:
    algorithm, _, rest = text.partition(":")
    params: list[tuple[str, float | int | str]] = []
    if rest:
        for piece in rest.split(","):
            key, sep, value = piece.partition("=")
            if not sep:
                raise ValueError(f"expected key=value, got {piece!r}")
            key = key.strip()
            value = value.strip()
            try:
                parsed: float | int | str = int(value)
            except ValueError:
                try:
                    parsed = float(value)
                except ValueError:
                    parsed = value
            params.append((key, parsed))
    return AlgorithmConfig(algorithm=algorithm.strip(), params=tuple(params))


@main.command()
@click.option("--input", "input_path", type=click.Path(path_type=Path), required=True)
@click.option("--output", "output_path", type=click.Path(path_type=Path), required=True)
@click.option("--delta-d", type=float, default=DEFAULT_DELTA_D_M, show_default=True)
@click.option("--upper-bound", type=float, default=None)
def kfunction(input_path, output_path, delta_d, upper_bound) -> None:
    """Export a document's density curve and derived threshold as CSV: the
    curve the densityk pipeline derives its threshold from."""
    config = _config("densityk", {"delta_d": delta_d, "upper_bound": upper_bound})

    def curve(doc):
        kf = run_algorithm(doc, config).diagnostics
        if kf is None:  # a single candidate: no pair, no curve, refused by the curve's own check
            _check_curve_args(1, delta_d)
        return kf

    kf = _on_document(input_path, curve)
    # kfunction_to_csv's text, a piece at a time
    with _writing(output_path), output_path.open("w", encoding="utf-8") as out:
        out.writelines(_kfunction_csv_pieces(kf))


@main.command()
@click.option("--input", "input_path", type=click.Path(path_type=Path), required=True)
@click.option("--output", "output_path", type=click.Path(path_type=Path), required=True)
@_algorithm_options
def clusters(algorithm, input_path, output_path, **flags) -> None:
    """Export the clusters an algorithm derives for a document as GeoJSON."""
    config = _config(algorithm, flags)
    result = _on_document(input_path, lambda doc: run_algorithm(doc, config))
    with _writing(output_path):
        output_path.write_text(to_canonical_json(clusters_to_geojson(result)), encoding="utf-8")


@main.command()
@click.option("--output", "output_dir", type=click.Path(path_type=Path), required=True)
@click.option("--n-docs", type=int, default=SynthSpec.n_docs, show_default=True)
@click.option("--mentions", type=int, default=SynthSpec.mentions_per_doc, show_default=True)
@click.option("--decoys-min", type=int, default=SynthSpec.decoys_per_mention[0], show_default=True)
@click.option("--decoys-max", type=int, default=SynthSpec.decoys_per_mention[1], show_default=True)
@click.option("--context-radius", type=float, default=SynthSpec.context_radius, show_default=True)
@click.option("--decoy-separation", type=float, default=SynthSpec.min_decoy_separation, show_default=True)
@click.option("--decoy-distance", type=float, default=SynthSpec.min_decoy_distance_from_context, show_default=True)
@click.option("--seed", type=int, default=SynthSpec.seed, show_default=True)
def synth(output_dir, n_docs, mentions, decoys_min, decoys_max, context_radius, decoy_separation, decoy_distance, seed) -> None:
    """Generate a seeded synthetic corpus with planted ground truth."""
    try:
        spec = SynthSpec(
            n_docs=n_docs,
            mentions_per_doc=mentions,
            decoys_per_mention=(decoys_min, decoys_max),
            context_radius=context_radius,
            min_decoy_separation=decoy_separation,
            min_decoy_distance_from_context=decoy_distance,
            seed=seed,
        )
    except ValueError as exc:
        _fail(1, str(exc))
    try:
        docs = synth_generate(spec)
    except DensityKError as exc:
        _fail(2, str(exc))
    with _writing(output_dir):
        write_corpus(docs, output_dir)
    click.echo(f"wrote {len(docs)} documents to {output_dir}")


if __name__ == "__main__":
    main()
