"""Comparing the pipeline against the baseline heuristics.

A small ground-truthed synthetic corpus is scored under the full benchmark
grid: the density pipeline, DBSCAN over an epsilon/MinPts product, the
k-dist auto-epsilon variant, exhaustive minimum-distance search, centroid
filtering, and distance-to-unambiguous-referents.
"""

from densityk import evaluate_corpus, table1_grid
from densityk.synth import SynthSpec, synth_generate

corpus = synth_generate(SynthSpec(n_docs=20, seed=42))
report = evaluate_corpus(corpus, table1_grid())

print(f"{len(corpus)} documents x {len(report.cells)} grid cells\n")
print(f"{'cell':<34} {'precision':>9} {'err (km)':>9} {'errors':>7}")
for cell in report.cells:
    print(
        f"{cell.config.key:<34} {cell.macro_precision:>9.3f} "
        f"{cell.macro_distance_error_km:>9.2f} {len(cell.errors):>7}"
    )

print("\nbest cell per algorithm:")
for algorithm, key in sorted(report.best_by_algorithm.items()):
    print(f"  {algorithm:<10} {key}")
