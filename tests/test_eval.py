import csv
import io
import re
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densityk import (
    AlgorithmConfig,
    CloudPoint,
    DensityKError,
    MentionOutcome,
    MissingTruthError,
    OutcomeStatus,
    evaluate_corpus,
    run_algorithm,
    score_document,
    table1_grid,
    to_point_cloud,
)
from densityk import baselines, clustering, evaluation, geo
from densityk.clustering import DisambiguationResult
from densityk.evaluation import ALGORITHMS, report_to_csv, report_to_dict
from densityk.synth import SynthSpec, synth_generate
from conftest import make_document
from test_corpus import M_PER_DEG


def result_for(doc, outcomes: dict[str, MentionOutcome]) -> DisambiguationResult:
    return DisambiguationResult(doc_id=doc.doc_id, outcomes=outcomes, ranked_clusters=())


def resolved(entry_id: str) -> MentionOutcome:
    return MentionOutcome(OutcomeStatus.RESOLVED, entry_id=entry_id)


FAILED = MentionOutcome(OutcomeStatus.AMBIGUOUS_IN_TOP_CLUSTER)


class TestScoreDocument:
    def test_three_of_four_with_one_failure(self):
        doc = make_document(
            "s1",
            {name: [(0, 0), (10, 10)] for name in ("a", "b", "c", "d")},
            ground_truth={name: f"{name}_e0" for name in ("a", "b", "c", "d")},
        )
        result = result_for(
            doc,
            {
                "a": resolved("a_e0"),
                "b": resolved("b_e0"),
                "c": resolved("c_e0"),
                "d": FAILED,
            },
        )
        score = score_document(result, doc)
        assert score.precision == 0.75
        assert score.resolved_count == 3
        assert score.failed_count == 1
        assert score.correct_count == 3
        assert score.avg_distance_error_km == 0.0

    def test_distance_error_mean_over_wrong_choices(self):
        # wrong picks sit exactly 1 km and 3 km from the true entries
        doc = make_document(
            "s2",
            {
                "a": [(0, 0), (0, 1000 / M_PER_DEG)],
                "b": [(10, 10), (10 + 3000 / M_PER_DEG, 10)],
            },
            ground_truth={"a": "a_e0", "b": "b_e0"},
        )
        result = result_for(doc, {"a": resolved("a_e1"), "b": resolved("b_e1")})
        score = score_document(result, doc)
        assert score.precision == 0.0
        assert score.avg_distance_error_km == pytest.approx(2.0, rel=1e-9)

    def test_failures_excluded_from_distance_error(self):
        doc = make_document(
            "s3",
            {
                "a": [(0, 0), (0, 1000 / M_PER_DEG)],
                "b": [(10, 10), (40, 40)],
            },
            ground_truth={"a": "a_e0", "b": "b_e0"},
        )
        result = result_for(doc, {"a": resolved("a_e1"), "b": FAILED})
        score = score_document(result, doc)
        assert score.avg_distance_error_km == pytest.approx(1.0, rel=1e-9)

    def test_mention_without_truth_not_scored(self):
        doc = make_document(
            "s4",
            {"a": [(0, 0)], "extra": [(5, 5), (6, 6)]},
            ground_truth={"a": "a_e0"},
        )
        result = result_for(doc, {"a": resolved("a_e0"), "extra": resolved("extra_e1")})
        score = score_document(result, doc)
        assert score.precision == 1.0
        assert score.truth_count == 1
        assert score.avg_distance_error_km == 0.0

    def test_missing_truth(self):
        doc = make_document("s5", {"a": [(0, 0)]})
        with pytest.raises(MissingTruthError):
            score_document(result_for(doc, {"a": resolved("a_e0")}), doc)


def planted_corpus() -> list:
    docs = []
    for i in range(3):
        mentions = {}
        truth = {}
        for m in range(3):
            name = f"pl{m}"
            true = (i * 2.0 + m * 300 / M_PER_DEG, 40.0)
            decoy = (-50.0 + 10.0 * m, -100.0 + 15.0 * i)
            mentions[name] = [true, decoy]
            truth[name] = f"{name}_e0"
        docs.append(make_document(f"doc{i}", mentions, ground_truth=truth))
    return docs


class TestEvaluateCorpus:
    def test_cells_follow_config_order(self):
        docs = planted_corpus()
        configs = [
            AlgorithmConfig("dbscan", (("epsilon", 2000.0), ("min_pts", 2))),
            AlgorithmConfig("centroid"),
        ]
        report = evaluate_corpus(docs, configs)
        assert [c.config.key for c in report.cells] == [
            "dbscan:epsilon=2000.0,min_pts=2",
            "centroid",
        ]
        assert all(len(c.scores) == 3 for c in report.cells)

    def test_documents_sorted_by_doc_id(self):
        docs = list(reversed(planted_corpus()))
        report = evaluate_corpus(docs, [AlgorithmConfig("centroid")])
        assert [s.doc_id for s in report.cells[0].scores] == ["doc0", "doc1", "doc2"]

    def test_best_cell_by_precision(self):
        # epsilon 200 m cannot join the 300 m-spaced planted points, so its
        # cell scores zero; epsilon 2000 m resolves everything
        docs = planted_corpus()
        configs = [
            AlgorithmConfig("dbscan", (("epsilon", 200.0), ("min_pts", 2))),
            AlgorithmConfig("dbscan", (("epsilon", 2000.0), ("min_pts", 2))),
        ]
        report = evaluate_corpus(docs, configs)
        assert report.cells[0].macro_precision == 0.0
        assert report.cells[1].macro_precision == 1.0
        assert report.best_by_algorithm["dbscan"] == "dbscan:epsilon=2000.0,min_pts=2"

    def test_best_cell_exact_tie_keeps_first(self):
        docs = planted_corpus()
        configs = [
            AlgorithmConfig("densityk", (("delta_d", 100.0),)),
            AlgorithmConfig("densityk", (("delta_d", 250.0),)),
        ]
        report = evaluate_corpus(docs, configs)
        assert report.cells[0].macro_precision == report.cells[1].macro_precision
        assert report.best_by_algorithm["densityk"] == "densityk:delta_d=100.0"

    def test_algorithm_errors_recorded_not_raised(self):
        docs = planted_corpus()  # no single-candidate mentions, so dtur fails
        report = evaluate_corpus(docs, [AlgorithmConfig("dtur")])
        cell = report.cells[0]
        assert len(cell.scores) == 0
        assert [doc_id for doc_id, _ in cell.errors] == ["doc0", "doc1", "doc2"]
        assert all("NoAnchorsError" in msg for _, msg in cell.errors)

    def test_workers_do_not_change_report(self):
        docs = planted_corpus()
        configs = table1_grid()
        serial = report_to_dict(evaluate_corpus(docs, configs, workers=1))
        threaded = report_to_dict(evaluate_corpus(docs, configs, workers=4))
        assert serial == threaded

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            evaluate_corpus(planted_corpus(), [AlgorithmConfig("omd")], workers=workers)

    @pytest.mark.parametrize(
        "configs, key",
        [
            ([AlgorithmConfig("dbscan", (("epsilon", 2000), ("min_pts", 1))), AlgorithmConfig("centroid")] * 2,
             "dbscan:epsilon=2000,min_pts=1"),
            (table1_grid() + [AlgorithmConfig("densityk", (("delta_d", 100.0),))], "densityk:delta_d=100.0"),
        ],
    )
    def test_a_repeated_cell_is_refused_before_any_run(self, monkeypatch, configs, key):
        # the report holds one cell a key: the first key given twice is named
        monkeypatch.setattr(evaluation, "_evaluate_cell", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(ValueError) as refused:
            evaluate_corpus(planted_corpus(), configs)
        assert str(refused.value) == f"cell {key} is given twice"

    def test_keys_are_compared_as_written(self):
        # 2000 and 2000.0 are one value but two keys, so two cells
        configs = [AlgorithmConfig("dbscan", (("epsilon", e), ("min_pts", 1))) for e in (2000, 2000.0)]
        report = evaluate_corpus(planted_corpus(), configs)
        assert [c.config.key for c in report.cells] == ["dbscan:epsilon=2000,min_pts=1", "dbscan:epsilon=2000.0,min_pts=1"]


class TestTable1Grid:
    def test_cell_inventory(self):
        grid = table1_grid()
        by_algo: dict[str, int] = {}
        for cfg in grid:
            by_algo[cfg.algorithm] = by_algo.get(cfg.algorithm, 0) + 1
        assert by_algo == {
            "densityk": 1,
            "dbscan": 9,
            "kdist": 9,
            "omd": 1,
            "centroid": 1,
            "dtur": 1,
        }

    def test_dbscan_epsilon_minpts_product(self):
        params = {
            (cfg.param_dict["epsilon"], cfg.param_dict["min_pts"])
            for cfg in table1_grid()
            if cfg.algorithm == "dbscan"
        }
        assert params == {(e, m) for e in (200.0, 2000.0, 20000.0) for m in (1, 5, 10)}

    def test_keys_unique(self):
        keys = [cfg.key for cfg in table1_grid()]
        assert len(keys) == len(set(keys))


class TestAlgorithmConfig:
    def test_dbscan_requires_epsilon_and_min_pts(self):
        with pytest.raises(ValueError):
            AlgorithmConfig("dbscan", (("epsilon", 100.0),))

    def test_kdist_requires_k(self):
        with pytest.raises(ValueError):
            AlgorithmConfig("kdist", (("min_pts", 5),))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            AlgorithmConfig("voronoi")

    def test_bad_omd_measure(self):
        with pytest.raises(ValueError):
            AlgorithmConfig("omd", (("measure", "perimeter"),))

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="no parameter 'delta'"):
            AlgorithmConfig("densityk", (("delta", 50),))

    def test_non_integral_min_pts(self):
        with pytest.raises(ValueError, match="integer"):
            AlgorithmConfig("dbscan", (("epsilon", 2000), ("min_pts", 2.5)))

    @pytest.mark.parametrize(
        "params",
        [
            (("epsilon", "abc"), ("min_pts", 5)),
            (("epsilon", True), ("min_pts", 5)),
            (("epsilon", float("nan")), ("min_pts", 5)),
            (("epsilon", 2000), ("min_pts", 10**400)),
            (("epsilon", 1), ("epsilon", 2), ("min_pts", 5)),
        ],
    )
    def test_bad_values(self, params):
        with pytest.raises(ValueError):
            AlgorithmConfig("dbscan", params)

    def test_key_keeps_the_given_spelling(self):
        config = AlgorithmConfig("dbscan", (("epsilon", 2000), ("min_pts", 2.0)))
        assert config.key == "dbscan:epsilon=2000,min_pts=2.0"

    @given(
        st.sampled_from(sorted(ALGORITHMS) + ["voronoi", ""]),
        st.lists(
            st.tuples(
                st.sampled_from(["delta_d", "upper_bound", "epsilon", "min_pts", "k", "measure", "cap", "x"]),
                st.one_of(
                    st.none(),
                    st.booleans(),
                    st.integers(min_value=-10, max_value=10**12),
                    st.floats(),
                    st.sampled_from(["avg_pairwise", "hull_area", "hull", ""]),
                    st.text(max_size=4),
                ),
            ),
            max_size=3,
        ),
    )
    @example("densityk", [("delta_d", -1)])
    @example("kdist", [("k", 0), ("min_pts", 1)])
    @example("densityk", [("delta_d", 1e-300)])
    @settings(max_examples=200, deadline=None)
    def test_constructs_or_raises_value_error(self, algorithm, params):
        try:
            config = AlgorithmConfig(algorithm, tuple(params))
        except ValueError:
            return
        # a config that exists runs, or fails with an algorithm error or a
        # ring limit of the document's distances, never a parameter range
        try:
            run_algorithm(planted_corpus()[0], config)
        except DensityKError:
            pass
        except ValueError as exc:
            assert re.match(r"delta_d \S+ is too (small|large): ", str(exc)), exc


class TestRunAlgorithm:
    def test_densityk_params(self):
        doc = planted_corpus()[0]
        result = run_algorithm(doc, AlgorithmConfig("densityk", (("delta_d", 250),)))
        assert result.diagnostics is not None
        assert result.diagnostics.delta_d == 250.0
        assert isinstance(result.diagnostics.delta_d, float)

    def test_baseline_dispatch(self):
        doc = planted_corpus()[0]
        result = run_algorithm(doc, AlgorithmConfig("omd", (("measure", "avg_pairwise"),)))
        assert all(o.resolved for o in result.outcomes.values())

    def test_dispatch_each_baseline(self):
        doc = planted_corpus()[0]
        for config in (
            AlgorithmConfig("omd"),
            AlgorithmConfig("centroid"),
            AlgorithmConfig("dbscan", (("epsilon", 2000.0), ("min_pts", 2))),
            AlgorithmConfig("kdist", (("k", 3), ("min_pts", 2))),
        ):
            result = run_algorithm(doc, config)
            assert set(result.outcomes) == {f"pl{m}" for m in range(3)}

    def test_validates_before_the_run(self):
        with pytest.raises(ValueError):
            run_algorithm(planted_corpus()[0], AlgorithmConfig("dbscan"))

    def test_range_error_names_the_cell(self):
        # a range is refused when the cell is built; a ring limit, which
        # depends on the document's distances, names the cell
        with pytest.raises(ValueError, match="^densityk delta_d must be a positive finite number, got 0$"):
            AlgorithmConfig("densityk", (("delta_d", 0),))
        with pytest.raises(ValueError, match="^cell densityk:delta_d=1e-300: delta_d 1e-300 is too small"):
            evaluate_corpus(planted_corpus(), [AlgorithmConfig("densityk", (("delta_d", 1e-300),))])

    def test_negative_upper_bound_names_the_cell(self):
        with pytest.raises(ValueError, match="^densityk upper_bound must be >= 0, got -5$"):
            AlgorithmConfig("densityk", (("upper_bound", -5),))

    def test_one_distance_vector_per_clustering_run(self, monkeypatch, default_corpus):
        # each clusterer reads its groups, (k-dist) its epsilon and the
        # spreads of clusters tied in size from one condensed vector per
        # document: every read returns the one array the cloud keeps
        reads = []
        real = geo.condensed_distances

        def counted(points):
            reads.append(real(points))
            return reads[-1]

        def recomputed(*args):
            raise AssertionError("a spread recomputed from the cluster's points")

        for module in (geo, clustering, baselines):
            monkeypatch.setattr(module, "condensed_distances", counted)
        monkeypatch.setattr(clustering, "rank_clusters", recomputed)
        monkeypatch.setattr(clustering, "_mean_pairwise", recomputed)
        configs = [c for c in table1_grid() if c.algorithm in ("densityk", "dbscan", "kdist")]
        assert len(configs) == 19
        for doc in default_corpus:
            for config in configs:
                reads.clear()
                run_algorithm(doc, config)
                assert reads and all(v is reads[0] for v in reads), (doc.doc_id, config.key)


class TestOneResultPath:
    """Every algorithm turns its labels or its selection into a result
    through clustering._resolve, once a run."""

    CONFIGS = [
        AlgorithmConfig("densityk"),
        AlgorithmConfig("dbscan", (("epsilon", 20000.0), ("min_pts", 1))),
        AlgorithmConfig("dbscan", (("epsilon", 2000.0), ("min_pts", 3))),
        AlgorithmConfig("kdist", (("k", 2), ("min_pts", 1))),
    ]
    HEURISTICS = [
        AlgorithmConfig("omd", (("measure", "avg_pairwise"),)),
        AlgorithmConfig("omd", (("measure", "hull_area"),)),
        AlgorithmConfig("centroid"),
        AlgorithmConfig("dtur"),
    ]

    @staticmethod
    def runs(configs):
        # small documents with unambiguous mentions, plus one of a single
        # mention (omd's shortcut), which dtur cannot take: it has no anchor
        docs = synth_generate(SynthSpec(n_docs=12, mentions_per_doc=4, decoys_per_mention=(0, 3), seed=3))
        single = make_document("single", {"a": [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]})
        return [
            (doc, config)
            for doc in [*docs, single]
            for config in configs
            if config.algorithm != "dtur" or any(len(m.candidates) == 1 for m in doc.mentions)
        ]

    def test_every_algorithm_resolves_once_a_run(self, monkeypatch):
        calls = []
        real = clustering._resolve

        def counted(doc, *args):
            calls.append(doc.doc_id)
            return real(doc, *args)

        for module in (clustering, baselines):
            monkeypatch.setattr(module, "_resolve", counted)
        runs = self.runs(self.CONFIGS + self.HEURISTICS)
        assert {config.algorithm for _, config in runs} == set(ALGORITHMS)
        assert ("single", self.HEURISTICS[1]) in [(doc.doc_id, config) for doc, config in runs]
        for doc, config in runs:
            calls.clear()
            run_algorithm(doc, config)
            assert calls == [doc.doc_id], (doc.doc_id, config.key)

    @pytest.mark.parametrize("config", HEURISTICS, ids=lambda c: c.key)
    def test_a_heuristic_selection_is_one_cluster_of_rank_1(self, config):
        for doc, _ in self.runs([config]):
            result = run_algorithm(doc, config)
            assert all(outcome.resolved for outcome in result.outcomes.values()), doc.doc_id
            assert list(result.outcomes) == [m.name for m in doc.mentions]
            (cluster,) = result.ranked_clusters
            assert cluster.rank == 1
            chosen = [(m.name, result.outcomes[m.name].entry_id) for m in doc.mentions]
            assert [(p.mention, p.entry_id) for p in cluster.members] == chosen


class TestOneCloudPerDocument:
    CLUSTERING = ("densityk", "dbscan", "kdist")

    def test_one_cloud_point_per_candidate_across_the_clustering_cells(self, monkeypatch):
        docs = synth_generate(SynthSpec())  # fresh: no cloud built yet
        made = []
        init = CloudPoint.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CloudPoint, "__init__", counted)
        configs = [c for c in table1_grid() if c.algorithm in self.CLUSTERING]
        assert len(configs) == 19
        report = evaluate_corpus(docs, configs)
        assert all(not cell.errors for cell in report.cells)
        assert len(made) == sum(len(m.candidates) for doc in docs for m in doc.mentions)

    def test_threads_racing_on_the_first_build_agree(self):
        doc = synth_generate(SynthSpec(n_docs=1))[0]
        barrier = threading.Barrier(4)
        clouds = []

        def build():
            barrier.wait()
            clouds.append(to_point_cloud(doc))

        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(clouds) == 4 and all(c == clouds[0] for c in clouds)

    def test_one_distance_vector_and_one_epsilon_per_k_across_the_grid(self, monkeypatch):
        # every cell of the grid, the tied spreads included, reads the one
        # vector each document's cloud computes; k-dist derives its epsilon
        # once per k, though its 9 cells ask 3 times for each
        docs = synth_generate(SynthSpec())  # fresh: nothing computed yet
        computed, derived = [], []
        condensed, neighbours = geo._condensed, baselines._neighbour_matrix

        def counted_vector(lat, lon, cos_lat):
            computed.append(len(lat))
            return condensed(lat, lon, cos_lat)

        def counted_epsilon(distances, n):
            derived.append(n)
            return neighbours(distances, n)

        monkeypatch.setattr(geo, "_condensed", counted_vector)
        monkeypatch.setattr(baselines, "_neighbour_matrix", counted_epsilon)
        report = evaluate_corpus(docs, table1_grid())
        assert sum(len(cell.scores) for cell in report.cells) == 21 * len(docs)  # dtur: no anchors
        sizes = sorted(len(to_point_cloud(doc)) for doc in docs)
        assert sizes[-1] <= geo._ONE_BLOCK_N
        assert sorted(computed) == sizes
        assert sorted(derived) == sorted(sizes * 3)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_warm_documents_give_the_report_of_fresh_ones(self, workers):
        # documents whose clouds already keep their vectors and epsilons
        configs = table1_grid()
        warm = synth_generate(SynthSpec())
        evaluate_corpus(warm, configs)
        again = evaluate_corpus(warm, configs, workers=workers)
        fresh = evaluate_corpus(synth_generate(SynthSpec()), configs, workers=workers)
        assert report_to_dict(again) == report_to_dict(fresh)
        assert report_to_csv(again) == report_to_csv(fresh)

    def test_threads_racing_on_a_fresh_vector_and_epsilon_agree(self):
        # more threads than cores, switching often, run the k-dist and DBSCAN
        # cells at once on one fresh document: every run reads the same
        # values, and the cloud ends with one vector and one epsilon per k
        configs = [c for c in table1_grid() if c.algorithm in ("dbscan", "kdist")]
        want = [report_to_dict(evaluate_corpus(synth_generate(SynthSpec(n_docs=1)), [c])) for c in configs]
        doc = synth_generate(SynthSpec(n_docs=1))[0]
        barrier = threading.Barrier(8)
        got = []

        def run():
            barrier.wait()
            got.append([report_to_dict(evaluate_corpus([doc], [c])) for c in configs])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 8
        cloud = to_point_cloud(doc)
        assert geo.condensed_distances(cloud) is cloud.__dict__["_distances"]
        assert sorted(cloud._kdist_epsilons) == [5, 10, 25]

    def test_threaded_grid_on_fresh_documents_equals_serial(self):
        configs = table1_grid()
        serial = evaluate_corpus(synth_generate(SynthSpec()), configs, workers=1)
        threaded = evaluate_corpus(synth_generate(SynthSpec()), configs, workers=4)
        assert report_to_dict(threaded) == report_to_dict(serial)


class TestReportSerialization:
    def report(self):
        return evaluate_corpus(
            planted_corpus(),
            [AlgorithmConfig("dbscan", (("epsilon", 2000.0), ("min_pts", 2)))],
        )

    def test_csv_header_and_shape(self):
        lines = report_to_csv(self.report()).splitlines()
        assert lines[0] == "doc_id,algorithm,params,precision,avg_distance_error_km,resolved,failed"
        assert len(lines) == 1 + 3
        assert lines[1].startswith("doc0,dbscan,epsilon=2000.0;min_pts=2,")

    @pytest.mark.parametrize("doc_id", ['doc,1 "x"', "doc\r1", "doc\r\n1", '\r"x",\r'])
    def test_csv_quotes_a_doc_id_that_needs_it(self, doc_id):
        doc = make_document(doc_id, {"a": [(0.0, 0.0)], "b": [(0.0, 0.01)]}, ground_truth={"a": "a_e0"})
        text = report_to_csv(evaluate_corpus([doc], [AlgorithmConfig("centroid")]))
        header, row = csv.reader(io.StringIO(text))
        assert len(header) == len(row) == 7
        assert row[:2] == [doc_id, "centroid"]

    @pytest.mark.parametrize("doc_id", ["doc0", 'doc,1 "x"', "doc\n1", "", " x "])
    def test_csv_bytes_of_csv_writer_without_a_carriage_return(self, doc_id):
        doc = make_document(doc_id, {"a": [(0.0, 0.0)], "b": [(0.0, 0.01)]}, ground_truth={"a": "a_e0"})
        report = evaluate_corpus([doc], [AlgorithmConfig("dbscan", (("epsilon", 2000.0), ("min_pts", 2)))])
        (score,) = report.cells[0].scores
        want = io.StringIO()
        rows = csv.writer(want, lineterminator="\n")
        rows.writerow(["doc_id", "algorithm", "params", "precision", "avg_distance_error_km", "resolved", "failed"])
        rows.writerow(
            [doc_id, "dbscan", "epsilon=2000.0;min_pts=2", repr(score.precision),
             repr(score.avg_distance_error_km), score.resolved_count, score.failed_count]
        )
        assert report_to_csv(report) == want.getvalue()

    def test_dict_round_trips_scores(self):
        raw = report_to_dict(self.report())
        cell = raw["cells"][0]
        assert cell["key"] == "dbscan:epsilon=2000.0,min_pts=2"
        assert [d["doc_id"] for d in cell["documents"]] == ["doc0", "doc1", "doc2"]
        assert cell["macro_precision"] == 1.0
