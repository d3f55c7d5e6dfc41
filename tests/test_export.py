import dataclasses
import enum
import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densityk import (
    KFunction,
    clusters_to_geojson,
    densityk_pipeline,
    kfunction_to_csv,
    result_to_dict,
    to_canonical_json,
)
from densityk.cli import main
from densityk import corpus
from densityk.corpus import DocumentInput, PlaceMention, _write, document_to_json
from densityk.evaluation import run_algorithm, score_document, table1_grid
from test_clustering import planted_document


def small_kf(cluster_distance=None):
    return KFunction(
        delta_d=100.0,
        distances_m=np.array([100.0, 5000.0]),
        densities=np.array([1e-5, 2e-7]),
        cluster_distance=cluster_distance,
    )


class TestKFunctionCsv:
    def test_header_and_rows(self):
        lines = kfunction_to_csv(small_kf()).splitlines()
        assert lines[0] == "d_meters,k_density"
        assert lines[1] == "100.0,1e-05"
        assert lines[2] == "5000.0,2e-07"

    def test_threshold_comment_when_present(self):
        lines = kfunction_to_csv(small_kf(cluster_distance=5000.0)).splitlines()
        assert lines[-1] == "# cluster_distance_meters=5000.0"

    def test_no_comment_without_threshold(self):
        assert "#" not in kfunction_to_csv(small_kf())


class TestClustersGeojson:
    def test_feature_collection_shape(self):
        geo = clusters_to_geojson(densityk_pipeline(planted_document()))
        assert geo["type"] == "FeatureCollection"
        assert len(geo["features"]) == 30  # 5 mentions x 6 candidates
        feature = geo["features"][0]
        assert feature["geometry"]["type"] == "Point"
        assert set(feature["properties"]) == {"entry_id", "mention", "cluster_rank"}

    def test_coordinates_are_lon_lat(self):
        result = densityk_pipeline(planted_document())
        geo = clusters_to_geojson(result)
        by_entry = {
            p.entry_id: p.location for c in result.ranked_clusters for p in c.members
        }
        for feature in geo["features"]:
            loc = by_entry[feature["properties"]["entry_id"]]
            assert feature["geometry"]["coordinates"] == [loc.lon, loc.lat]

    def test_rank1_features_are_the_planted_entries(self):
        geo = clusters_to_geojson(densityk_pipeline(planted_document()))
        rank1 = {
            f["properties"]["entry_id"]
            for f in geo["features"]
            if f["properties"]["cluster_rank"] == 1
        }
        assert rank1 == {f"pl{m}_e0" for m in range(5)}


class TestResultDict:
    def test_outcomes_and_clusters(self):
        raw = result_to_dict(densityk_pipeline(planted_document()))
        assert raw["doc_id"] == "planted"
        assert raw["outcomes"]["pl0"] == {"status": "resolved", "entry_id": "pl0_e0"}
        assert raw["clusters"][0]["rank"] == 1
        assert "cluster_distance_m" in raw

    def test_failure_statuses_carry_no_entry(self):
        doc = planted_document()
        result = densityk_pipeline(doc)
        raw = result_to_dict(result)
        for outcome in raw["outcomes"].values():
            assert (outcome["status"] == "resolved") == ("entry_id" in outcome)


class TestCanonicalJson:
    def test_stable_bytes(self):
        payload = {"b": 1, "a": [1.5, "x"]}
        text = to_canonical_json(payload)
        assert text == to_canonical_json(json.loads(text))
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')


def json_dumps(value) -> str:
    """What ``to_canonical_json`` must write: json's own indented text."""
    return json.dumps(value, sort_keys=True, indent=1) + "\n"


def written(write, value):
    # the text, or the TypeError json raises for a value it cannot write
    try:
        return write(value)
    except TypeError as exc:
        return f"TypeError: {exc}"


# every code point, lone surrogates and control characters included
any_text = st.text(st.characters(exclude_categories=()), max_size=6)
json_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | json_floats
    | json_floats.map(np.float64)
    | any_text
)
# keys of one kind a dict, so that most dicts sort; json sorts the original
# keys before it writes them as strings
json_trees = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(any_text, children, max_size=4)
    | st.dictionaries(st.integers() | json_floats | st.booleans(), children, max_size=4)
    | st.dictionaries(st.none(), children, max_size=1),
    max_leaves=16,
)


class Name(str):
    pass


class Level(enum.IntEnum):
    LOW = 1


class Row(list):
    pass


class AppendOnly:
    """A sink that can only be appended to: it has no len, no del and no
    indexing, so a writer that takes back a piece fails on it."""

    __slots__ = ("_pieces",)

    def __init__(self):
        self._pieces = []

    def append(self, piece):
        self._pieces.append(piece)

    def text(self):
        return "".join(self._pieces) + "\n"


def sink_written(value) -> str:
    # to_canonical_json's text, written piece by piece into an append-only sink
    sink = AppendOnly()
    _write(value, 0, sink.append)
    return sink.text()


class TestCanonicalWriter:
    """``to_canonical_json`` writes the bytes of ``json.dumps(sort_keys=True,
    indent=1)`` and raises the TypeError it raises."""

    @settings(max_examples=300, deadline=None)
    @given(json_trees)
    @example({10: 0, 9: 0})
    @example({"a": [(), {}, [[]], {"b": {}}]})
    @example([math.nan, math.inf, -math.inf, -0.0, 2**70, np.float64(1.25), "\ud800\x00\u00e9"])
    @example({1: 0, "a": 0})
    @example({None: 0, True: 1})
    @example({"a": [{2: [0.5], 1: {"k": "v"}}]})  # json writes a dict of int keys at depth 3
    @example({"a": [OrderedDict([("b", [1.5, {"c": None}]), ("a", "x")])]})  # and a dict subclass
    @example({"a": [{Name("b"): [1], "a": {Name("c"): 2}}]})  # str-subclass keys stay with the writer
    def test_same_text_as_json(self, value):
        assert written(to_canonical_json, value) == written(json_dumps, value)

    @settings(max_examples=300, deadline=None)
    @given(json_trees)
    @example({"a": [{2: [0.5], 1: {"k": "v"}}]})
    @example({"a": [{Name("b"): [1], "a": {Name("c"): 2}}]})
    def test_an_append_only_sink_gets_the_same_text(self, value):
        assert written(sink_written, value) == written(to_canonical_json, value)

    @pytest.mark.parametrize(
        "keys", [{(1,): 0}, {"a": 0, (1,): 0}, {1: 0, "a": 0}, {None: 0, 1: 0}], ids=["tuple", "str-tuple", "int-str", "none-int"]
    )
    def test_keys_json_refuses_are_its_type_error(self, keys):
        # a tuple key, and keys that do not sort, below a dict and a list
        # the writer has begun
        value = {"k": [1, keys]}
        with pytest.raises(TypeError) as theirs:
            json_dumps(value)
        for write in (to_canonical_json, sink_written):
            with pytest.raises(TypeError) as ours:
                write(value)
            assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize(
        "keys", [(2, -1), (0.5, -math.inf), (True, False), (None,), (2, 0.5, False)], ids=["int", "float", "bool", "none", "mixed"]
    )
    def test_a_dict_without_str_keys_goes_to_json_whole(self, keys, monkeypatch):
        inner = {key: [k, "x"] for k, key in enumerate(keys)}
        handed = []
        json_writes = corpus._json_dumps

        def spy(value, pad):
            handed.append(value)
            return json_writes(value, pad)

        monkeypatch.setattr("densityk.corpus._json_dumps", spy)
        value = {"a": [inner, {"b": 1}]}
        assert sink_written(value) == json_dumps(value)
        assert handed == [inner]

    def test_keys_sort_before_they_become_strings(self):
        assert to_canonical_json({10: 0, 9: 0}) == '{\n "9": 0,\n "10": 0\n}\n'

    @pytest.mark.parametrize("bad", [np.int64(1), {1}, b"x"], ids=["int64", "set", "bytes"])
    @pytest.mark.parametrize(
        "place", [lambda v: v, lambda v: ["a", v], lambda v: {"k": [1, v]}], ids=["top", "in-list", "nested"]
    )
    def test_what_json_cannot_write_is_a_type_error(self, bad, place):
        with pytest.raises(TypeError) as theirs:
            json_dumps(place(bad))
        for write in (to_canonical_json, sink_written):
            with pytest.raises(TypeError) as ours:
                write(place(bad))
            assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize(
        "value",
        [Name("\u00e9\n"), Level.LOW, Row([Level.LOW, Name("a")]), OrderedDict([("b", Row()), ("a", 1)])],
        ids=["str", "int-enum", "list", "ordered-dict"],
    )
    def test_a_subclass_is_written_as_its_base_type(self, value):
        # the writer looks up exact types first; a subclass takes the
        # isinstance fallbacks, as json's encoder does
        assert to_canonical_json(value) == json_dumps(value)
        assert to_canonical_json([value, {"k": value}]) == json_dumps([value, {"k": value}])

    def test_unwritable_key_is_a_type_error(self):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
            to_canonical_json({(1,): 0})


def nested(levels: int):
    # ``levels`` of alternating dicts and lists, each with scalars beside
    # the next level
    value = "leaf"
    for k in range(levels):
        value = [k, value, 0.5] if k % 2 else {"a": k, "b": value, "c": None}
    return value


class TestWriterEdges:
    """Depths past any the writer has met before, and dicts that json
    writes or refuses below dicts and lists the writer has begun."""

    @pytest.mark.parametrize("levels", [40, 200])
    def test_deep_nesting_is_json_s_text(self, levels):
        value = nested(levels)
        assert to_canonical_json(value) == json_dumps(value)
        assert to_canonical_json({"x": [value, value]}) == json_dumps({"x": [value, value]})

    @pytest.mark.parametrize(
        "value",
        [
            {"a": [1, {"b": {2: 0, 1: "x"}}]},  # an int key after the opening: json writes the dict
            {"a": 1, "b": {"c": [2, {5: 1}], "d": "x"}},
            {"a": [1, {"b": {1: 0, "x": 0}}]},  # keys that do not sort: json's TypeError
            {"a": {"b": [np.int64(1)]}},  # a value json refuses, two dicts deep
            {"a": "x", "b": [{"c": 1, "d": {"e": [np.int64(1)]}}], "f": 2},
        ],
    )
    def test_a_dict_handed_to_json_leaves_no_pieces(self, value):
        assert written(to_canonical_json, value) == written(json_dumps, value)
        assert written(to_canonical_json, [value, value]) == written(json_dumps, [value, value])


def refuse_hand_off(value, pad):
    raise AssertionError(f"handed to json: {value!r}")


def anchored(doc: DocumentInput) -> DocumentInput:
    # the document with its first mention cut to its true candidate: an
    # anchor, so that DTUR resolves it
    first, *rest = doc.mentions
    keep = tuple(c for c in first.candidates if c.entry_id == doc.ground_truth[first.name])
    return DocumentInput(doc.doc_id, (PlaceMention(first.name, keep), *rest), doc.ground_truth)


class TestNothingReachesJson:
    """Every output the program writes holds only the types the writer
    writes itself, so json writes none of it: a value of another type that
    leaks into an output (a NumPy scalar, say) fails here rather than
    quietly slowing the writer."""

    @pytest.fixture(autouse=True)
    def no_hand_off(self, monkeypatch):
        monkeypatch.setattr("densityk.corpus._json_dumps", refuse_hand_off)

    def test_the_hand_off_is_refused(self):
        with pytest.raises(AssertionError, match="handed to json"):
            to_canonical_json({"a": [np.float64(1.0)]})
        with pytest.raises(AssertionError, match="handed to json"):
            to_canonical_json({"a": [{1: 0}]})
        assert to_canonical_json({"a": [{Name("b"): 1}]}) == json_dumps({"a": [{"b": 1}]})

    def test_documents(self, default_corpus):
        for doc in default_corpus:
            assert document_to_json(doc) == json_dumps(json.loads(document_to_json(doc)))

    @pytest.mark.parametrize(
        "algorithm",
        [
            ["--algorithm", "densityk"],
            ["--algorithm", "densityk", "--upper-bound", "5e5"],
            ["--algorithm", "dbscan", "--epsilon", "2000", "--min-pts", "5"],
            ["--algorithm", "kdist", "--k", "5", "--min-pts", "1"],
            ["--algorithm", "omd"],
            ["--algorithm", "centroid"],
            ["--algorithm", "dtur"],
        ],
        ids=["densityk", "densityk-bound", "dbscan", "kdist", "omd", "centroid", "dtur"],
    )
    def test_cli_results_and_clusters(self, algorithm, default_corpus, tmp_path):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(document_to_json(anchored(default_corpus[0])))
        for command in ("disambiguate", "clusters"):
            out = tmp_path / f"{command}.json"
            result = CliRunner().invoke(main, [command, "--input", str(doc_path), "--output", str(out), *algorithm])
            assert result.exit_code == 0, (result.output, result.exception)
            assert out.read_text() == json_dumps(json.loads(out.read_text()))

    def test_table1_report(self, default_corpus, tmp_path):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        # the last document has no anchor, so DTUR's cell reports an error
        for doc in [anchored(default_corpus[0]), anchored(default_corpus[1]), default_corpus[2]]:
            (corpus_dir / f"{doc.doc_id}.json").write_text(document_to_json(doc))
        out = tmp_path / "report.json"
        result = CliRunner().invoke(main, ["evaluate", "--corpus", str(corpus_dir), "--output", str(out), "--grid", "table1"])
        assert result.exit_code == 0, (result.output, result.exception)
        assert out.read_text() == json_dumps(json.loads(out.read_text()))

    def test_scored_results(self, default_corpus):
        # a result beside its score, as the benchmark checks its outputs
        doc = anchored(default_corpus[0])
        for config in table1_grid():
            result = run_algorithm(doc, config)
            payload = {"result": result_to_dict(result), "score": dataclasses.asdict(score_document(result, doc))}
            assert to_canonical_json(payload) == json_dumps(payload)
