import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densityk import (
    DocumentParseError,
    DocumentSchemaError,
    GeoPoint,
    dbscan_disambiguate,
    dedupe_candidates,
    document_to_json,
    load_corpus,
    load_document,
    to_point_cloud,
)
from densityk.corpus import CandidateEntry, DocumentInput, PlaceMention
from conftest import make_document

# ~1 degree of longitude at the equator, meters
M_PER_DEG = 6_371_000.0 * math.pi / 180.0


def doc_fixture() -> dict:
    return {
        "doc_id": "d1",
        "mentions": [
            {
                "name": "alpha",
                "candidates": [
                    {"entry_id": "a1", "name": "alpha", "lat": 1.0, "lon": 2.0, "source": "g1"},
                    {"entry_id": "a2", "name": "alpha", "lat": -3.0, "lon": 4.0, "source": "g2"},
                ],
            },
            {
                "name": "beta",
                "candidates": [
                    {"entry_id": "b1", "name": "beta", "lat": 5.0, "lon": 6.0, "source": "g1"},
                ],
            },
            {
                "name": "gamma",
                "candidates": [
                    {"entry_id": "c1", "name": "gamma", "lat": 7.0, "lon": 8.0, "source": "g1"},
                    {"entry_id": "c2", "name": "gamma", "lat": 9.0, "lon": 10.0, "source": "g1"},
                    {"entry_id": "c3", "name": "gamma", "lat": 11.0, "lon": 12.0, "source": "g3"},
                    {"entry_id": "c4", "name": "gamma", "lat": 13.0, "lon": 14.0, "source": "g3"},
                ],
            },
        ],
        "ground_truth": {"alpha": "a1", "beta": "b1"},
    }


class TestLoadDocument:
    def test_counts(self):
        doc = load_document(json.dumps(doc_fixture()))
        assert len(doc.mentions) == 3
        assert sum(len(m.candidates) for m in doc.mentions) == 7

    def test_mention_order_preserved(self):
        doc = load_document(json.dumps(doc_fixture()))
        assert [m.name for m in doc.mentions] == ["alpha", "beta", "gamma"]

    def test_empty_candidates_rejected(self):
        raw = doc_fixture()
        raw["mentions"][1]["candidates"] = []
        with pytest.raises(DocumentSchemaError):
            load_document(json.dumps(raw))

    def test_dangling_ground_truth_entry(self):
        raw = doc_fixture()
        raw["ground_truth"]["alpha"] = "nonexistent"
        with pytest.raises(DocumentSchemaError):
            load_document(json.dumps(raw))

    def test_ground_truth_unknown_mention(self):
        raw = doc_fixture()
        raw["ground_truth"]["delta"] = "a1"
        with pytest.raises(DocumentSchemaError):
            load_document(json.dumps(raw))

    @pytest.mark.parametrize("data", [b"{not json", b"[" * 100_000], ids=["unclosed", "nested-too-deep"])
    def test_malformed_json(self, data):
        with pytest.raises(DocumentParseError):
            load_document(data)

    def test_missing_field(self):
        raw = doc_fixture()
        del raw["mentions"][0]["name"]
        with pytest.raises(DocumentParseError):
            load_document(json.dumps(raw))

    def test_out_of_range_latitude(self):
        raw = doc_fixture()
        raw["mentions"][0]["candidates"][0]["lat"] = 95.0
        with pytest.raises(DocumentSchemaError):
            load_document(json.dumps(raw))

    def test_duplicate_entry_id(self):
        raw = doc_fixture()
        raw["mentions"][2]["candidates"][1]["entry_id"] = "c1"
        with pytest.raises(DocumentSchemaError):
            load_document(json.dumps(raw))

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: raw.update(doc_id=7),
            lambda raw: raw["mentions"].append(5),
            lambda raw: raw["mentions"][0].update(name=["alpha"]),
            lambda raw: raw["mentions"][0]["candidates"].append(5),
            lambda raw: raw["mentions"][0]["candidates"][0].update(entry_id=["a1"]),
            lambda raw: raw.update(ground_truth=[["alpha", "a1"]]),
            lambda raw: raw["ground_truth"].update(alpha=["a1"]),
            lambda raw: raw["mentions"][0]["candidates"][0].update(name={"x": [1]}),
            lambda raw: raw["mentions"][0]["candidates"][0].update(source=7),
        ],
        ids=[
            "int-doc-id",
            "non-object-mention",
            "list-mention-name",
            "non-object-candidate",
            "list-entry-id",
            "list-ground-truth",
            "list-ground-truth-entry",
            "object-candidate-name",
            "int-candidate-source",
        ],
    )
    def test_wrong_type_is_a_parse_error(self, corrupt):
        raw = doc_fixture()
        corrupt(raw)
        with pytest.raises(DocumentParseError):
            load_document(json.dumps(raw))

    @pytest.mark.parametrize("field", ["lat", "lon"])
    def test_boolean_coordinate(self, field):
        raw = doc_fixture()
        raw["mentions"][0]["candidates"][0][field] = True
        with pytest.raises(DocumentSchemaError):
            load_document(json.dumps(raw))

    @pytest.mark.parametrize("field", ["lat", "lon"])
    def test_string_coordinate(self, field):
        # float() reads "45.5" as a number; the schema asks for JSON numbers
        raw = doc_fixture()
        raw["mentions"][0]["candidates"][0][field] = "45.5"
        with pytest.raises(DocumentSchemaError, match="entry 'a1'"):
            load_document(json.dumps(raw))

    def test_integer_coordinate_past_float_range(self):
        raw = doc_fixture()
        raw["mentions"][0]["candidates"][0]["lat"] = 10**400
        with pytest.raises(DocumentSchemaError):
            load_document(json.dumps(raw))

    def test_duplicate_mention_name(self):
        # otherwise the second mention's outcome would overwrite the first's
        raw = doc_fixture()
        del raw["ground_truth"]
        raw["mentions"][2]["name"] = "alpha"
        with pytest.raises(DocumentSchemaError):
            load_document(json.dumps(raw))

    def test_round_trip_idempotent(self):
        doc = load_document(json.dumps(doc_fixture()))
        serialized = document_to_json(doc)
        again = load_document(serialized)
        assert again == doc
        assert document_to_json(again) == serialized


class TestLoadCorpus:
    def test_directory(self, tmp_path):
        for i in range(3):
            raw = doc_fixture()
            raw["doc_id"] = f"d{i}"
            (tmp_path / f"{i}.json").write_text(json.dumps(raw))
        docs = load_corpus(tmp_path)
        assert [d.doc_id for d in docs] == ["d0", "d1", "d2"]

    def test_jsonl(self, tmp_path):
        lines = []
        for i in range(2):
            raw = doc_fixture()
            raw["doc_id"] = f"d{i}"
            lines.append(json.dumps(raw))
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert [d.doc_id for d in load_corpus(path)] == ["d0", "d1"]

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_jsonl_line_ends(self, tmp_path, end):
        lines = [json.dumps(dict(doc_fixture(), doc_id=f"d{i}")).encode() for i in range(2)]
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(end.join(lines) + end + b"  " + end)
        assert [d.doc_id for d in load_corpus(path)] == ["d0", "d1"]

    def test_bad_file_in_directory_is_named(self, tmp_path):
        for i in range(3):
            (tmp_path / f"{i}.json").write_text(json.dumps(dict(doc_fixture(), doc_id=f"d{i}")))
        (tmp_path / "1.json").write_text("{bad")
        with pytest.raises(DocumentParseError, match=rf"^{re.escape(str(tmp_path / '1.json'))}: malformed JSON"):
            load_corpus(tmp_path)
        raw = doc_fixture()
        raw["mentions"][0]["candidates"] = []
        (tmp_path / "1.json").write_text(json.dumps(raw))
        with pytest.raises(DocumentSchemaError, match=rf"^{re.escape(str(tmp_path / '1.json'))}: document 'd1'"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (b"{bad", DocumentParseError, "malformed JSON"),
            (
                b'{"doc_id": "d9", "mentions": [{"name": "a", "candidates": []}]}',
                DocumentSchemaError,
                "document 'd9'",
            ),
            (b'{"doc_id": "\xff"}', DocumentParseError, "not UTF-8"),
        ],
        ids=["malformed", "schema", "not-utf8"],
    )
    def test_bad_line_in_jsonl_is_named(self, tmp_path, bad, error, message):
        path = tmp_path / "corpus.jsonl"
        good = json.dumps(doc_fixture()).encode()
        path.write_bytes(b"\n".join([good, b"", bad, good]) + b"\n")
        with pytest.raises(error, match=rf"^{re.escape(str(path))}:3: {message}"):
            load_corpus(path)


def mention_at_offsets(offsets_m: list[float]) -> PlaceMention:
    # points strung west-to-east along the equator at the given offsets
    return PlaceMention(
        name="chain",
        candidates=tuple(
            CandidateEntry(
                entry_id=f"e{i}",
                name="chain",
                location=GeoPoint(0.0, off / M_PER_DEG),
                source="t",
            )
            for i, off in enumerate(offsets_m)
        ),
    )


class TestDedupeCandidates:
    def test_within_radius_first_survives(self):
        m = mention_at_offsets([0.0, 10.0])
        out = dedupe_candidates(m, radius=50.0)
        assert [c.entry_id for c in out.candidates] == ["e0"]

    def test_beyond_radius_both_kept(self):
        m = mention_at_offsets([0.0, 10_000.0])
        out = dedupe_candidates(m, radius=50.0)
        assert [c.entry_id for c in out.candidates] == ["e0", "e1"]

    def test_chain_greedy_first_survivor(self):
        # A-B 40 m, B-C 40 m, A-C 80 m; B falls to A, C is out of A's radius
        m = mention_at_offsets([0.0, 40.0, 80.0])
        out = dedupe_candidates(m, radius=50.0)
        assert [c.entry_id for c in out.candidates] == ["e0", "e2"]

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        m = mention_at_offsets([float(x) for x in rng.uniform(0, 500, size=20)])
        once = dedupe_candidates(m, radius=60.0)
        twice = dedupe_candidates(once, radius=60.0)
        assert once == twice

    @pytest.mark.parametrize("radius", [-1.0, math.nan])
    def test_negative_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            dedupe_candidates(mention_at_offsets([0.0, 10_000.0]), radius=radius)


class TestToPointCloud:
    def test_one_point_per_candidate(self):
        doc = load_document(json.dumps(doc_fixture()))
        cloud = to_point_cloud(doc)
        assert len(cloud) == 7

    def test_empty_mentions(self):
        doc = make_document("empty", {})
        assert len(to_point_cloud(doc)) == 0

    def test_back_references_resolve_uniquely(self):
        rng = np.random.default_rng(17)
        mentions = {
            f"name{i}": [
                (float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            for i in range(4)
        }
        doc = make_document("rand", mentions)
        cloud = to_point_cloud(doc)
        pairs = {(m.name, c.entry_id) for m in doc.mentions for c in m.candidates}
        seen = [(p.mention, p.entry_id) for p in cloud.points]
        assert len(seen) == len(pairs)
        assert set(seen) == pairs

    def test_built_once_per_document(self):
        doc = make_document("once", {"a": [(1, 2), (3, 4)], "b": [(5, 6)]})
        assert to_point_cloud(doc) is to_point_cloud(doc)

    def test_replaced_document_gets_its_own_cloud(self):
        doc = make_document("once", {"a": [(1, 2), (3, 4)], "b": [(5, 6)]})
        cloud = to_point_cloud(doc)
        same = dataclasses.replace(doc)
        assert to_point_cloud(same) is not cloud and to_point_cloud(same) == cloud
        fewer = dataclasses.replace(doc, mentions=doc.mentions[1:])
        assert [p.entry_id for p in to_point_cloud(fewer).points] == ["b_e0"]

    def test_cloud_stays_out_of_eq_and_repr(self):
        doc = make_document("once", {"a": [(1, 2)]})
        twin = make_document("once", {"a": [(1, 2)]})
        before = repr(doc)
        to_point_cloud(doc)
        assert repr(doc) == before and doc == twin

    def test_id_ranks_follow_entry_id_order(self):
        doc = make_document("ids", {"b": [(0, 0), (1, 1)], "a": [(2, 2)], "c": [(3, 3)]})
        ranks = to_point_cloud(doc)._id_ranks
        assert ranks.tolist() == [1, 2, 0, 3]  # a_e0 < b_e0 < b_e1 < c_e0


class TestRepeatedEntryId:
    def document(self) -> dict:
        # without the check, "x" would be ranked by b's candidate alone
        return {
            "doc_id": "dup",
            "mentions": [
                {"name": "a", "candidates": [
                    {"entry_id": "x", "lat": 0.0, "lon": 0.0},
                    {"entry_id": "a1", "lat": 20.0, "lon": 20.0},
                ]},
                {"name": "b", "candidates": [
                    {"entry_id": "b0", "lat": 0.0, "lon": 0.001},
                    {"entry_id": "x", "lat": 40.0, "lon": 40.0},
                ]},
            ],
        }

    def test_code_built_document_is_rejected_as_a_loaded_one_is(self):
        raw = self.document()
        mentions = tuple(
            PlaceMention(
                name=m["name"],
                candidates=tuple(
                    CandidateEntry(c["entry_id"], m["name"], GeoPoint(c["lat"], c["lon"]), "")
                    for c in m["candidates"]
                ),
            )
            for m in raw["mentions"]
        )
        message = "document 'dup', mention 'b': duplicate entry_id 'x'"
        with pytest.raises(DocumentSchemaError) as built:
            DocumentInput(doc_id="dup", mentions=mentions)
        with pytest.raises(DocumentSchemaError) as loaded:
            load_document(json.dumps(raw))
        assert str(built.value) == str(loaded.value) == message

    def test_repeat_within_one_mention(self):
        cand = CandidateEntry("x", "a", GeoPoint(0, 0), "")
        with pytest.raises(DocumentSchemaError, match="mention 'a': duplicate entry_id 'x'"):
            DocumentInput(doc_id="dup", mentions=(PlaceMention("a", (cand, cand)),))


class TestRepeatedMentionName:
    def test_code_built_document_is_rejected_as_a_loaded_one_is(self):
        # outcomes are keyed by mention name: this document once ran, and
        # DBSCAN gave one outcome for its two mentions
        def mention(*entries):
            return PlaceMention("a", tuple(CandidateEntry(e, "a", GeoPoint(*xy), "") for e, xy in entries))

        message = "document 'dupname', mention 'a': duplicate mention name"
        with pytest.raises(DocumentSchemaError) as built:
            dbscan_disambiguate(
                DocumentInput(
                    "dupname",
                    (mention(("a0", (0, 0))), mention(("a1", (0, 0.001)), ("a2", (40, 40)))),
                ),
                2000.0,
                1,
            )
        raw = {
            "doc_id": "dupname",
            "mentions": [
                {"name": "a", "candidates": [{"entry_id": "a0", "lat": 0, "lon": 0}]},
                {"name": "a", "candidates": [{"entry_id": "a1", "lat": 0, "lon": 0.001}]},
            ],
        }
        with pytest.raises(DocumentSchemaError) as loaded:
            load_document(json.dumps(raw))
        assert str(built.value) == str(loaded.value) == message


class TestGroundTruthNamesOwnCandidate:
    @pytest.mark.parametrize(
        "truth, message",
        [
            ({"a": "b0"}, "document 'gt': ground_truth for 'a' names unknown entry_id 'b0'"),
            ({"c": "a0"}, "document 'gt': ground_truth key 'c' matches no mention"),
        ],
    )
    def test_code_built_document_is_rejected_as_a_loaded_one_is(self, truth, message):
        # score_document reads both locations from the mention's own candidates
        raw = {
            "doc_id": "gt",
            "mentions": [
                {"name": n, "candidates": [{"entry_id": f"{n}0", "lat": 0, "lon": k}]}
                for k, n in enumerate("ab")
            ],
            "ground_truth": truth,
        }
        mentions = tuple(
            PlaceMention(n, (CandidateEntry(f"{n}0", n, GeoPoint(0, k), ""),)) for k, n in enumerate("ab")
        )
        with pytest.raises(DocumentSchemaError) as built:
            DocumentInput("gt", mentions, ground_truth=truth)
        with pytest.raises(DocumentSchemaError) as loaded:
            load_document(json.dumps(raw))
        assert str(built.value) == str(loaded.value) == message


# any JSON value: what a corpus line or file can hold; JSON integers have no
# size limit, so some lie past the float range
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400) | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def valid_or_any(valid):
    # mostly plausible, so that most examples get past the earlier fields
    return st.integers(0, 4).flatmap(lambda i: json_values if i == 4 else valid)


# document-shaped values, each field either plausible or any JSON value, so
# that the checks past the first field are reached too
candidates = st.fixed_dictionaries(
    {
        "entry_id": valid_or_any(st.sampled_from(["e0", "e1", "e2"])),
        "lat": valid_or_any(st.floats(-90, 90) | st.integers(-90, 90)),
        "lon": valid_or_any(st.floats(-180, 180)),
    },
    optional={"name": json_values, "source": json_values},
)
mentions = st.fixed_dictionaries(
    {
        "name": valid_or_any(st.sampled_from(["a", "b"])),
        "candidates": valid_or_any(st.lists(candidates, max_size=3)),
    }
)
documents = st.fixed_dictionaries(
    {"doc_id": valid_or_any(st.just("d")), "mentions": valid_or_any(st.lists(mentions, max_size=3))},
    optional={
        "ground_truth": valid_or_any(
            st.dictionaries(st.sampled_from(["a", "b", "c"]), valid_or_any(st.sampled_from(["e0", "e1", "e3"])))
        )
    },
)


class TestAnyInput:
    """Any input loads or raises a typed document error, never another exception."""

    @settings(max_examples=100, deadline=None)
    @given(documents | json_values)
    def test_any_json_value(self, value):
        try:
            load_document(json.dumps(value).encode())
        except (DocumentParseError, DocumentSchemaError):
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=64) | documents.map(lambda d: json.dumps(d).encode()).flatmap(
        lambda data: st.integers(0, len(data)).map(lambda cut: data[:cut])
    ))
    def test_any_bytes(self, data):
        try:
            load_document(data)
        except (DocumentParseError, DocumentSchemaError):
            pass
