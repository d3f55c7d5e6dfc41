import hashlib
import math

import numpy as np
import pytest

from densityk import (
    EARTH_RADIUS_M,
    GeoPoint,
    OutcomeStatus,
    RejectionOverflowError,
    densityk_pipeline,
    haversine,
    load_corpus,
    score_document,
)
from densityk.corpus import document_to_json
from densityk.synth import (
    SynthSpec,
    _clear_of,
    _destination,
    _unit_vector,
    synth_generate,
    write_corpus,
)

SMALL = SynthSpec(n_docs=3, mentions_per_doc=3, decoys_per_mention=(2, 4), seed=7)


def truth_location(doc, name):
    entry = doc.ground_truth[name]
    by_id = {c.entry_id: c for m in doc.mentions for c in m.candidates}
    return by_id[entry].location


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = synth_generate(SMALL)
        b = synth_generate(SMALL)
        assert [document_to_json(d) for d in a] == [document_to_json(d) for d in b]

    def test_pinned_output(self):
        # sha256 of the canonical JSON of a dense corpus (600 decoys a
        # document), so any change to the rejection sampler's decisions shows
        spec = SynthSpec(n_docs=4, mentions_per_doc=20, decoys_per_mention=(30, 30), seed=42)
        blob = "".join(document_to_json(d) for d in synth_generate(spec)).encode()
        assert (
            hashlib.sha256(blob).hexdigest()
            == "b7a17a33785c9a3c9279800668a02e2b7ddd409112d8238336027c417a802ee0"
        )

    def test_different_seed_differs(self):
        a = synth_generate(SMALL)
        b = synth_generate(SynthSpec(n_docs=3, mentions_per_doc=3, decoys_per_mention=(2, 4), seed=8))
        assert [document_to_json(d) for d in a] != [document_to_json(d) for d in b]


class TestStructure:
    def test_ids_and_counts(self):
        docs = synth_generate(SMALL)
        assert [d.doc_id for d in docs] == ["doc0000", "doc0001", "doc0002"]
        for doc in docs:
            assert [m.name for m in doc.mentions] == ["place_0", "place_1", "place_2"]
            assert set(doc.ground_truth) == {m.name for m in doc.mentions}
            for m in doc.mentions:
                assert 3 <= len(m.candidates) <= 5  # planted + 2..4 decoys

    def test_ground_truth_points_into_candidates(self):
        for doc in synth_generate(SMALL):
            for m in doc.mentions:
                assert doc.ground_truth[m.name] in {c.entry_id for c in m.candidates}

    def test_bad_decoy_range(self):
        with pytest.raises(ValueError):
            synth_generate(SynthSpec(decoys_per_mention=(5, 2)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_docs", 0),
            ("n_docs", -1),
            ("mentions_per_doc", 0),
            ("decoys_per_mention", (-1, 3)),
            ("decoys_per_mention", (4, 3)),
            ("context_radius", 0.0),
            ("context_radius", -5.0),
            ("context_radius", math.inf),
            ("context_radius", math.nan),
            ("min_decoy_separation", -1.0),
            ("min_decoy_separation", math.nan),
            ("min_decoy_distance_from_context", -1.0),
            ("min_decoy_distance_from_context", math.inf),
            ("seed", -5),
            ("seed", 1.5),
        ],
    )
    def test_spec_validates_itself(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthSpec(**{field: value})

    def test_zero_separations_are_valid(self):
        SynthSpec(decoys_per_mention=(0, 0), min_decoy_separation=0.0, min_decoy_distance_from_context=0.0)


class TestSeparationGuarantees:
    def test_planted_points_form_the_only_tight_group(self):
        for doc in synth_generate(SMALL):
            planted = [truth_location(doc, m.name) for m in doc.mentions]
            # all true candidates live in the same <= 1 km-radius context disk
            for a in planted:
                for b in planted:
                    assert haversine(a, b) <= 2 * SMALL.context_radius + 1.0

    def test_decoys_far_from_context_and_each_other(self):
        for doc in synth_generate(SMALL):
            planted = [truth_location(doc, m.name) for m in doc.mentions]
            decoys = [
                c.location
                for m in doc.mentions
                for c in m.candidates
                if c.entry_id != doc.ground_truth[m.name]
            ]
            for d in decoys:
                for p in planted:
                    assert haversine(d, p) >= SMALL.min_decoy_distance_from_context
            for i, a in enumerate(decoys):
                for b in decoys[i + 1 :]:
                    assert haversine(a, b) >= SMALL.min_decoy_separation

    def test_vector_test_decides_as_the_scalar_haversine(self):
        # draws placed at the separation, give or take 1 nm to 2 m,
        # from one of the earlier decoys: the 1 m margin hands these to the
        # scalar loop, the rest are decided by the vectors
        rng = np.random.default_rng(4)
        separation = 50_000.0
        taken = [GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-180, 180))) for _ in range(40)]
        vectors = np.array([_unit_vector(q) for q in taken])
        for offset in [-2.0, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 2.0] * 20:
            q = taken[int(rng.integers(len(taken)))]
            p = _destination(q, float(rng.uniform(0, 360)), separation + offset)
            expected = all(haversine(p, t) >= separation for t in taken)
            assert _clear_of(p, taken, vectors, separation) is expected

    def test_rejection_overflow(self, monkeypatch):
        # each decoy can lie far enough from the context, but no three points
        # on the sphere lie 15,000 km apart pairwise (120 degrees, 13,343 km, at most)
        impossible = SynthSpec(
            n_docs=1,
            mentions_per_doc=1,
            decoys_per_mention=(3, 3),
            min_decoy_separation=1.5e7,
        )
        monkeypatch.setattr("densityk.synth.MAX_REJECTION_ATTEMPTS", 1000)
        with pytest.raises(RejectionOverflowError):
            synth_generate(impossible)

    def test_decoys_beyond_half_the_globe_are_refused(self):
        # a decoy must lie min_decoy_distance_from_context + context_radius
        # from the context, and no point lies farther than pi * R
        half = math.pi * EARTH_RADIUS_M
        with pytest.raises(ValueError, match="^no decoy can be placed: "):
            SynthSpec(min_decoy_distance_from_context=half - SynthSpec.context_radius)
        with pytest.raises(ValueError, match="^no decoy can be placed: "):
            SynthSpec(decoys_per_mention=(0, 1), min_decoy_distance_from_context=2.5e7)
        SynthSpec(min_decoy_distance_from_context=half - SynthSpec.context_radius - 1.0)
        SynthSpec(decoys_per_mention=(0, 0), min_decoy_distance_from_context=2.5e7)

    def test_two_decoys_beyond_half_the_globe_apart_are_refused(self):
        # two decoys of a document, of one mention or of two, must lie
        # min_decoy_separation apart, and no two points lie farther than pi * R
        half = math.pi * EARTH_RADIUS_M
        for mentions, decoys in ((1, (2, 2)), (2, (0, 1)), (1, (1, 5))):
            with pytest.raises(ValueError, match="^no two decoys can be placed: "):
                SynthSpec(mentions_per_doc=mentions, decoys_per_mention=decoys, min_decoy_separation=half)
        SynthSpec(mentions_per_doc=1, decoys_per_mention=(2, 2), min_decoy_separation=half - 1.0)
        # a document that holds at most one decoy never compares two
        SynthSpec(mentions_per_doc=1, decoys_per_mention=(0, 1), min_decoy_separation=2.1e7)
        SynthSpec(mentions_per_doc=3, decoys_per_mention=(0, 0), min_decoy_separation=2.1e7)


class TestRecoverability:
    def test_no_decoys_gives_perfect_densityk_precision(self):
        spec = SynthSpec(n_docs=4, mentions_per_doc=4, decoys_per_mention=(0, 0), seed=11)
        for doc in synth_generate(spec):
            score = score_document(densityk_pipeline(doc), doc)
            assert score.precision == 1.0

    def test_planted_resolution_on_small_corpus(self, default_corpus):
        # spot-check the session corpus: the planted entry is recoverable
        resolved = 0
        for doc in default_corpus[:5]:
            result = densityk_pipeline(doc)
            for name, outcome in result.outcomes.items():
                if outcome.status is OutcomeStatus.RESOLVED and outcome.entry_id == doc.ground_truth[name]:
                    resolved += 1
        assert resolved >= 20  # 5 docs x 5 mentions minus at most a stray few


class TestWriteCorpus:
    def test_round_trip(self, tmp_path):
        docs = synth_generate(SMALL)
        paths = write_corpus(docs, tmp_path / "corpus")
        assert [p.name for p in paths] == ["doc0000.json", "doc0001.json", "doc0002.json"]
        assert load_corpus(tmp_path / "corpus") == docs
