"""The benchmark's output checks catch wrong answers.

Each test feeds the checkers a correct pipeline result with one fault put
in, through both distance evaluators (the literal one used on small
documents and the block one used on large clouds):

    PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import copy

import pytest

from densityk import densityk_pipeline, result_to_dict
from densityk.synth import SynthSpec, synth_generate

import checks

DELTA_D = 100.0


@pytest.fixture(scope="module")
def case():
    doc = synth_generate(SynthSpec(n_docs=1, seed=3))[0]
    result = result_to_dict(densityk_pipeline(doc, DELTA_D))
    assert len(result["clusters"]) > 1
    assert any(o["status"] == checks.RESOLVED for o in result["outcomes"].values())
    return doc, result


def swap_entry(doc, result):
    """A resolved mention names another of its own candidates."""
    name, outcome = next((n, o) for n, o in result["outcomes"].items() if o["status"] == checks.RESOLVED)
    mention = next(m for m in doc.mentions if m.name == name)
    outcome["entry_id"] = next(c.entry_id for c in mention.candidates if c.entry_id != outcome["entry_id"])


def merge_clusters(doc, result):
    """The two best-ranked clusters reported as one."""
    first, second, *rest = result["clusters"]
    merged = [{"rank": 1, "entries": first["entries"] + second["entries"]}]
    result["clusters"] = merged + [{"rank": i + 2, "entries": c["entries"]} for i, c in enumerate(rest)]


def threshold_one_ring_up(doc, result):
    result["cluster_distance_m"] += DELTA_D


def threshold_one_ring_down(doc, result):
    result["cluster_distance_m"] -= DELTA_D


@pytest.mark.parametrize("literal", [True, False], ids=["literal", "blocks"])
def test_correct_result_passes(case, literal):
    doc, result = case
    cloud = checks.Cloud(doc)
    assert checks.check_density_result(cloud, checks.pair_distances(cloud, literal), result, DELTA_D) == []


@pytest.mark.parametrize("literal", [True, False], ids=["literal", "blocks"])
@pytest.mark.parametrize(
    "tamper", [swap_entry, merge_clusters, threshold_one_ring_up, threshold_one_ring_down]
)
def test_tampered_result_is_caught(case, literal, tamper):
    doc, result = case
    tampered = copy.deepcopy(result)
    tamper(doc, tampered)
    cloud = checks.Cloud(doc)
    assert checks.check_density_result(cloud, checks.pair_distances(cloud, literal), tampered, DELTA_D)
