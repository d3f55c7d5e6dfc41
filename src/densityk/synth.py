"""Seeded synthetic corpus generator with planted ground truth.

Each document gets a context center somewhere on the globe; the true
candidate of every mention is planted uniformly inside a small disk around
it. Decoy candidates are drawn uniformly on the sphere, rejected until
each is far from the context and from every other decoy. The separation
minima make the planted points the only tight group in the cloud, so the
intended resolution is recoverable by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import CandidateEntry, DocumentInput, PlaceMention, document_to_json
from .errors import RejectionOverflowError
from .geo import EARTH_RADIUS_M, GeoPoint, haversine
from .params import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE_FINITE, Param

MAX_REJECTION_ATTEMPTS = 10**6

_FIELDS = (
    Param("n_docs", int, AT_LEAST_ONE),
    Param("mentions_per_doc", int, AT_LEAST_ONE),
    Param("context_radius", float, POSITIVE_FINITE),
    Param("min_decoy_separation", float, NON_NEGATIVE),
    Param("min_decoy_distance_from_context", float, NON_NEGATIVE),
    Param("seed", int, NON_NEGATIVE),
)
_LEAST_DECOYS = Param("decoys_per_mention[0]", int, NON_NEGATIVE)


@dataclass(frozen=True)
class SynthSpec:
    """Generator configuration. The two separation minima must be much
    larger than the context radius for the planted-recovery guarantee.
    Construction raises ``ValueError`` for a field out of range, a reversed
    decoy range, decoys asked for that no point lies far enough out for, or
    two decoys asked for in a document that no two points lie far enough
    apart for."""

    n_docs: int = 100
    mentions_per_doc: int = 5
    decoys_per_mention: tuple[int, int] = (5, 15)
    context_radius: float = 1_000.0
    min_decoy_separation: float = 50_000.0
    min_decoy_distance_from_context: float = 100_000.0
    seed: int = 42

    def __post_init__(self) -> None:
        for param in _FIELDS:
            param.validate(getattr(self, param.name))
        lo, hi = self.decoys_per_mention
        _LEAST_DECOYS.validate(lo)
        if lo > hi:
            raise ValueError(f"decoys_per_mention must be (lo, hi) with lo <= hi, got {self.decoys_per_mention}")
        reach = self.min_decoy_distance_from_context + self.context_radius
        if hi > 0 and reach >= math.pi * EARTH_RADIUS_M:  # half the globe
            raise ValueError(f"no decoy can be placed: no point lies {reach} m (min_decoy_distance_from_context + context_radius) from the context")
        if self.mentions_per_doc * hi >= 2 and self.min_decoy_separation >= math.pi * EARTH_RADIUS_M:
            raise ValueError(f"no two decoys can be placed: no two points lie {self.min_decoy_separation} m (min_decoy_separation) apart")


def _uniform_sphere(rng: np.random.Generator) -> GeoPoint:
    lat = math.degrees(math.asin(2.0 * rng.random() - 1.0))
    lon = rng.uniform(-180.0, 180.0)
    return GeoPoint(lat, lon)


def _destination(origin: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    phi1 = math.radians(origin.lat)
    lam1 = math.radians(origin.lon)
    theta = math.radians(bearing_deg)
    delta = distance_m / EARTH_RADIUS_M
    phi2 = math.asin(
        math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    )
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    return GeoPoint(math.degrees(phi2), math.degrees(lam2))


def _uniform_in_disk(rng: np.random.Generator, center: GeoPoint, radius: float) -> GeoPoint:
    r = radius * math.sqrt(rng.random())
    bearing = rng.uniform(0.0, 360.0)
    return _destination(center, bearing, r)


def _unit_vector(p: GeoPoint) -> tuple[float, float, float]:
    phi, lam = math.radians(p.lat), math.radians(p.lon)
    return (math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi))


def _clear_of(p: GeoPoint, taken: list[GeoPoint], vectors: np.ndarray, separation: float) -> bool:
    """Whether ``p`` lies at least ``separation`` from every point of
    ``taken``, decided as the scalar ``haversine`` decides it.

    ``vectors`` holds the unit vectors of ``taken``; the largest dot product
    gives the nearest one's distance to under a micrometre at 50 km, and to
    a few centimetres even at distances near zero or half the globe.
    That settles the question unless the distance lies within 1 m of
    ``separation``, and only then does the exact scalar loop run.
    """
    if not taken:
        return True
    dot = float(np.max(vectors[: len(taken)] @ _unit_vector(p)))
    half_chord = math.sqrt(min(1.0, max(0.0, (1.0 - dot) / 2.0)))
    nearest = 2.0 * EARTH_RADIUS_M * math.asin(half_chord)
    if abs(nearest - separation) > 1.0:
        return nearest > separation
    return all(haversine(p, q) >= separation for q in taken)


def synth_generate(spec: SynthSpec) -> list[DocumentInput]:
    """Generate the corpus; identical spec (incl. seed) gives an identical
    corpus, byte for byte after canonical serialization."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.decoys_per_mention

    docs: list[DocumentInput] = []
    for doc_idx in range(spec.n_docs):
        doc_id = f"doc{doc_idx:04d}"
        center = _uniform_sphere(rng)
        taken: list[GeoPoint] = []  # every decoy of the document so far
        vectors = np.empty((spec.mentions_per_doc * hi, 3))
        mentions: list[PlaceMention] = []
        ground_truth: dict[str, str] = {}

        for m_idx in range(spec.mentions_per_doc):
            name = f"place_{m_idx}"
            planted = _uniform_in_disk(rng, center, spec.context_radius)
            n_decoys = int(rng.integers(lo, hi + 1))
            decoys: list[GeoPoint] = []
            for _ in range(n_decoys):
                for attempt in range(MAX_REJECTION_ATTEMPTS):
                    p = _uniform_sphere(rng)
                    # keep the decoy clear of every possible planted point
                    if (
                        haversine(p, center)
                        < spec.min_decoy_distance_from_context + spec.context_radius
                    ):
                        continue
                    if not _clear_of(p, taken, vectors, spec.min_decoy_separation):
                        continue
                    vectors[len(taken)] = _unit_vector(p)
                    taken.append(p)
                    decoys.append(p)
                    break
                else:
                    raise RejectionOverflowError(
                        f"{doc_id}/{name}: no admissible decoy in "
                        f"{MAX_REJECTION_ATTEMPTS} attempts"
                    )
            locations = decoys.copy()
            true_pos = int(rng.integers(0, n_decoys + 1))
            locations.insert(true_pos, planted)
            candidates = tuple(
                CandidateEntry(
                    entry_id=f"{doc_id}_m{m_idx}_e{j}",
                    name=name,
                    location=loc,
                    source="synth",
                )
                for j, loc in enumerate(locations)
            )
            mentions.append(PlaceMention(name=name, candidates=candidates))
            ground_truth[name] = f"{doc_id}_m{m_idx}_e{true_pos}"

        docs.append(
            DocumentInput(doc_id=doc_id, mentions=tuple(mentions), ground_truth=ground_truth)
        )
    return docs


def write_corpus(docs: list[DocumentInput], directory: str | Path) -> list[Path]:
    """Write one canonical JSON file per document into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in docs:
        path = directory / f"{doc.doc_id}.json"
        path.write_text(document_to_json(doc), encoding="utf-8")
        paths.append(path)
    return paths
