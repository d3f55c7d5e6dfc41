from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from densityk import (
    CandidateEntry,
    CloudPoint,
    DocumentInput,
    GeoPoint,
    PlaceMention,
    PointCloud,
)
from densityk.synth import SynthSpec, synth_generate


def make_cloud(coords: list[tuple[float, float]], mention: str = "m") -> PointCloud:
    return PointCloud(
        points=tuple(
            CloudPoint(location=GeoPoint(lat, lon), entry_id=f"p{i:03d}", mention=mention)
            for i, (lat, lon) in enumerate(coords)
        )
    )


def make_document(
    doc_id: str,
    mentions: dict[str, list[tuple[float, float]]],
    ground_truth: dict[str, str] | None = None,
) -> DocumentInput:
    """Mentions map a name to candidate coordinates; entry ids are
    ``<name>_e<i>`` in listed order."""
    built = tuple(
        PlaceMention(
            name=name,
            candidates=tuple(
                CandidateEntry(
                    entry_id=f"{name}_e{i}",
                    name=name,
                    location=GeoPoint(lat, lon),
                    source="test",
                )
                for i, (lat, lon) in enumerate(coords)
            ),
        )
        for name, coords in mentions.items()
    )
    return DocumentInput(doc_id=doc_id, mentions=built, ground_truth=ground_truth)


def random_coords(rng: np.random.Generator, n: int, scales=(0.001, 0.1, 10.0)) -> list[tuple[float, float]]:
    """Mixed-scale point cloud: a few centers with jitter at varied extents
    (degrees), producing both tight groups and global scatter."""
    coords = []
    n_centers = int(rng.integers(2, 5))
    centers = [(float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180))) for _ in range(n_centers)]
    for _ in range(n):
        clat, clon = centers[int(rng.integers(0, n_centers))]
        scale = scales[int(rng.integers(0, len(scales)))]
        lat = float(np.clip(clat + rng.normal(0, scale), -89.9, 89.9))
        lon = clon + rng.normal(0, scale)
        coords.append((lat, lon))
    return coords


def unique_ring_counts(values: np.ndarray, delta_d: float) -> tuple[np.ndarray, np.ndarray]:
    """The occupied rings of the distances ``values`` and how many fall in
    each, from ``np.unique``: the reference for every ring count. Distance
    x falls in ring ceil(x / delta_d), and distance 0 in ring 1."""
    return np.unique(np.maximum(np.ceil(values / delta_d), 1).astype(np.int64), return_counts=True)


@pytest.fixture(scope="session")
def default_corpus() -> list[DocumentInput]:
    return synth_generate(SynthSpec())


@pytest.fixture
def source_repository(tmp_path) -> Path:
    """A git repository of this checkout's ``src`` alone, committed, in
    ``tmp_path``: the timing tools run there time its HEAD against its
    working tree. Skips without git."""
    if shutil.which("git") is None:
        pytest.skip("needs git")
    shutil.copytree(Path(__file__).parents[1] / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "src"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path, check=True, capture_output=True)
    return tmp_path
