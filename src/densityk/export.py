"""Serialization of density curves (CSV) and clusterings (GeoJSON)."""

from __future__ import annotations

from .clustering import DisambiguationResult
from .corpus import to_canonical_json  # noqa: F401  (beside document_to_json, its other caller)
from .kfunction import KFunction

# the samples one piece of the CSV text holds
_CSV_BLOCK = 1 << 12


def kfunction_to_csv(kf: KFunction) -> str:
    """CSV with one row per sample plus the derived threshold as a trailing
    comment line."""
    return "".join(_kfunction_csv_pieces(kf))


def _kfunction_csv_pieces(kf: KFunction):
    # kfunction_to_csv's text in pieces of at most _CSV_BLOCK rows, so a
    # writer holds one piece at a time rather than the whole curve's text
    yield "d_meters,k_density\n"
    for start in range(0, len(kf), _CSV_BLOCK):
        block = slice(start, start + _CSV_BLOCK)
        rows = zip(kf.distances_m[block].tolist(), kf.densities[block].tolist())
        yield "".join(f"{d!r},{k!r}\n" for d, k in rows)
    if kf.cluster_distance is not None:
        yield f"# cluster_distance_meters={kf.cluster_distance!r}\n"


def clusters_to_geojson(result: DisambiguationResult) -> dict:
    """FeatureCollection of candidate points tagged with their cluster rank."""
    features = []
    for cluster in result.ranked_clusters:
        for point in cluster.members:
            features.append(
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Point",
                        "coordinates": [point.location.lon, point.location.lat],
                    },
                    "properties": {
                        "entry_id": point.entry_id,
                        "mention": point.mention,
                        "cluster_rank": cluster.rank,
                    },
                }
            )
    return {"type": "FeatureCollection", "features": features}


def result_to_dict(result: DisambiguationResult) -> dict:
    """Plain-JSON view of a disambiguation result."""
    out: dict = {
        "doc_id": result.doc_id,
        "outcomes": {
            name: (
                {"status": outcome.status.value, "entry_id": outcome.entry_id}
                if outcome.resolved
                else {"status": outcome.status.value}
            )
            for name, outcome in result.outcomes.items()
        },
        "clusters": [
            {
                "rank": cluster.rank,
                "entries": [p.entry_id for p in cluster.members],
            }
            for cluster in result.ranked_clusters
        ],
    }
    if result.diagnostics is not None and result.diagnostics.cluster_distance is not None:
        out["cluster_distance_m"] = result.diagnostics.cluster_distance
    return out
