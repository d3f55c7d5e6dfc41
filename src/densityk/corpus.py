"""Data model and file ingestion for candidate-annotated documents.

A document file is UTF-8 JSON of the shape::

    { "doc_id": str,
      "mentions": [ { "name": str,
                      "candidates": [ { "entry_id": str, "name": str,
                                        "lat": num, "lon": num,
                                        "source": str } ] } ],
      "ground_truth": { "<mention name>": "<entry_id>", ... }   # optional
    }

A corpus is either a directory of such files or a JSON-lines stream of
documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DocumentParseError, DocumentSchemaError
from .geo import GeoPoint, _half_unit_vectors, _radian_arrays, haversine

DEFAULT_DEDUPE_RADIUS_M = 50.0


@dataclass(frozen=True)
class CandidateEntry:
    """One ambiguous gazetteer entry for a place name."""

    entry_id: str
    name: str
    location: GeoPoint
    source: str


@dataclass(frozen=True)
class PlaceMention:
    """A surface place name with its non-empty candidate set."""

    name: str
    candidates: tuple[CandidateEntry, ...]


@dataclass(frozen=True)
class DocumentInput:
    """One description document: ordered mentions plus optional ground truth.

    Mention names are unique, and so are entry ids across the whole document.
    The ground truth maps a mention's name to one of its own candidates.
    """

    doc_id: str
    mentions: tuple[PlaceMention, ...]
    ground_truth: dict[str, str] | None = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        names: set[str] = set()
        for mention in self.mentions:
            if mention.name in names:
                raise DocumentSchemaError(
                    f"document {self.doc_id!r}, mention {mention.name!r}: duplicate mention name"
                )
            names.add(mention.name)
            for cand in mention.candidates:
                if cand.entry_id in seen:
                    raise DocumentSchemaError(
                        f"document {self.doc_id!r}, mention {mention.name!r}: "
                        f"duplicate entry_id {cand.entry_id!r}"
                    )
                seen.add(cand.entry_id)
        if self.ground_truth:
            by_name = {m.name: m.candidates for m in self.mentions}
            for gname, gentry in self.ground_truth.items():
                if gname not in by_name:
                    raise DocumentSchemaError(
                        f"document {self.doc_id!r}: ground_truth key {gname!r} matches no mention"
                    )
                if all(c.entry_id != gentry for c in by_name[gname]):
                    raise DocumentSchemaError(
                        f"document {self.doc_id!r}: ground_truth for {gname!r} names unknown "
                        f"entry_id {gentry!r}"
                    )

    @cached_property
    def _cloud(self) -> PointCloud:
        # see to_point_cloud; not a field, so out of eq, repr and replace()
        return PointCloud(
            points=tuple(
                CloudPoint(location=c.location, entry_id=c.entry_id, mention=m.name)
                for m in self.mentions
                for c in m.candidates
            )
        )


@dataclass(frozen=True)
class CloudPoint:
    """One candidate location with back-references to its mention and entry."""

    location: GeoPoint
    entry_id: str
    mention: str


@dataclass(frozen=True)
class PointCloud:
    """The locations of all candidates of a document, one point per candidate.

    The arrays the clusterers read are built from the points on first use
    and kept: O(n) each, never the O(n^2) pair distances.
    """

    points: tuple[CloudPoint, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _radians(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # read by geo.condensed_distances
        return _radian_arrays([p.location for p in self.points])

    @cached_property
    def _half_units(self) -> np.ndarray:
        # read by the chord kernel (geo._chord_haversines)
        return _half_unit_vectors(*self._radians)

    @cached_property
    def _id_ranks(self) -> np.ndarray:
        # each point's position in the ascending order of the entry ids
        n = len(self.points)
        ranks = np.empty(n, dtype=np.intp)
        ranks[sorted(range(n), key=lambda i: self.points[i].entry_id)] = np.arange(n)
        return ranks


_TYPE_NAMES = {str: "a string", list: "a list", dict: "a JSON object"}


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise DocumentParseError(f"{what} must be {_TYPE_NAMES[kind]}")
    return value


def _require(obj: dict, key: str, context: str, kind: type | None = None):
    if key not in obj:
        raise DocumentParseError(f"{context}: missing field '{key}'")
    if kind is None:
        return obj[key]
    return _expect(obj[key], kind, f"{context}: '{key}'")


def document_from_dict(raw: dict) -> DocumentInput:
    """Build and validate a DocumentInput from already-parsed JSON."""
    _expect(raw, dict, "document")
    doc_id = _require(raw, "doc_id", "document", str)
    mentions_raw = _require(raw, "mentions", f"document {doc_id!r}", list)

    mentions: list[PlaceMention] = []
    for mraw in mentions_raw:
        _expect(mraw, dict, f"document {doc_id!r}: each mention")
        ctx = f"document {doc_id!r}, mention {mraw.get('name', '?')!r}"
        name = _require(mraw, "name", ctx, str)
        cands_raw = _require(mraw, "candidates", ctx)
        if not isinstance(cands_raw, list) or len(cands_raw) == 0:
            raise DocumentSchemaError(f"{ctx}: candidate list is empty")
        candidates = []
        for craw in cands_raw:
            _expect(craw, dict, f"{ctx}: each candidate")
            entry_id = _require(craw, "entry_id", ctx, str)
            where = f"{ctx}, entry {entry_id!r}"
            lat = _require(craw, "lat", where)
            lon = _require(craw, "lon", where)
            if isinstance(lat, bool) or isinstance(lon, bool):
                raise DocumentSchemaError(f"{where}: boolean coordinate")
            if not (isinstance(lat, (int, float)) and isinstance(lon, (int, float))):
                raise DocumentSchemaError(f"{where}: coordinates must be numbers")  # float() takes "45.5"
            try:
                location = GeoPoint(float(lat), float(lon))
            except (ValueError, OverflowError) as exc:  # OverflowError: an int past float range
                raise DocumentSchemaError(f"{where}: {exc}") from exc
            candidates.append(
                CandidateEntry(
                    entry_id=entry_id,
                    name=_expect(craw.get("name", name), str, f"{where}: 'name'"),
                    location=location,
                    source=_expect(craw.get("source", ""), str, f"{where}: 'source'"),
                )
            )
        mentions.append(PlaceMention(name=name, candidates=tuple(candidates)))

    ground_truth = raw.get("ground_truth")
    if ground_truth is not None:
        _expect(ground_truth, dict, f"document {doc_id!r}: 'ground_truth'")
        for gname, gentry in ground_truth.items():  # DocumentInput checks what they name
            _expect(gentry, str, f"document {doc_id!r}: ground_truth for {gname!r}")
        ground_truth = dict(ground_truth)

    return DocumentInput(doc_id=doc_id, mentions=tuple(mentions), ground_truth=ground_truth)


def load_document(data: bytes | str) -> DocumentInput:
    """Parse one document from UTF-8 JSON bytes, enforcing all invariants."""
    try:
        raw = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise DocumentParseError(f"malformed JSON: {exc}") from exc
    return document_from_dict(raw)


def load_document_file(path: str | Path) -> DocumentInput:
    return load_document(Path(path).read_bytes())


def _load_at(where: str, data: bytes | str) -> DocumentInput:
    try:
        return load_document(data)
    except (DocumentParseError, DocumentSchemaError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def load_corpus(path: str | Path) -> list[DocumentInput]:
    """Load a corpus from a directory of ``*.json`` files or a JSON-lines file.

    Directory entries are read in sorted filename order so corpus order is
    stable across platforms. A bad document's error starts with its file
    path, and for JSON lines with ``path:line``.
    """
    path = Path(path)
    if path.is_dir():
        return [_load_at(str(child), child.read_bytes()) for child in sorted(path.glob("*.json"))]
    docs: list[DocumentInput] = []
    # bytes split on the line ends text mode reads (\n, \r, \r\n)
    for number, raw in enumerate(path.read_bytes().splitlines(), 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise DocumentParseError(f"{path}:{number}: not UTF-8: {exc}") from exc
        if line:
            docs.append(_load_at(f"{path}:{number}", line))
    return docs


def document_to_dict(doc: DocumentInput) -> dict:
    """Serialize back to the document schema (field-for-field round trip)."""
    out: dict = {
        "doc_id": doc.doc_id,
        "mentions": [
            {
                "name": m.name,
                "candidates": [
                    {
                        "entry_id": c.entry_id,
                        "name": c.name,
                        "lat": c.location.lat,
                        "lon": c.location.lon,
                        "source": c.source,
                    }
                    for c in m.candidates
                ],
            }
            for m in doc.mentions
        ],
    }
    if doc.ground_truth is not None:
        out["ground_truth"] = dict(sorted(doc.ground_truth.items()))
    return out


def document_to_json(doc: DocumentInput) -> str:
    """Canonical serialization: sorted keys, no trailing whitespace drift."""
    return json.dumps(document_to_dict(doc), sort_keys=True, indent=1) + "\n"


def dedupe_candidates(
    mention: PlaceMention, radius: float = DEFAULT_DEDUPE_RADIUS_M
) -> PlaceMention:
    """Drop near-duplicate candidates, keeping the first of each group.

    Greedy first-survivor rule: a candidate is removed iff it lies within
    ``radius`` meters of an earlier survivor. Idempotent; survivor order is
    the input order.
    """
    if not radius >= 0:  # NaN too: nothing is within it of anything
        raise ValueError(f"radius must be >= 0, got {radius}")
    survivors: list[CandidateEntry] = []
    for cand in mention.candidates:
        if all(haversine(cand.location, s.location) > radius for s in survivors):
            survivors.append(cand)
    return PlaceMention(name=mention.name, candidates=tuple(survivors))


def to_point_cloud(doc: DocumentInput) -> PointCloud:
    """One cloud point per (mention, candidate) pair, in document order.

    The cloud is built on the document's first call and the same object
    returned on every later one.
    """
    return doc._cloud
