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
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

import numpy as np

from . import geo
from .errors import DocumentParseError, DocumentSchemaError
from .geo import GeoPoint, _radian_arrays, haversine
from .params import RADIUS

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
        # positional arguments: a third cheaper than keywords per point
        points = [CloudPoint(c.location, c.entry_id, m.name) for m in self.mentions for c in m.candidates]
        return PointCloud(tuple(points))


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
    and kept: O(n) each, among them, past one block, the points' order
    along one axis of their half unit vectors, over which the edge source
    finds the pairs within a limit (``geo._band``) and the chord kernel
    walks its row blocks. A cloud of at most
    ``geo._ONE_BLOCK_N`` (257) points also keeps its n(n-1)/2 pair
    distances, at most 263 KB, and every cloud its k-dist epsilon for each
    k asked; a larger cloud never stores its pair distances.
    """

    points: tuple[CloudPoint, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _radians(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # read by geo.condensed_distances
        return _radian_arrays([p.location for p in self.points])

    @cached_property
    def _distances(self) -> np.ndarray:
        # the condensed pair distances, read-only; geo.condensed_distances
        # reads them here only for a cloud of at most geo._ONE_BLOCK_N points
        distances = geo._condensed(*self._radians)
        distances.flags.writeable = False
        return distances

    @cached_property
    def _kdist_epsilons(self) -> dict[int, float]:
        # baselines.kdist_epsilon's value for each k asked so far
        return {}

    @cached_property
    def _band_order(self) -> tuple[int, np.ndarray, np.ndarray]:
        # the sort axis, the points' order along it and their half unit
        # vectors in that order, read past one block by the edge source's
        # band (geo._band) and by the chord kernel's row blocks
        return geo._band_order(self._radians)

    @cached_property
    def _id_ranks(self) -> np.ndarray:
        # each point's position in the ascending order of the entry ids
        n = len(self.points)
        ranks = np.empty(n, dtype=np.intp)
        ranks[sorted(range(n), key=lambda i: self.points[i].entry_id)] = np.arange(n)
        return ranks


_TYPE_NAMES = {str: "a string", list: "a list", dict: "a JSON object"}


def _place(doc_id: str | None = None, mraw: dict | None = None, entry_id: str | None = None) -> str:
    # where in a document a fault lies, the start of its message: built
    # only when a fault is raised
    if doc_id is None:
        return "document"
    if mraw is None:
        return f"document {doc_id!r}"
    mention = f"document {doc_id!r}, mention {mraw.get('name', '?')!r}"
    return mention if entry_id is None else f"{mention}, entry {entry_id!r}"


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise DocumentParseError(f"{what} must be {_TYPE_NAMES[kind]}")
    return value


def _require(obj: dict, key: str, kind: type | None, *place):
    # obj[key], of type ``kind`` unless that is None; a fault's message
    # starts with _place(*place)
    if key not in obj:
        raise DocumentParseError(f"{_place(*place)}: missing field '{key}'")
    value = obj[key]
    if kind is None or isinstance(value, kind):
        return value
    raise DocumentParseError(f"{_place(*place)}: '{key}' must be {_TYPE_NAMES[kind]}")


def _candidate(craw, name: str, doc_id: str, mraw: dict) -> CandidateEntry:
    # the candidate ``craw`` of mention ``name``, each field checked in
    # document order: the first fault is raised
    if not isinstance(craw, dict):
        raise DocumentParseError(f"{_place(doc_id, mraw)}: each candidate must be a JSON object")
    entry_id = _require(craw, "entry_id", str, doc_id, mraw)
    if "lat" not in craw or "lon" not in craw:
        missing = "lon" if "lat" in craw else "lat"
        raise DocumentParseError(f"{_place(doc_id, mraw, entry_id)}: missing field '{missing}'")
    lat, lon = craw["lat"], craw["lon"]
    if isinstance(lat, bool) or isinstance(lon, bool):
        raise DocumentSchemaError(f"{_place(doc_id, mraw, entry_id)}: boolean coordinate")
    if not (isinstance(lat, (int, float)) and isinstance(lon, (int, float))):
        # float() takes "45.5"
        raise DocumentSchemaError(f"{_place(doc_id, mraw, entry_id)}: coordinates must be numbers")
    try:
        location = GeoPoint(float(lat), float(lon))
    except (ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise DocumentSchemaError(f"{_place(doc_id, mraw, entry_id)}: {exc}") from exc
    cname = craw.get("name", name)
    if not isinstance(cname, str):
        raise DocumentParseError(f"{_place(doc_id, mraw, entry_id)}: 'name' must be a string")
    source = craw.get("source", "")
    if not isinstance(source, str):
        raise DocumentParseError(f"{_place(doc_id, mraw, entry_id)}: 'source' must be a string")
    return CandidateEntry(entry_id, cname, location, source)


def document_from_dict(raw: dict) -> DocumentInput:
    """Build and validate a DocumentInput from already-parsed JSON.

    A well-formed candidate passes one combined type test. Everything else
    is checked field by field, in document order, and the first fault is
    raised; the text that says where it lies is built only then.
    """
    _expect(raw, dict, "document")
    doc_id = _require(raw, "doc_id", str)
    mentions_raw = _require(raw, "mentions", list, doc_id)

    mentions: list[PlaceMention] = []
    for mraw in mentions_raw:
        if not isinstance(mraw, dict):
            raise DocumentParseError(f"{_place(doc_id)}: each mention must be a JSON object")
        name = _require(mraw, "name", str, doc_id, mraw)
        cands_raw = _require(mraw, "candidates", None, doc_id, mraw)
        if not isinstance(cands_raw, list) or len(cands_raw) == 0:
            raise DocumentSchemaError(f"{_place(doc_id, mraw)}: candidate list is empty")
        candidates = []
        for craw in cands_raw:
            # a well-formed candidate passes one combined type test; any
            # other, and one whose point GeoPoint refuses, takes _candidate's
            # checks, which raise its first fault
            if craw.__class__ is dict:
                entry_id, lat, lon = craw.get("entry_id"), craw.get("lat"), craw.get("lon")
                cname, source = craw.get("name", name), craw.get("source", "")
                if (
                    entry_id.__class__ is str
                    and lat.__class__ is float
                    and lon.__class__ is float
                    and cname.__class__ is str
                    and source.__class__ is str
                ):
                    try:
                        candidates.append(CandidateEntry(entry_id, cname, GeoPoint(lat, lon), source))
                        continue
                    except ValueError:
                        pass
            candidates.append(_candidate(craw, name, doc_id, mraw))
        mentions.append(PlaceMention(name, tuple(candidates)))

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
            line = raw.decode("utf-8-sig").strip()  # drops a BOM, as json.loads does on bytes
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
    return to_canonical_json(document_to_dict(doc))


def to_canonical_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=1) + "\\n"``, byte for
    byte, for every acyclic value json writes, and json's own ``TypeError``
    for one it does not: the one canonical form of a report or document.

    ``indent`` turns json's C encoder off, and its pure-Python encoder took
    almost twice this writer's time on a result. The writer itself writes
    only values of the exact types str, int, float, bool, None, list, tuple
    and dict, appending their pieces to one list, sorting each object's
    items as json does and escaping strings with json's own C escaper. json
    writes every value the writer does not handle itself: one of any other
    type, and a dict with a key that is not a str, keys that do not sort or
    a value json refuses.
    """
    out: list[str] = []
    _write(payload, 0, out)
    out.append("\n")
    return "".join(out)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# the text of each exact scalar type json writes
_SCALARS = {
    str: _json_string,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _layout(depth: int) -> tuple[str, str, str, str, str, str]:
    # the text around the items of a container on a line indented ``depth``
    # levels: the line's own break (a newline and one space a level), the
    # openings of a list and of a dict with the break before their first
    # item, the comma and break before each later item, and the closings
    # of a list and of a dict
    pad = "\n" + " " * depth
    inner = pad + " "
    return pad, "[" + inner, "{" + inner, "," + inner, pad + "]", pad + "}"


# each depth's _layout, added on demand; keyed by depth, so that writers in
# two threads that add the same depth add the same text
_LAYOUTS = {0: _layout(0)}


def _write(value, depth: int, out: list[str]) -> None:
    # appends the pieces of the JSON text of ``value``, on a line indented
    # ``depth`` levels, to ``out``; a container appends its exact str and
    # int items itself
    cls = value.__class__
    if cls is not dict and cls is not list and cls is not tuple:
        write = _SCALARS.get(cls)
        out.append(_json_dumps(value, _LAYOUTS[depth][0]) if write is None else write(value))
        return
    if not value:
        out.append("{}" if cls is dict else "[]")
        return
    pad, open_list, open_dict, comma, close_list, close_dict = _LAYOUTS[depth]
    if depth + 1 not in _LAYOUTS:
        _LAYOUTS[depth + 1] = _layout(depth + 1)
    append = out.append
    if cls is not dict:
        sep = open_list
        for item in value:
            append(sep)
            sep = comma
            if item.__class__ is str:
                append(_json_string(item))
            elif item.__class__ is int:
                append(int.__repr__(item))
            else:
                _write(item, depth + 1, out)
        append(close_list)
        return
    start = len(out)
    sep = open_dict
    try:
        for key in sorted(value):
            item = value[key]
            append(sep)
            sep = comma
            append(_json_string(key))
            append(": ")
            if item.__class__ is str:
                append(_json_string(item))
            elif item.__class__ is int:
                append(int.__repr__(item))
            else:
                _write(item, depth + 1, out)
    except TypeError:  # a key that is no str, keys that do not sort or a value json refuses
        del out[start:]
        append(_json_dumps(value, pad))
        return
    append(close_dict)


def _json_dumps(value, pad: str) -> str:
    # json's text of ``value`` at ``pad``: with ASCII escaping every newline
    # json writes is structural
    return json.dumps(value, sort_keys=True, indent=1).replace("\n", pad)


def dedupe_candidates(
    mention: PlaceMention, radius: float = DEFAULT_DEDUPE_RADIUS_M
) -> PlaceMention:
    """Drop near-duplicate candidates, keeping the first of each group.

    Greedy first-survivor rule: a candidate is removed iff it lies within
    ``radius`` meters of an earlier survivor. Idempotent; survivor order is
    the input order.
    """
    RADIUS.check(radius)
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
