"""External document formats: complex JSON, filtered-complex JSON, diagram JSON/CSV and the
`persist --extended` document (both sides' diagrams, PBN grids on the lattice that
`sample_coordinates` draws from the object's own critical values).

All emitters are deterministic (fixed key order, sorted content), so repeated runs on the
same input are byte-identical. The infinity sentinels travel as the strings "inf" and "-inf".
`read_document` tells CSV, diagram JSON and an extended document apart, and checks each.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from .complexes import SimplicialComplex, simplex
from .filtrations import FilteredComplex
from .graphs import _count, _real
from .persistence import DiagramPoint, EssentialPoint, ExtendedPersistence, PersistenceDiagram, _proper


class DocumentError(ValueError):
    """Raised when a serialized document does not match its schema."""


def encode_value(x: float) -> float | str:
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return float(x)


def decode_value(v) -> float:
    """A document value: "inf", "-inf" or a number `_real` reads (NaN is "value is NaN")."""
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise DocumentError(f"bad value string {v!r}; only 'inf' and '-inf' are allowed")
    try:
        return _real(v, "value")
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def _list(v, what: str) -> list:
    if not isinstance(v, list):
        raise DocumentError(f"{what} must be a list, got {v!r}")
    return v


def dumps(doc) -> str:
    """json.dumps(doc, indent=2, allow_nan=False) and a newline."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def complex_to_doc(k: SimplicialComplex) -> dict:
    return {
        "vertices": list(k.vertices),
        "facets": [list(f) for f in k.facets],
    }


def complex_from_doc(doc) -> SimplicialComplex:
    if not isinstance(doc, dict) or "vertices" not in doc or "facets" not in doc:
        raise DocumentError("complex document needs 'vertices' and 'facets'")
    facets = [_list(f, "a facet") for f in _list(doc["facets"], "'facets'")]
    try:
        k = SimplicialComplex.from_facets(facets)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"bad facet list: {exc}") from None
    declared = _list(doc["vertices"], "'vertices'")
    for v in declared:
        if not isinstance(v, str):
            raise DocumentError(f"vertex labels must be strings, got {v!r}")
    if tuple(sorted(declared)) != k.vertices:
        raise DocumentError("vertex list does not match the facets")
    return k


def filtered_to_doc(fc: FilteredComplex) -> dict:
    return {
        "simplices": [
            {"vertices": list(s), "value": encode_value(fc.value[s])}
            for s in fc.sorted_simplices()
        ]
    }


def filtered_from_doc(doc) -> FilteredComplex:
    if not isinstance(doc, dict) or "simplices" not in doc:
        raise DocumentError("filtered-complex document needs 'simplices'")
    values = {}
    for entry in _list(doc["simplices"], "'simplices'"):
        if not isinstance(entry, dict) or "vertices" not in entry or "value" not in entry:
            raise DocumentError("each simplex entry needs 'vertices' and 'value'")
        try:
            s = simplex(_list(entry["vertices"], "a simplex's vertices"))
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"bad simplex: {exc}") from None
        if s in values:
            raise DocumentError(f"simplex {s} listed twice")
        values[s] = decode_value(entry["value"])
    try:
        return FilteredComplex(SimplicialComplex(values.keys()), values)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"bad filtered complex: {exc}") from None


def diagram_to_doc(d: PersistenceDiagram) -> dict:
    return {
        "dimension": d.dimension,
        "points": [
            {
                "birth": encode_value(p.birth),
                "death": encode_value(p.death),
                "multiplicity": p.multiplicity,
            }
            for p in d.points
        ],
        "essential": [
            {"birth": encode_value(e.birth), "multiplicity": e.multiplicity}
            for e in d.essential
        ],
    }


def diagram_from_doc(doc) -> PersistenceDiagram:
    return diagrams_from_json([doc])[0]


def diagrams_from_json(doc) -> list[PersistenceDiagram]:
    """One checked diagram per degree of a diagram document or a list of them, in ascending
    order. A degree listed more than once reads as one diagram of all its points, as in CSV."""
    docs = [doc] if isinstance(doc, dict) else _list(doc, "diagram documents")
    if not all(isinstance(d, dict) and "dimension" in d for d in docs):
        raise DocumentError("diagram document needs 'dimension'")
    try:
        return _pooled(
            (
                d["dimension"],
                (DiagramPoint(decode_value(p["birth"]), decode_value(p["death"]), p.get("multiplicity", 1))
                 for p in d.get("points", ())),
                (EssentialPoint(decode_value(e["birth"]), e.get("multiplicity", 1))
                 for e in d.get("essential", ())),
            )
            for d in docs
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad diagram document: {exc}") from None


def _pooled(parts) -> list[PersistenceDiagram]:
    """One diagram per degree of the (degree, points, essential) triples in parts, in ascending
    order, holding all its points. A degree is checked before it keys the pool: True is not 1."""
    pool: dict[int, tuple[list, list]] = {}
    for r, points, essential in parts:
        pts, ess = pool.setdefault(_count(r, "dimension", 0), ([], []))
        pts += points
        ess += essential
    return [PersistenceDiagram(r, pts, ess) for r, (pts, ess) in sorted(pool.items())]


def midpoint(a: float, b: float) -> float:
    """(a + b) / 2, with the halves summed only where the sum overflows."""
    mid = (a + b) / 2.0
    return mid if math.isfinite(mid) else a / 2.0 + b / 2.0


def step_past(x: float, direction: float) -> float:
    """x moved one unit in direction (math.inf or -math.inf) or, where a unit does
    not move it (from about 2**53), to the adjacent float; never past the largest float."""
    y = x + math.copysign(1.0, direction)
    if y == x:
        y = math.nextafter(x, direction)
    return y if math.isfinite(y) else x


def sample_coordinates(values: tuple[float, ...]) -> list[float]:
    """Deterministic query lattice: finite criticals, midpoints, and one step past
    each end (step_past), so its first is below its last; else [0.0, 1.0]."""
    finite = sorted({v for v in values if math.isfinite(v)})
    if not finite:
        return [0.0, 1.0]
    coords = [step_past(finite[0], -math.inf)]
    for a, b in zip(finite, finite[1:]):
        coords.extend([a, midpoint(a, b)])
    coords.extend([finite[-1], step_past(finite[-1], math.inf)])
    return coords


def extended_to_doc(ext: ExtendedPersistence) -> dict:
    """The document `persist --extended` writes: the diagrams of both sides and, for each
    degree up to ext.max_dim, the extended-PBN grid on the lattice of ext.critical_values."""
    coords = sample_coordinates(ext.critical_values)
    return {
        "ascending": [diagram_to_doc(d) for d in ext.ascending],
        "descending": [diagram_to_doc(d) for d in ext.descending],
        "grids": [
            {"dimension": r, "coordinates": coords, "values": ext.grid(r, coords)}
            for r in range(ext.max_dim + 1)
        ],
    }


def extended_json(ext: ExtendedPersistence) -> str:
    """dumps(extended_to_doc(ext)), with each grid row written from the C encoder's text, not
    one item at a time by the pure-Python encoder of indent=2: rows at 8 spaces, ints at 10."""
    doc = extended_to_doc(ext)
    # No other value in the document is null, so this splits once per grid, in order.
    head, *tails = dumps({**doc, "grids": [{**g, "values": None} for g in doc["grids"]]}).split('"values": null')
    parts = [head]
    for g, tail in zip(doc["grids"], tails):
        rows = "\n        ],\n        [\n          ".join(
            json.dumps(row)[1:-1].replace(", ", ",\n          ") for row in g["values"])
        parts += ['"values": [\n        [\n          ', rows, "\n        ]\n      ]", tail]
    return "".join(parts)


def grids_from_json(grids) -> dict[int, tuple[list[float], list[list[int]]]]:
    """{degree: (coordinates, rows)} of the grids of an extended document, checked as
    `persist --extended` writes them: one grid per degree, n >= 2 finite nondecreasing
    coordinates, the first below the last (a midpoint may equal an end), n rows of n counts."""
    checked = {}
    for doc in _list(grids, "'grids'"):
        if not isinstance(doc, dict) or not {"dimension", "coordinates", "values"} <= doc.keys():
            raise DocumentError("each grid needs 'dimension', 'coordinates' and 'values'")
        r = _count(doc["dimension"], "grid dimension", 0)
        if r in checked:
            raise DocumentError(f"grid degree {r} is listed twice; a document holds one grid per degree")
        coords = [decode_value(c) for c in _list(doc["coordinates"], "grid coordinates")]
        n = len(coords)
        rows = _list(doc["values"], "grid values")
        if n < 2 or len(rows) != n or any(len(_list(row, "a grid row")) != n for row in rows):
            raise DocumentError(f"a grid needs n >= 2 coordinates and n rows of n counts, got n = {n}")
        if not all(math.isfinite(c) for c in coords):
            raise DocumentError("grid coordinates must be finite")
        if any(b < a for a, b in zip(coords, coords[1:])):
            raise DocumentError("grid coordinates are out of order; they must be nondecreasing")
        if coords[0] == coords[-1]:
            raise DocumentError("grid coordinates span no interval; the first must be below the last")
        checked[r] = (coords, [[_count(v, "grid value", 0) for v in row] for row in rows])
    return checked


def diagrams_to_csv(diagrams: Iterable[PersistenceDiagram]) -> str:
    """Rows "r,birth,death,multiplicity"; essential points carry death inf.

    Proper points with an infinite death cannot be told apart from essential
    ones in this format and are refused; use JSON for such diagrams.
    """
    lines = []
    for d in diagrams:
        for p in d.points:
            if math.isinf(p.death):
                raise ValueError(
                    "CSV cannot represent a proper point with infinite death; use JSON"
                )
            lines.append(
                f"{d.dimension},{encode_value(p.birth)},{encode_value(p.death)},{p.multiplicity}"
            )
        for e in d.essential:
            lines.append(f"{d.dimension},{encode_value(e.birth)},inf,{e.multiplicity}")
    return "\n".join(lines) + ("\n" if lines else "")


def _csv_value(token: str) -> float:
    """A CSV birth or death. An integer beyond the float range is refused, as
    in JSON; any other token reads as float() reads it, 1e999 and inf included."""
    x = float(token)
    if math.isinf(x) and token.strip().lstrip("+-").replace("_", "").isdigit():
        raise DocumentError("value is an integer too large for a float")
    return decode_value(x)


def diagrams_from_csv(text: str) -> list[PersistenceDiagram]:
    """One diagram per degree present in CSV rows, in ascending order, holding all the rows
    of that degree (as in JSON); each row is checked as a JSON point is checked."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DocumentError(f"CSV line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            r = _count(int(parts[0]), "dimension", 0)
            birth = _csv_value(parts[1])
            death = _csv_value(parts[2])
            mult = _count(int(parts[3]), "multiplicity", 1)
            if death == math.inf:
                rows.append((r, (), (EssentialPoint(birth, mult),)))
            else:
                _proper([(birth, death)])
                rows.append((r, (DiagramPoint(birth, death, mult),), ()))
        except ValueError as exc:
            raise DocumentError(f"CSV line {lineno}: {exc}") from None
    return _pooled(rows)


def read_document(text: str) -> dict | list[PersistenceDiagram]:
    """Checked diagrams from CSV unless the stripped text starts with { or [; from JSON, the
    grids of an object with "grids", else the diagrams. Raises ValueError or RecursionError."""
    if not text.lstrip().startswith(("{", "[")):
        return diagrams_from_csv(text)
    # ValueError past json.loads' digit limit; RecursionError, one frame per nesting level
    doc = json.loads(text)
    if isinstance(doc, dict) and "grids" in doc:
        return grids_from_json(doc["grids"])
    return diagrams_from_json(doc)
