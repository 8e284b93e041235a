"""Traced replay of the workload's operations through graphtda's public functions.

Each CLI operation is replayed as the sequence of library calls it makes,
one span around each call, named after the layer that owns it:

    graphs.parse          parse_graph
    complexes.enumerate   the *_complex call (both sides for --extended)
    filtrations.filter    filter_* or extended_pair
    filtrations.validate  FilteredComplex(...) re-run on the built values
    persistence.reduce    reduce, or the ExtendedPersistence constructor
    persistence.query     the ExtendedPersistence.pbn grid
    serialize.emit        diagram_to_doc + dumps + write
    serialize.load        diagram_from_doc
    metrics.bottleneck    bottleneck

The enumerate and validate spans re-run work that the filter call also does
internally, so a filter span's self part (filter - enumerate - validate) is
the value computation alone. The same replay runs under ``AllocProbe`` in a
separate pass to take each call's peak allocation with tracemalloc, which
slows the calls it watches four to ten times and would otherwise inflate the
timed spans.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from graphtda import (
    ExtendedPersistence,
    FilteredComplex,
    bottleneck,
    clique_complex,
    enclaveless_complex,
    extend_weights,
    extended_pair,
    filter_clique,
    filter_enclaveless,
    filter_neighborhood,
    neighborhood_complex,
    parse_graph,
    reduce,
)
from graphtda import serialize
from graphtda.cli import sample_coordinates

MAX_DIM = 3  # the CLI default; complexes are built one dimension higher
COMPLEX = {
    "clique": clique_complex,
    "neighborhood": neighborhood_complex,
    "enclaveless": enclaveless_complex,
}
FILTER = {
    "clique": filter_clique,
    "neighborhood": filter_neighborhood,
    "enclaveless": filter_enclaveless,
}
TIMED_LAYERS = (
    "graphs.parse",
    "complexes.enumerate",
    "filtrations.filter",
    "filtrations.validate",
    "persistence.reduce",
    "persistence.query",
    "serialize.emit",
    "serialize.load",
    "metrics.bottleneck",
)
PEAK_LAYERS = (
    "complexes.enumerate",
    "filtrations.filter",
    "persistence.reduce",
    "metrics.bottleneck",
)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        sid = len(self.spans)
        record = {"name": name, "op": op, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def layer_seconds(self, ops: set[int]) -> dict[str, float]:
        """Summed span time per layer over the given ops."""
        out = dict.fromkeys(TIMED_LAYERS, 0.0)
        for s in self.spans:
            if s["op"] in ops and s["name"] in out:
                out[s["name"]] += s["end"] - s["start"]
        return out


class AllocProbe:
    """Peak allocation of each measured call, traced from the call's start.

    tracemalloc runs only inside the measured calls, so the blocks live
    before a call are not traced and the peak is what the call added.
    """

    def __init__(self):
        self.peak_mb: dict[str, float] = dict.fromkeys(PEAK_LAYERS, 0.0)

    @contextmanager
    def span(self, name: str, op: int):
        if name not in self.peak_mb:
            yield
            return
        tracemalloc.start()
        try:
            yield
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.peak_mb[name] = max(self.peak_mb[name], peak / 2**20)


def _simplex_counts(*complexes) -> Counter:
    counts = Counter()
    for k in complexes:
        for s in k.simplices:
            counts[len(s) - 1] += 1
    return counts


def _emit(docs, path: Path) -> int:
    text = serialize.dumps(docs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))


def replay(op, recorder, opid: int, out: Path) -> dict:
    """Run one operation through the library under ``recorder``.

    Returns the op's work counts, its diagram totals and its output (the
    emitted file's path or the printed distance) for comparison with the CLI.
    """
    result = {"simplices": Counter(), "queries": 0, "points": 0, "bytes": 0,
              "diagram_points": 0, "essential_classes": 0}
    span = recorder.span
    with span("op", opid):
        if op.kind == "extended":
            text = Path(op.inputs[0]).read_text(encoding="utf-8")
            with span("graphs.parse", opid):
                g = parse_graph(text)
            completed = extend_weights(g)
            with span("complexes.enumerate", opid):
                ascending = clique_complex(g, MAX_DIM + 1)
                descending = clique_complex(completed, MAX_DIM + 1)
            result["simplices"] = _simplex_counts(ascending, descending)
            del ascending, descending
            with span("filtrations.filter", opid):
                pair = extended_pair(g, MAX_DIM + 1)
            with span("filtrations.validate", opid):
                FilteredComplex(pair.ascending.complex, pair.ascending.value)
                FilteredComplex(pair.descending.complex, pair.descending.value)
            with span("persistence.reduce", opid):
                ext = ExtendedPersistence(pair, MAX_DIM)
            coords = sample_coordinates(
                pair.ascending.critical_values()
                + tuple(-v for v in pair.descending.critical_values())
            )
            with span("persistence.query", opid):
                grids = [
                    [[ext.pbn(r, u, v) for v in coords] for u in coords]
                    for r in range(MAX_DIM + 1)
                ]
            result["queries"] = (MAX_DIM + 1) * len(coords) ** 2
            diagrams = ext.ascending + ext.descending
            with span("serialize.emit", opid):
                doc = {
                    "ascending": [serialize.diagram_to_doc(d) for d in ext.ascending],
                    "descending": [serialize.diagram_to_doc(d) for d in ext.descending],
                    "grids": [
                        {"dimension": r, "coordinates": coords, "values": grids[r]}
                        for r in range(MAX_DIM + 1)
                    ],
                }
                result["bytes"] = _emit(doc, out)
            result["output"] = str(out)
        elif op.kind in COMPLEX:
            text = Path(op.inputs[0]).read_text(encoding="utf-8")
            with span("graphs.parse", opid):
                g = parse_graph(text)
            with span("complexes.enumerate", opid):
                k = COMPLEX[op.kind](g, MAX_DIM + 1)
            result["simplices"] = _simplex_counts(k)
            del k
            with span("filtrations.filter", opid):
                fc = FILTER[op.kind](g, MAX_DIM + 1)
            with span("filtrations.validate", opid):
                FilteredComplex(fc.complex, fc.value)
            with span("persistence.reduce", opid):
                diagrams = reduce(fc, MAX_DIM)
            with span("serialize.emit", opid):
                result["bytes"] = _emit([serialize.diagram_to_doc(d) for d in diagrams], out)
            result["output"] = str(out)
        else:
            docs = []
            for path in op.inputs:
                text = Path(path).read_text(encoding="utf-8")
                result["bytes"] += len(text.encode("utf-8"))
                docs.append(json.loads(text))
            with span("serialize.load", opid):
                diagrams = [serialize.diagram_from_doc(d) for d in docs]
            with span("metrics.bottleneck", opid):
                value = bottleneck(*diagrams)
            result["points"] = sum(d.total_points + d.total_essential for d in diagrams)
            result["output"] = f"{value}\n"
    result["diagram_points"] = sum(d.total_points for d in diagrams)
    result["essential_classes"] = sum(d.total_essential for d in diagrams)
    return result
