#!/usr/bin/env python3
"""Rebuild the diagram and heatmap figures from the committed example graphs.

Writes SVGs and diagram JSON to out/figures/, or to the directory given as
the only argument. The console output summarizes the qualitative features
each construction exposes on data/figures_graph.txt, and the query point at
which the two extended weightings disagree.

    python scripts/regen_figures.py [OUT_DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graphtda import (  # noqa: E402
    extended_pair,
    filter_clique,
    filter_enclaveless,
    filter_neighborhood,
    parse_graph,
    serialize,
    svg,
)
from graphtda.cli import sample_coordinates  # noqa: E402
from graphtda.persistence import ExtendedPersistence, reduce  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "out_dir", nargs="?", type=Path, default=ROOT / "out" / "figures",
        help="where to write the figures (default: out/figures)",
    )
    out_dir = parser.parse_args().out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    g = parse_graph((ROOT / "data" / "figures_graph.txt").read_text())
    builders = {
        "clique": filter_clique,
        "neighborhood": filter_neighborhood,
        "enclaveless": filter_enclaveless,
    }
    for name, build in builders.items():
        fc = build(g, 4)
        diagrams = reduce(fc, 2)
        docs = [serialize.diagram_to_doc(d) for d in diagrams]
        (out_dir / f"{name}_diagrams.json").write_text(serialize.dumps(docs))
        (out_dir / f"{name}_diagrams.svg").write_text(svg.render_diagrams(docs))
        summary = ", ".join(
            f"H{d.dimension}: {d.total_points} proper / {d.total_essential} at infinity"
            for d in diagrams
        )
        print(f"{name:>13}: {summary}")

    names = ("extended_a", "extended_b")
    exts = []
    for name in names:
        gx = parse_graph((ROOT / "data" / f"{name}.txt").read_text())
        pair = extended_pair(gx, 2)
        ext = ExtendedPersistence(pair, 1)
        exts.append((ext, pair))
        coords = sample_coordinates(
            pair.ascending.critical_values()
            + tuple(-v for v in pair.descending.critical_values())
        )
        grid = {"dimension": 0, "coordinates": coords, "values": ext.grid(0, coords)}
        (out_dir / f"{name}_grid.svg").write_text(svg.render_extended_grid(grid))

    (ea, pa), (eb, pb) = exts
    coords = sample_coordinates(
        pa.ascending.critical_values() + pb.ascending.critical_values()
        + tuple(-v for v in pa.descending.critical_values())
        + tuple(-v for v in pb.descending.critical_values())
    )
    same_above = all(
        ea.pbn(0, u, v) == eb.pbn(0, u, v)
        for u in coords
        for v in coords
        if u < v
    )
    witnesses = [
        (u, v)
        for u in coords
        for v in coords
        if u > v and ea.pbn(0, u, v) != eb.pbn(0, u, v)
    ]
    print(f"ascending 0-PBNs identical above the diagonal: {same_above}")
    if witnesses:
        u, v = witnesses[0]
        print(
            f"extended 0-PBNs differ below it, e.g. at (u, v) = ({u}, {v}): "
            f"{ea.pbn(0, u, v)} vs {eb.pbn(0, u, v)}"
        )
    print(f"figures written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
