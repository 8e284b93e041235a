#!/usr/bin/env python3
"""Rebuild the diagram and heatmap figures from the committed example graphs.

Writes SVGs and diagram JSON to out/figures/, or to the directory given as
the only argument, through `graphtda persist` and `graphtda plot`. The console
output summarizes the qualitative features each construction exposes on
data/figures_graph.txt, and the query point at which the two extended
weightings disagree.

    python scripts/regen_figures.py [OUT_DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graphtda import ExtendedPersistence, parse_graph, serialize  # noqa: E402
from graphtda.cli import main as graphtda  # noqa: E402


def run(*args) -> None:
    """Run one graphtda command; exit naming its arguments if it fails."""
    argv = [str(a) for a in args]
    if graphtda(argv) != 0:
        sys.exit(f"graphtda {' '.join(argv)} failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "out_dir", nargs="?", type=Path, default=ROOT / "out" / "figures",
        help="where to write the figures (default: out/figures)",
    )
    out_dir = parser.parse_args().out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    data = ROOT / "data"

    for name in ("clique", "neighborhood", "enclaveless"):
        diagrams_json = out_dir / f"{name}_diagrams.json"
        run("persist", data / "figures_graph.txt", "--construction", name,
            "--max-dim", "2", "--output", diagrams_json)
        run("plot", diagrams_json, "--output", out_dir / f"{name}_diagrams.svg")
        diagrams = serialize.diagrams_from_json(json.loads(diagrams_json.read_text()))
        summary = ", ".join(
            f"H{d.dimension}: {d.total_points} proper / {d.total_essential} at infinity"
            for d in diagrams
        )
        print(f"{name:>13}: {summary}")

    names = ("extended_a", "extended_b")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            ext_json = Path(tmp) / f"{name}.json"
            run("persist", data / f"{name}.txt", "--extended", "--max-dim", "1",
                "--output", ext_json)
            run("plot", ext_json, "--output", out_dir / f"{name}_grid.svg")

    # No command compares two weightings on one lattice, so this reads the library.
    graphs = (parse_graph((data / f"{name}.txt").read_text()) for name in names)
    ea, eb = (ExtendedPersistence.of_graph(g, 1) for g in graphs)
    coords = serialize.sample_coordinates(ea.critical_values + eb.critical_values)
    ga, gb = (e.grid(0, coords) for e in (ea, eb))
    cells = [(u, v, a, b) for u, ra, rb in zip(coords, ga, gb) for v, a, b in zip(coords, ra, rb)]
    same_above = all(a == b for u, v, a, b in cells if u < v)
    witness = next(((u, v, a, b) for u, v, a, b in cells if u > v and a != b), None)
    print(f"ascending 0-PBNs identical above the diagonal: {same_above}")
    if witness:
        print("extended 0-PBNs differ below it, e.g. at (u, v) = ({}, {}): {} vs {}".format(*witness))
    print(f"figures written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
