"""Seeded inputs for the four workloads, written as files for the CLI.

Every input comes from ``random.Random(f"{workload}:{seed}")``, so one seed
always yields the same files, except the edge sets of the graphs. Graphs are
G(n, m) graphs: exactly m = round(p * n(n-1)/2) edges drawn uniformly. Graph
i of each kind always has the edges drawn by
``random.Random(f"{kind}:edges:{i}")``, and the seed draws its weights. So
the complexes have the same size for every seed, and so do the enumeration
work and the reduction memory that sets peak RSS; the filtration order, and
with it the reduction, changes with the seed. With edges drawn per seed,
peak RSS on ``ordinary`` ranged from 203 to 279 MB over four seeds. Weights
are uniform on [0, 100) and written with ``repr``, so the parser reads back
the exact floats the checkers use.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

# (graphs per pass, vertices, edge density) of each graph family. A pass
# takes 6-8 s on a 2-CPU machine, so a run times every input at least three
# times and can take each input's median.
CLIQUE_GRAPHS = (2, 76, 0.5)
NEIGHBORHOOD_GRAPHS = (2, 28, 0.4)
ENCLAVELESS_GRAPHS = (3, 18, 0.3)
EXTENDED_GRAPHS = (3, 24, 0.3)

# Bottleneck pairs per pass and diagram sizes. The time of one independent
# pair swings by about 20% with the rank of its answer among the candidate
# costs, which sets how many binary-search probes need a full matching, so a
# pass holds many small pairs rather than a few large ones.
INDEPENDENT_PAIRS = 24
INDEPENDENT_SIZES = (120, 130)
SHIFTED_PAIRS = 2
SHIFTED_SIZE = 240
# The shift is a power of two and the lattice is the integers, so every
# shifted coordinate and every difference is exact in floating point. Distinct
# lattice points are at least 1 > 2 * SHIFT apart, and every persistence is at
# least 1 > 2 * SHIFT, so the identity matching at cost SHIFT is optimal.
SHIFT = 0.25

WORKLOADS = ("ordinary", "enclaveless", "extended", "bottleneck")


@dataclass
class Op:
    """One CLI operation: its arguments and what its checker needs."""

    kind: str  # clique | neighborhood | enclaveless | extended | independent | shifted
    argv: list[str]
    graph: dict | None = None  # {"vertices": [...], "weights": {(u, v): w}}
    diagrams: tuple | None = None  # (first, second) diagram dicts
    inputs: list[str] = field(default_factory=list)


def _gnm(edges: random.Random, weights: random.Random, n: int, p: float) -> dict:
    vertices = [f"v{i:02d}" for i in range(n)]
    pairs = list(combinations(vertices, 2))
    chosen = sorted(edges.sample(pairs, round(p * len(pairs))))
    return {"vertices": vertices, "weights": {e: weights.uniform(0.0, 100.0) for e in chosen}}


def _write_graph(path: Path, graph: dict) -> None:
    lines = list(graph["vertices"])
    lines += [f"{u} {v} {w!r}" for (u, v), w in graph["weights"].items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_diagram(path: Path, diagram: dict) -> None:
    doc = {
        "dimension": 1,
        "points": [{"birth": b, "death": d, "multiplicity": 1} for b, d in diagram["points"]],
        "essential": [{"birth": b, "multiplicity": 1} for b in diagram["essential"]],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def _random_diagram(rng: random.Random, size: int) -> dict:
    points = []
    for _ in range(size):
        birth = rng.uniform(0.0, 100.0)
        points.append((birth, birth + rng.uniform(0.5, 30.0)))
    return {"points": sorted(points), "essential": sorted(rng.uniform(0.0, 1.0) for _ in range(2))}


def _lattice_diagram(rng: random.Random, size: int) -> dict:
    points: set[tuple[float, float]] = set()
    while len(points) < size:
        birth = rng.randrange(0, 200)
        points.add((float(birth), float(birth + rng.randrange(1, 60))))
    return {"points": sorted(points), "essential": [0.0, 5.0]}


def _persist_ops(rng, workdir: Path, family, kind: str, extra: list[str]) -> list[Op]:
    count, n, p = family
    ops = []
    for i in range(count):
        graph = _gnm(random.Random(f"{kind}:edges:{i}"), rng, n, p)
        path = workdir / f"{kind}-{i}.txt"
        _write_graph(path, graph)
        ops.append(Op(kind, ["persist", str(path), *extra], graph=graph, inputs=[str(path)]))
    return ops


def _distance_ops(rng, workdir: Path) -> list[Op]:
    ops = []
    for i in range(INDEPENDENT_PAIRS):
        first = _random_diagram(rng, INDEPENDENT_SIZES[0])
        second = _random_diagram(rng, INDEPENDENT_SIZES[1])
        ops.append(_distance_op(workdir, "independent", i, first, second))
    for i in range(SHIFTED_PAIRS):
        first = _lattice_diagram(rng, SHIFTED_SIZE)
        second = {
            "points": [(b + SHIFT, d + SHIFT) for b, d in first["points"]],
            "essential": list(first["essential"]),
        }
        ops.append(_distance_op(workdir, "shifted", i, first, second))
    return ops


def _distance_op(workdir: Path, kind: str, i: int, first: dict, second: dict) -> Op:
    paths = [workdir / f"{kind}-{i}-a.json", workdir / f"{kind}-{i}-b.json"]
    _write_diagram(paths[0], first)
    _write_diagram(paths[1], second)
    argv = ["distance", str(paths[0]), str(paths[1]), "--dimension", "1"]
    return Op(kind, argv, diagrams=(first, second), inputs=[str(p) for p in paths])


def generate(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write one pass of the workload's inputs under workdir; return its ops in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ordinary":
        clique = _persist_ops(rng, workdir, CLIQUE_GRAPHS, "clique", [])
        neighborhood = _persist_ops(
            rng, workdir, NEIGHBORHOOD_GRAPHS, "neighborhood", ["--construction", "neighborhood"]
        )
        # Alternate the two constructions so a slow spell hits both alike.
        ops = [op for pair in zip(clique, neighborhood) for op in pair]
    elif workload == "enclaveless":
        ops = _persist_ops(
            rng, workdir, ENCLAVELESS_GRAPHS, "enclaveless", ["--construction", "enclaveless"]
        )
    elif workload == "extended":
        ops = _persist_ops(rng, workdir, EXTENDED_GRAPHS, "extended", ["--extended"])
    elif workload == "bottleneck":
        ops = _distance_ops(rng, workdir)
        # Spread the shifted pairs evenly among the independent ones.
        independent, shifted = ops[:INDEPENDENT_PAIRS], ops[INDEPENDENT_PAIRS:]
        step = INDEPENDENT_PAIRS // SHIFTED_PAIRS
        ops = []
        for k, op in enumerate(shifted):
            ops += independent[k * step:(k + 1) * step] + [op]
        ops += independent[SHIFTED_PAIRS * step:]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return ops
