"""SHA-256 digests of `graphtda persist` output on small seeded graphs.

Any change to the bytes of a diagram, a grid or their serialization fails
here, so a change meant to keep the output identical can be checked by the
ordinary test run. The digests were taken from a known-good build. Refresh
them only for a deliberate change of output, by running this file:

    PYTHONPATH=src python tests/test_output_digests.py
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from graphtda.cli import main

# construction, or "extended" for the extended pair -> (vertices, edges, seed)
GRAPHS = {
    "clique": (26, 170, 11),
    "neighborhood": (16, 40, 12),
    "enclaveless": (15, 32, 13),
    "extended": (15, 50, 14),
}

DIGESTS = {
    ("clique", 0): "351326ae5fb9bd50e1ce6657d65ee7e0063f33c06c64c76793a028b31c57186a",
    ("clique", 1): "39ca1145a80199667e9afb373f770cfa51a74ac48e979426d12074558aabe584",
    ("clique", 2): "b9762778f2fe56b8e2250a13395f7ccdc2a0bd8ea5704658f875e798a3f8d478",
    ("clique", 3): "a28a651fb6129fcc36cd68e40b4adba4e7749eefd5674c2c1d3b0c255917351d",
    ("neighborhood", 0): "ac6400aee5e2012530db4081b0928be5ca8fae762e23d04643287d1749d18688",
    ("neighborhood", 1): "5501fcc8a2d577674dd2fe65789b9f3ee49c3369542dd4b1a850dadb0b0daf5b",
    ("neighborhood", 2): "7f48267553a4f94c30b7a127e58f493de60e34effe2b42284cf10a389744e1a7",
    ("neighborhood", 3): "b69dc3768eb9dfaf5d9110f76edf7c5a8866ef959cc94be87a4f3ceafe69d9e6",
    ("enclaveless", 0): "8ff1549f6e161291660382bea4e2d29892e060b290b9d325baf28e9cbd9d8ec0",
    ("enclaveless", 1): "6999b82616f35e77fb51a28099983f1fd52601883ca53a4f6af7c560307c255a",
    ("enclaveless", 2): "4b3b98e4b9f7103b4d451c14eb829e13135aef646d72ab6107776d68f53ed4f3",
    ("enclaveless", 3): "d7c4f84a9926e86f8e110fbe98e53fedc7b6b5ab9fb668db3b55e9a831e05fa1",
    ("extended", 0): "c66a476f2a291055fe8e43d0e11b58ec43a732086f1f6ec2d05058aeefad633c",
    ("extended", 1): "727b5a8a2eae8d083451855176ed07a2ff448472dfc93f9947d3d7db14013cea",
    ("extended", 2): "e430d7c2cdd98a737e9c581a718eeac14a48702c108876a579550605a661334c",
    ("extended", 3): "290f00486014f079a6541c7a128228d3ae2b4880884ca3632d56df3c8d481444",
}


def gnm_text(n: int, m: int, seed: int) -> str:
    """G(n, m) with quarter-integer weights, so values tie, and one isolated vertex."""
    rng = random.Random(seed)
    vs = [f"v{i:02d}" for i in range(n)]
    edges = sorted(rng.sample(list(combinations(vs, 2)), m))
    return "".join(f"{a} {b} {rng.randrange(40) / 4}\n" for a, b in edges) + "z\n"


def persist_digest(tmp_path, kind: str, max_dim: int) -> str:
    graph = tmp_path / f"{kind}.txt"
    graph.write_text(gnm_text(*GRAPHS[kind]), encoding="utf-8")
    out = tmp_path / f"{kind}-{max_dim}.json"
    flags = ["--extended"] if kind == "extended" else ["--construction", kind]
    assert main(["persist", str(graph), *flags, "--max-dim", str(max_dim), "--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind, max_dim", sorted(DIGESTS))
def test_persist_output_digest(tmp_path, kind, max_dim):
    assert persist_digest(tmp_path, kind, max_dim) == DIGESTS[kind, max_dim]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for kind in GRAPHS:
            for max_dim in range(4):
                print(f'    ("{kind}", {max_dim}): "{persist_digest(Path(tmp), kind, max_dim)}",')
