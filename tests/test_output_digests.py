"""SHA-256 digests of `graphtda build`, `persist`, `plot` and `distance` output on seeded inputs.

Any change to the bytes of a complex, a diagram, a grid, a plot, a distance or their
serialization, in JSON or CSV, fails here, so a change meant to keep the output identical
can be checked by the ordinary test run. The digests were taken from a known-good build. Refresh
them only for a deliberate change of output, by running this file:

    PYTHONPATH=src python tests/test_output_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from itertools import combinations

import pytest

from graphtda import serialize
from graphtda.cli import main
from graphtda.persistence import PersistenceDiagram

# construction, or "extended" for the extended pair -> (vertices, edges, seed)
GRAPHS = {
    "clique": (26, 170, 11),
    "neighborhood": (16, 40, 12),
    "enclaveless": (15, 32, 13),
    "extended": (15, 50, 14),
}

# More extended inputs, given as text: edgeless, complete with tied weights,
# and one whose weights hold both signed zeros.
EXTENDED_TEXTS = {
    "edgeless": "".join(f"v{i}\n" for i in range(6)),
    "complete": "".join(
        f"{a} {b} {random.Random(f'complete:{a}{b}').randrange(12) / 4}\n"
        for a, b in combinations([f"v{i}" for i in range(7)], 2)
    ),
    "signed-zero": "a c 0\na e -0\nb c 0\nd e 0\n",
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


def is_extended(kind: str) -> bool:
    return kind == "extended" or kind in EXTENDED_TEXTS


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def persist_output(tmp_path, kind: str, max_dim: int, command: str = "persist", *flags: str):
    """The file `graphtda COMMAND` writes on the graph of kind; the independent-set
    construction, which only `build` runs, reads the neighborhood graph, and
    the extended kinds run with --extended."""
    graph = tmp_path / f"{kind}.txt"
    text = EXTENDED_TEXTS.get(kind) or gnm_text(*GRAPHS.get(kind, GRAPHS["neighborhood"]))
    graph.write_text(text, encoding="utf-8")
    out = tmp_path / f"{command}-{kind}-{max_dim}.out"
    construction = ["--extended"] if is_extended(kind) else ["--construction", kind]
    argv = [command, str(graph), *construction, "--max-dim", str(max_dim), *flags, "--output", str(out)]
    assert main(argv) == 0
    return out


def persist_digest(tmp_path, kind: str, max_dim: int, command: str = "persist", *flags: str) -> str:
    """Digest of `graphtda COMMAND` on the graph of kind, as persist_output runs it."""
    return sha256(persist_output(tmp_path, kind, max_dim, command, *flags))


@pytest.mark.parametrize("kind, max_dim", sorted(DIGESTS))
def test_persist_output_digest(tmp_path, kind, max_dim):
    assert persist_digest(tmp_path, kind, max_dim) == DIGESTS[kind, max_dim]


EXTENDED_DIGESTS = {
    ("edgeless", 0): "468d9bd0cc9bb90c629eb62cf2f6882bd907fcd1d96ec320bb0d36ea220d04f0",
    ("edgeless", 1): "261662789c1605e84fa800c162dd677db6c23e5df0bd02d20b5e56ed900f07b0",
    ("edgeless", 2): "f97a4da0de36bd4e140d1006a89d7e2b1a85716dfe98248386643a0fd2b00a6f",
    ("edgeless", 3): "d3686078900c9d6b9a2e35d721c095ea9ba935b099b180ffcf7e0cf4d17940cb",
    ("complete", 0): "0f8026285be4a137d26bb109ce2af286b9408f5c223c15734e2e6771858142d3",
    ("complete", 1): "13b25e2c93edf0a90a5101f811102a7c9b88a28d0ae933269c4d01d568a463f6",
    ("complete", 2): "4558e2a9967f0a1b292a66e83c67d902b1e41e932a575ab7420c694ffb7d6d67",
    ("complete", 3): "bba6676450166a517285c8c0f1eb7676211433c8fb32865eed1928c516baeda8",
    ("signed-zero", 0): "ecf0b8e7e238b92b4c0341f96ed5a4c1a52c671c49de5f571a2363139c2537c8",
    ("signed-zero", 1): "564c4418aa13bd1c48e8a55dbf78a5e76861600a6f4acca770ba8355b7e69701",
    ("signed-zero", 2): "c57299e5933e6c30fd23a5f14052c8190721a7d8656ca392f1eeb55c9d8a8f25",
    ("signed-zero", 3): "c8c5bb15ed2fdce65327a03e08c55595ccaa8f370312118f603d5a07807d4a8a",
}


@pytest.mark.parametrize("kind, max_dim", sorted(EXTENDED_DIGESTS))
def test_persist_extended_output_digest(tmp_path, kind, max_dim):
    assert persist_digest(tmp_path, kind, max_dim) == EXTENDED_DIGESTS[kind, max_dim]


BUILD_KINDS = ("clique", "neighborhood", "enclaveless", "independent", "extended")

BUILD_DIGESTS = {
    ("clique", 0): "1310ef71f1a3198633c716cbd2fbd2714218eb16baa840a3f036630b5e549350",
    ("clique", 1): "04dab7610c2bd9fb1e3a1acfb7ff0fb3c99f74a4925c255b04a6566739114c33",
    ("clique", 2): "20eb8e9fdf892a8a6d5c2df407f36a7a9764b3fa75bb03c6449549c1580bd769",
    ("clique", 3): "a658a8d13f86286d2753b565705a4c96363e765b0a368ea39341a4d916230716",
    ("neighborhood", 0): "df162e2319b63b9d1fc7b734028e7bee5228b693bb04386ff1c2e6543ce3537b",
    ("neighborhood", 1): "124d2e47f2521b22cad563f8ad88620d874c1459d64cd3cb7b93b1b9bea1ce6c",
    ("neighborhood", 2): "2c172e625bce4bfeb4b88c14584bf300ab4f5864a55229d992ec45e34bc9c342",
    ("neighborhood", 3): "ccbb2228a2ae81baa90497540adf240ebbcc1919bc1777d98a0a602792eeb2f2",
    ("enclaveless", 0): "c6b370f57fb341747d4e9891fd41eaf3d1408f7cdbc3e29f41b07aaab0376162",
    ("enclaveless", 1): "7f46bcff97d8e089a24bf28ce82e88ee43b2ab63f709cd7768283987cb26b85b",
    ("enclaveless", 2): "efba9a89324b935377214a6945209c7a134d0235f39d444cf6323ef90d20b62d",
    ("enclaveless", 3): "7b070711490ed51faae20bed68d71811a1e411e16ec413edac1ee5e9af27a461",
    ("independent", 0): "7d5b573a196e95a7e9151a1c2e397e5a7948fbd425eec5bca142575cca7ee5c6",
    ("independent", 1): "35e341bb3e60492959669006fa0b9300cbaeda7741e130a8e50f884cc1f61f0a",
    ("independent", 2): "5b62015694b4e123b888910e5062cb29c8b9ae2cc8360338fcfd0502a1b62bdd",
    ("independent", 3): "3ae9ec7250929d94b2eba1f3d22e9b414e12d3877d6782104dc3537817213596",
    ("extended", 0): "f39d3e87437e6d8164e59afc098f29a344a3300090b3301cb7823d8d099ec8d2",
    ("extended", 1): "71f994f3d37b1a3be072c9355175d8eee507dbb93878aa3a374aea825b62d28f",
    ("extended", 2): "72eaec0f63ab8ceefca887de7bae52bf02ed918f0306cf67348fbeda6ebf6f16",
    ("extended", 3): "dc02507ef01fe1cceb40f2ff74f3461472702b19be355e0ddabe424d1b1e2aae",
}


@pytest.mark.parametrize("kind, max_dim", sorted(BUILD_DIGESTS))
def test_build_output_digest(tmp_path, kind, max_dim):
    assert persist_digest(tmp_path, kind, max_dim, "build") == BUILD_DIGESTS[kind, max_dim]


# Extended output carries grids and is JSON only.
CSV_KINDS = ("clique", "neighborhood", "enclaveless")

CSV_DIGESTS = {
    ("clique", 0): "9bfee18e737f69a6f927206527209bd7838e804b90e0d43b6de7b04c2e181f42",
    ("clique", 1): "0e31f9f43468543e71261e634d856391f6f7e3240f8f5168cc401bba8be359cf",
    ("clique", 2): "a7a9a36debf96260b938bf375f960377c61cf99932d6e5bdff59dbbf9125f67f",
    ("clique", 3): "6069be9df3699448b82b4b53975b93c3ce19b2720ba88f779afd610463725505",
    ("neighborhood", 0): "29f799dbb0539d55a619ee44a47ac2613ec68a33e85689b329479fc6627cc965",
    ("neighborhood", 1): "12a3cbfb1e0016ab9cfdcf398e4bc4d79f859ea960893a966936a496f98eebc8",
    ("neighborhood", 2): "cd31c6595a18868520afafe3bbd9a016578f04f368095479afec8ea65067d4a5",
    ("neighborhood", 3): "cd31c6595a18868520afafe3bbd9a016578f04f368095479afec8ea65067d4a5",
    ("enclaveless", 0): "1c1cfcc6fb989af9832d80416b1802e9d71a139a6ef493cd63479da70a85b0eb",
    ("enclaveless", 1): "63a87465ac3441a234be77a6bcd086aa29ce21cabac98d5f95c9d18d7b9957a9",
    ("enclaveless", 2): "130a200dced0b5f5d4469320848441c0ca60b0aab45a832a0461c0199dc8a766",
    ("enclaveless", 3): "7e34bb936fbfca2abe7288d2ff7f4903cb3b911e632952affb919b6258767575",
}


@pytest.mark.parametrize("kind, max_dim", sorted(CSV_DIGESTS))
def test_persist_csv_output_digest(tmp_path, kind, max_dim):
    assert persist_digest(tmp_path, kind, max_dim, "persist", "--format", "csv") == CSV_DIGESTS[kind, max_dim]


# `plot` of a persist document: the --max-dim 3 document of an extended kind at
# --dimension 0 to 3, and the --max-dim 2 JSON and CSV documents of the other kinds
# of GRAPHS with every degree overlaid (dimension None).
PLOT_EXTENDED_KINDS = ("extended", *EXTENDED_TEXTS)
PLOT_DIGESTS = {
    ("extended", "json", 0): "f07a9dc7fc74674ad7f987e0080cfb0942557de077dd21cf732be809e57c8969",
    ("extended", "json", 1): "8b168f854352a58f9984d10c31cc94a37ec974f9f816539c97edef5ef22db84b",
    ("extended", "json", 2): "80a618a6e16a1a2525ce0505d9bafd945cecdb4131752acf0eb9857793b00576",
    ("extended", "json", 3): "80a618a6e16a1a2525ce0505d9bafd945cecdb4131752acf0eb9857793b00576",
    ("edgeless", "json", 0): "a2523e029b2041b413838db8c977e8eeb98f6ab02d7b926b530fde5653496f59",
    ("edgeless", "json", 1): "bc18f4969b38eb2ff515341a1f6416ec7234e3d9561c9ee3815ca3ffcf5bcdec",
    ("edgeless", "json", 2): "bc18f4969b38eb2ff515341a1f6416ec7234e3d9561c9ee3815ca3ffcf5bcdec",
    ("edgeless", "json", 3): "bc18f4969b38eb2ff515341a1f6416ec7234e3d9561c9ee3815ca3ffcf5bcdec",
    ("complete", "json", 0): "332173c25cf55f9d1bc3e6509d92e893da665667f7ce850cc423f96ed80765f9",
    ("complete", "json", 1): "61a0e7f9bb4b69350628278430e866e0c5083c3ad3df49406c468401f98e3493",
    ("complete", "json", 2): "61a0e7f9bb4b69350628278430e866e0c5083c3ad3df49406c468401f98e3493",
    ("complete", "json", 3): "61a0e7f9bb4b69350628278430e866e0c5083c3ad3df49406c468401f98e3493",
    ("signed-zero", "json", 0): "5de0e1552ca3d0b78a4ad105268cc8caeacf59bcc9d5e9cbabd57bae333b550f",
    ("signed-zero", "json", 1): "8714b3cb78a6ee83e7a7ed0441b68a76ada78bc64b955fb59a8806db6ea526d9",
    ("signed-zero", "json", 2): "8714b3cb78a6ee83e7a7ed0441b68a76ada78bc64b955fb59a8806db6ea526d9",
    ("signed-zero", "json", 3): "8714b3cb78a6ee83e7a7ed0441b68a76ada78bc64b955fb59a8806db6ea526d9",
    ("clique", "json", None): "db19500dd66641c021c345aed0b49c3a4ca31acd7c7d41aa3216f780e8cb123e",
    ("clique", "csv", None): "db19500dd66641c021c345aed0b49c3a4ca31acd7c7d41aa3216f780e8cb123e",
    ("neighborhood", "json", None): "cfb216d24e003e402f9cfaae06ec67388f484d68ac41939319ffe1b247a1f146",
    ("neighborhood", "csv", None): "cfb216d24e003e402f9cfaae06ec67388f484d68ac41939319ffe1b247a1f146",
    ("enclaveless", "json", None): "0e6ae210fc718cc133e3b4129ceab94c616d5e452f005e85440641d309e32ef8",
    ("enclaveless", "csv", None): "0e6ae210fc718cc133e3b4129ceab94c616d5e452f005e85440641d309e32ef8",
}


def plot_digest(tmp_path, kind: str, fmt: str, dimension: int | None) -> str:
    document = persist_output(tmp_path, kind, 3 if is_extended(kind) else 2, "persist", "--format", fmt)
    out = tmp_path / f"plot-{kind}-{fmt}-{dimension}.svg"
    flags = [] if dimension is None else ["--dimension", str(dimension)]
    assert main(["plot", str(document), *flags, "--output", str(out)]) == 0
    return sha256(out)


@pytest.mark.parametrize("kind, fmt, dimension", sorted(PLOT_DIGESTS, key=str))
def test_plot_output_digest(tmp_path, kind, fmt, dimension):
    assert plot_digest(tmp_path, kind, fmt, dimension) == PLOT_DIGESTS[kind, fmt, dimension]


# Diagram pairs for `distance`: a kind and an index i, drawn from
# random.Random(f"distance:{kind}:{i}") with 40 + 20 i points per side. A
# shifted lattice pair moves each point by 0.25, 0.5 (a tie with the unit
# bars' half-persistence) or 1.5 (past the lattice spacing).
PAIR_KINDS = ("uniform", "skewed", "shifted", "essential")

DISTANCE_DIGESTS = {
    ("uniform", 0): "989c0b600abc7de99b1a4226ad14c15317a5a957dbfedbcac0f534738c0ae4ca",
    ("uniform", 1): "99c1dd9c47387545a33733b2dc1d5c31ccd364f5bf5b0d318be53f6b7d687d4a",
    ("uniform", 2): "330a5da18069d2dc0183d57cd413af5e5b2079562d65184049b5f90f10051c86",
    ("skewed", 0): "905d87ab75e0a92c0f228c7addee3cba2030eb02910a69090a6121823e784c43",
    ("skewed", 1): "65e2bb7db5911ad91bbca31851099f7ecd4bc4d7680dcf8d3e29bfe1ae0fb051",
    ("skewed", 2): "bc8273a77dbae041863230af8b07a4bb09434dcdae7ada82f0295ed81892a911",
    ("shifted", 0): "7747240b40ef7064f499d4ddd256767cba251ce7c2cc4b26faf542d9a2c5c104",
    ("shifted", 1): "8d5c1b5a87c51f970807fc0c2057b3ab3aaf11638ab667dc5956edc8f5bcf138",
    ("shifted", 2): "03c76d47c407b24353b3121bd96490373bd6c5de05f6b3d32bd420c4810f1160",
    ("essential", 0): "39ec5715c6da71e135264957b13d8359a75ad91d9415199e7319dadd5ae78f89",
    ("essential", 1): "46ab8f00d222c639914f3425516503b9cdf6292e2b16fc6c9a212d07c888967b",
    ("essential", 2): "74bf3c45ce134733145402d8ff843b35811cd76f8c262c7007f3c2439ea2d471",
}


def diagram_pair(kind: str, i: int) -> tuple[PersistenceDiagram, PersistenceDiagram]:
    rng = random.Random(f"distance:{kind}:{i}")
    n = 40 + 20 * i

    def bars(reach: float) -> list[tuple[float, float]]:
        return [(b, b + rng.uniform(0.5, reach)) for b in (rng.uniform(0, 100) for _ in range(n))]

    if kind == "uniform":
        return PersistenceDiagram(1, bars(30)), PersistenceDiagram(1, bars(30)[: n - 7])
    if kind == "skewed":
        # Short bars and one long bar: the usual shape of a diagram.
        return (
            PersistenceDiagram(1, bars(3) + [(0.0, 1000.0)]),
            PersistenceDiagram(1, bars(3) + [(rng.uniform(0, 5), 1000.0)]),
        )
    if kind == "shifted":
        shift = (0.25, 0.5, 1.5)[i]
        points = sorted({(b, b + rng.randrange(1, 60)) for b in (rng.randrange(200) for _ in range(n))})
        return PersistenceDiagram(1, points), PersistenceDiagram(1, [(b + shift, d + shift) for b, d in points])
    births = [rng.randrange(50) for _ in range(3)]
    return (
        PersistenceDiagram(1, bars(30), births),
        PersistenceDiagram(1, bars(30), [b + rng.random() for b in births]),
    )


def distance_digest(tmp_path, kind: str, i: int) -> str:
    paths = []
    for side, d in zip("ab", diagram_pair(kind, i)):
        path = tmp_path / f"{kind}-{i}-{side}.json"
        path.write_text(serialize.dumps([serialize.diagram_to_doc(d)]), encoding="utf-8")
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["distance", *paths]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("kind, i", sorted(DISTANCE_DIGESTS))
def test_distance_output_digest(tmp_path, kind, i):
    assert distance_digest(tmp_path, kind, i) == DISTANCE_DIGESTS[kind, i]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    def table(name, kinds, *args):
        print(f"{name} = {{")
        for kind in kinds:
            for max_dim in range(4):
                print(f'    ("{kind}", {max_dim}): "{persist_digest(Path(tmp), kind, max_dim, *args)}",')
        print("}")

    with tempfile.TemporaryDirectory() as tmp:
        table("DIGESTS", GRAPHS)
        table("EXTENDED_DIGESTS", EXTENDED_TEXTS)
        table("BUILD_DIGESTS", BUILD_KINDS, "build")
        table("CSV_DIGESTS", CSV_KINDS, "persist", "--format", "csv")
        print("PLOT_DIGESTS = {")
        plots = [(kind, "json", r) for kind in PLOT_EXTENDED_KINDS for r in range(4)]
        plots += [(kind, fmt, None) for kind in CSV_KINDS for fmt in ("json", "csv")]
        for kind, fmt, r in plots:
            print(f'    ("{kind}", "{fmt}", {r}): "{plot_digest(Path(tmp), kind, fmt, r)}",')
        print("}")
        print("DISTANCE_DIGESTS = {")
        for kind in PAIR_KINDS:
            for i in range(3):
                print(f'    ("{kind}", {i}): "{distance_digest(Path(tmp), kind, i)}",')
        print("}")
