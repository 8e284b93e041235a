import errno
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from graphtda import serialize, svg
from graphtda.cli import CONSTRUCTIONS, main
from graphtda.metrics import MAX_POINTS
from graphtda.persistence import PersistenceDiagram
from oracles import SublevelRankOracle, oracle_bottleneck
from randutil import random_diagram

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def graph_file(tmp_path):
    def make(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return make


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class FailingStdout(io.StringIO):
    """A standard output whose method `name` raises `exc`."""

    def __init__(self, name, exc):
        super().__init__()
        self.name, self.exc = name, exc

    def write(self, text):
        if self.name == "write":
            raise self.exc
        return super().write(text)

    def flush(self):
        if self.name == "flush":
            raise self.exc


HUGE = "0" * 400  # after a leading 1: an integer beyond every float
C4_TEXT = "1 2 1\n2 3 2\n3 4 3\n1 4 4\n"
K4_TEXT = "a b 1\na c 2\nb c 3\na d 4\nb d 5\nc d 6\n"
PATH_TEXT = "a b 1\nb c 2\n"


class TestBuild:
    def test_neighborhood_c4(self, graph_file, capsys):
        code, out, _ = run(["build", graph_file("c4.txt", C4_TEXT), "--construction", "neighborhood"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["facets"] == [
            ["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"], ["2", "3", "4"],
        ]
        assert any(s["value"] == 1.0 for s in doc["simplices"])

    def test_enclaveless_k4(self, graph_file, capsys):
        code, out, _ = run(["build", graph_file("k4.txt", K4_TEXT), "--construction", "enclaveless"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["facets"]) == 4
        assert all(len(f) == 3 for f in doc["facets"])

    def test_independent_has_no_values(self, graph_file, capsys):
        code, out, _ = run(["build", graph_file("c4.txt", C4_TEXT), "--construction", "independent"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["facets"] == [["1", "3"], ["2", "4"]]
        assert "simplices" not in doc

    def test_empty_file_is_input_error(self, graph_file, capsys):
        code, _, err = run(["build", graph_file("empty.txt", "")], capsys)
        assert code == 2 and "empty" in err

    def test_parse_error_reports_line(self, graph_file, capsys):
        code, _, err = run(["build", graph_file("bad.txt", "a b 1\nc c 2\n")], capsys)
        assert code == 2 and "line 2" in err

    def test_round_trip(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "complex.json"
        code, _, _ = run(
            ["build", graph_file("c4.txt", C4_TEXT), "--output", str(out_path)], capsys
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        k = serialize.complex_from_doc(doc)
        fc = serialize.filtered_from_doc(doc)
        from graphtda import clique_complex, filter_clique, parse_graph

        g = parse_graph(C4_TEXT)
        assert k == clique_complex(g, 3)
        assert fc == filter_clique(g, 3)

    def test_extended_build(self, graph_file, capsys):
        code, out, _ = run(["build", graph_file("p.txt", PATH_TEXT), "--extended"], capsys)
        assert code == 0
        doc = json.loads(out)
        asc = serialize.filtered_from_doc(doc["ascending"])
        desc = serialize.filtered_from_doc(doc["descending"])
        assert asc.complex.simplices <= desc.complex.simplices
        assert desc.value[("a", "c")] == -math.inf

    def test_extended_rejects_other_constructions(self, graph_file, capsys):
        code, _, err = run(
            ["build", graph_file("p.txt", PATH_TEXT), "--extended", "--construction", "enclaveless"],
            capsys,
        )
        assert code == 1


class TestPersist:
    def test_path_clique_golden(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "d.json"
        code, _, _ = run(
            ["persist", graph_file("p.txt", PATH_TEXT), "--max-dim", "1", "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        golden = (DATA / "path_clique_diagrams.golden.json").read_bytes()
        assert out_path.read_bytes() == golden
        # cross-check the golden against the sublevel rank oracle
        from graphtda import filter_clique, parse_graph

        fc = filter_clique(parse_graph(PATH_TEXT), 2)
        oracle = SublevelRankOracle(fc)
        diagrams = [serialize.diagram_from_doc(d) for d in json.loads(golden)]
        for r, d in enumerate(diagrams):
            for u, v in [(1, 1.5), (1, 2), (2, 2.5), (0.5, 3)]:
                assert d.rank(u, v) == oracle.pbn(r, u, v)

    def test_c4_dim1_essential(self, graph_file, capsys):
        code, out, _ = run(
            ["persist", graph_file("c4.txt", C4_TEXT), "--max-dim", "1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc[1]["essential"] == [{"birth": 4.0, "multiplicity": 1}]

    def test_independent_rejected(self, graph_file, capsys):
        code, _, err = run(
            ["persist", graph_file("c4.txt", C4_TEXT), "--construction", "independent"], capsys
        )
        assert code == 1 and "independent" in err

    def test_csv_round_trip(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "d.csv"
        code, _, _ = run(
            [
                "persist", graph_file("c4.txt", C4_TEXT),
                "--max-dim", "1", "--format", "csv", "--output", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        text = out_path.read_text()
        assert "0,1.0,inf,1" in text
        diagrams = serialize.diagrams_from_csv(text)
        assert diagrams[0].essential[0].birth == 1.0

    def test_extended_grid(self, graph_file, capsys):
        code, out, _ = run(
            ["persist", graph_file("c4.txt", C4_TEXT), "--extended", "--max-dim", "0"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"ascending", "descending", "grids"}
        grid = doc["grids"][0]
        coords = grid["coordinates"]
        from graphtda import extended_pair, parse_graph
        from graphtda.persistence import ExtendedPersistence

        ext = ExtendedPersistence(extended_pair(parse_graph(C4_TEXT), 1), 0)
        for i, u in enumerate(coords):
            for j, v in enumerate(coords):
                assert grid["values"][i][j] == ext.pbn(0, u, v)

    def test_extended_signed_zeros_are_not_collapsed(self, graph_file, capsys):
        # Collapsed, the descending death -0.0 of this graph would print as 0.0.
        text = "a c 0\na e -0\nb c 0\nd e 0\n"
        code, out, _ = run(["persist", graph_file("z.txt", text), "--extended", "--max-dim", "1"], capsys)
        assert code == 0
        from graphtda import extended_pair, parse_graph
        from graphtda.filtrations import _edge_collapse, _negated_completion
        from graphtda.persistence import ExtendedPersistence

        g = parse_graph(text)
        want = serialize.extended_to_doc(ExtendedPersistence(extended_pair(g, 2), 1))
        assert out == serialize.dumps(want) == json.dumps(want, indent=2, allow_nan=False) + "\n"
        assert '"death": -0.0' in out
        for h in (g, _negated_completion(g)):
            assert repr(sorted(_edge_collapse(h).weight.items())) == repr(sorted(h.weight.items()))

    @pytest.mark.parametrize(
        "text",
        ["a\nb\n", "a b 1.7e308\nb c 1.75e308\n", "a b -1.7e308\nb c -1.75e308\n", "a b 1e300\n"],
        ids=["isolated-vertices", "near-float-max", "near-minus-float-max", "one-weight-past-2-to-the-53"],
    )
    def test_extended_coordinates(self, graph_file, capsys, text):
        code, out, err = run(["persist", graph_file("g.txt", text), "--extended", "--max-dim", "0"], capsys)
        assert code == 0, err
        coords = json.loads(out)["grids"][0]["coordinates"]
        if "1" not in text:  # no finite value: the default lattice
            assert coords == [0.0, 1.0]
        assert all(map(math.isfinite, coords)) and coords == sorted(coords)
        # Past 2**53 a unit step does not move a value; the lattice still encloses it.
        weights = [float(line.split()[2]) for line in text.splitlines() if " " in line]
        assert all(coords[0] < w < coords[-1] for w in weights)

    def test_extended_csv_rejected(self, graph_file, capsys):
        code, _, _ = run(
            ["persist", graph_file("c4.txt", C4_TEXT), "--extended", "--format", "csv"], capsys
        )
        assert code == 1

    def test_deterministic_bytes(self, graph_file, tmp_path, capsys):
        f = graph_file("c4.txt", C4_TEXT)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["persist", f, "--output", str(p1)], capsys)[0] == 0
        assert run(["persist", f, "--output", str(p2)], capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_independent_of_hash_seed(self, graph_file):
        # Run in fresh interpreters: in-process runs only ever see one hash seed.
        # Vertex a has incident weights 0 and -0 in both graphs, so its sign
        # must not follow the iteration order of the edge set.
        f = graph_file("signed_zero.txt", "a b 0\na c -0\nb d 1\nc d 2\n")
        tri = graph_file("signed_zero_tri.txt", "a b 0\na c -0\nb c 5\n")
        commands = [["persist", tri, "--max-dim", "0", "--format", "csv"]]
        commands += [["persist", f, "--construction", c] for c in CONSTRUCTIONS if c != "independent"]
        commands += [["build", f, "--construction", c] for c in CONSTRUCTIONS]
        commands += [[cmd, f, "--extended"] for cmd in ("persist", "build")]
        script = (
            "import json, sys; from graphtda.cli import main; "
            "sys.exit(any([main(a) for a in json.loads(sys.argv[1])]))"
        )
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            outputs.append(subprocess.run(
                [sys.executable, "-c", script, json.dumps(commands)],
                env=env, capture_output=True, check=True,
            ).stdout)
        assert outputs[0] == outputs[1]
        # a takes the sign of its edge to b, its first neighbour in label order
        assert outputs[0].startswith(b"0,0.0,inf,1\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_closing_the_pipe_exits_1(self, graph_file, unbuffered):
        # A real pipe, closed by its reader after one byte of an output far
        # past the pipe's buffer.
        rng = random.Random(12)
        text = "".join(f"v{i} v{j} {rng.randint(1, 99)}\n" for i in range(12) for j in range(i + 1, 12))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "graphtda.cli", "persist", graph_file("k12.txt", text), "--extended"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.returncode == 1, err
        assert err.startswith("error: cannot write standard output: ") and err.count("\n") == 1, err

    def test_neighborhood_construction(self, graph_file, capsys):
        code, out, _ = run(
            ["persist", graph_file("c4.txt", C4_TEXT), "--construction", "neighborhood",
             "--max-dim", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        # the square's neighborhood complex fills to a 2-sphere at level 4
        assert doc[2]["essential"] == [{"birth": 4.0, "multiplicity": 1}]
        assert doc[1]["points"] == [] and doc[1]["essential"] == []

    def test_enclaveless_construction(self, graph_file, capsys):
        code, out, _ = run(
            ["persist", graph_file("k4.txt", K4_TEXT), "--construction", "enclaveless",
             "--max-dim", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc[2]["essential"] == [{"birth": 6.0, "multiplicity": 1}]


class TestDistance:
    def test_identical_files(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "d.json"
        run(["persist", graph_file("c4.txt", C4_TEXT), "--output", str(out_path)], capsys)
        code, out, _ = run(["distance", str(out_path), str(out_path), "--dimension", "0"], capsys)
        assert code == 0 and float(out) == 0.0

    def test_point_versus_empty(self, tmp_path, capsys):
        d1 = tmp_path / "one.json"
        d2 = tmp_path / "none.json"
        d1.write_text(serialize.dumps(serialize.diagram_to_doc(PersistenceDiagram(0, [(1, 3)]))))
        d2.write_text(serialize.dumps(serialize.diagram_to_doc(PersistenceDiagram(0))))
        code, out, _ = run(["distance", str(d1), str(d2)], capsys)
        assert code == 0 and float(out) == 1.0

    def test_huge_multiplicity_refused_fast(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big_csv = tmp_path / "big.csv"
        none = tmp_path / "none.json"
        big.write_text(json.dumps({
            "dimension": 1,
            "points": [{"birth": 0.0, "death": 1.0, "multiplicity": 2000000}],
            "essential": [],
        }))
        big_csv.write_text("1,0.0,1.0,20000000\n")
        none.write_text(serialize.dumps(serialize.diagram_to_doc(PersistenceDiagram(1))))
        for path, count in ((big, 2000000), (big_csv, 20000000)):
            start = time.perf_counter()
            code, out, err = run(["distance", str(path), str(none)], capsys)
            assert time.perf_counter() - start < 1.0
            assert code == 1 and out == ""
            assert f"limit of {MAX_POINTS}" in err and f"{count} points" in err

    def test_limit_counts_multiplicity_and_essential(self, tmp_path, capsys):
        none = tmp_path / "none.json"
        none.write_text(serialize.dumps(serialize.diagram_to_doc(PersistenceDiagram(1))))
        at, over = tmp_path / "at.json", tmp_path / "over.json"
        at.write_text(serialize.dumps(serialize.diagram_to_doc(
            PersistenceDiagram(1, [(0.0, 2.0)] * (MAX_POINTS - 1))
        )))
        over.write_text(serialize.dumps(serialize.diagram_to_doc(
            PersistenceDiagram(1, [(0.0, 2.0)] * (MAX_POINTS - 1), [5.0, 6.0])
        )))
        assert run(["distance", str(at), str(none)], capsys)[:2] == (0, "1.0\n")
        code, _, err = run(["distance", str(none), str(over)], capsys)
        assert code == 1 and f"{MAX_POINTS + 1} points" in err

    def test_degree_mismatch(self, tmp_path, capsys):
        d1 = tmp_path / "a.json"
        d2 = tmp_path / "b.json"
        d1.write_text(serialize.dumps(serialize.diagram_to_doc(PersistenceDiagram(0))))
        d2.write_text(serialize.dumps(serialize.diagram_to_doc(PersistenceDiagram(1))))
        code, _, err = run(["distance", str(d1), str(d2)], capsys)
        assert code == 1 and "degrees differ" in err

    @pytest.mark.parametrize(
        "doc, code, message",
        [
            ({"grids": []}, 2, "expected diagrams, got an extended document"),
            ([serialize.diagram_to_doc(PersistenceDiagram(r)) for r in (0, 1)], 1,
             "holds 2 diagrams; pick one with --dimension"),
        ],
        ids=["extended-document", "two-diagrams-without-dimension"],
    )
    def test_document_without_one_diagram(self, tmp_path, capsys, doc, code, message):
        p = tmp_path / "d.json"
        p.write_text(serialize.dumps(doc))
        got, out, err = run(["distance", str(p), str(p)], capsys)
        assert got == code and out == "" and message in err

    def test_repeated_degree_reads_as_one_diagram(self, tmp_path, capsys):
        # Degree 1 listed four times, once empty, reads as its CSV twin does:
        # one diagram holding all its points, (0, 9) twice among them.
        ones = [
            {"dimension": 1, "points": [{"birth": 0, "death": 1}]},
            {"dimension": 1, "points": [{"birth": 0, "death": 9}]},
            {"dimension": 1, "points": [], "essential": []},
            {"dimension": 1, "points": [{"birth": 0, "death": 9}]},
        ]
        single = tmp_path / "single.json"
        single.write_text(serialize.dumps(serialize.diagram_to_doc(PersistenceDiagram(1, [(0, 1)]))))
        (tmp_path / "ones.json").write_text(json.dumps(ones))
        (tmp_path / "ones.csv").write_text("1,0,1,1\n1,0,9,1\n1,0,9,1\n")
        # With more degrees, listed out of order, and an empty one.
        mixed = [{"dimension": 2, "points": []}, ones[3], {"dimension": 0, "essential": [{"birth": 0.5}]}, *ones[:3]]
        (tmp_path / "mixed.json").write_text(json.dumps(mixed))
        (tmp_path / "mixed.csv").write_text("1,0,9,1\n0,0.5,inf,1\n1,0,1,1\n1,0,9,1\n")
        for name, flags in (("ones", []), ("ones", ["--dimension", "1"]), ("mixed", ["--dimension", "1"])):
            for ext in ("json", "csv"):
                got = run(["distance", str(tmp_path / f"{name}.{ext}"), str(single), *flags], capsys)
                assert got == (0, "4.5\n", ""), (name, ext, flags)
        for name in ("ones", "mixed"):
            for flags in ([], ["--dimension", "0"], ["--dimension", "1"], ["--dimension", "2"]):
                code, from_json, _ = run(["plot", str(tmp_path / f"{name}.json"), *flags], capsys)
                assert code == 0
                code, from_csv, _ = run(["plot", str(tmp_path / f"{name}.csv"), *flags], capsys)
                assert code == 0 and from_csv == from_json, (name, flags)
        code, out, _ = run(["plot", str(tmp_path / "mixed.json"), "--dimension", "1"], capsys)
        radii = re.findall(r'<circle [^>]*r="([^"]+)"', out)
        assert code == 0 and radii == ["4.00", f"{4 * math.sqrt(2):.2f}"]  # (0, 1), then (0, 9) twice

    def test_inf_printed_on_essential_mismatch(self, tmp_path, capsys):
        d1 = tmp_path / "a.json"
        d2 = tmp_path / "b.json"
        d1.write_text(serialize.dumps(serialize.diagram_to_doc(PersistenceDiagram(0, [], [0.0]))))
        d2.write_text(serialize.dumps(serialize.diagram_to_doc(PersistenceDiagram(0, [], [0.0, 1.0]))))
        code, out, _ = run(["distance", str(d1), str(d2)], capsys)
        assert code == 0 and out.strip() == "inf"

    def test_random_pairs_match_oracle(self, tmp_path, capsys):
        rng = random.Random(59)
        for i in range(8):
            da = random_diagram(rng, max_points=4)
            db = random_diagram(rng, max_points=4)
            pa, pb = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
            pa.write_text(serialize.dumps(serialize.diagram_to_doc(da)))
            pb.write_text(serialize.dumps(serialize.diagram_to_doc(db)))
            code, out, _ = run(["distance", str(pa), str(pb)], capsys)
            assert code == 0
            assert float(out) == pytest.approx(oracle_bottleneck(da, db), abs=0)

    def test_csv_input(self, graph_file, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        run(
            ["persist", graph_file("c4.txt", C4_TEXT), "--format", "csv", "--output", str(csv_path)],
            capsys,
        )
        code, out, _ = run(["distance", str(csv_path), str(csv_path), "--dimension", "0"], capsys)
        assert code == 0 and float(out) == 0.0


class TestPlot:
    def test_empty_diagram_golden(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text(serialize.dumps([serialize.diagram_to_doc(PersistenceDiagram(0))]))
        out_path = tmp_path / "empty.svg"
        code, _, _ = run(["plot", str(p), "--output", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_bytes() == (DATA / "empty_diagram.golden.svg").read_bytes()

    def test_marks_and_ray(self, tmp_path, capsys):
        p = tmp_path / "d.json"
        p.write_text(
            serialize.dumps(
                [serialize.diagram_to_doc(PersistenceDiagram(0, [(1.0, 2.0)], [0.5]))]
            )
        )
        code, _, _ = run(["plot", str(p), "--output", str(tmp_path / "d.svg")], capsys)
        assert code == 0
        svg_text = (tmp_path / "d.svg").read_text()
        assert svg_text.count("<circle") == 2  # one point, one ray head
        assert svg_text.count("<line") == 2  # diagonal plus the ray

    def test_extended_heatmap(self, graph_file, tmp_path, capsys):
        ext_json = tmp_path / "ext.json"
        run(
            ["persist", graph_file("c4.txt", C4_TEXT), "--extended", "--max-dim", "0",
             "--output", str(ext_json)],
            capsys,
        )
        out_path = tmp_path / "ext.svg"
        code, _, _ = run(["plot", str(ext_json), "--output", str(out_path)], capsys)
        assert code == 0
        text = out_path.read_text()
        assert text.count("<rect") > 9
        # persist writes no such grid, and grids_from_json refuses one on load.
        for coords, message in (
            ([0.0], "at least two sample coordinates"),
            ([5.0, 5.0], re.escape("[5.0, 5.0]")),
            ([-math.inf, 1.0], re.escape("[-inf, 1.0]")),
        ):
            values = [[1] * len(coords)] * len(coords)
            with pytest.raises(ValueError, match=message):
                svg.render_extended_grid(coords, values)

    def test_extended_missing_degree(self, graph_file, tmp_path, capsys):
        ext_json = tmp_path / "ext.json"
        run(
            ["persist", graph_file("c4.txt", C4_TEXT), "--extended", "--max-dim", "1",
             "--output", str(ext_json)],
            capsys,
        )
        code, out, err = run(["plot", str(ext_json), "--dimension", "2"], capsys)
        assert code == 1 and out == "" and "no grid of degree 2" in err

    def test_dimension_selects_diagram(self, tmp_path, capsys):
        diagrams = [
            PersistenceDiagram(0, [(1.0, 2.0)], [0.5]),
            PersistenceDiagram(1, [(3.0, 5.0)]),
        ]
        p = tmp_path / "d.json"
        p.write_text(serialize.dumps([serialize.diagram_to_doc(d) for d in diagrams]))
        code, out, _ = run(["plot", str(p), "--dimension", "1"], capsys)
        assert code == 0 and out == svg.render_diagrams(diagrams[1:])

    def test_json_and_csv_plot_alike(self, tmp_path, capsys):
        # Coincident points merge into one mark, sized by their total multiplicity.
        doc = [
            {"dimension": 0, "points": [], "essential": [{"birth": 0.0}]},
            {
                "dimension": 1,
                "points": [
                    {"birth": 3.0, "death": 5.0},
                    {"birth": 1.0, "death": 2.0, "multiplicity": 2},
                    {"birth": 1.0, "death": 2.0},
                ],
                "essential": [{"birth": 0.5}, {"birth": 0.5}],
            },
        ]
        csv = "1,1.0,2.0,3\n1,3.0,5.0,1\n0,0.0,inf,1\n1,0.5,inf,2\n"
        (tmp_path / "d.json").write_text(json.dumps(doc))
        (tmp_path / "d.csv").write_text(csv)
        for flags in ([], ["--dimension", "1"]):
            code, from_json, _ = run(["plot", str(tmp_path / "d.json"), *flags], capsys)
            assert code == 0
            code, from_csv, _ = run(["plot", str(tmp_path / "d.csv"), *flags], capsys)
            assert code == 0 and from_csv == from_json
        radii = re.findall(r'<circle [^>]*r="([^"]+)"', from_json)  # degree 1 alone
        assert radii == [f"{3 * math.sqrt(2):.2f}", f"{4 * math.sqrt(3):.2f}", "4.00"]

    def test_coincident_multiplicities_past_the_float_range(self, tmp_path, capsys):
        # Each multiplicity converts to a float, their total does not.
        top = int(sys.float_info.max)
        point = {"birth": 0.0, "death": 1.0, "multiplicity": top}
        p = tmp_path / "d.json"
        p.write_text(json.dumps([{"dimension": 0, "points": [point, point]}]))
        code, out, err = run(["plot", str(p)], capsys)
        assert code == 2 and out == "" and "too large for a float" in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,0.0,1.0,0", "multiplicity"),
            ("-1,0.0,1.0,1", ">= 0, got -1"),
            ("1,2.0,1.0,1", "birth < death"),
            ("1,1.0,1.0,1", "birth < death"),
        ],
        ids=["multiplicity-0", "degree-minus-1", "birth-after-death", "birth-at-death"],
    )
    def test_csv_error_names_its_line(self, tmp_path, capsys, row, message):
        p = tmp_path / "bad.csv"
        p.write_text(f"0,0.0,1.0,1\n\n{row}\n0,0.5,inf,1\n")
        for command in (["plot", str(p)], ["distance", str(p), str(p)]):
            code, out, err = run(command, capsys)
            assert code == 2 and out == ""
            assert err.startswith(f"error: {p}: CSV line 3: ") and message in err, err

    def test_unwritable_output(self, graph_file, tmp_path, monkeypatch, capsys):
        # Every command, into a --output path in a missing directory and into a
        # standard output that a closed pipe, a full disk or a closed file
        # descriptor 1 (sys.stdout is None) fails, exits 1 with one stderr line.
        graph = graph_file("k4.txt", K4_TEXT)
        p = tmp_path / "d.json"
        p.write_text(serialize.dumps([serialize.diagram_to_doc(PersistenceDiagram(0))]))
        commands = [
            ["build", graph],
            ["persist", graph],
            ["persist", graph, "--format", "csv"],
            ["persist", graph, "--extended"],
            ["plot", str(p)],
            ["distance", str(p), str(p)],
        ]
        for command in commands:
            cases = [] if command[0] == "distance" else [  # distance has no --output
                (command + ["--output", str(tmp_path / "nodir" / "x")], sys.stdout, str(tmp_path)),
            ]
            cases += [
                (command, FailingStdout("write", BrokenPipeError(errno.EPIPE, "Broken pipe")), "standard output"),
                (command, FailingStdout("flush", OSError(errno.ENOSPC, "No space left")), "standard output"),
                (command, None, "standard output: file descriptor 1 is closed"),
            ]
            for argv, stdout, where in cases:
                with monkeypatch.context() as m:
                    m.setattr(sys, "stdout", stdout)
                    code, out, err = run(argv, capsys)
                assert code == 1 and out == "", argv
                assert err.startswith(f"error: cannot write {where}") and err.count("\n") == 1, (argv, err)
                if isinstance(stdout, FailingStdout):
                    assert stdout.closed  # so the flush at exit does not retry the write

    def test_spans_past_the_float_range_plot_without_nan(self, graph_file, tmp_path, capsys):
        # An extended grid over weights of -1.7e308 and 1.7e308, and a diagram
        # that the plot's padding widens past the largest float.
        ext = tmp_path / "ext.json"
        graph = graph_file("extreme.txt", "a b -1.7e308\nb c 1.7e308\n")
        code, _, _ = run(["persist", graph, "--extended", "--max-dim", "0", "--output", str(ext)], capsys)
        assert code == 0
        wide = tmp_path / "wide.json"
        wide.write_text(serialize.dumps([serialize.diagram_to_doc(PersistenceDiagram(0, [(-8e307, 8e307)]))]))
        widest = tmp_path / "widest.json"
        widest.write_text(serialize.dumps([serialize.diagram_to_doc(PersistenceDiagram(0, [(-1e308, 1e308), (0, 5)]))]))
        for doc in (ext, wide, widest):
            code, out, _ = run(["plot", str(doc)], capsys)
            assert code == 0 and out.startswith("<svg") and "nan" not in out
        # The pad of the widest plot is taken in halves, so it keeps its true range.
        circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', out)
        labels = re.findall(r'font-family="monospace"[^>]*>([^<]+)</text>', out)
        assert len(set(circles)) == 2 and labels == ["-1.2e+308", "1.2e+308"]
        # One value past 2**53: the pad steps to the adjacent floats, so the
        # essential ray sits mid-frame under the value's own labels.
        single = tmp_path / "single.json"
        single.write_text(serialize.dumps([serialize.diagram_to_doc(PersistenceDiagram(0, [], [1e300]))]))
        code, out, _ = run(["plot", str(single)], capsys)
        labels = re.findall(r'font-family="monospace"[^>]*>([^<]+)</text>', out)
        assert code == 0 and re.search(r'<line x1="300.00" [^>]*stroke-width="2"', out)
        assert labels == ["1e+300", "1e+300"]

    @pytest.mark.parametrize(
        "text, flags",
        [
            (json.dumps({"grids": 5}), []),
            (json.dumps({"grids": [5]}), []),
            (json.dumps({"grids": [{"dimension": 0}]}), []),
            (json.dumps({"grids": [{"dimension": 0, "coordinates": [0, 1], "values": [[1, 2]]}]}), []),
            (json.dumps({"grids": [{"dimension": 0, "coordinates": [0], "values": [[1]]}]}), []),
            (json.dumps({"grids": [{"dimension": 0, "coordinates": [1, 0, 2], "values": [[0] * 3] * 3}]}), []),
            (json.dumps([5]), []),
            (json.dumps([5]), ["--dimension", "0"]),
            (json.dumps([{"dimension": 0, "points": 5}]), []),
            (json.dumps([{"dimension": 0, "points": [{"birth": "zz", "death": 1}]}]), []),
            (json.dumps([{"dimension": "0", "points": []}]), []),
            ("1,0.0,1.0,-5\n", []),
            ("-1,0.0,1.0,1\n", []),
            ("1,2.0,1.0,1\n", []),
            ("[" * 200000 + "]" * 200000, []),
            ('[{"dimension": 0, "points": [{"birth": 0, "death": 1, "multiplicity": 1%s}]}]' % HUGE, []),
            ("0,0,1,1%s\n" % HUGE, []),
            ('[{"dimension": 0, "points": [{"birth": 1%s, "death": "inf"}]}]' % HUGE, []),
            ('[{"dimension": 0, "points": [{"birth": 0, "death": 1%s}]}]' % HUGE, []),
            ('[{"dimension": 0, "points": [{"birth": 0, "death": 1, "multiplicity": 1%s}]}]' % ("0" * 5000), []),
            ("1,1%s,inf,1\n" % HUGE, []),
            ('[{"dimension": 0, "points": [{"birth": NaN, "death": 1}]}]', []),
            ("0,nan,1,1\n", []),
            (json.dumps({"grids": [{"dimension": 0, "coordinates": [0, 1, "inf"], "values": [[0] * 3] * 3}]}), []),
            (json.dumps({"grids": [{"dimension": 0, "coordinates": [5, 5, 5], "values": [[0] * 3] * 3}]}), []),
            (json.dumps({"grids": [{"dimension": r, "coordinates": [0, 1], "values": [[0] * 2] * 2} for r in (1, 0, 1)]}), []),
        ],
        ids=[
            "grids-not-list", "grid-not-dict", "grid-no-coordinates", "grid-short-values",
            "grid-one-coordinate", "grid-coordinates-out-of-order", "diagram-not-dict",
            "diagram-not-dict-with-dimension-flag",
            "points-not-list", "birth-not-number", "dimension-not-int",
            "csv-negative-multiplicity", "csv-negative-degree", "csv-birth-after-death",
            "deeply-nested-json", "huge-multiplicity", "csv-huge-multiplicity", "huge-birth",
            "huge-death", "multiplicity-past-json-digit-limit", "csv-huge-birth", "json-nan-birth",
            "csv-nan-birth", "grid-infinite-coordinate", "grid-coordinates-span-no-interval",
            "grid-degree-listed-twice",
        ],
    )
    def test_malformed_document_is_input_error(self, tmp_path, capsys, text, flags):
        p = tmp_path / "bad"
        p.write_text(text)
        for command in (["plot", str(p)], ["distance", str(p), str(p)]):
            code, out, err = run([*command, *flags], capsys)
            assert code == 2 and out == "", (command, err)
            assert err.startswith(f"error: {p}: "), (command, err)


class TestUsage:
    def test_unknown_construction(self, graph_file, capsys):
        code, _, _ = run(["build", graph_file("c4.txt", C4_TEXT), "--construction", "zzz"], capsys)
        assert code == 1

    def test_negative_max_dim(self, graph_file, tmp_path, capsys):
        diagrams = tmp_path / "d.json"
        diagrams.write_text(serialize.dumps([serialize.diagram_to_doc(PersistenceDiagram(0, [(1, 3)]))]))
        graph = graph_file("c4.txt", C4_TEXT)
        for args, message in (
            (["persist", graph, "--max-dim", "-1"], "expected a nonnegative integer, got '-1'"),
            (["distance", str(diagrams), str(diagrams), "--dimension", "-1"], "expected a nonnegative integer, got '-1'"),
            (["plot", str(diagrams), "--dimension", "-3"], "expected a nonnegative integer, got '-3'"),
            (["persist", graph, "--max-dim", "abc"], "expected a nonnegative integer, got 'abc'"),
            # Every degree up to --max-dim is reduced and written, so it has a ceiling.
            (["persist", graph, "--max-dim", "1001"], "1001 is above the limit of 1000"),
            (["build", graph, "--max-dim", "1000000"], "1000000 is above the limit of 1000"),
        ):
            code, out, err = run(args, capsys)
            assert code == 1 and out == ""
            assert f"argument {args[-2]}: {message}" in err
        code, out, _ = run(["persist", graph, "--max-dim", "1000"], capsys)
        assert code == 0 and len(json.loads(out)) == 1001

    def test_undecodable_input_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"a b 1\n\xff\xfe c 2\n")
        for args in (["persist", str(p)], ["distance", str(p), str(p)]):
            code, out, err = run(args, capsys)
            assert code == 2 and out == "", (args, err)
            assert err.startswith(f"error: {p}: ") and "utf-8" in err, (args, err)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # Windows Notepad starts a UTF-8 file with U+FEFF. Left in the text, it
        # made a phantom vertex "\ufeffb", and a JSON document read as CSV.
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir(), marked.mkdir()
        (plain / "g.txt").write_text("b c 1\na b 2\na c 3\nc d 4\n")
        (plain / "h.txt").write_text("a b 1\nb c 5\na c 2\n")
        for args, name in (
            (["persist", "g.txt"], "d.json"),
            (["persist", "h.txt", "--format", "csv"], "d.csv"),
            (["persist", "g.txt", "--extended", "--max-dim", "1"], "e.json"),
        ):
            code, out, _ = run([args[0], str(plain / args[1]), *args[2:]], capsys)
            assert code == 0
            (plain / name).write_text(out)
        for p in plain.iterdir():
            (marked / p.name).write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        for args in (
            ["build", "g.txt"],
            ["build", "g.txt", "--extended"],
            ["persist", "g.txt"],
            ["persist", "g.txt", "--format", "csv"],
            ["persist", "g.txt", "--extended", "--max-dim", "1"],
            ["distance", "d.json", "d.csv", "--dimension", "0"],
            ["distance", "d.csv", "d.json", "--dimension", "1"],
            ["plot", "d.json"],
            ["plot", "d.csv", "--dimension", "0"],
            ["plot", "e.json", "--dimension", "1"],
        ):
            without, with_mark = (
                run([str(folder / a) if "." in a else a for a in args], capsys) for folder in (plain, marked)
            )
            assert without[0] == 0 and with_mark == without, args

    def test_missing_input_file(self, capsys):
        code, _, err = run(["build", "/nonexistent/file.txt"], capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_memory_error_is_resource_error(self, graph_file, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("graphtda.cli.reduce", exhausted)
        code, out, err = run(["persist", graph_file("c4.txt", C4_TEXT)], capsys)
        assert code == 1 and out == ""
        assert "error: ran out of memory" in err and "--max-dim" in err

    def test_recursion_error_is_resource_error(self, tmp_path, monkeypatch, capsys):
        def too_deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("graphtda.metrics.bottleneck", too_deep)
        p = tmp_path / "d.csv"
        p.write_text("0,1.0,inf,1\n")
        code, out, err = run(["distance", str(p), str(p), "--dimension", "0"], capsys)
        assert code == 1 and out == ""
        assert "error: recursion limit reached" in err and "shrink the input" in err

    def test_missing_dimension_selects_empty(self, tmp_path, capsys):
        # a CSV with only degree-0 rows still answers degree-1 queries
        p = tmp_path / "d.csv"
        p.write_text("0,1.0,inf,1\n")
        code, out, _ = run(["distance", str(p), str(p), "--dimension", "1"], capsys)
        assert code == 0 and float(out) == 0.0
