"""Command-line surface: build, persist, distance, plot.

Exit codes: 0 success, 1 usage or configuration error (running out of
memory or recursion depth included), 2 input parse error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import serialize, svg
from .complexes import independent_complex
from .filtrations import extended_pair, filter_clique, filter_enclaveless, filter_neighborhood
from .graphs import GraphParseError, WeightedGraph, parse_graph
from .persistence import ExtendedPersistence, PersistenceDiagram, reduce
from .serialize import sample_coordinates  # perfbench/tracing.py imports it from here


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


_FILTERED = {
    "clique": filter_clique,
    "neighborhood": filter_neighborhood,
    "enclaveless": filter_enclaveless,
}
CONSTRUCTIONS = tuple(sorted([*_FILTERED, "independent"]))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_graph(path: str) -> WeightedGraph:
    try:
        g = parse_graph(_read_text(path))
    except GraphParseError as exc:
        raise InputError(f"{path}: {exc}") from None
    if not g.vertices:
        raise InputError(f"{path}: empty graph (no vertices declared)")
    return g


def _write_output(text: str, path: str | None) -> None:
    try:
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:
            raise OSError("file descriptor 1 is closed")
        elif hasattr(sys.stdout, "buffer"):
            # Unbuffered (python -u), the text layer drops what a short write leaves over.
            out = sys.stdout.buffer
            data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
            while data:
                data = data[out.write(data):]
            out.flush()
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if path is None and sys.stdout is not None:
            # Else the flush at exit fails again on the buffered bytes: a traceback, exit 120.
            with contextlib.suppress(OSError):
                sys.stdout.close()
        where = "standard output" if path is None else path
        raise UsageError(f"cannot write {where}: {exc}") from None


def _check_extended(construction: str) -> None:
    if construction not in ("clique", "independent"):
        raise UsageError(
            "extended mode pairs cliques with independent sets; "
            f"--construction {construction} does not apply"
        )


def cmd_build(args) -> str:
    g = _load_graph(args.input)
    if args.extended:
        _check_extended(args.construction)
        pair = extended_pair(g, args.max_dim)
        doc = {
            "ascending": serialize.filtered_to_doc(pair.ascending),
            "descending": serialize.filtered_to_doc(pair.descending),
        }
    elif args.construction == "independent":
        doc = serialize.complex_to_doc(independent_complex(g, args.max_dim))
    else:
        fc = _FILTERED[args.construction](g, args.max_dim)
        doc = serialize.complex_to_doc(fc.complex)
        doc["simplices"] = serialize.filtered_to_doc(fc)["simplices"]
    return serialize.dumps(doc)


def cmd_persist(args) -> str:
    g = _load_graph(args.input)
    if args.extended:
        _check_extended(args.construction)
        if args.format != "json":
            raise UsageError("extended output carries PBN grids and is JSON only")
        return serialize.dumps(serialize.extended_to_doc(ExtendedPersistence.of_graph(g, args.max_dim)))
    if args.construction == "independent":
        raise UsageError(
            "independent sets reverse inclusion and admit no weight filtration; "
            "use 'build', or --extended for the complement pairing"
        )
    fc = _FILTERED[args.construction](g, args.max_dim + 1)
    diagrams = reduce(fc, args.max_dim)
    if args.format == "csv":
        return serialize.diagrams_to_csv(diagrams)
    return serialize.dumps([serialize.diagram_to_doc(d) for d in diagrams])


def _load_document(path: str) -> dict | list[PersistenceDiagram]:
    """serialize.read_document of the text in path; malformed input names the path."""
    text = _read_text(path)
    try:
        return serialize.read_document(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _select_diagram(path: str, dimension: int | None) -> PersistenceDiagram:
    diagrams = _load_document(path)
    if isinstance(diagrams, dict):
        raise InputError(f"{path}: expected diagrams, got an extended document")
    if dimension is None:
        if len(diagrams) == 1:
            return diagrams[0]
        raise UsageError(f"{path} holds {len(diagrams)} diagrams; pick one with --dimension")
    return next((d for d in diagrams if d.dimension == dimension), PersistenceDiagram(dimension))


def cmd_distance(args) -> str:
    from .metrics import bottleneck

    d1 = _select_diagram(args.first, args.dimension)
    d2 = _select_diagram(args.second, args.dimension)
    return f"{bottleneck(d1, d2)}\n"


def cmd_plot(args) -> str:
    doc = _load_document(args.input)
    if isinstance(doc, dict):
        r = args.dimension or 0
        if r not in doc:
            raise UsageError(f"no grid of degree {r} in {args.input}")
        return svg.render_extended_grid(*doc[r])
    if args.dimension is not None:
        doc = [d for d in doc if d.dimension == args.dimension]
    return svg.render_diagrams(doc)


def _nonnegative(text: str) -> int:
    """Argument type of --dimension, and the first check of --max-dim: an integer >= 0."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return n


_MAX_DIM = 1000


def _max_dim(text: str) -> int:
    """Argument type of --max-dim: an integer from 0 to _MAX_DIM. Every degree
    up to it is reduced and written, even past the complex's dimension."""
    n = _nonnegative(text)
    if n > _MAX_DIM:
        raise argparse.ArgumentTypeError(f"{n} is above the limit of {_MAX_DIM}")
    return n


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphtda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--construction", choices=CONSTRUCTIONS, default="clique")
        p.add_argument("--max-dim", dest="max_dim", type=_max_dim, default=3)
        p.add_argument("--extended", action="store_true")
        p.add_argument("--output", default=None)

    b = sub.add_parser("build", help="construct a complex (with filtration values)")
    b.add_argument("input")
    common(b)
    b.add_argument("--format", choices=("json",), default="json")
    b.set_defaults(fn=cmd_build)

    p = sub.add_parser("persist", help="compute persistence diagrams")
    p.add_argument("input")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_persist)

    d = sub.add_parser("distance", help="bottleneck distance between two diagrams")
    d.add_argument("first")
    d.add_argument("second")
    d.add_argument("--dimension", type=_nonnegative, default=None)
    d.set_defaults(fn=cmd_distance, output=None)

    pl = sub.add_parser("plot", help="render diagrams or an extended grid to SVG")
    pl.add_argument("input")
    pl.add_argument("--dimension", type=_nonnegative, default=None)
    pl.add_argument("--output", default=None)
    pl.add_argument("--format", choices=("svg",), default="svg")
    pl.set_defaults(fn=cmd_plot)
    return parser


_SHRINK_HINT = "lower --max-dim or shrink the input"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _write_output(args.fn(args), args.output)
        return 0
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: ran out of memory; {_SHRINK_HINT}", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"error: recursion limit reached; {_SHRINK_HINT}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal invariant violations
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
