"""Benchmark of graphtda's CLI on four seeded workloads.

    python3 perfbench/run.py --workload ordinary --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table

Each workload runs in its own process. Inputs are generated from the seed
into a scratch directory under perfbench/work/ and reach graphtda only as
files. Operations go one at a time through ``graphtda.cli.main`` in this
process (closed loop, one client), in as many whole passes over the inputs
as fit in --seconds, and at least three. Times are scaled to a fixed
machine speed, measured between ops by a calibration kernel (calibrate.py).
Outputs are checked afterwards, outside every timing, by the independent
checkers in checks.py.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the same operations are also replayed through the
library's public functions with a span around each call (tracing.py), and
the object carries the per-layer metrics. The spans are written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
# Calibration time before each set-up interpreter and after the last: a few
# chunks, since one chunk alone varies by about 15%.
SETUP_CALIBRATION_S = 0.1
# Every input is timed at least this many times, in separate passes, so that
# a slow spell of the machine during one pass does not set its median.
MIN_PASSES = 3

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import checks  # noqa: E402
from calibrate import Clock  # noqa: E402
from inputs import WORKLOADS, generate  # noqa: E402


def _import_cli():
    if not (SRC / "graphtda" / "cli.py").is_file():
        sys.exit(f"error: graphtda sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from graphtda.cli import main

    return main


def probe_setup(workload: str, seed: int) -> None:
    """One set-up as a timed child process does it: import, then generate inputs."""
    _import_cli()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="setup-") as tmp:
        generate(workload, seed, Path(tmp))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import graphtda and build
    the inputs, and the machine's slowness factor around them."""
    clock, times = Clock(), []
    for _ in range(SETUP_REPEATS):
        clock.sample(SETUP_CALIBRATION_S)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            check=True,
        )
        times.append(time.perf_counter() - start)
    clock.sample(SETUP_CALIBRATION_S)
    return statistics.median(times), clock.factor()


# ---------------------------------------------------------------------------
# Untraced CLI passes.


def cli_pass(main, ops, outdir: Path, tag: str) -> tuple[list[dict], float, float]:
    """Run every op once through the CLI, with calibration chunks between ops.

    Returns the per-op records, each with the slowness factor of the chunks
    just before and just after it; the pass wall time without the
    calibration; and the slowness factor of the whole pass.
    """
    records, clock = [], Clock()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        clock.sample(calibrate.SHARE * (records[-1]["seconds"] if records else 0.0))
        argv = list(op.argv)
        out = None
        if op.argv[0] == "persist":
            out = outdir / f"{tag}-{i}.json"
            argv += ["--output", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        t1 = time.perf_counter()
        records.append({"op": i, "seconds": t1 - t0, "code": code, "output": out,
                        "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    clock.sample(calibrate.SHARE * records[-1]["seconds"])
    # Op i ran between calibration samples i and i + 1.
    for i, rec in enumerate(records):
        rec["factor"] = clock.factor(i, i + 2)
    return records, time.perf_counter() - start - clock.seconds, clock.factor()


def _output_text(record) -> str:
    if record["output"] is not None:
        try:
            return record["output"].read_text(encoding="utf-8")
        except OSError:
            return ""
    return record["stdout"]


class Verifier:
    """Checks op outputs, running each checker once per distinct output."""

    def __init__(self, ops):
        self.checks = checks
        self.ops = ops
        self.contexts: dict[int, object] = {}
        self.verdicts: dict[tuple[int, str], list[str]] = {}

    def _context(self, i: int):
        if i not in self.contexts:
            op, c = self.ops[i], self.checks
            if op.kind in ("clique", "neighborhood"):
                self.contexts[i] = c.RankCheck(op.graph, op.kind)
            elif op.kind == "extended":
                self.contexts[i] = c.GridCheck(op.graph)
            elif op.kind == "independent":
                self.contexts[i] = c.Matcher(*(d["points"] for d in op.diagrams))
            else:
                self.contexts[i] = None
        return self.contexts[i]

    def errors(self, i: int, text: str) -> list[str]:
        key = (i, text)
        if key not in self.verdicts:
            self.verdicts[key] = self._check(i, text)
        return self.verdicts[key]

    def _check(self, i: int, text: str) -> list[str]:
        op, c = self.ops[i], self.checks
        if op.kind in ("independent", "shifted"):
            return c.check_distance(op.kind, *op.diagrams, text, self._context(i))
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"{op.kind} output is not JSON: {exc}"]
        if op.kind == "extended":
            return c.check_extended(op.graph, doc, self._context(i))
        return c.check_persist(op.graph, op.kind, doc, self._context(i))

    def self_test(self, first_outputs: dict[int, str]) -> list[str]:
        """Corrupt one good output of each kind; the checkers must reject every copy."""
        missed, seen = [], set()
        for i, text in first_outputs.items():
            op = self.ops[i]
            if op.kind in seen or self.errors(i, text):
                continue
            seen.add(op.kind)
            output = text if op.kind in ("independent", "shifted") else json.loads(text)
            missed += self.checks.self_test(op, output, self._context(i))
        return missed


def verify(ops, records, verifier: Verifier) -> tuple[int, int]:
    """Count failed ops (non-zero exit or a failed output check) and, among
    them, the ops that exited 0 with a wrong output."""
    failed = wrong = 0
    for rec in records:
        if rec["code"] != 0:
            print(f"op {rec['op']} exited {rec['code']}: {rec['stderr'].strip()}", file=sys.stderr)
            failed += 1
            continue
        errors = verifier.errors(rec["op"], _output_text(rec))
        if errors:
            print(f"op {rec['op']} ({ops[rec['op']].kind}): {errors[0]}", file=sys.stderr)
            failed += 1
            wrong += 1
    return failed, wrong


def _first_outputs(records) -> dict[int, str]:
    out = {}
    for rec in records:
        if rec["code"] == 0 and rec["op"] not in out:
            out[rec["op"]] = _output_text(rec)
    return out


def _passes_fit(elapsed: float, pass_times: list[float], seconds: float) -> bool:
    """Whether one more pass of the usual length ends within --seconds."""
    return elapsed + statistics.mean(pass_times) <= seconds


# ---------------------------------------------------------------------------
# Runs.


def run_untraced(main, ops, workdir: Path, seconds: float) -> tuple[dict, list]:
    """At least MIN_PASSES CLI passes, more while one still fits in --seconds;
    end-to-end metrics as (value, unit)."""
    records, pass_times, factors = [], [], []
    start = time.perf_counter()
    while True:
        recs, _, factor = cli_pass(main, ops, workdir, f"p{len(pass_times)}")
        for rec in recs:
            rec["scaled"] = rec["seconds"] / rec["factor"]
        records += recs
        pass_times.append(time.perf_counter() - start - sum(pass_times))
        factors.append(factor)
        if len(pass_times) >= MIN_PASSES and not _passes_fit(
            time.perf_counter() - start, pass_times, seconds
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def pass_time(key):
        return sum(
            statistics.median(r[key] for r in records if r["op"] == i) for i in range(len(ops))
        )

    metrics = {
        "wall_s": (pass_time("scaled"), "s"),
        "op_p50_s": (statistics.median(r["scaled"] for r in records), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(
        f"unscaled: wall_s {pass_time('seconds'):.4f} s, op_p50_s "
        f"{statistics.median(r['seconds'] for r in records):.4f} s; slowness factor per pass "
        + ", ".join(f"{f:.3f}" for f in factors),
        file=sys.stderr,
    )
    return metrics, records


def run_traced(main, ops, workdir: Path, seconds: float) -> tuple[dict, list, int, int, dict]:
    """Alternate untraced CLI passes with traced library passes, then take
    allocation peaks in a pass of their own."""
    import tracing  # imports graphtda, so only after _import_cli

    tracer = tracing.Tracer()
    records, cli_walls, traced_walls, traced_ops = [], [], [], []
    mismatches, first_results = 0, None
    start = time.perf_counter()
    while True:
        tag = f"p{len(cli_walls)}"
        recs, wall, _ = cli_pass(main, ops, workdir, tag)
        records += recs
        cli_walls.append(wall)
        base = len(ops) * len(traced_walls)
        t0 = time.perf_counter()
        results = [
            tracing.replay(op, tracer, base + i, workdir / f"t{tag}-{i}.json")
            for i, op in enumerate(ops)
        ]
        traced_walls.append(time.perf_counter() - t0)
        traced_ops.append(set(range(base, base + len(ops))))
        for rec, res in zip(recs, results):
            if rec["code"] != 0:
                continue
            got = res["output"]
            if ops[rec["op"]].argv[0] == "persist":
                got = Path(got).read_text(encoding="utf-8")
            if got != _output_text(rec):
                print(f"op {rec['op']}: library replay differs from the CLI output", file=sys.stderr)
                mismatches += 1
        first_results = first_results or results
        total = [a + b for a, b in zip(cli_walls, traced_walls)]
        if not _passes_fit(time.perf_counter() - start, total, seconds):
            break

    # tracemalloc slows the watched calls four to ten times, so the peaks are
    # taken on the first op of each kind only.
    probe = tracing.AllocProbe()
    firsts = {op.kind: i for i, op in reversed(list(enumerate(ops)))}
    for i in sorted(firsts.values()):
        tracing.replay(ops[i], probe, i, workdir / f"alloc-{i}.json")

    per_pass = [tracer.layer_seconds(opset) for opset in traced_ops]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in tracing.TIMED_LAYERS:
        metrics[f"{layer}_s"] = (statistics.median(p[layer] for p in per_pass), "s")
    metrics["filtrations.filter_self_s"] = (
        statistics.median(
            p["filtrations.filter"] - p["complexes.enumerate"] - p["filtrations.validate"]
            for p in per_pass
        ),
        "s",
    )
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(cli_walls), "s"
    )
    for layer in tracing.PEAK_LAYERS:
        metrics[f"{layer}_peak_mb"] = (probe.peak_mb[layer], "MB")
    simplices = sum((r["simplices"] for r in first_results), Counter())
    metrics["complexes.simplices"] = (sum(simplices.values()), "count")
    for d in range(5):
        metrics[f"complexes.simplices.d{d}"] = (simplices[d], "count")
    for name, key in (("persistence.queries", "queries"), ("metrics.points", "points"),
                      ("serialize.bytes", "bytes")):
        metrics[name] = (sum(r[key] for r in first_results), "count")

    trace = {
        "spans": tracer.spans,
        "cli_pass_s": cli_walls,
        "traced_pass_s": traced_walls,
        "results": [
            {"op": i, "kind": op.kind, "diagram_points": r["diagram_points"],
             "essential_classes": r["essential_classes"]}
            for i, (op, r) in enumerate(zip(ops, first_results))
        ],
    }
    return metrics, records, mismatches, len(ops) * len(traced_walls), trace


def run_workload(args) -> dict:
    os.environ.pop("GRAPHTDA_THREADS", None)
    main = _import_cli()
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        workdir = Path(tmp)
        ops = generate(args.workload, args.seed, workdir)
        extra_attempted = extra_failed = 0
        if args.trace:
            metrics, records, extra_failed, extra_attempted, trace = run_traced(
                main, ops, workdir, args.seconds
            )
        else:
            metrics, records = run_untraced(main, ops, workdir, args.seconds)
            setup_s, factor = setup
            metrics["setup_s"] = (setup_s / factor, "s")
            print(f"unscaled: setup_s {setup_s:.4f} s; slowness factor {factor:.3f}",
                  file=sys.stderr)
        verifier = Verifier(ops)
        failed, wrong = verify(ops, records, verifier)
        failed, wrong = failed + extra_failed, wrong + extra_failed
        missed = verifier.self_test(_first_outputs(records))
    if missed:
        sys.exit(f"error: checkers accepted corrupted outputs: {'; '.join(missed)}")
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        trace.update(workload=args.workload, seed=args.seed)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(trace), encoding="utf-8")
    return {
        "correct": wrong == 0,
        "attempted": len(records) + extra_attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in a fresh process; print a table and one JSON object per workload."""
    results, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: exited {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[workload] = result
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
