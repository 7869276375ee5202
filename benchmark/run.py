"""End-to-end benchmark of valuation-lab through in-process ``cli.main``.

    python3 benchmark/run.py --workload tono-sweep --seed 1 --seconds 55 --trace 0

Run from the repository root.  One process, one caller, closed loop, no
threads: each op (one ``cli.main`` call) starts when the previous one has
returned and its output has been checked.  The timed phase repeats whole
passes over the workload's op list while the next pass fits in
``--seconds``, and until at least ``MIN_OPS`` ops have run, so the tail
percentile has ten ops beyond the median.  Setup (import, inputs,
warm-up) runs ``SETUP_REPS`` times before the timed phase and once after
every pass.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with spans around the package's public functions
(see ``tracer.py``) and reports the per-layer metrics plus the tracing
overhead.  Both print a metric table, write the full results (environment,
inputs digest, every op with its sha256) under ``benchmark/out/``, and end
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

MIN_OPS = 20
SETUP_REPS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# End-to-end metrics that BENCHMARK.json gates: (name, unit, better).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("valuations_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("report_bytes", "B", "lower"),
]
# Printed and recorded but not gated: op_tail_s sits at p50 for the op
# counts one run reaches, and its percentile rises as ops get faster;
# fail_ratio is 0 when the program is right (it is attempted/failed).
UNGATED = {"op_tail_s": "s", "fail_ratio": "ratio"}


def import_program():
    """(Re)import ``valuation_lab`` from this checkout's ``src``, never elsewhere."""
    for name in [n for n in sys.modules if n == "valuation_lab" or n.startswith("valuation_lab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    cli = importlib.import_module("valuation_lab.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"valuation_lab was imported from {cli.__file__}, not {SRC}")
    return cli


def run_op(cli, op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(op.argv))
        seconds = time.perf_counter() - start
    data = out.getvalue().encode("utf-8")
    failure = op.check(code, out.getvalue())
    if failure and err.getvalue():
        failure += f" (stderr: {err.getvalue().strip()[:200]})"
    return {
        "op": op.label,
        "kind": op.kind,
        "seconds": seconds,
        "exit_code": code,
        "stdout_bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "failure": failure,
    }


def run_passes(cli, workload, seconds: float, min_ops: int, on_op=None,
               after_pass=None) -> list[dict]:
    """Whole passes over the op list while the next one fits in ``seconds``.

    A pass starts only if it would end within ``seconds`` when it takes as
    long as the pass before it, so a run ends near ``seconds`` and never a
    whole pass past it.  The first pass, and the passes needed to reach
    ``min_ops``, always run.  ``after_pass`` returns the ``cli`` module for
    the next pass.  An op whose stdout differs from the same op in the first
    pass fails: reports are byte-identical across runs by contract.
    """
    results: list[dict] = []
    start = time.perf_counter()
    last_pass = 0.0
    while (not results or len(results) < min_ops
           or time.perf_counter() - start + last_pass <= seconds):
        pass_start = time.perf_counter()
        for i, op in enumerate(workload.ops):
            if on_op is not None:
                on_op(len(results))
            r = run_op(cli, op)
            if len(results) >= len(workload.ops) and not r["failure"]:
                if r["sha256"] != results[i]["sha256"]:
                    r["failure"] = "stdout differs from the first pass"
            results.append(r)
        if after_pass is not None:
            cli = after_pass()
        last_pass = time.perf_counter() - pass_start
    return results


def setup(name: str, seed: int, tiny: bool):
    """Import, generate inputs, write input files and warm up on the tiny inputs."""
    cli = import_program()
    workload = workloads.build(name, seed, tiny)
    warm = workloads.build(name, seed, tiny=True)
    for w in (workload, warm):
        for path, text in w.files.items():
            Path(path).write_text(text, encoding="utf-8")
    for op in warm.ops:
        run_op(cli, op)
    return cli, workload


def tail(times: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten ops beyond it, and its value."""
    cuts = statistics.quantiles(times, n=1000, method="inclusive")
    for p in TAIL_LADDER:
        value = cuts[round(p * 10) - 1]
        if sum(t > value for t in times) >= 10:
            return p, value
    return 50.0, statistics.median(times)


def op_p50(results: list[dict]) -> float:
    """Median over op kinds of each kind's median time.

    A kind is a command with its inputs, in either output format.  Every
    pass runs each kind equally often, so this is the median op time with
    each kind's samples replaced by their median.  When the pooled median
    falls between two kinds (tono-sweep has four kinds), it then reads
    their medians instead of the slowest op of one and the fastest of the
    other.
    """
    kinds: dict[str, list[float]] = {}
    for r in results:
        kinds.setdefault(r["kind"], []).append(r["seconds"])
    return statistics.median(statistics.median(t) for t in kinds.values())


def end_to_end(results: list[dict], workload, setup_s: float) -> dict[str, float]:
    times = [r["seconds"] for r in results]
    passes = len(results) // len(workload.ops)
    return {
        "setup_s": setup_s,
        "op_p50_s": op_p50(results),
        "valuations_per_s": passes * sum(op.valuations for op in workload.ops) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_bytes": float(sum(r["stdout_bytes"] for r in results[: len(workload.ops)])),
    }


def environment(args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "workload": workload.name,
        "params": workload.params,
        "descriptors": workload.descriptors,
        "input_digest": workload.input_digest,
        "ops_per_pass": [op.label for op in workload.ops],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (warm-up size); for self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "valuation_lab" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    os.chdir(OUT)
    stem = f"{args.workload}{'-tiny' if args.tiny else ''}-trace{args.trace}"

    setup_times: list[float] = []

    def timed_setup():
        start = time.perf_counter()
        cli, workload = setup(args.workload, args.seed, args.tiny)
        setup_times.append(time.perf_counter() - start)
        return cli, workload

    # Setup is repeated before the timed phase and after every pass, so its
    # median samples the machine over the whole run, as op times do.
    for _ in range(SETUP_REPS):
        cli, workload = timed_setup()
    report: dict = {"environment": environment(args, workload), "setup_s": setup_times}
    if args.trace == 0:
        results = run_passes(cli, workload, args.seconds, MIN_OPS,
                             after_pass=lambda: timed_setup()[0])
        metrics = end_to_end(results, workload, statistics.median(setup_times))
        units = {name: unit for name, unit, _ in END_TO_END}
        percentile, tail_value = tail([r["seconds"] for r in results])
        extra = {"op_tail_s": tail_value}
        report["op_tail"] = {"percentile": percentile, "ops": len(results)}
    else:
        untraced = run_passes(cli, workload, args.seconds / 2, 0)
        spans = tracer.Tracer()
        spans.install()
        try:
            def mark(i: int) -> None:
                spans.op_id = i

            traced = run_passes(cli, workload, args.seconds / 2, 0, on_op=mark)
        finally:
            spans.uninstall()
        metrics = spans.metrics(len(traced))
        metrics["trace.overhead_s"] = (
            statistics.fmean(r["seconds"] for r in traced)
            - statistics.fmean(r["seconds"] for r in untraced)
        )
        spans.write(f"{stem}-spans.csv.gz")
        results = untraced + traced
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        extra = {}
        report["spans"] = len(spans.start)

    failed = sum(1 for r in results if r["failure"])
    extra["fail_ratio"] = failed / len(results)
    gated = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report.update(
        metrics=gated | {k: {"value": v, "unit": UNGATED[k]} for k, v in extra.items()},
        attempted=len(results),
        failed=failed,
        ops=results,
    )
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for name, entry in report["metrics"].items():
        print(f"{name:<40} {entry['value']:>16.6g} {entry['unit']}")
    if "op_tail" in report:
        print(f"op_tail_s is p{percentile:g} over {len(results)} ops")
    print(f"fail_ratio counts {failed} failed of {len(results)} ops")
    for r in results:
        if r["failure"]:
            print(f"FAILED {r['op']}: {r['failure']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": gated,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
