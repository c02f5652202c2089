#!/usr/bin/env python3
"""Benchmark of the ``dyncode`` command line, end to end and per layer.

One client runs ops in a closed loop inside this process: each op is one
call of ``dyncode.cli.main([...], standalone_mode=False)`` on a code file
generated from the seed, and the next op starts when it returns.  Outputs
are captured and checked outside the timed region.

    python3 bench/run.py --workload classify-floquet --seed 1 --seconds 50 --trace 0

``--trace 0`` times whole passes of the op schedule for about ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs one pass of the
op schedule untraced and one traced, and reports the per-layer metrics.
The last line of standard output is the JSON result; the lines before it
name every metric with its unit.  Per-op records and the span dump go to
``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# The timed phase runs at least this many passes over the op schedule.
MIN_PASSES = 3
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
# have passed (at most SETUP_MAX_REPEATS); ``setup_s`` takes the median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 3, 9, 3.0
# The import is timed once in this process and in this many fresh ones.
IMPORT_PROBES = 4

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.op.self_s": "s",
    "library.load_code.busy_s": "s",
    "pauli.parse_pauli.calls": "count",
    "pauli.symplectic_product.calls": "count",
    "pauli.product.calls": "count",
    "engine.validate_code.busy_s": "s",
    "engine.measure.calls": "count",
    "engine.measure.busy_s": "s",
    "engine.simulate_measurements.busy_s": "s",
    "gf2.in_span.calls": "count",
    "gf2.in_span.busy_s": "s",
    "gf2.rref.calls": "count",
    "gf2.rref.busy_s": "s",
    "gf2.rref.rows": "count",
    "gf2.span_intersection.busy_s": "s",
    "gf2.nullspace.busy_s": "s",
    "gf2.solve_linear.busy_s": "s",
    "classify.forward.self_s": "s",
    "classify.unmasked.busy_s": "s",
    "classify.replay.busy_s": "s",
    "classify.temporary.busy_s": "s",
    "classify.partition_check.busy_s": "s",
    "classify.tagging.calls": "count",
    "classify.tagging.busy_s": "s",
    "classify.gauge.busy_s": "s",
    "classify.distance_search.calls": "count",
    "classify.distance_search.busy_s": "s",
    "floquet.iterate_cycles.busy_s": "s",
    "floquet.cycles": "count",
    "floquet.monotonicity.busy_s": "s",
    "floquet.growth.busy_s": "s",
    "floquet.unmask_cycles.busy_s": "s",
    "errors.logical_trace.calls": "count",
    "errors.logical_trace.busy_s": "s",
    "errors.round0_decoding.busy_s": "s",
    "errors.round0_decoding.errors_checked": "count",
    "errors.syndrome.busy_s": "s",
    "trace.overhead_x": "x",
}


@dataclass
class Result:
    op: object
    latency: float
    output: str
    error: str | None = None
    digest: str = ""


# Every op writes to these two buffers.  click caches a text wrapper per
# output stream that keeps the stream alive, so a fresh buffer per op would
# hold every report until the process ends and inflate ``peak_rss_mb``.
_OUT, _ERR = io.StringIO(), io.StringIO()


def run_op(main, op, directory: Path) -> Result:
    """Call the CLI once; a non-zero exit or an exception fails the op."""
    out, err = _OUT, _ERR
    for buffer in (out, err):
        buffer.seek(0)
        buffer.truncate()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(op.argv(directory), standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            error = f"exit {exc.code}: {err.getvalue().strip()[:300]}"
    except Exception as exc:  # an uncaught exception is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    output = out.getvalue()
    return Result(op, latency, output, error, hashlib.sha256(output.encode()).hexdigest())


def verify(results: list[Result], directory: Path, check) -> list[dict]:
    """Fill in ``error`` for ops whose output fails its check."""
    verdicts: dict[tuple[int, str], str | None] = {}
    for r in results:
        if r.error:
            continue
        key = (r.op.index, r.digest)
        if key not in verdicts:
            try:
                problems = check(r.op, r.output, directory / r.op.file)
            except Exception as exc:  # a malformed report fails its op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            verdicts[key] = "; ".join(problems) or None
        r.error = verdicts[key]
    return [
        {"op": r.op.index, "family": r.op.family, "args": list(r.op.args), "cause": r.error}
        for r in results if r.error
    ]


def git_sha(root: Path) -> str:
    """Commit of ``root``; "unknown" unless ``root`` is itself a git checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def import_times(src: Path) -> list[float]:
    """Seconds to ``import dyncode.cli`` in fresh interpreters, one at a time."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import dyncode.cli; print(time.perf_counter() - t)")
    return [
        float(subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(IMPORT_PROBES)
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_value(tracer, name: str) -> float:
    span, stat = name.rsplit(".", 1)
    if stat == "busy_s":
        return tracer.busy[span]
    if stat == "self_s":
        return tracer.self_time[span]
    if stat == "calls" and span in tracer.calls:
        return tracer.calls[span]
    return tracer.counts[name]


def timed_phase(main, ops, directory: Path, seconds: float) -> tuple[list[Result], float]:
    """Run whole passes over ``ops`` in a closed loop: at least ``MIN_PASSES``,
    and another one while it is expected to end within ``seconds``.

    Whole passes give every run the same mix of ops; a run cut inside a
    pass holds a seed-dependent part of it, which widened the spread of
    the latency percentiles between seeds.  Only the first report of each
    distinct (op, sha256) pair is kept, for ``verify``; later ones keep just
    their digest, so the reports held are bounded by one pass, whatever the
    throughput, and do not inflate ``peak_rss_mb``.
    """
    results, kept = [], set()
    gc.collect()
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            result = run_op(main, op, directory)
            key = (op.index, result.digest)
            if key in kept:
                result.output = ""
            elif result.error is None:
                kept.add(key)
            results.append(result)
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now + (now - pass_start) - start > seconds:
            return results, now - start


def traced_phase(main, ops, directory: Path, tracer_cls):
    """One untraced and one traced pass over the same ops."""
    gc.collect()
    start = time.perf_counter()
    plain = [run_op(main, op, directory) for op in ops]
    plain_wall = time.perf_counter() - start
    tracer = tracer_cls()
    tracer.install()
    try:
        gc.collect()
        start = time.perf_counter()
        traced = [tracer.run_op(op.index, lambda: run_op(main, op, directory)) for op in ops]
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return plain + traced, tracer, traced_wall / plain_wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dyncode" / "__init__.py").is_file():
        print(f"error: no dyncode package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # The package and the benchmark modules that use it are imported only
    # now, so that import time is measured and a missing package is caught.
    start = time.perf_counter()
    from dyncode.cli import main as cli_main
    imports = [time.perf_counter() - start]
    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    rss_mb = {"after_import": peak_rss_mb()}
    imports += import_times(src)
    directory = OUT / "codes" / f"{args.workload}-s{args.seed}"
    setup_times = []
    while len(setup_times) < SETUP_MAX_REPEATS and (
        len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS
    ):
        start = time.perf_counter()
        ops = workloads.build_ops(args.workload, args.seed, directory)
        run_op(cli_main, ops[0], directory)  # warm-up
        setup_times.append(time.perf_counter() - start)
    rss_mb["after_setup"] = peak_rss_mb()

    if args.trace:
        results, tracer, overhead = traced_phase(cli_main, ops, directory, spans.Tracer)
    else:
        results, wall = timed_phase(cli_main, ops, directory, args.seconds)
    # Read before the checks, which rerun parts of dyncode on large inputs.
    rss_mb["after_ops"] = peak_rss_mb()
    failures = verify(results, directory, checks.check)
    attempted, failed = len(results), len(failures)
    extra = {"ops_failed_frac": (failed / attempted, "fraction")}
    if args.trace:
        units = PER_LAYER
        metrics = {name: layer_value(tracer, name) for name in PER_LAYER}
        metrics["trace.overhead_x"] = overhead
    else:
        units = END_TO_END
        latencies = [r.latency for r in results]
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setup_times),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": statistics.quantiles(latencies, n=10)[-1],
            "ops_per_s": (attempted - failed) / wall,
            "peak_rss_mb": rss_mb["after_ops"],
        }
        by_family: dict[str, list[float]] = {}
        for r in results:
            by_family.setdefault(r.op.family, []).append(r.latency)
        if "chain-n" in by_family:
            extra["chain_x2_ratio"] = (
                statistics.median(by_family["chain-2n"]) / statistics.median(by_family["chain-n"]),
                "x",
            )

    stamp = {
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "distinct_ops": len(ops),
        "passes": len(results) // len(ops) - args.trace,
        "ops_per_command": dict(sorted(Counter(r.op.command for r in results).items())),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}"
    record = {
        "stamp": stamp,
        "setup_times_s": setup_times,
        "import_times_s": imports,
        "peak_rss_mb_by_phase": rss_mb,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "failures": failures,
        "ops": [
            {"op": r.op.index, "command": r.op.command, "family": r.op.family,
             "args": list(r.op.args), "latency_s": r.latency, "sha256": r.digest,
             "traced": bool(args.trace) and i >= len(ops)}
            for i, r in enumerate(results)
        ],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(stem.with_suffix(".spans"))

    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items() if k != "ops_per_command")
          + " ops=" + ",".join(f"{k}:{v}" for k, v in stamp["ops_per_command"].items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name} {value:.6g} {unit}")
    for f in failures[:20]:
        print(f"failed op {f['op']} ({f['family']} {' '.join(f['args'])}): {f['cause']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
