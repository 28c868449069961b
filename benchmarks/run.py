"""Benchmark entry point for homodecode.

    python3 benchmarks/run.py --workload {ladder,decode_32k,uw_discover} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, and the run fails (exit 2, no result)
when it is not there.  Inputs are generated from the seed in a child
process, so the program only sees the generated files.  The measured
phase repeats passes of the workload's operations while another pass
fits in ``--seconds`` (at least two passes), checks every output, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` one untraced and one traced pass give
the per-layer metrics and the tracing overhead.  The line before the
result holds the environment record and every workload-specific metric.
Results and spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 1
SETUP_REPEATS = 5
MIN_PASSES = 2
IMPORT_REPEATS = 11

# name -> (unit, better); the bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "latency_ms.p50": ("ms", "lower"),
    "latency_ms.tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy": ("ratio", "higher"),
    "success_ratio": ("ratio", "higher"),
}
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")

IMPORT_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import homodecode\n"
    "print(time.perf_counter() - start)\n"
)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it.  Below 21 samples that percentile would
    not exceed the median, so the maximum is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 11
    if n >= 21:
        return ordered[k], 100.0 * k / (n - 1), n
    return ordered[-1], 100.0, n


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET, SRC], capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment(workers) -> dict:
    import numpy

    digest = hashlib.sha256()
    package = os.path.join(SRC, "homodecode")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "compare_workers": workers,
    }


def load_golden(workload: str, seed: int) -> dict | None:
    if seed != GOLDEN_SEED:
        return None
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def run_passes(workload, seconds: float, max_passes: int | None = None) -> list:
    """MIN_PASSES passes, then more while another one fits in seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(workload.run_pass())
        if max_passes is not None and len(passes) >= max_passes:
            return passes
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + passes[-1].seconds > seconds:
            return passes


def latency_samples(name: str, passes: list) -> list[float]:
    """Per-operation latencies in ms; decode_32k takes each utterance's
    median over passes so the sample count is fixed by the seed."""
    per_op = [[op.latency_s for op in p.ops] for p in passes]
    if name == "decode_32k":
        return [1000.0 * statistics.median(column) for column in zip(*per_op)]
    return [1000.0 * s for ops in per_op for s in ops]


def end_to_end(name: str, setup_s: float, passes: list) -> tuple[dict, dict]:
    """The end-to-end metrics, and the workload-specific ones for the detail line."""
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(p.failed for p in passes)
    samples = latency_samples(name, passes)
    tail_value, tail_pct, n = tail(samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.seconds for p in passes),
        "latency_ms.p50": statistics.median(samples),
        "latency_ms.tail": tail_value,
        "peak_rss_mb": peak_rss_mb,
        "accuracy": statistics.median(p.stats.get("accuracy", 0.0) for p in passes),
        "success_ratio": (attempted - failed) / attempted,
    }
    specific = {
        "setup_s": (setup_s, "s"),
        "wall_s": (values["wall_s"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
        "latency_tail.percentile": (tail_pct, "%"),
        "latency_tail.samples": (n, "count"),
    }
    if name == "decode_32k":
        frames = sum(p.stats["frames"] for p in passes)
        specific["frames_per_s.he_off"] = (frames / sum(p.stats["he_off_s"] for p in passes), "1/s")
        specific["frames_per_s.he_on"] = (frames / sum(p.stats["he_on_s"] for p in passes), "1/s")
        specific["utt_ms.p50"] = (values["latency_ms.p50"], "ms")
        specific["utt_ms.tail"] = (tail_value, "ms")
        specific["cer"] = (1.0 - values["accuracy"], "ratio")
    elif name == "ladder":
        specific["cer"] = (1.0 - values["accuracy"], "ratio")
    elif name == "uw_discover":
        specific["pair_recall"] = (values["accuracy"], "ratio")
    return values, {key: {"value": v, "unit": u} for key, (v, u) in specific.items()}


def measure(args) -> dict:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import homodecode
    from homodecode import cli
    from workloads import WORKLOADS

    if not os.path.abspath(homodecode.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported homodecode from {homodecode.__file__}, not from {SRC}")
    os.environ.pop("HOMODECODE_THREADS", None)  # measure the command line's default pool
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "generate.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", workdir],
            check=True, timeout=600,
        )
        with open(os.path.join(workdir, "inputs.json"), encoding="utf-8") as fh:
            info = json.load(fh)
        golden = None if args.write_golden else load_golden(args.workload, args.seed)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workload = None  # drop the previous set-up so every repeat starts from the same heap
            workload = WORKLOADS[args.workload](info, golden)
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        setup_s = import_seconds() if args.workload == "ladder" else statistics.median(setup_times)

        if args.write_golden:
            write_golden(args.workload, workload.run_pass())
            return {}
        if not args.trace:
            passes = run_passes(workload, args.seconds)
            metrics, specific = end_to_end(args.workload, setup_s, passes)
            absent, hook_errors = [], {}
        else:
            from tracing import Tracer

            passes = run_passes(workload, args.seconds, max_passes=1)
            tracer = Tracer()
            tracer.install()
            workload.tracer = tracer
            try:
                gc.collect()
                workload.setup()
                gc.collect()
                traced = workload.run_pass()
            finally:
                tracer.uninstall()
            passes.append(traced)
            tracer.write_spans(os.path.join(outdir, f"{args.workload}-seed{args.seed}-spans.jsonl"))
            metrics = tracer.metrics()
            metrics[OVERHEAD_METRIC[0]] = traced.seconds / passes[0].seconds
            _, specific = end_to_end(args.workload, setup_s, passes[:1])
            absent = tracer.absent
            hook_errors = tracer.hook_errors()
        units = metric_units(args.trace)
        attempted = sum(len(p.ops) for p in passes)
        failed = sum(p.failed for p in passes)
        errors = sorted({op.error for p in passes for op in p.ops if op.error})
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "passes": len(passes),
            "env": environment(getattr(cli, "_thread_count", os.cpu_count)()),
            "inputs": info["properties"],
            "workload_metrics": specific,
            "absent": absent,
            "hook_errors": hook_errors,
            "errors": errors,
        }
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        with open(os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"detail": detail, "result": result}, fh, ensure_ascii=False, indent=1)
        return {"detail": detail, "result": result}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def metric_units(trace: int) -> dict[str, str]:
    """Unit of every metric a run prints with this trace setting."""
    if not trace:
        return {name: unit for name, (unit, _) in END_TO_END.items()}
    from tracing import PER_LAYER

    return {**{name: unit for name, (unit, _) in PER_LAYER.items()}, OVERHEAD_METRIC[0]: OVERHEAD_METRIC[1]}


def write_golden(name: str, result) -> None:
    if result.failed:
        errors = {op.error for op in result.ops if op.error}
        raise RuntimeError(f"refusing to store failing outputs as golden: {errors}")
    golden = {}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)
    golden["seed"] = GOLDEN_SEED
    golden[name] = result.outputs
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, ensure_ascii=False, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="homodecode benchmark")
    parser.add_argument("--workload", required=True, choices=("ladder", "decode_32k", "uw_discover"))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"store one pass's outputs as the golden outputs (seed {GOLDEN_SEED} only)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "homodecode", "__init__.py")):
        print(f"error: no homodecode package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.write_golden and args.seed != GOLDEN_SEED:
        print(f"error: golden outputs are stored for seed {GOLDEN_SEED} only", file=sys.stderr)
        return 2
    report = measure(args)
    if report:
        print(json.dumps(report["detail"], ensure_ascii=False, sort_keys=True))
        print(json.dumps(report["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
