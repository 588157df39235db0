"""VerdictDB benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload tq-warm --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. It builds nothing: the program is the
Python package under ``src/``. The TPC-H-lite CSV tables are generated
on the first run and kept under ``.perfbench/`` in the checkout, which
also holds Spark's scratch space.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it wraps each layer's public calls and reports
the per-layer metrics instead. Either way it prints a human-readable
report and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts queries (VerdictDB and exact); ``failed`` counts
those that raised or whose answer failed a check, so error_rate is
failed / attempted.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_p67_s": "s",
    "queries_per_s": "1/s",
    "approx_share": "share",
    "rel_err_pct": "%",
    "ci_coverage": "share",
    "sample_space_ratio": "share",
}

PER_LAYER = {
    "parser.ms": "ms",
    "flatten.ms": "ms",
    "flatten.derived_views": "count/pass",
    "planner.ms": "ms",
    "planner.entries": "count",
    "planner.io_ratio": "share",
    "rewriter.ms": "ms",
    "rewriter.sql_bytes": "bytes",
    "rewriter.b": "count",
    "verdict.schema_calls": "count",
    "verdict.schema_ms": "ms",
    "verdict.self_ms": "ms",
    "verdict.eager_jobs": "count",
    "verdict.eager_ms": "ms",
    "engine.analysis_ms": "ms",
    "engine.execute_ms": "ms",
    "engine.jobs": "count",
    "engine.tasks": "count",
    "engine.rows": "count",
    "engine.errest_overhead_ms.flat": "ms",
    "engine.errest_overhead_ms.join": "ms",
    "engine.errest_overhead_ms.nested": "ms",
    "estimators.hac_ms": "ms",
    "estimators.hac_reruns": "count/pass",
    "exact.execute_ms": "ms",
    "exact.speedup_geomean": "x",
    "sampling.uniform_ms": "ms",
    "sampling.hashed_ms": "ms",
    "sampling.stratified_ms": "ms",
    "sampling.jobs": "count",
    "sampling.rows_ratio": "share",
    "sampling.leaked_views": "count",
    "trace.coverage": "share",
    "trace.overhead_pct": "%",
}

def driver_memory() -> str:
    """Half the machine's memory in GiB, clamped to 2..8 — the value the
    tier-1 test command exports as SPARK_DRIVER_MEM."""
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kib // 2097152))}g"


def start_spark(cfg: dict):
    """A local SparkSession whose scratch files stay inside the checkout."""
    cores = min(cfg["max_cores"], os.cpu_count() or 1)
    tmp, local = WORK / "tmp", WORK / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        f"--driver-memory {driver_memory()}",
        "--conf", shlex.quote(f"spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp}"),
        "--conf", shlex.quote(f"spark.sql.warehouse.dir={WORK / 'warehouse'}"),
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in cfg["conf"].items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_selftest() -> None:
    """The benchmark's own arithmetic must hold before it reports."""
    import test_measure

    for name in dir(test_measure):
        if name.startswith("test_"):
            getattr(test_measure, name)()


def report(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"== {title}")
    for k, unit in units.items():
        print(f"  {k:36s} {metrics[k]:>14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("tq-warm", "tq-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run_selftest()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT} holds no src/repro to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    settings = json.loads((HERE / "settings.json").read_text())

    t_start = time.perf_counter()
    spark = start_spark(settings["spark"])
    print(f"perfbench: spark up in {time.perf_counter() - t_start:.1f}s", file=sys.stderr)
    try:
        import verdictbench

        out = verdictbench.run(
            spark, settings, WORK, args.workload, seed=args.seed,
            seconds=args.seconds, traced=bool(args.trace),
        )
    finally:
        t_stop = time.perf_counter()
        stop_spark(spark)
        print(f"perfbench: spark stopped in {time.perf_counter() - t_stop:.1f}s", file=sys.stderr)

    units = PER_LAYER if args.trace else END_TO_END
    failed = len(out["failures"])
    for line in out["lines"]:
        print(line)
    for why in out["failures"]:
        print(f"FAILED {why}")
    print(f"  error_rate {failed}/{out['attempted']} = {failed / out['attempted']:.4f}")
    report(f"{args.workload} seed={args.seed} trace={args.trace}", out["metrics"], units)
    bad = [k for k in units if not math.isfinite(out["metrics"][k])]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {k: {"value": out["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"perfbench: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    sys.exit(code)
