"""Table 2 — sampling-based AQP vs native (sketch) approximation.

The paper's Table 2 compares VerdictDB's sampling-based count-distinct
and median against Impala's ndv / Redshift's approx_median: the native
sketches need a full scan, so the sampled answers are much faster at
slightly different error profiles. Here Spark's approx_count_distinct
(HyperLogLog++) and percentile_approx play the native role.

Output rows mirror the table: runtime and relative error (vs the exact
answer) for VerdictDB and for the native approximation.
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from ..core.verdict import VerdictContext
from ..native.approx_aggs import (
    exact_count_distinct,
    exact_median,
    native_count_distinct,
    native_median,
)


def _verdict_scalar(
    v: VerdictContext, sql: str, alias: str, seed: int, repeats: int = 2
):
    best, val, approx = float("inf"), 0.0, False
    for r in range(repeats):
        t0 = time.perf_counter()
        res = v.sql(sql, seed=seed + r)
        val = float(res.df.collect()[0][alias])
        best = min(best, time.perf_counter() - t0)
        approx = res.approx
    return val, best, approx


def _best_of(fn, repeats: int = 2):
    out = fn()
    for _ in range(repeats - 1):
        nxt = fn()
        if nxt.seconds < out.seconds:
            out = nxt
    return out


def setup_table2(
    spark: SparkSession, *, base_dir: str, sf: float = 0.5, ratio: float = 0.01
):
    """Dedicated file-backed lineitem (written under ``base_dir``) for the
    Table 2 comparison.

    The paper runs this against 124-500 GB tables; the native sketches
    lose *because the full scan is expensive*. A dedicated larger SF
    keeps that regime visible on one machine.
    """
    import os

    from .. import synth_data

    df = synth_data.lineitem(spark, sf=sf, seed=7)
    path = os.path.join(base_dir, "lineitem_t2")
    df.write.mode("overwrite").option("header", True).csv(path)
    spark.read.schema(df.schema).option("header", True).csv(
        path
    ).createOrReplaceTempView("lineitem_t2")
    v = VerdictContext(spark, budget=0.02, seed=7)
    v.create_uniform_sample("lineitem_t2", ratio=ratio)
    v.create_hashed_sample("lineitem_t2", ("l_orderkey",), ratio=ratio)
    return v


def run_table2(
    spark: SparkSession,
    v: VerdictContext,
    *,
    table: str = "lineitem",
    distinct_col: str = "l_orderkey",
    median_col: str = "l_extendedprice",
    seed: int = 404,
) -> list[dict]:
    rows: list[dict] = []

    # (a) approximate count-distinct (best-of-2 for all methods: the
    # first run pays one-off costs — JIT, file-cache warmup, probes)
    ex = _best_of(lambda: exact_count_distinct(spark, table, distinct_col))
    nat = _best_of(lambda: native_count_distinct(spark, table, distinct_col))
    vd, vt, vapprox = _verdict_scalar(
        v, f"select count(distinct {distinct_col}) as d from {table}", "d", seed
    )
    rows.append(
        {
            "aggregate": "count-distinct",
            "method": "Verdict+Spark",
            "runtime_s": vt,
            "rel_err_pct": 100.0 * abs(vd - ex.value) / ex.value,
            "approx": vapprox,
        }
    )
    rows.append(
        {
            "aggregate": "count-distinct",
            "method": "Spark native (HLL)",
            "runtime_s": nat.seconds,
            "rel_err_pct": 100.0 * abs(nat.value - ex.value) / ex.value,
            "approx": True,
        }
    )

    # (b) approximate median
    exm = _best_of(lambda: exact_median(spark, table, median_col))
    natm = _best_of(lambda: native_median(spark, table, median_col))
    vm, vmt, vmapprox = _verdict_scalar(
        v, f"select percentile({median_col}, 0.5) as m from {table}", "m", seed
    )
    rows.append(
        {
            "aggregate": "median",
            "method": "Verdict+Spark",
            "runtime_s": vmt,
            "rel_err_pct": 100.0 * abs(vm - exm.value) / exm.value,
            "approx": vmapprox,
        }
    )
    rows.append(
        {
            "aggregate": "median",
            "method": "Spark native (percentile_approx)",
            "runtime_s": natm.seconds,
            "rel_err_pct": 100.0 * abs(natm.value - exm.value) / exm.value,
            "approx": True,
        }
    )
    return rows
