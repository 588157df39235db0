"""E1 — per-query speedups and actual errors (Figures 4/9/10 and the
paper's headline "18.45x average, <2.6% error").

For every workload query we measure wall latency of the engine alone
(exact) versus VerdictDB-on-the-engine (middleware end to end: parse,
plan, rewrite, execute, assemble), plus the actual relative error of the
approximate answers against the exact ones (the Figure 10 quantity).
"""
from __future__ import annotations

import statistics
import time

from pyspark.sql import SparkSession

from ..core.estimators import ApproxResult
from ..core.verdict import VerdictContext
from ..workloads.tpch_lite import WorkloadQuery


def _collect_exact(spark: SparkSession, sql: str):
    t0 = time.perf_counter()
    rows = spark.sql(sql).collect()
    return rows, time.perf_counter() - t0


def _collect_verdict(v: VerdictContext, sql: str, **kw):
    t0 = time.perf_counter()
    res = v.sql(sql, **kw)
    rows = res.df.collect()
    return res, rows, time.perf_counter() - t0


def actual_relative_error(res: ApproxResult, exact_rows) -> float | None:
    """Mean |approx - exact| / |exact| across groups and aggregates —
    the Figure 10 'actual error' metric."""
    if not res.approx:
        return None
    keys = list(res.group_cols)
    exact = {tuple(r[k] for k in keys): r for r in exact_rows}
    errs: list[float] = []
    for row in res.df.collect():
        ref = exact.get(tuple(row[k] for k in keys))
        if ref is None:
            continue
        for o in res.outputs:
            want, got = ref[o.alias], row[o.alias]
            if want is None or got is None or float(want) == 0.0:
                continue
            errs.append(abs((float(got) - float(want)) / float(want)))
    return sum(errs) / len(errs) if errs else None


def run_speedups(
    spark: SparkSession,
    v: VerdictContext,
    queries: tuple[WorkloadQuery, ...],
    *,
    seed: int = 101,
    repeats: int = 1,
) -> list[dict]:
    """Run each query exact and via VerdictDB; return comparison rows."""
    rows: list[dict] = []
    for wq in queries:
        exact_rows, t_exact = _collect_exact(spark, wq.sql)
        for r in range(repeats - 1):
            _, t2 = _collect_exact(spark, wq.sql)
            t_exact = min(t_exact, t2)
        res, _, t_verdict = _collect_verdict(v, wq.sql, seed=seed)
        for r in range(repeats - 1):
            res, _, t2 = _collect_verdict(v, wq.sql, seed=seed + r + 1)
            t_verdict = min(t_verdict, t2)
        err = actual_relative_error(res, exact_rows)
        rows.append(
            {
                "query": wq.name,
                "approx": res.approx,
                "exact_s": t_exact,
                "verdict_s": t_verdict,
                "speedup": t_exact / t_verdict if t_verdict > 0 else float("inf"),
                "rel_err_pct": 100.0 * err if err is not None else None,
            }
        )
    return rows


def summarize(rows: list[dict]) -> dict:
    """Speedup and error over the approximated queries; the same keys
    (zeros) when none was approximated. ``geomean_speedup`` is the
    figure perfbench reports as ``exact.speedup_geomean``."""
    sped = [r["speedup"] for r in rows if r["approx"]]
    errs = [
        r["rel_err_pct"] for r in rows
        if r["approx"] and r["rel_err_pct"] is not None
    ]
    return {
        "n_approx": len(sped),
        "n_total": len(rows),
        "avg_speedup": statistics.fmean(sped) if sped else 0.0,
        "geomean_speedup": statistics.geometric_mean(sped) if sped else 0.0,
        "max_speedup": max(sped, default=0.0),
        "max_err_pct": max(errs, default=0.0),
        "avg_err_pct": statistics.fmean(errs) if errs else 0.0,
    }
