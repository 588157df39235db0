"""The paper's evaluation (§6 and Appendix B) as eight experiments.

``EXPERIMENTS`` holds the one copy of each experiment's wiring: its
data, ``VerdictContext`` and sample set, parameters and seeds, and the
results tables it writes. ``run`` is the only caller of ``emit``; both
``python -m repro.experiments <name>`` and ``benchmarks/bench_*.py`` go
through it.
"""
from __future__ import annotations

import os
import tempfile
from typing import Callable

from pyspark.sql import SparkSession

from ..core.verdict import VerdictContext
from ..integrated.snappy_sim import IntegratedAQPEngine
from ..workloads.insta import (
    INSTA_QUERIES, prepare_insta_samples, register_insta_files,
)
from ..workloads.tpch_lite import (
    TPCH_QUERIES, prepare_tpch_samples, register_tpch_files,
)
from .correctness import run_sample_size_sweep, run_selectivity_sweep
from .error_estimation import run_error_estimation
from .report import emit
from .sample_prep import run_sample_prep
from .scaleup import run_scaleup
from .speedups import run_speedups, summarize
from .subsample_size import run_subsample_size, run_time_error_tradeoff
from .table2 import run_table2, setup_table2
from .vs_integrated import run_vs_integrated

#: §6.1 at one-machine scale: SF=0.1 csv-backed data (exact queries pay
#: a real scan, like the paper's HDFS-resident data), 1% samples, a 2%
#: I/O budget
SF, RATIO, BUDGET = 0.1, 0.01, 0.02

#: (results file name, title, rows)
Table = tuple[str, str, list[dict]]


def _tpch(spark: SparkSession, data_dir: str) -> VerdictContext:
    register_tpch_files(spark, sf=SF, base_dir=data_dir)
    v = VerdictContext(spark, budget=BUDGET, seed=11)
    prepare_tpch_samples(v, ratio=RATIO)
    return v


def _e1(spark: SparkSession) -> list[Table]:
    """Figs 4/9/10: per-query speedups and actual errors."""
    with tempfile.TemporaryDirectory(prefix="repro_e1_") as d:
        tpch = run_speedups(
            spark, _tpch(spark, d), TPCH_QUERIES, seed=101, repeats=2
        )
        register_insta_files(spark, sf=SF, base_dir=os.path.join(d, "insta"))
        vi = VerdictContext(spark, budget=BUDGET, seed=11)
        prepare_insta_samples(vi, ratio=RATIO)
        insta = run_speedups(spark, vi, INSTA_QUERIES, seed=102, repeats=2)
    return [
        ("e1_tpch_speedups", "E1: TPC-H-lite speedups (Fig 4/9/10)", tpch),
        ("e1_tpch_summary", "E1 summary (paper: avg 18.45x, err < 2.6%)",
         [summarize(tpch)]),
        ("e1_insta_speedups", "E1: instacart-lite speedups (Fig 4/9/10)",
         insta),
        ("e1_insta_summary", "E1 summary (insta suite)", [summarize(insta)]),
    ]


def _e2(spark: SparkSession) -> list[Table]:
    """Fig 5: speedup vs data size with the sample size fixed."""
    rows = run_scaleup(spark, sfs=(0.05, 0.2, 0.5), sample_rows=6000, seed=202)
    return [("e2_scaleup", "E2: speedup vs data size, fixed sample (Fig 5)",
             rows)]


def _e3(spark: SparkSession) -> list[Table]:
    """Fig 6 (§6.3): VerdictDB vs the tightly-integrated engine."""
    subset = tuple(
        w for w in TPCH_QUERIES
        if w.name in ("tq-1", "tq-4", "tq-6", "tq-5", "tq-12", "tq-median")
    )
    with tempfile.TemporaryDirectory(prefix="repro_e3_") as d:
        v = _tpch(spark, d)
        eng = IntegratedAQPEngine(spark, seed=11)
        eng.create_sample("lineitem", fraction=RATIO)
        eng.create_sample("orders", fraction=RATIO)
        rows = run_vs_integrated(spark, v, eng, subset, seed=303)
    return [("e3_vs_integrated", "E3: VerdictDB vs integrated AQP (Fig 6)",
             rows)]


def _e4(spark: SparkSession) -> list[Table]:
    """Fig 7 (§6.4): error-estimation overhead on three query shapes."""
    with tempfile.TemporaryDirectory(prefix="repro_e4_") as d:
        register_tpch_files(spark, sf=SF, base_dir=d)
        rows = run_error_estimation(
            spark, sample_ratio=1.0, hash_ratio=0.5, b=200, seed=505
        )
    return [("e4_error_estimation",
             "E4: error-estimation overhead, b=200 (Fig 7)", rows)]


def _e5(spark: SparkSession | None) -> list[Table]:
    """Fig 8 (§6.5): accuracy of the error estimates (numpy only)."""
    return [
        ("e5_selectivity",
         "E5a: count-query error estimates vs selectivity (Fig 8a)",
         run_selectivity_sweep(trials=200, seed=606)),
        ("e5_sample_size",
         "E5b: avg-query error estimates, four methods (Fig 8b)",
         run_sample_size_sweep(
             sizes=(100_000, 1_000_000),
             trials_per_size={100_000: 80, 1_000_000: 20},
             seed=607,
         )),
    ]


def _e6(spark: SparkSession | None) -> list[Table]:
    """Figs 12/13/14 (Appendix B.3): subsample size and time-error
    tradeoffs (numpy only)."""
    return [
        ("e6_subsample_size", "E6: effect of n_s, n=50K (Fig 14)",
         run_subsample_size(n=50_000, trials=150, seed=708)),
        ("e6_time_error", "E6: time-error tradeoff, b=1000 (Fig 12a/12b)",
         run_time_error_tradeoff(
             sizes=(10_000, 30_000, 100_000), b=1000, trials=8, seed=709
         )),
    ]


def _e7(spark: SparkSession) -> list[Table]:
    """Fig 11 (Appendix B.2): sample preparation vs data load."""
    with tempfile.TemporaryDirectory(prefix="repro_e7_") as d:
        register_tpch_files(spark, sf=SF, base_dir=d)
        rows = run_sample_prep(spark, table="lineitem", ratio=RATIO, seed=810)
    return [("e7_sample_prep", "E7: sample prep vs data load (Fig 11)", rows)]


def _t2(spark: SparkSession) -> list[Table]:
    """Table 2: sampled count-distinct / median vs native sketches."""
    with tempfile.TemporaryDirectory(prefix="repro_t2_") as d:
        v = setup_table2(spark, base_dir=d, sf=0.5, ratio=RATIO)
        rows = run_table2(spark, v, table="lineitem_t2", seed=404)
    return [("table2", "Table 2: sampling-based AQP vs native approximation",
             rows)]


EXPERIMENTS: dict[str, Callable[[SparkSession | None], list[Table]]] = {
    "e1": _e1, "e2": _e2, "e3": _e3, "e4": _e4,
    "e5": _e5, "e6": _e6, "e7": _e7, "t2": _t2,
}
#: the experiments that need no SparkSession
NUMPY_ONLY = frozenset({"e5", "e6"})


def run(name: str, spark: SparkSession | None = None) -> dict[str, list[dict]]:
    """Run one experiment, write each of its tables to
    ``results/<file>.txt`` and return the rows by file name."""
    tables = EXPERIMENTS[name](spark)
    for file, title, rows in tables:
        emit(file, title, rows)
    return {file: rows for file, _, rows in tables}
