"""E1 (Figures 4/9/10): per-query speedups with/without VerdictDB and
the actual relative errors of the approximate answers.

Paper reference: 18.45x average speedup (up to 171x across engines),
every error below 2.6%. Locally the data is in-memory at SF=0.1 so
absolute speedups are smaller, but the shape must hold: supported
queries are faster via VerdictDB, unsupported ones are not slower, and
errors stay in the low percent range.
"""
from repro.experiments import run


def test_speedups(benchmark, spark):
    tables = benchmark.pedantic(
        lambda: run("e1", spark), rounds=1, iterations=1
    )

    # TPC-H-lite suite
    rows = tables["e1_tpch_speedups"]
    s = tables["e1_tpch_summary"][0]
    approx = [r for r in rows if r["approx"]]
    assert len(approx) >= 10
    # shape: AQP helps on average and errors are small
    assert s["avg_speedup"] > 1.0
    assert s["avg_err_pct"] < 10.0

    # instacart-lite suite
    s = tables["e1_insta_summary"][0]
    assert s["avg_speedup"] > 1.0
