"""E4 (Figure 7, §6.4): runtime overhead of error-estimation methods on
flat / join / nested queries.

Paper reference: variational subsampling added only 0.38-0.87 s to the
query latencies while consolidated bootstrap and traditional
subsampling added orders of magnitude more (189x/237x/100x vs
bootstrap; 348x vs traditional overall) — their constructions are
O(b*n) versus O(n).
"""
from repro.experiments import run


def test_error_estimation_overhead(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: run("e4", spark), rounds=1, iterations=1
    )["e4_error_estimation"]
    for shape in ("flat", "join", "nested"):
        sub = {
            r["method"]: r for r in rows
            if r["shape"] == shape and not r["method"].startswith("ratio")
        }
        # shape: the O(b*n) methods cost more total time than the O(n)
        # variational rewrite on every query shape
        assert sub["traditional"]["total_s"] > sub["variational"]["total_s"]
        assert sub["bootstrap"]["total_s"] > sub["variational"]["total_s"]
