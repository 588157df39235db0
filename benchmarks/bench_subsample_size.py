"""E6 (Figures 12/13/14, Appendix B.3): time-error tradeoffs and the
optimal subsample size.

Paper reference: n_s = sqrt(n) yields the lowest error of the bound
estimate (Fig 14), and variational subsampling is orders of magnitude
faster than bootstrap/traditional subsampling at equal n (Fig 12b).
"""
from repro.experiments import run


def test_subsample_size(benchmark):
    tables = benchmark.pedantic(lambda: run("e6"), rounds=1, iterations=1)

    # Fig 14: error of the bound estimate vs n_s
    rows = tables["e6_subsample_size"]
    best = min(rows, key=lambda r: r["rel_err_of_bound_pct"])
    # Fig 14 shape: sqrt(n) at or near the optimum (allow one neighbour)
    assert best["ns_exponent"] in (1 / 3, 0.5, 2 / 3), best
    sqrt_row = next(r for r in rows if r["ns_exponent"] == 0.5)
    assert sqrt_row["rel_err_of_bound_pct"] <= 1.5 * best["rel_err_of_bound_pct"]

    # Fig 12: time-error tradeoff at b=1000
    rows = tables["e6_time_error"]
    for n in (10_000, 30_000, 100_000):
        sub = {r["method"]: r for r in rows if r["n"] == n}
        # Fig 12b: variational is orders of magnitude faster
        assert sub["variational"]["latency_s"] * 10 < sub["bootstrap"]["latency_s"]
        assert sub["variational"]["latency_s"] * 10 < sub["traditional"]["latency_s"]
