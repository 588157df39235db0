"""Exact-semantics oracle for window-path comparison subqueries.

A uniform sample with ratio 1.0 holds every row with ``verdict_prob``
1, so an approximate answer through the window path must equal the
engine's exact answer to the same text. The columns hold integers and
quarter-units, whose sums are exact in doubles, so float summation
order cannot flip a comparison.
"""
import math
import random

import pytest

import repro.core.verdict as verdict_mod
from repro.core.sampling import drop_sample
from repro.core.verdict import VerdictContext


@pytest.fixture(scope="module")
def full(spark):
    rng = random.Random(5)
    rows = [
        (
            i,
            i % 5,
            None if i % 17 == 0 else rng.randint(0, 1000),
            # group 4 has no wo_y at all
            None if i % 5 == 4 or i % 11 == 0 else rng.randint(0, 5000) / 4,
            i % 7,
        )
        for i in range(3000)
    ]
    spark.createDataFrame(
        rows, "wo_id long, wo_g int, wo_x long, wo_y double, wo_k int"
    ).createOrReplaceTempView("wo_fact")
    spark.createDataFrame(
        [(k, f"n{k % 3}") for k in range(7)], "wd_k int, wd_name string"
    ).createOrReplaceTempView("wo_dim")
    # the planner caps the rows read per table at budget x |T|
    v = VerdictContext(spark, budget=1.0, seed=3)
    meta = v.create_uniform_sample("wo_fact", ratio=1.0)
    assert meta.rows == 3000
    yield v
    drop_sample(spark, meta)
    for view in ("wo_fact", "wo_dim"):
        spark.catalog.dropTempView(view)


_SHAPES = {
    "scalar": "select count(*) as c, sum(wo_y) as s, avg(wo_y) as a from wo_fact "
    "where wo_x > (select avg(wo_x) from wo_fact)",
    "correlated": "select wo_g, count(*) as c, sum(wo_x) as s from wo_fact f "
    "where wo_y > (select avg(i.wo_y) from wo_fact i where i.wo_g = f.wo_g) "
    "group by wo_g order by wo_g",
    # the outer WHERE filters rows, not the subquery's rows
    "outer_where": "select count(*) as c, avg(wo_x) as a from wo_fact "
    "where wo_g = 1 and wo_x > (select avg(wo_x) from wo_fact)",
    "outer_where_correlated": "select wo_g, count(*) as c from wo_fact f "
    "where wo_k < 3 and wo_x > (select avg(i.wo_x) from wo_fact i "
    "where i.wo_g = f.wo_g) group by wo_g",
    # NULLs: wo_x and wo_y are compared and aggregated; count(wo_y) is 0
    # in group 4, where wo_y is NULL throughout
    "nulls_count": "select wo_g, count(wo_x) as c, avg(wo_x) as a from wo_fact f "
    "where wo_x > (select count(i.wo_y) from wo_fact i where i.wo_g = f.wo_g) "
    "group by wo_g",
    "nulls_sum": "select count(*) as c, count(wo_y) as cy from wo_fact "
    "where wo_y * 1000 < (select sum(wo_y) from wo_fact)",
    "join": "select wd_name, sum(wo_x) as s, count(*) as c "
    "from wo_fact inner join wo_dim on wo_k = wd_k "
    "where wo_x > (select avg(wo_x) from wo_fact) "
    "group by wd_name order by wd_name",
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_equals_the_exact_answer(spark, full, monkeypatch, shape):
    text = _SHAPES[shape]
    windows = []

    def spy(*args, _orig=verdict_mod.flatten, **kw):
        q, derived = _orig(*args, **kw)
        windows.append((len(q.windows), len(derived)))
        return q, derived

    monkeypatch.setattr(verdict_mod, "flatten", spy)
    res = full.sql(text, seed=1)
    assert res.approx, res.fallback_reason
    assert windows == [(1, 0)]
    keys = list(res.group_cols)
    want = {tuple(r[k] for k in keys): r for r in spark.sql(text).collect()}
    got = {tuple(r[k] for k in keys): r for r in res.df.collect()}
    assert got.keys() == want.keys() and got
    for key, row in got.items():
        for o in res.outputs:
            g, w = row[o.alias], want[key][o.alias]
            assert (g is None) == (w is None), (shape, key, o.alias, g, w)
            if w is not None:
                assert math.isclose(g, w, rel_tol=1e-9), (shape, key, o.alias, g, w)
