"""Exact-semantics oracle for the flat and multi-part estimators and for
passthrough.

A uniform sample with ratio 1.0 holds every row with ``verdict_prob``
1, so an approximate answer must equal the engine's exact answer to the
same text, NULLs and empty inputs included. A query whose rewrite the
engine cannot analyse passes through and answers exactly too. The
columns hold integers and quarter-units, whose sums are exact in
doubles.
"""
import math

import pytest

from repro.core.sampling import drop_sample
from repro.core.verdict import VerdictContext


@pytest.fixture(scope="module")
def full(spark):
    rows = [
        (
            i,
            # 1 row in 13 has no group; y is NULL throughout group 2
            None if i % 13 == 0 else i % 4,
            (i * 7919 % 400) / 4,
            None if i % 4 == 2 else float(i % 9),
            i % 7,
            f"c{i % 3}",
        )
        for i in range(3000)
    ]
    spark.createDataFrame(
        rows, "id long, g int, val double, y double, fk int, city string"
    ).createOrReplaceTempView("eo_fact")
    # val and city collide with eo_fact's columns
    spark.createDataFrame(
        [(k, f"h{k % 3}", k * 1.5, f"c{k % 2}") for k in range(7)],
        "pk int, h string, val double, city string",
    ).createOrReplaceTempView("eo_dim")
    v = VerdictContext(spark, budget=1.0, seed=3)
    meta = v.create_uniform_sample("eo_fact", ratio=1.0)
    assert meta.rows == 3000
    yield v
    drop_sample(spark, meta)
    for view in ("eo_fact", "eo_dim"):
        spark.catalog.dropTempView(view)


def _assert_exact(res, want_rows):
    keys = list(res.group_cols)
    want = {tuple(r[k] for k in keys): r for r in want_rows}
    got = {tuple(r[k] for k in keys): r for r in res.df.collect()}
    assert got.keys() == want.keys() and got
    for key, row in got.items():
        for o in res.outputs:
            g, w = row[o.alias], want[key][o.alias]
            assert (g is None) == (w is None), (key, o.alias, g, w)
            if w is not None:
                assert math.isclose(g, w, rel_tol=1e-9), (key, o.alias, g, w)


_APPROXIMATE = {
    # count(y) is 0 in group 2, where y is NULL in every row
    "count_all_null": "select g, count(y) as c from eo_fact group by g",
    # no row matches: sum is NULL and count is 0
    "empty_filter": "select sum(val) as s, count(*) as c from eo_fact where val > 1000",
    # an approximate avg part and an exact max part, joined on g: the
    # group g IS NULL survives the join
    "null_group_parts": "select g, avg(val) as a, max(val) as mx from eo_fact group by g",
}


@pytest.mark.parametrize("shape", sorted(_APPROXIMATE))
def test_equals_the_exact_answer(spark, full, shape):
    text = _APPROXIMATE[shape]
    res = full.sql(text, seed=1)
    assert res.approx, res.fallback_reason
    _assert_exact(res, spark.sql(text).collect())


def test_nested_count_of_an_all_null_group(spark, full):
    """A nested query's inner count is 0 for group 2, where y is NULL
    throughout, so the outer avg averages 5 groups, not 4 (25% high).
    Subsample scaling keeps the nested answer approximate even at
    ratio 1.0, so it is checked to 5%."""
    text = "select avg(c) as a from (select g, count(y) as c from eo_fact group by g) t"
    res = full.sql(text, seed=1)
    assert res.approx, res.fallback_reason
    (want,) = spark.sql(text).collect()
    (got,) = res.df.collect()
    assert math.isclose(got["a"], want["a"], rel_tol=0.05), (got, want)


def test_zero_counts_have_no_invented_spread(full):
    """A count of 0 has an error of 0 or NULL."""
    for text in (_APPROXIMATE["count_all_null"], _APPROXIMATE["empty_filter"]):
        for row in full.sql(text, seed=1).df.collect():
            if row["c"] == 0:
                assert row["c_err"] in (0, None), (text, row)


_NOT_ANALYSABLE = {
    "colliding_columns": "select h, sum(f.val) as s from eo_fact f "
    "join eo_dim d on fk = pk group by h",
    "self_join": "select count(*) as c, sum(a.val) as s from eo_fact a "
    "join eo_fact b on a.id = b.fk",
    "order_by_aggregate": "select g, avg(val) as a from eo_fact group by g "
    "order by avg(val) desc",
    # the correlation column exists in both outer tables: the derived
    # view joins on a bare, ambiguous name
    "ambiguous_correlation": "select count(*) as c from eo_fact inner join eo_dim "
    "on fk = pk where id > (select avg(i.id) from eo_fact i "
    "where i.city = eo_dim.city)",
}


@pytest.mark.parametrize("shape", sorted(_NOT_ANALYSABLE))
def test_unanalysable_rewrite_passes_through(spark, full, shape):
    """The engine rejects the rewritten statement, not the user's: the
    user's text runs unchanged, with the engine's error as the reason."""
    text = _NOT_ANALYSABLE[shape]
    res = full.sql(text, seed=1)
    assert not res.approx
    assert res.fallback_reason.startswith("rewrite not analysable: ["), res.fallback_reason
    assert res.df.collect() == spark.sql(text).collect()


def test_user_analysis_errors_still_raise(full):
    """A query that exact Spark rejects raises the engine's error."""
    from pyspark.errors import AnalysisException

    with pytest.raises(AnalysisException):
        full.sql("select count(*) as c from eo_fact where no_such_column > 1")
