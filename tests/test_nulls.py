"""NULL semantics of the rewritten estimators.

``count(x)`` counts, and ``avg(x)`` averages over, only the rows where
``x`` is set, exactly as the SQL they replace does. The table below has
``x`` NULL in half its rows and is sampled uniformly; tolerances are 4
theoretical standard errors of the Bernoulli-sample estimator.
"""
import math

import pytest

from repro.core.sampling import drop_sample

N = 40_000
TAU = 0.1
TABLE = "nullable_t"


@pytest.fixture(scope="module")
def nullable(spark):
    from repro.core.verdict import VerdictContext

    spark.range(N).selectExpr(
        "id",
        "CAST((id DIV 2) % 4 AS INT) AS g",
        "CASE WHEN id % 2 = 0 THEN NULL "
        "ELSE CAST(5 + (id * 7919) % 11 AS DOUBLE) END AS x",
    ).createOrReplaceTempView(TABLE)
    v = VerdictContext(spark, budget=0.25, seed=5)
    meta = v.create_uniform_sample(TABLE, ratio=TAU)
    yield v
    drop_sample(spark, meta)
    spark.catalog.dropTempView(TABLE)


def _standard_errors(spark, where: str = "true") -> dict[str, float]:
    """Standard errors of the HT count, sum and mean of x over the rows
    matching ``where``, under Bernoulli sampling at rate TAU."""
    r = spark.sql(
        f"SELECT count(x) AS m, sum(x * x) AS s2, var_pop(x) * count(x) AS ss "
        f"FROM {TABLE} WHERE {where}"
    ).collect()[0]
    f = (1 - TAU) / TAU
    return {
        "count": math.sqrt(f * r["m"]),
        "sum": math.sqrt(f * r["s2"]),
        "avg": math.sqrt(f * r["ss"]) / r["m"],
    }


def test_flat_global(spark, nullable):
    sql = f"select count(x) as c, sum(x) as s, avg(x) as a from {TABLE}"
    res = nullable.sql(sql, seed=1)
    assert res.approx, res.fallback_reason
    (got,) = res.df.collect()
    (want,) = spark.sql(sql).collect()
    assert want["c"] == N // 2
    se = _standard_errors(spark)
    for col, kind in (("c", "count"), ("s", "sum"), ("a", "avg")):
        assert abs(got[col] - want[col]) <= 4 * se[kind], (col, got[col], want[col])
        assert got[f"{col}_err"] > 0


def test_flat_grouped(spark, nullable):
    sql = f"select g, count(x) as c, avg(x) as a from {TABLE} group by g"
    res = nullable.sql(sql, seed=2)
    assert res.approx, res.fallback_reason
    want = {r["g"]: r for r in spark.sql(sql).collect()}
    got = {r["g"]: r for r in res.df.collect()}
    assert set(got) == set(want)
    for g, row in got.items():
        se = _standard_errors(spark, f"g = {g}")
        assert abs(row["c"] - want[g]["c"]) <= 4 * se["count"], g
        assert abs(row["a"] - want[g]["a"]) <= 4 * se["avg"], g


def test_nested_over_nullable_inner(spark, nullable):
    """The nested rewrite's inner layer renders count(x) / avg(x) with
    the same estimator as the flat one."""
    sql = (
        f"select avg(c) as ac, avg(a) as aa from "
        f"(select g, count(x) as c, avg(x) as a from {TABLE} group by g) t"
    )
    res = nullable.sql(sql, seed=3)
    assert res.approx, res.fallback_reason
    (got,) = res.df.collect()
    (want,) = spark.sql(sql).collect()
    se = _standard_errors(spark)
    # the mean over 4 groups of a per-group count: a quarter of the total
    # count's standard error; the mean of 4 group means has the overall
    # mean's
    assert abs(got["ac"] - want["ac"]) <= 4 * se["count"] / 4
    assert abs(got["aa"] - want["aa"]) <= 4 * se["avg"]
    assert got["ac_err"] > 0 and got["aa_err"] > 0
