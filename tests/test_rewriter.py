"""Appendix G rewrite templates: SQL shape and statistical execution.

Execution tests compare approximate answers against exact answers with
tolerances set at >=4x the theoretical standard error of the sample
estimator, so they fail on real estimator bugs (wrong scaling, wrong
probability composition) but not on sampling noise.
"""
import pytest

from repro.core.catalog import HASHED, SampleMeta
from repro.core.parser import parse
from repro.core.planner import PlanEntry, plan_query
from repro.core.rewriter import Rewritten, rewrite_flat, rewrite_nested, z_value
from tests.conftest import TEST_BUDGET


def _cols(spark):
    return lambda t: spark.table(t).columns


def _entry(q, verdict, **kw):
    plan = plan_query(
        q, verdict.catalog,
        {t.name: verdict._rows(t.name) for t in q.base_tables()},
        budget=TEST_BUDGET, **kw,
    )
    assert plan.uses_sampling, "expected a sampled plan"
    return plan.entries[0]


def _exact(spark, sql):
    return {tuple(r) for r in spark.sql(sql).collect()}


class TestZValue:
    def test_95(self):
        assert z_value(0.95) == pytest.approx(1.95996, abs=1e-4)

    def test_99(self):
        assert z_value(0.99) == pytest.approx(2.57583, abs=1e-4)

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, c):
        with pytest.raises(ValueError):
            z_value(c)


class TestFlatSqlShape:
    def test_structure(self, spark, verdict):
        q = parse(
            "select l_returnflag, count(*) as c from lineitem "
            "group by l_returnflag"
        )
        rw = rewrite_flat(
            q, _entry(q, verdict), columns_of=_cols(spark), seed=1
        )
        assert isinstance(rw, Rewritten)
        assert "GROUP BY l_returnflag, verdict_sid" in rw.sql
        assert "verdict_sub_size" in rw.sql
        assert "stddev_samp" in rw.sql
        assert rw.outputs[0].alias == "c"
        assert rw.outputs[0].err_alias == "c_err"
        import math

        s = math.isqrt(rw.b)
        assert s * s == rw.b

    def test_seed_threaded(self, spark, verdict):
        q = parse("select count(*) as c from lineitem")
        rw = rewrite_flat(q, _entry(q, verdict), columns_of=_cols(spark), seed=42)
        assert "rand(4" in rw.sql  # seed + table index

    def test_order_and_limit_preserved(self, spark, verdict):
        q = parse(
            "select l_returnflag, count(*) as c from lineitem "
            "group by l_returnflag order by c desc limit 2"
        )
        rw = rewrite_flat(q, _entry(q, verdict), columns_of=_cols(spark), seed=1)
        assert rw.sql.rstrip().endswith("LIMIT 2")
        assert spark.sql(rw.sql).count() == 2

    def test_having_substituted(self, spark, verdict):
        q = parse(
            "select l_returnflag, count(*) as c from lineitem "
            "group by l_returnflag having count(*) > 0"
        )
        rw = rewrite_flat(q, _entry(q, verdict), columns_of=_cols(spark), seed=1)
        assert "WHERE c > 0" in rw.sql
        assert spark.sql(rw.sql).count() == 3


class TestBroadcastJoinOrder:
    """Broadcast tables join after the samples when the samples still
    join each other without them; each condition moves along."""

    COLS = {
        "customer": ["c_custkey", "c_nationkey"],
        "orders": ["o_orderkey", "o_custkey"],
        "lineitem": ["l_orderkey", "l_price"],
    }

    def _sql(self, text: str, broadcast=frozenset()) -> str:
        q = parse(text)
        o = SampleMeta("orders", "o_h", HASHED, ("o_orderkey",), 0.01, 1000, 100_000, 4)
        li = SampleMeta("lineitem", "l_h", HASHED, ("l_orderkey",), 0.01, 4000, 400_000, 4)
        entry = PlanEntry(q.aggs, (("customer", None), ("lineitem", li), ("orders", o)))
        return rewrite_flat(
            q, entry, columns_of=self.COLS.__getitem__, seed=1, broadcast=broadcast
        ).sql

    CHAIN = (
        "select c_nationkey, sum(l_price) as s from customer "
        "inner join orders on c_custkey = o_custkey "
        "inner join lineitem on o_orderkey = l_orderkey group by c_nationkey"
    )

    def test_broadcast_table_joins_last(self):
        sql = self._sql(self.CHAIN, frozenset({"customer"}))
        assert "SELECT /*+ BROADCAST(customer) */ " in sql
        assert (
            "FROM o_h) orders INNER JOIN (SELECT l_orderkey" in sql
            and ") lineitem ON o_orderkey = l_orderkey INNER JOIN "
            "(SELECT c_custkey, c_nationkey FROM customer) customer "
            "ON c_custkey = o_custkey" in sql
        ), sql

    def test_user_order_without_hint(self):
        sql = self._sql(self.CHAIN)
        assert "/*+" not in sql
        assert (
            "FROM (SELECT c_custkey, c_nationkey FROM customer) customer "
            "INNER JOIN (SELECT o_orderkey" in sql
        ), sql

    def test_user_order_when_samples_join_only_through_it(self):
        star = (
            "select count(*) as c from customer "
            "inner join orders on c_custkey = o_custkey "
            "inner join lineitem on c_nationkey = l_orderkey"
        )
        hinted = self._sql(star, frozenset({"customer"}))
        assert "/*+ BROADCAST(customer) */" in hinted
        assert hinted.replace("/*+ BROADCAST(customer) */ ", "") == self._sql(star)


class TestFlatExecution:
    @pytest.fixture(scope="class")
    def result(self, spark, verdict):
        q = parse(
            "select l_returnflag, count(*) as cnt, "
            "sum(l_extendedprice) as rev, avg(l_quantity) as aq "
            "from lineitem group by l_returnflag"
        )
        rw = rewrite_flat(q, _entry(q, verdict), columns_of=_cols(spark), seed=11)
        approx = {r["l_returnflag"]: r for r in spark.sql(rw.sql).collect()}
        exact = {
            r["l_returnflag"]: r
            for r in spark.sql(
                "select l_returnflag, count(*) as cnt, "
                "sum(l_extendedprice) as rev, avg(l_quantity) as aq "
                "from lineitem group by l_returnflag"
            ).collect()
        }
        return approx, exact

    def test_groups_complete(self, result):
        approx, exact = result
        assert set(approx) == set(exact)

    @pytest.mark.parametrize("col,tol", [("cnt", 0.12), ("rev", 0.12), ("aq", 0.05)])
    def test_estimates_close(self, result, col, tol):
        approx, exact = result
        for g in exact:
            rel = abs(approx[g][col] - exact[g][col]) / abs(exact[g][col])
            assert rel < tol, (g, col, approx[g][col], exact[g][col])

    @pytest.mark.parametrize("col", ["cnt", "rev", "aq"])
    def test_error_bounds_positive_and_plausible(self, result, col):
        approx, exact = result
        for g in exact:
            err = approx[g][f"{col}_err"]
            assert err is not None and err > 0
            # the exact answer should lie within ~4x the 95% bound
            assert abs(approx[g][col] - exact[g][col]) < 4 * err, (g, col)

    def test_global_aggregate(self, spark, verdict):
        q = parse("select count(*) as c from lineitem")
        rw = rewrite_flat(q, _entry(q, verdict), columns_of=_cols(spark), seed=3)
        row = spark.sql(rw.sql).collect()[0]
        exact = spark.sql("select count(*) as c from lineitem").collect()[0]["c"]
        assert row["c"] == pytest.approx(exact, rel=0.08)
        assert 0 < row["c_err"] < 0.2 * exact

    def test_filtered(self, spark, verdict):
        q = parse(
            "select sum(l_extendedprice * l_discount) as revenue "
            "from lineitem where l_quantity < 24"
        )
        rw = rewrite_flat(q, _entry(q, verdict), columns_of=_cols(spark), seed=5)
        row = spark.sql(rw.sql).collect()[0]
        exact = spark.sql(
            "select sum(l_extendedprice * l_discount) as revenue "
            "from lineitem where l_quantity < 24"
        ).collect()[0]["revenue"]
        assert row["revenue"] == pytest.approx(exact, rel=0.15)

    def test_stratified_sample_ht(self, spark, verdict):
        """Stratified sample with varying probs: HT weighting must keep
        group counts unbiased even though sampling is non-uniform."""
        from repro.core.catalog import STRATIFIED

        meta = verdict.catalog.find("lineitem", stype=STRATIFIED)[0]
        q = parse(
            "select l_returnflag, count(*) as c from lineitem "
            "group by l_returnflag"
        )
        entry = PlanEntry(aggs=q.aggs, assignment=(("lineitem", meta),))
        rw = rewrite_flat(q, entry, columns_of=_cols(spark), seed=6)
        approx = {r["l_returnflag"]: r["c"] for r in spark.sql(rw.sql).collect()}
        exact = {
            r["l_returnflag"]: r["c"]
            for r in spark.sql(
                "select l_returnflag, count(*) as c from lineitem "
                "group by l_returnflag"
            ).collect()
        }
        for g, v in exact.items():
            assert approx[g] == pytest.approx(v, rel=0.12)

    def test_quantile(self, spark, verdict):
        q = parse("select percentile(l_extendedprice, 0.5) as med from lineitem")
        rw = rewrite_flat(q, _entry(q, verdict), columns_of=_cols(spark), seed=7)
        row = spark.sql(rw.sql).collect()[0]
        exact = spark.sql(
            "select percentile(l_extendedprice, 0.5) as med from lineitem"
        ).collect()[0]["med"]
        assert row["med"] == pytest.approx(exact, rel=0.06)
        assert row["med_err"] > 0

    def test_var_stddev(self, spark, verdict):
        q = parse(
            "select var_samp(l_quantity) as v, stddev_samp(l_quantity) as s "
            "from lineitem"
        )
        rw = rewrite_flat(q, _entry(q, verdict), columns_of=_cols(spark), seed=8)
        row = spark.sql(rw.sql).collect()[0]
        ex = spark.sql(
            "select var_samp(l_quantity) as v, stddev_samp(l_quantity) as s "
            "from lineitem"
        ).collect()[0]
        assert row["v"] == pytest.approx(ex["v"], rel=0.1)
        assert row["s"] == pytest.approx(ex["s"], rel=0.05)


class TestCountDistinct:
    def test_hashed_domain_partitioning(self, spark, verdict):
        q = parse("select count(distinct l_orderkey) as d from lineitem")
        entry = _entry(q, verdict)
        m = entry.tables["lineitem"]
        assert m.stype == "hashed" and m.columns == ("l_orderkey",)
        rw = rewrite_flat(q, entry, columns_of=_cols(spark), seed=9)
        row = spark.sql(rw.sql).collect()[0]
        exact = spark.sql(
            "select count(distinct l_orderkey) as d from lineitem"
        ).collect()[0]["d"]
        assert row["d"] == pytest.approx(exact, rel=0.15)
        assert row["d_err"] > 0


class TestJoinExecution:
    def test_hashed_pair_join(self, spark, verdict):
        """Join of two samples via the universe pair (Section 5.1)."""
        q = parse(
            "select o_orderpriority, count(*) as c "
            "from orders inner join lineitem on o_orderkey = l_orderkey "
            "group by o_orderpriority"
        )
        entry = _entry(q, verdict)
        metas = [m for m in entry.tables.values() if m is not None]
        assert len(metas) == 2 and all(m.stype == "hashed" for m in metas)
        rw = rewrite_flat(q, entry, columns_of=_cols(spark), seed=10)
        approx = {
            r["o_orderpriority"]: r for r in spark.sql(rw.sql).collect()
        }
        exact = {
            r["o_orderpriority"]: r["c"]
            for r in spark.sql(
                "select o_orderpriority, count(*) as c "
                "from orders inner join lineitem on o_orderkey = l_orderkey "
                "group by o_orderpriority"
            ).collect()
        }
        for g, v in exact.items():
            assert approx[g]["c"] == pytest.approx(v, rel=0.30), g
            assert approx[g]["c_err"] > 0

    def test_uniform_times_base_join(self, spark, verdict):
        """One uniform sample joined with an unsampled base table."""
        from repro.core.catalog import UNIFORM

        meta = verdict.catalog.find("lineitem", stype=UNIFORM)[0]
        q = parse(
            "select sum(l_extendedprice) as rev "
            "from lineitem inner join part on l_partkey = p_partkey "
            "where p_type = 'PROMO'"
        )
        entry = PlanEntry(
            aggs=q.aggs, assignment=(("lineitem", meta), ("part", None))
        )
        rw = rewrite_flat(q, entry, columns_of=_cols(spark), seed=12)
        row = spark.sql(rw.sql).collect()[0]
        exact = spark.sql(
            "select sum(l_extendedprice) as rev "
            "from lineitem inner join part on l_partkey = p_partkey "
            "where p_type = 'PROMO'"
        ).collect()[0]["rev"]
        assert row["rev"] == pytest.approx(exact, rel=0.25)

    def test_two_uniform_samples_h_function(self, spark, verdict):
        """Theorem 4's h(i, j) path: two uniform variational tables
        joined once, sids recomposed. Cardinality collapses by tau, so
        the tolerance is loose; the point is unbiasedness + a working
        SQL path."""
        from repro.core.catalog import UNIFORM

        ml = verdict.catalog.find("lineitem", stype=UNIFORM)[0]
        mo = verdict.catalog.find("orders", stype=UNIFORM)[0]
        q = parse(
            "select count(*) as c "
            "from orders inner join lineitem on o_orderkey = l_orderkey"
        )
        entry = PlanEntry(
            aggs=q.aggs, assignment=(("lineitem", ml), ("orders", mo))
        )
        rw = rewrite_flat(q, entry, columns_of=_cols(spark), seed=13)
        assert "floor((verdict_sid" in rw.sql  # h(i, j) composition
        row = spark.sql(rw.sql).collect()[0]
        exact = spark.sql(
            "select count(*) as c "
            "from orders inner join lineitem on o_orderkey = l_orderkey"
        ).collect()[0]["c"]
        # ~150 joined tuples survive at 0.05^2: very loose bound
        assert row["c"] == pytest.approx(exact, rel=0.5)


class TestNested:
    def test_nested_execution(self, spark, verdict):
        q = parse(
            "select avg(sales) as avg_sales from "
            "(select l_returnflag, sum(l_extendedprice) as sales "
            "from lineitem group by l_returnflag) t"
        )
        entry = _entry(q, verdict)
        rw = rewrite_nested(q, entry, columns_of=_cols(spark), seed=14)
        row = spark.sql(rw.sql).collect()[0]
        exact = spark.sql(
            "select avg(sales) as avg_sales from "
            "(select l_returnflag, sum(l_extendedprice) as sales "
            "from lineitem group by l_returnflag) t"
        ).collect()[0]["avg_sales"]
        assert row["avg_sales"] == pytest.approx(exact, rel=0.10)
        assert row["avg_sales_err"] > 0

    def test_nested_grouped_outer(self, spark, verdict):
        q = parse(
            "select l_returnflag, avg(sales) as a from "
            "(select l_returnflag, l_linestatus, sum(l_extendedprice) as sales "
            "from lineitem group by l_returnflag, l_linestatus) t "
            "group by l_returnflag"
        )
        entry = _entry(q, verdict)
        rw = rewrite_nested(q, entry, columns_of=_cols(spark), seed=15)
        approx = {r["l_returnflag"]: r for r in spark.sql(rw.sql).collect()}
        exact = {
            r["l_returnflag"]: r["a"]
            for r in spark.sql(
                "select l_returnflag, avg(sales) as a from "
                "(select l_returnflag, l_linestatus, "
                "sum(l_extendedprice) as sales "
                "from lineitem group by l_returnflag, l_linestatus) t "
                "group by l_returnflag"
            ).collect()
        }
        for g, v in exact.items():
            assert approx[g]["a"] == pytest.approx(v, rel=0.15), g

    def test_nested_having(self, spark, verdict):
        """The outer HAVING of a nested query filters the combined rows:
        only flag N keeps two (flag, status) groups under the filter."""
        sql = (
            "select l_returnflag, count(*) as n, avg(sales) as a from "
            "(select l_returnflag, l_linestatus, sum(l_extendedprice) as sales "
            "from lineitem where l_linestatus = 'F' or l_returnflag = 'N' "
            "group by l_returnflag, l_linestatus) t "
            "group by l_returnflag having count(*) > 1"
        )
        q = parse(sql)
        rw = rewrite_nested(q, _entry(q, verdict), columns_of=_cols(spark), seed=16)
        want = {r["l_returnflag"] for r in spark.sql(sql).collect()}
        every = {
            r["l_returnflag"]
            for r in spark.sql("select distinct l_returnflag from lineitem").collect()
        }
        assert want and want < every
        assert {r["l_returnflag"] for r in spark.sql(rw.sql).collect()} == want
