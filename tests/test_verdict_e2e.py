"""End-to-end VerdictContext over the tq-*/iq-* workloads (Figure 2's
whole pipeline: parse -> flatten -> plan -> rewrite -> execute ->
assemble). Exact-path results are validated against the DuckDB oracle;
approximate results against exact answers with sampling-aware
tolerances."""
import math
import re
import time
from dataclasses import replace

import pytest

import repro.core.verdict as verdict_mod
from repro.core.catalog import HASHED, UNIFORM, SampleCatalog
from repro.core.estimators import ApproxResult
from repro.core.parser import parse
from repro.core.planner import Plan, PlanEntry, broadcast_tables
from repro.core.rewriter import rewrite_flat, rewrite_nested
from repro.core.verdict import VerdictContext
from repro.workloads.insta import INSTA_QUERIES
from repro.workloads.tpch_lite import TPCH_QUERIES

_TPCH = {w.name: w.sql for w in TPCH_QUERIES}

#: comparison subqueries over another table than the outer query's:
#: flattening answers them from an exact derived view
_CROSS_TABLE = (
    "select sum(l_extendedprice) as rev from lineitem "
    "where l_extendedprice > (select avg(p_retailprice) from part)",
    "select count(*) as c, sum(l_extendedprice) as rev from lineitem l "
    "where l_extendedprice > (select avg(p_retailprice) from part p "
    "where p.p_partkey = l.l_partkey)",
)

# queries whose smallest per-group sample support at SF=0.01 makes a
# tight relative check meaningless; they still must run and be covered
_LOOSE = {"tq-4", "tq-5", "tq-10", "tq-corr", "tq-14", "iq-3", "iq-6", "iq-9", "iq-14", "iq-15"}
_REL_TOL = 0.30
_LOOSE_TOL = 0.80


def _check_against_exact(res: ApproxResult, exact_df, loose: bool):
    tol = _LOOSE_TOL if loose else _REL_TOL
    keys = list(res.group_cols)
    exact = {
        tuple(r[k] for k in keys): r for r in exact_df.collect()
    }
    got = {tuple(r[k] for k in keys) for r in res.df.collect()}
    # sampled group-bys may miss tiny groups; they must find >= 80%
    assert len(got & set(exact)) >= 0.8 * len(exact)
    for row in res.df.collect():
        key = tuple(row[k] for k in keys)
        if key not in exact:
            continue
        for o in res.outputs:
            want = exact[key][o.alias]
            gotv = row[o.alias]
            if want is None or gotv is None:
                continue
            if want == 0:
                continue
            rel = abs((gotv - want) / want)
            assert rel < tol, (key, o.alias, gotv, want, rel)


class TestTpchSuite:
    @pytest.mark.parametrize(
        "wq", [pytest.param(w, id=w.name) for w in TPCH_QUERIES]
    )
    def test_query(self, spark, verdict, wq):
        res = verdict.sql(wq.sql, seed=21)
        if wq.expect_approx:
            assert res.approx, f"{wq.name} fell back: {res.fallback_reason}"
            _check_against_exact(
                res, verdict.exact(wq.sql), wq.name in _LOOSE
            )
        else:
            assert not res.approx
            # exact passthrough must match the engine bit-for-bit
            a = sorted(map(tuple, res.df.collect()))
            b = sorted(map(tuple, spark.sql(wq.sql).collect()))
            assert a == b


class TestInstaSuite:
    @pytest.mark.parametrize(
        "wq", [pytest.param(w, id=w.name) for w in INSTA_QUERIES]
    )
    def test_query(self, spark, verdict_insta, wq):
        res = verdict_insta.sql(wq.sql, seed=22)
        if wq.expect_approx:
            assert res.approx, f"{wq.name} fell back: {res.fallback_reason}"
            _check_against_exact(
                res, verdict_insta.exact(wq.sql), wq.name in _LOOSE
            )
        else:
            assert not res.approx


class TestFacadeBehaviour:
    def test_unsupported_passthrough(self, spark, verdict):
        """Queries outside Table 1 run unchanged on the engine."""
        res = verdict.sql("select l_returnflag from lineitem limit 3")
        assert not res.approx
        assert "unsupported" in res.fallback_reason
        assert res.df.count() == 3

    def test_error_columns_present_when_approx(self, verdict):
        res = verdict.sql(
            "select count(*) as c from lineitem", seed=1
        )
        assert res.approx
        assert res.outputs[0].err_alias == "c_err"
        assert "c_err" in res.df.columns

    def test_answer_df_hides_errors(self, verdict):
        res = verdict.sql("select count(*) as c from lineitem", seed=1)
        assert res.answer_df().columns == ["c"]

    def test_latency_recorded(self, verdict):
        res = verdict.sql("select count(*) as c from lineitem", seed=1)
        assert res.latency_sec is not None and res.latency_sec > 0

    def test_hac_violation_reruns_exact(self, spark, verdict):
        """Section 2.4: an unmeetable accuracy requirement must trigger
        an exact rerun (estimated error > 1 - accuracy)."""
        res = verdict.sql(
            "select count(*) as c from lineitem",
            accuracy=0.999999, seed=1,
        )
        assert not res.approx
        assert "HAC" in res.fallback_reason
        exact = spark.sql("select count(*) as c from lineitem").collect()[0]["c"]
        assert res.df.collect()[0]["c"] == exact

    def test_hac_rerun_keeps_flattened_subquery(self, spark, verdict):
        """The exact rerun answers the user's query, comparison
        subquery included, not the flattened query."""
        res = verdict.sql(_TPCH["tq-17"], accuracy=0.999999, seed=1)
        assert not res.approx
        assert "HAC" in res.fallback_reason
        (got,) = res.df.collect()
        (want,) = spark.sql(_TPCH["tq-17"]).collect()
        assert got[0] == pytest.approx(want[0], rel=1e-9)

    def test_hac_contract_that_holds_runs_the_query_once(self, spark, verdict):
        """Under a contract that holds, ``sql()`` has already run the
        query for the HAC check: collecting the result starts no Spark
        job, and its rows are those of the query without a contract."""
        res = verdict.sql(_TPCH["tq-1"], accuracy=0.5, seed=3)
        assert res.approx, res.fallback_reason
        plain = verdict.sql(_TPCH["tq-1"], seed=3)
        got, jobs = _jobs(spark, "hac-result", res.df)
        assert jobs == 0
        assert sorted(map(tuple, got)) == sorted(map(tuple, plain.df.collect()))

    def test_derived_views_dropped(self, spark, verdict, monkeypatch):
        """Long sessions: the views that flattening registers for a
        comparison subquery do not outlive the query."""
        derived = _spy_flatten(monkeypatch)
        for text in _CROSS_TABLE * 2:
            res = verdict.sql(text, seed=4)
            assert res.approx, res.fallback_reason
            _check_against_exact(res, spark.sql(text), False)
        assert derived == [1] * 4
        left = [
            t.name for t in spark.catalog.listTables()
            if t.name.startswith(("verdict_scalar_sub_", "verdict_flat_sub_"))
        ]
        assert left == []

    def test_fresh_context_counts_no_sampled_table(self, spark, verdict, monkeypatch):
        """A new context over a built catalog takes base-row counts from
        the sample metadata instead of scanning the base tables."""
        from repro.core.verdict import VerdictContext

        fresh = VerdictContext(spark, budget=verdict.budget, seed=7)
        fresh.catalog = verdict.catalog
        issued = []
        engine_sql = type(spark).sql

        def spy(self, text, *args, **kwargs):
            issued.append(text)
            return engine_sql(self, text, *args, **kwargs)

        monkeypatch.setattr(type(spark), "sql", spy)
        for name in ("tq-1", "tq-12"):
            assert fresh.sql(_TPCH[name], seed=3).approx
        sampled = "|".join(verdict.catalog.tables())
        base_count = re.compile(rf"count\(\*\).*\bFROM\s+({sampled})\b", re.I)
        assert issued and not [t for t in issued if base_count.search(t)]

    @pytest.mark.parametrize("name", ["tq-1", "tq-12", "tq-median", "tq-nested"])
    def test_same_seed_same_answer(self, verdict, name):
        """sids are drawn per partition of a sample view: a fixed seed
        reproduces answers and error bars exactly."""
        first = verdict.sql(_TPCH[name], seed=9).df.collect()
        assert verdict.sql(_TPCH[name], seed=9).df.collect() == first

    def test_hac_satisfied_keeps_approx(self, verdict):
        res = verdict.sql(
            "select count(*) as c from lineitem", accuracy=0.5, seed=1
        )
        assert res.approx

    def test_minmax_decomposition(self, spark, verdict):
        """min/max exact, mean-like approximate, assembled in order."""
        res = verdict.sql(
            "select max(l_extendedprice) as mx, avg(l_extendedprice) as av "
            "from lineitem", seed=2,
        )
        assert res.approx
        row = res.df.collect()[0]
        exact_mx = spark.sql(
            "select max(l_extendedprice) as mx from lineitem"
        ).collect()[0]["mx"]
        assert row["mx"] == exact_mx  # extreme statistic is exact
        assert [o.alias for o in res.outputs] == ["mx", "av"]
        assert res.outputs[0].err_alias is None

    def test_budget_override_forces_exact(self, verdict):
        """A per-query budget below every sample's ratio -> exact."""
        res = verdict.sql(
            "select count(*) as c from lineitem", budget=0.001, seed=1
        )
        assert not res.approx

    def test_confidence_widens_interval(self, verdict):
        lo = verdict.sql(
            "select count(*) as c from lineitem", confidence=0.80, seed=5
        ).df.collect()[0]["c_err"]
        hi = verdict.sql(
            "select count(*) as c from lineitem", confidence=0.99, seed=5
        ).df.collect()[0]["c_err"]
        assert hi > lo

    def test_plan_exposed(self, verdict):
        res = verdict.sql("select count(*) as c from lineitem", seed=1)
        assert res.plan is not None and res.plan.uses_sampling

    def test_max_relative_error(self, verdict):
        res = verdict.sql("select count(*) as c from lineitem", seed=1)
        worst = res.max_relative_error()
        assert worst is not None and 0 < worst < 0.5


class TestRecommendedSamples:
    def test_appendix_f_policy(self, spark, verdict_insta):
        """Appendix F: always uniform; hashed on high-cardinality
        columns; stratified on low-cardinality ones."""
        from repro.core.catalog import HASHED, STRATIFIED, UNIFORM
        from repro.core.verdict import VerdictContext

        v = VerdictContext(spark, seed=3)
        created = v.create_recommended_samples("orders_i", target_rows=500)
        types = [m.stype for m in created]
        assert types[0] == UNIFORM
        assert HASHED in types
        assert STRATIFIED in types
        hashed_cols = {
            m.columns[0] for m in created if m.stype == HASHED
        }
        # order_id/user_id are high-cardinality -> hashed candidates
        assert hashed_cols & {"order_id", "user_id"}
        strat_cols = {
            m.columns[0] for m in created if m.stype == STRATIFIED
        }
        # dow/hour are low-cardinality -> stratified candidates
        assert strat_cols & {"order_dow", "order_hour"}


class TestSampleViewPlans:
    """One-partition sample views: the rewrites over samples run without
    a shuffle (aggregates, the hashed-pair join and ORDER BY alike)."""

    @staticmethod
    def _executed_plan(spark, sql: str) -> str:
        df = spark.sql(sql)
        df.collect()
        return df._jdf.queryExecution().executedPlan().toString()

    def _shapes(self, spark, verdict):
        cat = verdict.catalog
        uni = cat.find("lineitem", UNIFORM)[0]
        hl = cat.find("lineitem", HASHED, ("l_orderkey",))[0]
        ho = cat.find("orders", HASHED, ("o_orderkey",))[0]
        cols = lambda t: spark.table(t).columns  # noqa: E731
        flat = parse(
            "select l_returnflag, sum(l_extendedprice) as s from lineitem "
            "group by l_returnflag order by l_returnflag"
        )
        join = parse(
            "select o_orderpriority, count(*) as c "
            "from orders inner join lineitem on o_orderkey = l_orderkey "
            "group by o_orderpriority order by o_orderpriority"
        )
        nested = parse(
            "select avg(sales) as a from (select l_returnflag, "
            "sum(l_extendedprice) as sales from lineitem group by l_returnflag) t"
        )
        return {
            "flat": rewrite_flat(
                flat, PlanEntry(flat.aggs, (("lineitem", uni),)),
                columns_of=cols, seed=1,
            ),
            "join": rewrite_flat(
                join, PlanEntry(join.aggs, (("lineitem", hl), ("orders", ho))),
                columns_of=cols, seed=1,
            ),
            "nested": rewrite_nested(
                nested, PlanEntry(nested.source.aggs, (("lineitem", uni),)),
                columns_of=cols, seed=1,
            ),
        }

    def test_no_exchange(self, spark, verdict):
        for shape, rw in self._shapes(spark, verdict).items():
            plan = self._executed_plan(spark, rw.sql)
            assert "InMemoryTableScan" in plan, shape
            assert "Exchange" not in plan, (shape, plan)

    def test_broadcast_dimension(self, spark, verdict):
        """A uniform sample joined with part (the tq-14 shape): part is
        broadcast and the sample streams through the join unshuffled."""
        uni = verdict.catalog.find("lineitem", UNIFORM)[0]
        q = parse(_TPCH["tq-14"])
        entry = PlanEntry(q.aggs, (("lineitem", uni), ("part", None)))
        rows = {t: verdict._rows(t) for t in ("lineitem", "part")}
        hinted = broadcast_tables(q.base_tables(), entry, rows)
        assert hinted == {"part"}
        rw = rewrite_flat(
            q, entry, columns_of=lambda t: spark.table(t).columns,
            seed=1, broadcast=hinted,
        )
        assert "/*+ BROADCAST(part) */" in rw.sql
        plan = self._executed_plan(spark, rw.sql)
        join = re.search(
            r"BroadcastHashJoin \[(\w+)#\w+\], \[(\w+)#\w+\], Inner, Build(Left|Right)",
            plan,
        )
        assert join is not None, plan
        assert join[1 if join[3] == "Left" else 2] == "p_partkey", plan
        assert not _SHUFFLE.search(plan), plan

    def test_customer_joins_after_the_samples(self, spark, verdict, monkeypatch):
        """tq-5 broadcasts customer and joins it after the two hashed
        samples, which then merge-join without a shuffle."""
        sqls = _spy_rewrites(monkeypatch)
        assert verdict.sql(_TPCH["tq-5"], seed=3).approx
        assert "/*+ BROADCAST(customer) */" in sqls[-1]
        plan = self._executed_plan(spark, sqls[-1])
        assert "BroadcastHashJoin" in plan and "SortMergeJoin" in plan, plan
        assert not _SHUFFLE.search(plan.split("== Initial Plan ==")[0]), plan

    def test_two_samples_get_no_hint(self, spark, verdict, monkeypatch):
        """tq-12 joins two samples: no hint, and still no exchange."""
        sqls = _spy_rewrites(monkeypatch)
        assert verdict.sql(_TPCH["tq-12"], seed=3).approx
        assert len(sqls) == 1 and "/*+" not in sqls[0]
        assert "Exchange" not in self._executed_plan(spark, sqls[0])


#: a shuffle; ``BroadcastExchange`` is not one
_SHUFFLE = re.compile(r"Exchange (hashpartitioning|rangepartitioning)")


def _spy_rewrites(monkeypatch, **force) -> list[str]:
    """Record the SQL of every rewrite ``VerdictContext.sql`` makes;
    ``force`` overrides keyword arguments of the rewriters."""
    sqls: list[str] = []
    for name in ("rewrite_flat", "rewrite_nested"):
        def spy(*args, _orig=getattr(verdict_mod, name), **kw):
            rw = _orig(*args, **{**kw, **force})
            sqls.append(rw.sql)
            return rw

        monkeypatch.setattr(verdict_mod, name, spy)
    return sqls


def _spy_flatten(monkeypatch) -> list[int]:
    """Record how many derived views each ``flatten`` call returns."""
    counts: list[int] = []

    def spy(*args, _orig=verdict_mod.flatten, **kw):
        out = _orig(*args, **kw)
        counts.append(len(out[1]))
        return out

    monkeypatch.setattr(verdict_mod, "flatten", spy)
    return counts


def _jobs(spark, group: str, df) -> tuple[list, int]:
    """Collect ``df`` under job group ``group``: its rows and the number
    of Spark jobs the collect ran."""
    sc = spark.sparkContext

    def collect_in(name, frame):
        sc.setJobGroup(name, name)
        try:
            return frame.collect()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)

    rows = collect_in(group, df)
    collect_in(group + "-control", spark.range(8).selectExpr("sum(id)"))
    # listener events arrive in order: once the control's job shows,
    # every job of the earlier collect has shown too
    tracker = sc.statusTracker()
    deadline = time.monotonic() + 10
    while not tracker.getJobIdsForGroup(group + "-control"):
        assert time.monotonic() < deadline, "control job never seen"
        time.sleep(0.05)
    return rows, len(tracker.getJobIdsForGroup(group))


def _same_rows(got, want) -> bool:
    def key(row):
        return repr(tuple(v for v in row if not isinstance(v, float)))

    if len(got) != len(want):
        return False
    for g, w in zip(sorted(got, key=key), sorted(want, key=key)):
        for x, y in zip(g, w):
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif x != y:
                return False
    return True


class TestBroadcastJoins:
    @pytest.mark.parametrize("name", ["tq-5", "tq-10", "tq-14", "tq-17", "tq-19"])
    def test_answers_and_errors_unchanged(self, verdict, monkeypatch, name):
        """The broadcast hint and the join order it brings change how
        Spark joins, not what: answers and error bars equal those of
        the unhinted rewrite up to float summation order."""
        with monkeypatch.context() as m:
            hinted = _spy_rewrites(m)
            got = verdict.sql(_TPCH[name], seed=11).df.collect()
        assert "/*+ BROADCAST(" in hinted[-1]
        with monkeypatch.context() as m:
            plain = _spy_rewrites(m, broadcast=frozenset())
            want = verdict.sql(_TPCH[name], seed=11).df.collect()
        assert "/*+" not in plain[-1]
        assert got and _same_rows(got, want), (got, want)

    def test_derived_views_are_not_counted(self, spark, verdict, monkeypatch):
        """A flattened comparison subquery's view has no samples: the
        planner needs no row count of it, and counting one would run
        its exact aggregate again."""
        fresh = VerdictContext(spark, budget=verdict.budget, seed=7)
        fresh.catalog = verdict.catalog
        issued = []
        engine_sql = type(spark).sql

        def spy(self, text, *args, **kwargs):
            issued.append(text)
            return engine_sql(self, text, *args, **kwargs)

        monkeypatch.setattr(type(spark), "sql", spy)
        derived = _spy_flatten(monkeypatch)
        for text in _CROSS_TABLE * 2:
            res = fresh.sql(text, seed=4)
            assert res.approx, res.fallback_reason
            _check_against_exact(res, verdict.exact(text), False)
        assert derived == [1] * 4
        counts = re.compile(r"^SELECT count\(\*\) AS \w+ FROM verdict_", re.I)
        assert not [t for t in issued if counts.search(t)]
        assert not [t for t in fresh._base_rows if t.startswith("verdict_")]

    def test_columns_read_once_per_call(self, spark, verdict, monkeypatch):
        """One sql() call reads each table's columns once."""
        read = []
        engine_table = type(spark).table

        def spy(self, name, *args, **kwargs):
            read.append(name)
            return engine_table(self, name, *args, **kwargs)

        monkeypatch.setattr(type(spark), "table", spy)
        for name in ("tq-5", "tq-corr"):
            read.clear()
            assert verdict.sql(_TPCH[name], seed=2).approx
            assert read and len(read) == len(set(read)), (name, read)


#: Spark jobs of each window-path workload query: one stage over the
#: one-partition sample, plus the broadcast of part for tq-17
_WINDOW_PATH = {"tq-17": 2, "tq-18": 1, "tq-corr": 1}


class TestWindowPath:
    """Same-table comparison subqueries are window aggregates over the
    outer query's own sample: no derived view, no base-table scan."""

    @pytest.mark.parametrize("name", sorted(_WINDOW_PATH))
    def test_reads_only_the_sample(self, spark, verdict, monkeypatch, name):
        derived = _spy_flatten(monkeypatch)
        sqls = _spy_rewrites(monkeypatch)
        res = verdict.sql(_TPCH[name], seed=4)
        assert res.approx, res.fallback_reason
        assert derived == [0]
        (sql,) = sqls
        assert " OVER (" in sql
        assert not re.search(r"\b(FROM|JOIN)\s+(lineitem|orders)\b", sql, re.I), sql
        assert not re.search(r"verdict_\w+_sub_", sql), sql
        rows, jobs = _jobs(spark, f"window-{name}", res.df)
        assert rows and jobs == _WINDOW_PATH[name]
        plan = res.df._jdf.queryExecution().executedPlan().toString()
        assert not _SHUFFLE.search(plan), plan

    def test_many_valued_correlation_keeps_the_derived_view(
        self, spark, verdict, monkeypatch
    ):
        """The uniform sample holds about one order per customer: a
        window over o_custkey would compare most rows with their own
        price, and every subsample would share that biased threshold.
        The subquery keeps its exact derived view, so the answer over
        the uniform sample stays within its error bar of the engine's."""
        text = (
            "select count(*) as c from orders o "
            "where o_totalprice > (select avg(i.o_totalprice) from orders i "
            "where i.o_custkey = o.o_custkey)"
        )
        (want,) = spark.sql(text).collect()
        derived = _spy_flatten(monkeypatch)
        sqls = _spy_rewrites(monkeypatch)
        res = verdict.sql(text, seed=4)
        assert res.approx, res.fallback_reason
        assert derived == [1] and " OVER (" not in sqls[-1]
        _check_against_exact(res, spark.sql(text), False)

        uni = verdict.catalog.find("orders", UNIFORM)[0]

        def on_uniform(q, *args, _orig=verdict_mod.plan_query, **kw):
            plan = _orig(q, *args, **kw)
            return replace(plan, entries=tuple(
                replace(e, assignment=tuple(
                    (t, uni if t == "orders" else m) for t, m in e.assignment
                ))
                for e in plan.entries
            ))

        monkeypatch.setattr(verdict_mod, "plan_query", on_uniform)
        (got,) = verdict.sql(text, seed=4).df.collect()
        assert abs(got["c"] - want["c"]) <= got["c_err"], (got, want)

    def test_exact_extreme_part_passes_through(self, spark, verdict):
        """min/max run exactly; a window never runs over a base table,
        so the user's query passes through with its reason."""
        text = (
            "select min(o_totalprice) as lo, count(*) as c from orders "
            "where o_totalprice > (select avg(o_totalprice) from orders)"
        )
        res = verdict.sql(text, seed=4)
        assert not res.approx and "needs its sample" in res.fallback_reason
        assert res.df.collect() == spark.sql(text).collect()

    def test_unsampled_window_table_passes_through(self, spark, verdict, monkeypatch):
        """A plan that reads the window's table from the base table
        makes the query pass through, with its reason."""
        text = (
            "select count(*) as c from lineitem inner join orders "
            "on l_orderkey = o_orderkey "
            "where o_totalprice > (select avg(o_totalprice) from orders)"
        )
        uni = verdict.catalog.find("lineitem", UNIFORM)[0]

        def plan(q, *args, **kw):
            entry = PlanEntry(q.aggs, (("lineitem", uni), ("orders", None)))
            return Plan(entries=(entry,), score=1.0, cost=uni.rows)

        monkeypatch.setattr(verdict_mod, "plan_query", plan)
        res = verdict.sql(text, seed=4)
        assert not res.approx and "needs its sample" in res.fallback_reason
        assert res.df.collect() == spark.sql(text).collect()


class TestProbesInTheCatalog:
    def test_contexts_sharing_a_catalog_probe_once(self, spark, verdict, monkeypatch):
        """Cardinality-probe results live in the catalog: a second
        context over it probes nothing, and ``clear()`` forgets them."""
        metas = [m for t in verdict.catalog.tables() for m in verdict.catalog.for_table(t)]
        catalog = SampleCatalog()
        for m in metas:
            catalog.add(m)

        def context():
            ctx = VerdictContext(spark, budget=verdict.budget, seed=7)
            ctx.catalog = catalog
            return ctx

        issued = []
        engine_sql = type(spark).sql

        def spy(self, text, *args, **kwargs):
            issued.append(text)
            return engine_sql(self, text, *args, **kwargs)

        monkeypatch.setattr(type(spark), "sql", spy)

        def probes(ctx) -> int:
            issued.clear()
            assert ctx.sql(_TPCH["tq-1"], seed=3).approx
            assert not ctx.sql(_TPCH["tq-3"], seed=3).approx
            return sum("approx_count_distinct" in t for t in issued)

        assert probes(context()) > 0
        assert probes(context()) == 0
        catalog.clear()
        for m in metas:
            catalog.add(m)
        assert probes(context()) > 0
