"""Appendix E sample planner: candidate plans, consolidation, scoring,
budget fallback, and the k-best heuristic. The scenarios mirror the
paper's Tables 3/4 example (orders x products with uniform/hashed and
stratified/hashed samples)."""
import pytest

from repro.core.catalog import HASHED, STRATIFIED, UNIFORM, SampleCatalog, SampleMeta
from repro.core.parser import parse
from repro.core.planner import (
    Plan,
    PlanEntry,
    _assignment_valid,
    broadcast_tables,
    effective_ratio,
    exact_plan,
    plan_query,
)

BASE_ROWS = {"orders": 100_000, "products": 100_000, "t": 100_000}


def _meta(table, view, stype, columns=(), rows=1000, base=100_000, ratio=0.01):
    return SampleMeta(table, view, stype, columns, ratio, rows, base)


@pytest.fixture
def appendix_e_catalog():
    """The Appendix E example: uniform + hashed samples of orders,
    stratified + hashed samples of products (hash/join key: order_id
    on both sides; products stratified on the join key)."""
    c = SampleCatalog()
    c.add(_meta("orders", "o_unif", UNIFORM))
    c.add(_meta("orders", "o_hash", HASHED, ("order_id",)))
    c.add(_meta("products", "p_strat", STRATIFIED, ("order_id2",)))
    c.add(_meta("products", "p_hash", HASHED, ("order_id2",)))
    return c


JOIN_SQL = (
    "select count(*) as c, avg(price) as a, "
    "count(distinct order_id) as d "
    "from orders inner join products on order_id = order_id2"
)


class TestAppendixEExample:
    def test_plan_found(self, appendix_e_catalog):
        q = parse(JOIN_SQL)
        plan = plan_query(q, appendix_e_catalog, BASE_ROWS, budget=0.10)
        assert plan.uses_sampling

    def test_count_distinct_gets_hashed_sample(self, appendix_e_catalog):
        q = parse(JOIN_SQL)
        plan = plan_query(q, appendix_e_catalog, BASE_ROWS, budget=0.10)
        entry = next(
            e for e in plan.entries
            if any(a.fn == "count_distinct" for a in e.aggs)
        )
        m = entry.tables["orders"]
        assert m is not None and m.stype == HASHED
        assert m.columns == ("order_id",)

    def test_consolidation_merges_shared_sample_sets(self, appendix_e_catalog):
        """Table 4b: all three aggregates can consolidate onto the
        hashed-orders x hashed-products pair — so the best plan has at
        most 2 entries, never 3."""
        q = parse(JOIN_SQL)
        plan = plan_query(q, appendix_e_catalog, BASE_ROWS, budget=0.10)
        assert len(plan.entries) <= 2
        covered = [a.fn for e in plan.entries for a in e.aggs]
        assert sorted(covered) == ["avg", "count", "count_distinct"]

    def test_uniform_plus_stratified_is_valid(self, appendix_e_catalog):
        """Table 3a pairs uniform orders with stratified-on-join-key
        products — must be admissible under the Section 5.1 rules."""
        q = parse(JOIN_SQL)
        rel = q.source
        assignment = {
            "orders": _meta("orders", "o_unif", UNIFORM),
            "products": _meta("products", "p_strat", STRATIFIED, ("order_id2",)),
        }
        assert _assignment_valid(assignment, rel)

    def test_two_uniform_invalid_by_default(self, appendix_e_catalog):
        q = parse(JOIN_SQL)
        assignment = {
            "orders": _meta("orders", "o_unif", UNIFORM),
            "products": _meta("products", "p_unif", UNIFORM),
        }
        assert not _assignment_valid(assignment, q.source)
        assert _assignment_valid(
            assignment, q.source, allow_multi_uniform=True
        )

    def test_hashed_pair_must_match_edge(self):
        q = parse(JOIN_SQL)
        good = {
            "orders": _meta("orders", "oh", HASHED, ("order_id",)),
            "products": _meta("products", "ph", HASHED, ("order_id2",)),
        }
        bad = {
            "orders": _meta("orders", "oh2", HASHED, ("order_id",)),
            "products": _meta("products", "ph2", HASHED, ("other_col",)),
        }
        assert _assignment_valid(good, q.source)
        assert not _assignment_valid(bad, q.source)


class TestEffectiveRatio:
    def test_hashed_pair_min(self):
        q = parse(JOIN_SQL)
        a = {
            "orders": _meta("orders", "oh", HASHED, ("order_id",), rows=2000),
            "products": _meta("products", "ph", HASHED, ("order_id2",), rows=500),
        }
        assert effective_ratio(a, q.source) == pytest.approx(0.005)

    def test_uniform_times_base(self):
        q = parse(JOIN_SQL)
        a = {"orders": _meta("orders", "ou", UNIFORM, rows=1000), "products": None}
        assert effective_ratio(a, q.source) == pytest.approx(0.01)

    def test_product_of_independent(self):
        q = parse(JOIN_SQL)
        a = {
            "orders": _meta("orders", "ou", UNIFORM, rows=1000),
            "products": _meta("products", "ps", STRATIFIED, ("order_id2",), rows=1000),
        }
        assert effective_ratio(a, q.source) == pytest.approx(1e-4)


class TestBudget:
    def test_budget_violation_falls_back_to_exact(self):
        c = SampleCatalog()
        c.add(_meta("t", "big", UNIFORM, rows=50_000))  # 50% sample
        q = parse("select count(*) as c from t")
        plan = plan_query(q, c, BASE_ROWS, budget=0.02)
        assert not plan.uses_sampling

    def test_within_budget_sampled(self):
        c = SampleCatalog()
        c.add(_meta("t", "small", UNIFORM, rows=1000))  # 1%
        q = parse("select count(*) as c from t")
        plan = plan_query(q, c, BASE_ROWS, budget=0.02)
        assert plan.uses_sampling

    def test_prefers_larger_sample_within_budget(self):
        c = SampleCatalog()
        c.add(_meta("t", "s1", UNIFORM, rows=500, ratio=0.005))
        c.add(_meta("t", "s2", UNIFORM, rows=1500, ratio=0.015))
        q = parse("select count(*) as c from t")
        plan = plan_query(q, c, BASE_ROWS, budget=0.02)
        views = [m.view for e in plan.entries for m in e.tables.values() if m]
        assert views == ["s2"]


class TestAdvantageFactor:
    def test_stratified_preferred_for_matching_groups(self):
        c = SampleCatalog()
        c.add(_meta("t", "unif", UNIFORM, rows=1000))
        c.add(_meta("t", "strat", STRATIFIED, ("city",), rows=1000))
        q = parse("select city, count(*) as c from t group by city")
        plan = plan_query(q, c, BASE_ROWS, budget=0.05)
        views = [m.view for e in plan.entries for m in e.tables.values() if m]
        assert views == ["strat"]

    def test_no_advantage_for_mismatched_groups(self):
        c = SampleCatalog()
        c.add(_meta("t", "unif", UNIFORM, rows=1200))
        c.add(_meta("t", "strat", STRATIFIED, ("othercol",), rows=1000))
        q = parse("select city, count(*) as c from t group by city")
        plan = plan_query(q, c, BASE_ROWS, budget=0.05)
        views = [m.view for e in plan.entries for m in e.tables.values() if m]
        assert views == ["unif"]  # larger ratio wins without the factor


class TestCountDistinct:
    def test_requires_matching_hashed_sample(self):
        c = SampleCatalog()
        c.add(_meta("t", "unif", UNIFORM, rows=1000))
        q = parse("select count(distinct user_id) as d from t")
        plan = plan_query(q, c, BASE_ROWS, budget=0.05)
        # no hashed sample on user_id: that aggregate runs on base
        assert not plan.uses_sampling

    def test_uses_matching_hashed_sample(self):
        c = SampleCatalog()
        c.add(_meta("t", "h_u", HASHED, ("user_id",), rows=1000))
        q = parse("select count(distinct user_id) as d from t")
        plan = plan_query(q, c, BASE_ROWS, budget=0.05)
        m = plan.entries[0].tables["t"]
        assert m is not None and m.columns == ("user_id",)

    def test_mixed_entries_split(self):
        """count-distinct needs the hashed sample, avg prefers the larger
        uniform sample -> two consolidated entries."""
        c = SampleCatalog()
        c.add(_meta("t", "h_u", HASHED, ("user_id",), rows=1000))
        c.add(_meta("t", "unif", UNIFORM, rows=1900))
        q = parse("select count(distinct user_id) as d, avg(x) as a from t")
        plan = plan_query(q, c, BASE_ROWS, budget=0.05)
        assert len(plan.entries) == 2


class TestKBestHeuristic:
    def test_k1_keeps_only_best(self):
        c = SampleCatalog()
        for i, rows in enumerate([100, 500, 1000, 1900]):
            c.add(_meta("t", f"u{i}", UNIFORM, rows=rows))
        q = parse("select count(*) as c from t")
        plan = plan_query(q, c, BASE_ROWS, budget=0.05, k=1)
        views = [m.view for e in plan.entries for m in e.tables.values() if m]
        assert views == ["u3"]

    def test_exact_plan_structure(self):
        q = parse("select count(*) as c from t")
        plan = exact_plan(q, q.source)
        assert isinstance(plan, Plan)
        assert not plan.uses_sampling
        assert plan.entries[0].assignment == (("t", None),)


class TestBroadcastTables:
    """Which unsampled tables a sampled join broadcasts: those no bigger
    than one scan task of a sampled table (here 100 000 / 4 rows)."""

    SQL = "select count(*) as c from fact inner join dim on fk = pk"

    def _hinted(self, dim_rows, *, partitions=4, rows=None):
        q = parse(self.SQL)
        fact = SampleMeta("fact", "f_u", UNIFORM, (), 0.01, 1000, 100_000, partitions)
        entry = PlanEntry(q.aggs, (("dim", None), ("fact", fact)))
        base_rows = {"fact": 100_000, "dim": dim_rows} if rows is None else rows
        return broadcast_tables(q.base_tables(), entry, base_rows)

    def test_rows_per_scan_task(self):
        assert _meta("t", "v", UNIFORM).rows_per_scan_task == 0.0
        m = SampleMeta("t", "v", UNIFORM, (), 0.01, 10, 1000, 4)
        assert m.rows_per_scan_task == 250.0

    def test_dimension_within_one_task_is_hinted(self):
        assert self._hinted(25_000) == {"dim"}

    def test_dimension_above_one_task_is_not(self):
        assert self._hinted(25_001) == frozenset()

    def test_unknown_scan_partitions_hint_nothing(self):
        assert self._hinted(10, partitions=0) == frozenset()

    def test_table_without_row_count_is_not_hinted(self):
        # flattened derived views are not counted, so never broadcast
        assert self._hinted(10, rows={"fact": 100_000}) == frozenset()

    def test_hint_names_the_alias(self):
        q = parse("select count(*) as c from fact f inner join dim d on fk = pk")
        fact = SampleMeta("fact", "f_u", UNIFORM, (), 0.01, 1000, 100_000, 4)
        entry = PlanEntry(q.aggs, (("dim", None), ("fact", fact)))
        hinted = broadcast_tables(q.base_tables(), entry, {"fact": 100_000, "dim": 5})
        assert hinted == {"d"}

    def test_two_samples_hint_nothing(self):
        q = parse(self.SQL)
        f = SampleMeta("fact", "f_h", HASHED, ("fk",), 0.01, 1000, 100_000, 4)
        d = SampleMeta("dim", "d_h", HASHED, ("pk",), 0.01, 10, 1000, 1)
        entry = PlanEntry(q.aggs, (("dim", d), ("fact", f)))
        assert broadcast_tables(
            q.base_tables(), entry, {"fact": 100_000, "dim": 1000}
        ) == frozenset()
