"""Section 3 sample construction on Spark (SQL-only builders)."""
import math

import pytest

from repro.core.catalog import HASHED, STRATIFIED, UNIFORM, SampleCatalog
from repro.core.sampling import (
    cached_view,
    create_hashed_sample,
    create_stratified_sample,
    create_uniform_sample,
    drop_sample,
    hash01_expr,
    view_partitions,
)


@pytest.fixture(scope="module")
def orders_view(spark, tpch):
    return "orders"


class TestUniform:
    @pytest.fixture(scope="class")
    def meta(self, spark, orders_view):
        return create_uniform_sample(spark, orders_view, ratio=0.1, seed=1)

    def test_size_close_to_ratio(self, meta):
        # Bernoulli(n, 0.1): allow 5 sigma
        n, p = meta.base_rows, 0.1
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(meta.rows - n * p) < 5 * sigma

    def test_prob_column_constant(self, spark, meta):
        rows = spark.sql(
            f"SELECT DISTINCT verdict_prob FROM {meta.view}"
        ).collect()
        assert len(rows) == 1
        assert rows[0][0] == pytest.approx(0.1)

    def test_metadata(self, meta):
        assert meta.stype == UNIFORM
        assert meta.table == "orders"
        assert meta.columns == ()
        assert 0.05 < meta.sampling_ratio < 0.15

    def test_schema_is_base_plus_prob(self, spark, meta):
        base = set(spark.table("orders").columns)
        got = set(spark.table(meta.view).columns)
        assert got == base | {"verdict_prob"}

    def test_registered_in_catalog(self, spark, orders_view):
        cat = SampleCatalog()
        create_uniform_sample(spark, orders_view, ratio=0.05, seed=2, catalog=cat)
        assert len(cat.for_table("orders")) == 1

    def test_sample_is_stable(self, spark, meta):
        """Materialised samples must not re-draw on every read."""
        a = spark.sql(f"SELECT count(*) AS c FROM {meta.view}").collect()[0]["c"]
        b = spark.sql(f"SELECT count(*) AS c FROM {meta.view}").collect()[0]["c"]
        assert a == b == meta.rows


class TestHashed:
    @pytest.fixture(scope="class")
    def meta(self, spark, orders_view):
        return create_hashed_sample(
            spark, orders_view, ("o_custkey",), ratio=0.2
        )

    def test_value_coherence(self, spark, meta):
        """Universe property: every surviving o_custkey keeps *all* its
        tuples — sampled per-key counts must equal base per-key counts."""
        diff = spark.sql(
            f"SELECT count(*) AS bad FROM ("
            f"  SELECT s.o_custkey, count(*) AS sc FROM {meta.view} s "
            f"  GROUP BY s.o_custkey) x "
            f"INNER JOIN ("
            f"  SELECT o_custkey, count(*) AS bc FROM orders GROUP BY o_custkey"
            f") y ON x.o_custkey = y.o_custkey WHERE sc <> bc"
        ).collect()[0]["bad"]
        assert diff == 0

    def test_domain_fraction(self, spark, meta):
        d_s = spark.sql(
            f"SELECT count(DISTINCT o_custkey) AS d FROM {meta.view}"
        ).collect()[0]["d"]
        d = spark.sql(
            "SELECT count(DISTINCT o_custkey) AS d FROM orders"
        ).collect()[0]["d"]
        frac = d_s / d
        assert abs(frac - 0.2) < 5 * math.sqrt(0.2 * 0.8 / d)

    def test_prob_is_realised_ratio(self, spark, meta):
        p = spark.sql(
            f"SELECT DISTINCT verdict_prob FROM {meta.view}"
        ).collect()[0][0]
        assert p == pytest.approx(meta.rows / meta.base_rows)

    def test_metadata(self, meta):
        assert meta.stype == HASHED
        assert meta.columns == ("o_custkey",)

    def test_deterministic(self, spark, orders_view):
        """Hash sampling has no rand(): same tau -> same sample."""
        m1 = create_hashed_sample(spark, orders_view, ("o_custkey",), ratio=0.1)
        m2 = create_hashed_sample(spark, orders_view, ("o_custkey",), ratio=0.1)
        assert m1.rows == m2.rows

    def test_hash01_expr_uniform(self, spark, tpch):
        row = spark.sql(
            f"SELECT min(h) AS lo, max(h) AS hi, avg(h) AS m FROM "
            f"(SELECT {hash01_expr(('o_orderkey',))} AS h FROM orders)"
        ).collect()[0]
        assert 0.0 <= float(row["lo"]) and float(row["hi"]) < 1.0
        assert abs(float(row["m"]) - 0.5) < 0.02


class TestStratified:
    @pytest.fixture(scope="class")
    def meta(self, spark, tpch):
        return create_stratified_sample(
            spark, "lineitem", ("l_returnflag", "l_linestatus"),
            ratio=0.02, seed=3,
        )

    def test_min_per_stratum_guarantee(self, spark, meta):
        """Equation 1: every stratum must carry >= min(|T| tau / d, |stratum|)
        tuples (w.p. 1-delta; with 6 strata a violation is ~never seen)."""
        strata = spark.sql(
            "SELECT l_returnflag, l_linestatus, count(*) AS n "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus"
        ).collect()
        d = len(strata)
        m = meta.base_rows * 0.02 / d
        got = {
            (r["l_returnflag"], r["l_linestatus"]): r["n"]
            for r in spark.sql(
                f"SELECT l_returnflag, l_linestatus, count(*) AS n "
                f"FROM {meta.view} GROUP BY l_returnflag, l_linestatus"
            ).collect()
        }
        for r in strata:
            want = min(m, r["n"])
            key = (r["l_returnflag"], r["l_linestatus"])
            assert got.get(key, 0) >= want * 0.95, (key, got.get(key), want)

    def test_prob_column_varies_with_stratum_size(self, spark, meta):
        """Small strata must get larger inclusion probabilities."""
        rows = spark.sql(
            f"SELECT l_returnflag, l_linestatus, avg(verdict_prob) AS p, "
            f"count(*) AS n FROM {meta.view} "
            f"GROUP BY l_returnflag, l_linestatus"
        ).collect()
        assert len({round(r["p"], 6) for r in rows}) >= 1
        for r in rows:
            assert 0.0 < r["p"] <= 1.0

    def test_ht_count_unbiased(self, spark, meta):
        """sum(1/prob) over the stratified sample ~= |T|."""
        est = spark.sql(
            f"SELECT sum(1.0/verdict_prob) AS e FROM {meta.view}"
        ).collect()[0]["e"]
        assert est == pytest.approx(meta.base_rows, rel=0.05)

    def test_metadata(self, meta):
        assert meta.stype == STRATIFIED
        assert meta.columns == ("l_returnflag", "l_linestatus")

    def test_high_cardinality_strata(self, spark, tpch):
        """Stratifying on a near-unique column keeps ~everything (the
        Equation 1 clamp) — the paper's rationale for the 80% budget."""
        meta = create_stratified_sample(
            spark, "orders", ("o_orderkey",), ratio=0.01, seed=4
        )
        # every stratum has 1 tuple < m, so probs are 1 and all rows kept
        assert meta.rows == meta.base_rows


class TestViewLayout:
    """Sample views read their cached rows in view_partitions() partitions."""

    def test_view_partitions(self):
        assert view_partitions(0, 60_000, 4) == 1
        assert view_partitions(0, 0, 4) == 1
        assert view_partitions(6_000, 60_000, 4) == 1
        assert view_partitions(60_000, 60_000, 4) == 4
        assert view_partitions(15_001, 60_000, 4) == 2
        # a 10M-row sample of a 1B-row table in 5000 splits
        assert view_partitions(10_000_000, 1_000_000_000, 5000) == 50

    def test_sample_set_views_have_one_partition(self, spark, verdict):
        metas = [m for t in verdict.catalog.tables() for m in verdict.catalog.for_table(t)]
        assert len(metas) == 7
        fingerprint = "SELECT count(*) AS n, sum(hash(*)) AS h FROM {}"
        for m in metas:
            assert spark.table(m.view).rdd.getNumPartitions() == 1, m.view
            got = spark.sql(fingerprint.format(m.view)).collect()[0]
            want = spark.sql(fingerprint.format(cached_view(m.view))).collect()[0]
            assert got == want and got["n"] == m.rows, m.view

    def test_drop_frees_everything_a_build_cached(self, spark, tpch):
        from repro.core.verdict import VerdictContext
        from repro.workloads.tpch_lite import prepare_tpch_samples

        def temp_views():
            return {t.name for t in spark.catalog.listTables() if t.isTemporary}

        before = temp_views()
        # a ratio and seed of their own: identical plans would share
        # cached rows with the session's sample set
        v = VerdictContext(spark, seed=13)
        prepare_tpch_samples(v, ratio=0.05)
        built = {name: spark.table(name) for name in temp_views() - before}
        assert any(df.storageLevel.useMemory for df in built.values())
        for t in v.catalog.tables():
            for m in v.catalog.for_table(t):
                drop_sample(spark, m)
        assert not temp_views() & set(built)
        assert not [n for n, df in built.items() if df.storageLevel.useMemory]
