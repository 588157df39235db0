"""Sample-table construction in pure SQL (Sections 3.1–3.2).

Every builder issues plain ``SELECT`` statements through
``spark.sql(...)`` — the middleware constraint of the paper. The
resulting DataFrame is cached and counted (the local stand-in for the
paper's ``CREATE TABLE ... AS SELECT`` materialisation; a lazy view over
``rand()`` would silently re-draw the sample on every use) and
registered as a temp view whose name the planner receives via
:class:`~repro.core.catalog.SampleMeta`. That view reads the cached rows
in :func:`view_partitions` partitions; the cached data itself stays
registered under :func:`cached_view` so :func:`drop_sample` can free it.

Each sample table is the base table plus one extra column,
``verdict_prob`` — the per-tuple inclusion probability (Section 3.1).
That single column is what lets one Horvitz–Thompson rewrite template
serve all sample types.

Randomness: all builders accept a ``seed`` forwarded to SQL ``rand(seed)``
so tests are reproducible for a fixed session/partitioning.
"""
from __future__ import annotations

import itertools
import math

from pyspark.sql import SparkSession

from .catalog import HASHED, STRATIFIED, UNIFORM, SampleCatalog, SampleMeta
from .staircase import DEFAULT_DELTA, staircase_case_sql, staircase_steps

_view_counter = itertools.count()

# Denominator for the hash-to-[0,1) trick used by hashed samples; any
# engine with an integer hash and pmod can evaluate it.
_HASH_BUCKETS = 1_000_000


def _fresh_view(table: str, kind: str) -> str:
    return f"{table}__{kind}_{next(_view_counter)}"


def cached_view(view: str) -> str:
    """Name of the temp view over the cached rows behind ``view``."""
    return f"{view}_cached"


def view_partitions(rows: int, base_rows: int, base_partitions: int) -> int:
    """Partitions of a sample view: as many rows per task as the scan of
    its base table, and at least one.

    A sample of a few % of its table then fits in one partition, where
    Spark plans no exchange for the rewrite's aggregates, sample–sample
    joins or ORDER BY; a large sample of a table with thousands of
    splits still spreads over tens of tasks.
    """
    if base_rows <= 0:
        return 1
    return max(1, math.ceil(rows * base_partitions / base_rows))


def _materialise(
    spark: SparkSession, sql: str, view: str, base: tuple[int, int]
) -> int:
    """Cache ``sql``'s rows, register them as ``view`` and return their
    count. ``base`` is the base table's (rows, scan partitions).

    The rows are cached at the source query's parallelism, so a build
    scans its base table in parallel and every ``rand()`` filter sees
    the source partitions. Only the view is coalesced, to
    :func:`view_partitions` partitions; coalescing before the cache
    would push the whole base scan into those few tasks.
    """
    data = spark.sql(sql).cache()
    rows = data.count()
    data.createOrReplaceTempView(cached_view(view))
    data.coalesce(view_partitions(rows, *base)).createOrReplaceTempView(view)
    return rows


def _base(spark: SparkSession, table: str, rows: int | None) -> tuple[int, int]:
    """(rows, scan partitions) of ``table``; counts only if ``rows`` is None."""
    if rows is None:
        rows = spark.sql(f"SELECT count(*) AS n FROM {table}").collect()[0]["n"]
    return rows, spark.table(table).rdd.getNumPartitions()


def hash01_expr(cols: tuple[str, ...], salt: int = 0) -> str:
    """SQL expression hashing a column set into [0, 1) uniformly.

    The +0.5 centres each bucket so the comparison against tau is
    unbiased at any bucket granularity.
    """
    args = ", ".join(cols) + (f", {salt}" if salt else "")
    return f"((pmod(hash({args}), {_HASH_BUCKETS}) + 0.5) / {_HASH_BUCKETS}.0)"


def create_uniform_sample(
    spark: SparkSession,
    table: str,
    *,
    ratio: float = 0.01,
    seed: int | None = None,
    catalog: SampleCatalog | None = None,
    base_rows: int | None = None,
) -> SampleMeta:
    """Bernoulli sample: every tuple kept independently with prob ``ratio``.

    Every builder counts ``table`` unless the caller passes ``base_rows``.
    """
    base = _base(spark, table, base_rows)
    view = _fresh_view(table, "uniform")
    rand = f"rand({seed})" if seed is not None else "rand()"
    sql = (
        f"SELECT *, CAST({ratio!r} AS DOUBLE) AS verdict_prob "
        f"FROM {table} WHERE {rand} < {ratio!r}"
    )
    rows = _materialise(spark, sql, view, base)
    meta = SampleMeta(table, view, UNIFORM, (), ratio, rows, *base)
    if catalog is not None:
        catalog.add(meta)
    return meta


def create_hashed_sample(
    spark: SparkSession,
    table: str,
    columns: tuple[str, ...],
    *,
    ratio: float = 0.01,
    catalog: SampleCatalog | None = None,
    base_rows: int | None = None,
) -> SampleMeta:
    """Universe sample on ``columns``: keep tuples whose hash falls below tau.

    All tuples sharing a value of ``columns`` survive or die together,
    which is what makes sample–sample equi-joins on these columns
    recover the full join density (Section 5.1). Per Section 3.1 the
    stored probability is the realised ratio |T_s|/|T| (constant per
    tuple), so the view is built in two steps: sample, count, then wrap
    with the literal probability column.
    """
    base = _base(spark, table, base_rows)
    view = _fresh_view(table, "hashed")
    raw_view = view + "_raw"
    sql = f"SELECT * FROM {table} WHERE {hash01_expr(columns)} < {ratio!r}"
    rows = _materialise(spark, sql, raw_view, base)
    prob = rows / base[0] if base[0] else 0.0
    _materialise(
        spark,
        f"SELECT *, CAST({prob!r} AS DOUBLE) AS verdict_prob FROM {raw_view}",
        view,
        base,
    )
    meta = SampleMeta(table, view, HASHED, tuple(columns), ratio, rows, *base)
    if catalog is not None:
        catalog.add(meta)
    return meta


def create_stratified_sample(
    spark: SparkSession,
    table: str,
    columns: tuple[str, ...],
    *,
    ratio: float = 0.01,
    min_per_stratum: int | None = None,
    delta: float = DEFAULT_DELTA,
    seed: int | None = None,
    catalog: SampleCatalog | None = None,
    base_rows: int | None = None,
) -> SampleMeta:
    """Two-pass probabilistic stratified sample (Section 3.2).

    Pass 1 computes per-stratum sizes with a GROUP BY; pass 2 joins them
    back and Bernoulli-samples each tuple with the staircase probability
    that guarantees (w.p. 1-delta) at least
    ``m = min(|T| * ratio / d, strata_size)`` tuples per stratum
    (Equation 1 / Lemma 1). Both passes are single standard SELECTs —
    no procedural SQL, fully parallelisable.
    """
    cols = ", ".join(columns)
    base = _base(spark, table, base_rows)
    view = _fresh_view(table, "stratified")
    temp_view = view + "_strata"
    d = _materialise(
        spark,
        f"SELECT {cols}, count(*) AS strata_size FROM {table} GROUP BY {cols}",
        temp_view,
        base,
    )
    if min_per_stratum is None:
        m = max(1.0, base[0] * ratio / max(d, 1))
    else:
        m = float(min_per_stratum)
    max_stratum = spark.sql(
        f"SELECT max(strata_size) AS mx FROM {temp_view}"
    ).collect()[0]["mx"]
    case = staircase_case_sql(
        staircase_steps(m, int(max_stratum), delta=delta), "t2.strata_size"
    )
    on = " AND ".join(f"t1.{c} = t2.{c}" for c in columns)
    rand = f"rand({seed})" if seed is not None else "rand()"
    sql = (
        f"SELECT * FROM ("
        f"  SELECT t1.*, {case} AS verdict_prob"
        f"  FROM {table} t1 INNER JOIN {temp_view} t2 ON {on}"
        f") WHERE {rand} < verdict_prob"
    )
    rows = _materialise(spark, sql, view, base)
    meta = SampleMeta(table, view, STRATIFIED, tuple(columns), ratio, rows, *base)
    if catalog is not None:
        catalog.add(meta)
    return meta


def drop_sample(spark: SparkSession, meta: SampleMeta) -> None:
    """Deregister a sample view and free everything its build cached:
    the rows behind the view and behind the hashed ``_raw`` or the
    stratified ``_strata`` step. Dropping a view of cached rows uncaches
    them."""
    for view in (meta.view, meta.view + "_raw", meta.view + "_strata"):
        spark.catalog.dropTempView(cached_view(view))
        spark.catalog.dropTempView(view)
