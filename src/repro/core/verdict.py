"""VerdictDB facade: the middleware the user talks to (Section 2).

``VerdictContext`` owns the sample catalog and drives the full pipeline
of Figure 2: parse -> flatten comparison subqueries -> split off extreme
statistics -> plan samples under the I/O budget -> rewrite -> execute on
the engine -> assemble the approximate answer with error estimates.
Unsupported queries are passed to the engine unchanged (no speedup, no
error), and a HAC accuracy violation triggers an exact rerun
(Section 2.4).

All data-touching work is SQL text executed via ``spark.sql`` — the
middleware itself only ever manipulates result sets (the Answer
Rewriter's job) and metadata.
"""
from __future__ import annotations

import functools
import itertools
import time
from dataclasses import replace
from typing import Callable

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from . import sampling
from .catalog import SampleCatalog, SampleMeta
from .estimators import ApproxResult
from .flatten import flatten
from .parser import UnsupportedQueryError, parse
from .planner import DEFAULT_IO_BUDGET, DEFAULT_K, broadcast_tables, plan_query
from .query import EXTREME, AggQuery, exact_sql
from .rewriter import AggOutput, rewrite_flat, rewrite_nested

_derived_counter = itertools.count()

#: AQP is declared infeasible when the grouping attributes' distinct
#: count exceeds this fraction of the sample size (Section 6.2 behaviour)
GROUP_CARDINALITY_LIMIT = 0.2


def _apply_order_limit(df: DataFrame, order_by: str, limit: int | None) -> DataFrame:
    """Re-apply a simple ``col [desc][, ...]`` ORDER BY (and LIMIT) on an
    assembled multi-part result — parts ran without ordering."""
    specs = []
    for item in order_by.split(","):
        toks = item.split()
        if not toks:
            continue
        col = F.col(toks[0])
        if len(toks) > 1 and toks[1].lower() == "desc":
            col = col.desc()
        specs.append(col)
    if specs:
        df = df.orderBy(*specs)
    if limit is not None:
        df = df.limit(limit)
    return df


class VerdictContext:
    """Driver-level AQP middleware over one SparkSession."""

    def __init__(
        self,
        spark: SparkSession,
        *,
        budget: float = DEFAULT_IO_BUDGET,
        confidence: float = 0.95,
        k: int = DEFAULT_K,
        seed: int | None = None,
    ):
        self.spark = spark
        self.catalog = SampleCatalog()
        self.budget = budget
        self.confidence = confidence
        self.k = k
        self.seed = seed
        self._base_rows: dict[str, int] = {}

    # ---- sample preparation (offline stage) ---------------------------
    # Each builder gets the base table's count from _rows, so a sample
    # set counts every base table once.
    def create_uniform_sample(self, table: str, ratio: float = 0.01, **kw):
        return sampling.create_uniform_sample(
            self.spark, table, ratio=ratio, catalog=self.catalog,
            seed=kw.pop("seed", self.seed), base_rows=self._rows(table), **kw,
        )

    def create_hashed_sample(self, table: str, columns, ratio: float = 0.01, **kw):
        return sampling.create_hashed_sample(
            self.spark, table, tuple(columns), ratio=ratio,
            catalog=self.catalog, base_rows=self._rows(table), **kw,
        )

    def create_stratified_sample(self, table: str, columns, ratio: float = 0.01, **kw):
        return sampling.create_stratified_sample(
            self.spark, table, tuple(columns), ratio=ratio,
            catalog=self.catalog, seed=kw.pop("seed", self.seed),
            base_rows=self._rows(table), **kw,
        )

    def create_recommended_samples(
        self, table: str, *, target_rows: int = 10_000_000, top: int = 10
    ):
        """Appendix F default policy: always a uniform sample; hashed
        samples on the highest-cardinality columns (>1% of |T| unique),
        stratified samples on the lowest-cardinality ones (<1%).

        ``target_rows`` is the paper's 10M-row knob: tau = target / |T|
        (clamped to 1). Cardinalities come from one SQL aggregate using
        the engine's approximate distinct — metadata-grade accuracy is
        all the policy needs.
        """
        n = self._rows(table)
        tau = min(1.0, target_rows / n)
        created = [self.create_uniform_sample(table, ratio=tau)]
        cols = self.spark.table(table).columns
        card_row = self.spark.sql(
            "SELECT "
            + ", ".join(f"approx_count_distinct({c}) AS {c}" for c in cols)
            + f" FROM {table}"
        ).collect()[0]
        cards = {c: card_row[c] for c in cols}
        high = sorted(
            (c for c in cols if cards[c] > 0.01 * n),
            key=lambda c: -cards[c],
        )[:top]
        low = sorted(
            (c for c in cols if 1 < cards[c] <= 0.01 * n),
            key=lambda c: cards[c],
        )[:top]
        for c in high:
            created.append(self.create_hashed_sample(table, (c,), ratio=tau))
        for c in low:
            created.append(self.create_stratified_sample(table, (c,), ratio=tau))
        return created

    # ---- query processing (online stage) ------------------------------
    def sql(
        self,
        query_text: str,
        *,
        budget: float | None = None,
        confidence: float | None = None,
        accuracy: float | None = None,
        seed: int | None = None,
    ) -> ApproxResult:
        """Answer ``query_text`` approximately when supported.

        ``accuracy`` is the optional HAC requirement of Section 2.4
        (e.g. 0.99 = answers within +-1%); a violation triggers an exact
        rerun on the base tables.
        """
        confidence = confidence if confidence is not None else self.confidence
        t0 = time.perf_counter()
        try:
            q = parse(query_text)
        except UnsupportedQueryError as e:
            df = self.spark.sql(query_text)
            return ApproxResult(
                df=df, outputs=(), approx=False,
                fallback_reason=f"unsupported: {e}",
                latency_sec=time.perf_counter() - t0,
            )
        try:
            res = self._answer(
                q, budget=budget if budget is not None else self.budget,
                confidence=confidence, seed=seed if seed is not None else self.seed,
                # each table's columns are read once per call; a table
                # registered again before the next call is read afresh
                columns_of=functools.cache(lambda t: self.spark.table(t).columns),
            )
        except UnsupportedQueryError as e:
            df = self.spark.sql(query_text)
            res = ApproxResult(
                df=df, outputs=(), approx=False,
                fallback_reason=f"unsupported: {e}",
            )
        res.latency_sec = time.perf_counter() - t0
        if accuracy is not None and res.approx:
            # run the query once: the HAC check and the caller read its
            # result. A small Arrow table becomes a local relation, which
            # Spark reads back without a job (a list of Rows would become
            # an RDD, read by one).
            res.df = self.spark.createDataFrame(res.df.toArrow(), res.df.schema)
        if res.violates(accuracy):
            # rerun the user's text: the parsed query has lost the
            # comparison subqueries that flatten() turned into views
            df = self.spark.sql(query_text)
            res = ApproxResult(
                df=df,
                outputs=tuple(AggOutput(a.alias, None) for a in q.aggs),
                approx=False,
                fallback_reason="HAC violation: accuracy requirement not met",
                latency_sec=time.perf_counter() - t0,
                group_cols=tuple(g.split(".")[-1] for g in q.groups),
            )
        return res

    def exact(self, query_text: str) -> DataFrame:
        """Run a query on the base tables, bypassing AQP (baseline)."""
        return self.spark.sql(query_text)

    # ---- internals -----------------------------------------------------
    def _rows(self, table: str) -> int:
        """Rows of a base table: a sample's recorded count when the
        catalog has one, else one count per context."""
        if table not in self._base_rows:
            metas = self.catalog.for_table(table)
            self._base_rows[table] = metas[0].base_rows if metas else self.spark.sql(
                f"SELECT count(*) AS n FROM {table}"
            ).collect()[0]["n"]
        return self._base_rows[table]

    def _distinct(self, meta: SampleMeta, cols: tuple[str, ...]) -> int:
        """Distinct count of ``cols`` in sample ``meta``, probed on the
        (cached) sample view once per catalog."""
        return self.catalog.distinct_count(
            meta.view, cols,
            lambda: self.spark.sql(
                f"SELECT approx_count_distinct(struct({', '.join(cols)})) AS d "
                f"FROM {meta.view}"
            ).collect()[0]["d"],
        )

    def _few_values(self, meta: SampleMeta, cols: tuple[str, ...]) -> bool:
        """Whether ``meta``'s rows spread over few enough ``cols`` values
        that each value keeps several sample rows (Section 6.2)."""
        return self._distinct(meta, cols) <= GROUP_CARDINALITY_LIMIT * max(meta.rows, 1)

    def _windowable(self, table: str, column: str | None) -> bool:
        """Whether every sample of ``table`` can answer a window
        partitioned by ``column``: the planner may pick any of them."""
        metas = self.catalog.for_table(table)
        return bool(metas) and (
            column is None or all(self._few_values(m, (column,)) for m in metas)
        )

    def _answer(
        self, q: AggQuery, *, budget: float, confidence: float, seed: int | None,
        columns_of: Callable[[str], list[str]],
    ) -> ApproxResult:
        # the user's tables, without the derived views flattening adds
        base_tables = tuple(t.name for t in q.base_tables())
        # 1. flatten comparison subqueries. One over a sampled table of
        #    the outer FROM becomes a window aggregate the rewriter
        #    computes over that table's sample rows, so the query reads
        #    no base table for it; a correlated one needs few values of
        #    its column in every sample, so that each partition holds
        #    more than the outer row. Every other one becomes a derived view
        #    computed exactly here (a conservative variant of §2.2 that
        #    keeps approximation error out of those filters).
        q, derived = flatten(
            q,
            columns_of=columns_of,
            fresh_view=lambda kind: f"verdict_{kind}_{next(_derived_counter)}",
            windowable=self._windowable,
        )
        for dv in derived:
            df = self.spark.sql(exact_sql(dv.query))
            if dv.rename is not None:
                df = df.withColumnRenamed(*dv.rename)
            df.createOrReplaceTempView(dv.view)
        try:
            return self._approximate(
                q, base_tables, budget=budget, confidence=confidence, seed=seed,
                columns_of=columns_of,
            )
        finally:
            # every spark.sql call that reads the views has been analysed
            # by now, and an analysed plan keeps each view's own plan
            for dv in derived:
                self.spark.catalog.dropTempView(dv.view)

    def _approximate(
        self, q: AggQuery, base_tables: tuple[str, ...], *, budget: float,
        confidence: float, seed: int | None, columns_of: Callable[[str], list[str]],
    ) -> ApproxResult:
        # 2. split off extreme statistics (min/max: computed exactly)
        extreme = tuple(a for a in q.aggs if a.fn in EXTREME)
        meanlike = tuple(a for a in q.aggs if a.fn not in EXTREME)
        if not meanlike:
            raise UnsupportedQueryError("only extreme statistics requested")
        q_mean = replace(q, aggs=meanlike)

        # 3. plan samples under the I/O budget. A derived view needs no
        #    row count: it has no samples, and counting it would run its
        #    exact aggregate again.
        base_rows = {t: self._rows(t) for t in base_tables}
        plan = plan_query(
            q_mean, self.catalog, base_rows, budget=budget, k=self.k
        )
        groups = tuple(g.split(".")[-1] for g in q.groups)
        if not plan.uses_sampling:
            raise UnsupportedQueryError(
                "no sample combination within the I/O budget"
            )
        # a window runs over its table's sample in every part: over the
        # base table, OVER () would pull the whole table into one task
        idents = {w.table for w in q.windows}
        for t in q.base_tables():
            if t.ident in idents and (
                extreme or any(e.tables.get(t.name) is None for e in plan.entries)
            ):
                raise UnsupportedQueryError(
                    f"a comparison subquery over {t.ident} needs its sample, "
                    "but the plan answers a part from the base table"
                )

        # Section 6.2: AQP is infeasible when the grouping attributes are
        # near-unique — each group would get a handful of sample tuples
        # (tq-3/tq-8/tq-15 in the paper ran exact for this reason). The
        # cardinality probe runs on the (cached) sample view, not the
        # base table, so the check itself stays cheap.
        if groups:
            inner_groups = (
                tuple(g.split(".")[-1] for g in q_mean.source.groups)
                if q_mean.nested
                else groups
            )
            for entry in plan.entries:
                for meta in entry.tables.values():
                    if meta is None:
                        continue
                    probe_cols = [
                        g for g in inner_groups
                        if g in columns_of(meta.table)
                    ]
                    if not probe_cols:
                        continue
                    cols = tuple(probe_cols)
                    if not self._few_values(meta, cols):
                        raise UnsupportedQueryError(
                            f"grouping cardinality {self._distinct(meta, cols)} too "
                            f"high for sample {meta.view} ({meta.rows} rows)"
                        )

        # 4. rewrite + execute each consolidated plan entry. With
        #    several entries (or a separate extreme part), ORDER BY /
        #    LIMIT / HAVING must wait until assembly, so parts run bare.
        multi = len(plan.entries) > 1 or bool(extreme)
        if multi and q_mean.nested:
            raise UnsupportedQueryError(
                "nested query needs a single consolidated plan entry"
            )
        if multi and q_mean.having:
            raise UnsupportedQueryError(
                "HAVING across multiple plan entries"
            )
        entry_results: list[tuple[DataFrame, tuple[AggOutput, ...]]] = []
        for entry in plan.entries:
            part = q_mean if not multi else replace(
                q_mean, aggs=entry.aggs, order_by=None, limit=None
            )
            if not entry.uses_sampling:
                df = self.spark.sql(exact_sql(part))
                outs = tuple(AggOutput(a.alias, None) for a in entry.aggs)
            else:
                rewriter = rewrite_nested if q_mean.nested else rewrite_flat
                rw = rewriter(
                    part,
                    entry,
                    columns_of=columns_of,
                    confidence=confidence,
                    seed=seed,
                    broadcast=broadcast_tables(q.base_tables(), entry, base_rows),
                )
                df = self.spark.sql(rw.sql)
                outs = rw.outputs
            entry_results.append((df, outs))

        # 5. exact part for extreme statistics, if any (decomposition of
        #    Section 2.2: min/max are never approximated)
        if extreme:
            df = self.spark.sql(
                exact_sql(replace(q, aggs=extreme, order_by=None, limit=None))
            )
            entry_results.append(
                (df, tuple(AggOutput(a.alias, None) for a in extreme))
            )

        # 6. assemble (Answer Rewriter): join partial results on groups
        df, outputs = entry_results[0]
        for part_df, part_outs in entry_results[1:]:
            if groups:
                df = df.join(part_df, on=list(groups), how="inner")
            else:
                df = df.crossJoin(part_df)
            outputs = outputs + part_outs
        # restore the user's aggregate order
        order = {a.alias: i for i, a in enumerate(q.aggs)}
        outputs = tuple(sorted(outputs, key=lambda o: order.get(o.alias, 99)))
        select = list(groups) + [
            c for o in outputs
            for c in ([o.alias] + ([o.err_alias] if o.err_alias else []))
        ]
        df = df.select(*[F.col(c) for c in select])
        if multi and q.order_by:
            df = _apply_order_limit(df, q.order_by, q.limit)
        return ApproxResult(
            df=df,
            outputs=outputs,
            approx=True,
            confidence=confidence,
            plan=plan,
            group_cols=groups,
        )
