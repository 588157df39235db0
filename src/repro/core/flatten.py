"""Comparison-subquery flattening (Section 2.2).

``WHERE expr op (SELECT agg(col) FROM t [WHERE t.c = outer.c])`` loses
its subquery in one of two ways:

* **window path**: when ``t`` appears once in the outer FROM and has a
  sample, the subquery has no predicate besides the correlation
  equality (which matches a column of the outer ``t`` with itself, and
  no other outer table has that column) and its aggregate is count,
  sum or avg, the subquery becomes a
  :class:`~repro.core.query.WindowAgg`: the rewriter computes it over
  the sample rows of ``t`` as a Horvitz–Thompson window aggregate
  (``PARTITION BY c``, or ``OVER ()`` when uncorrelated), before the
  outer WHERE and joins, and the outer predicate compares against that
  column. The row itself is in its own partition, so every correlation
  value an outer row carries has a subquery value. A correlated
  subquery takes this path only when every sample of ``t`` holds few
  distinct values of ``c``: a partition of one or two sample rows is
  mostly the outer row itself, which would bias the comparison;
* **derived view**: every other subquery (another table, extra inner
  filters, min/max/quantile, a table without samples, a correlation
  column with many values in a sample) becomes a
  derived table the caller registers as a view and computes exactly:
  a join with the per-correlation-value aggregate (correlated case) or
  a scalar-subquery predicate over a one-row view (uncorrelated case).
  The paper splices it inline as a derived table in FROM; materialising
  first is semantically identical and keeps the final rewritten query
  inside the Relation model (base tables + equi-joins).

Either way only standard SELECT statements reach the engine.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable

from .parser import UnsupportedQueryError
from .query import AggQuery, JoinEdge, Relation, TableRef, WindowAgg


@dataclass(frozen=True)
class DerivedView:
    """A derived table the caller must register before executing the
    flattened query. ``query`` may itself be answered approximately.

    ``rename`` maps the correlation column to a fresh name so the
    derived view never collides with the outer table's columns (the
    rewriter relies on globally-unique column names)."""

    view: str
    query: AggQuery
    scalar: bool  # True: one-row aggregate used via a scalar subquery
    rename: tuple[str, str] | None = None


def _window_table(
    outer: Relation, inner: AggQuery, corr: tuple[str, str] | None,
    windowable: Callable[[str, str | None], bool],
    columns_of: Callable[[str], list[str]],
) -> TableRef | None:
    """The outer table whose own rows answer subquery ``inner`` as a
    window aggregate, or None when ``inner`` needs a derived view."""
    src = inner.source
    if not (
        isinstance(src, Relation) and not src.joins and len(inner.aggs) == 1
        and inner.aggs[0].fn in ("count", "sum", "avg")  # Horvitz–Thompson sums
        and not (inner.where or inner.groups or inner.having or inner.order_by)
        and inner.limit is None and not inner.subquery_filters
    ):
        return None
    same = [t for t in outer.tables if t.name == src.first.name]
    if len(same) != 1:
        return None
    if corr is not None and (
        corr[0] != corr[1]  # the outer row's value is not its own partition key
        # the outer column may belong to another outer table: the parser
        # keeps bare names, so only a column no other table has is sure
        or any(corr[1] in columns_of(t.name) for t in outer.tables if t is not same[0])
    ):
        return None
    return same[0] if windowable(src.first.name, corr and corr[0]) else None


def flatten(
    q: AggQuery,
    *,
    columns_of: Callable[[str], list[str]],
    fresh_view: Callable[[str], str],
    windowable: Callable[[str, str | None], bool] = lambda table, column: False,
) -> tuple[AggQuery, list[DerivedView]]:
    """Remove ``q.subquery_filters`` by flattening into window
    aggregates, joins and views.

    Returns the rewritten query (no subquery filters left; window-path
    subqueries in ``windows``) and the list of derived views to
    register. ``columns_of`` resolves which side of a correlated
    equality belongs to the subquery's table. ``windowable(table,
    column)`` tells whether the samples of ``table`` can answer a window
    partitioned by ``column`` (None: uncorrelated), i.e. the catalog
    holds a sample of it and each sample has few distinct values of the
    column; by default none can, so every subquery gets a derived view.
    """
    src = q.source
    while isinstance(src, AggQuery):
        if src.subquery_filters:
            # the nested rewrite and exact_sql render only inner.where
            raise UnsupportedQueryError("subquery filter inside nested query")
        src = src.source
    if not q.subquery_filters:
        return q, []
    if not isinstance(q.source, Relation):
        raise UnsupportedQueryError("subquery filter inside nested query")
    derived: list[DerivedView] = []
    windows: list[WindowAgg] = []
    joins = list(q.source.joins)
    preds: list[str] = [q.where] if q.where else []
    for cs in q.subquery_filters:
        inner = cs.subquery
        agg = inner.aggs[0]
        inner_ref = inner.base_tables()[0]
        corr = None
        if cs.corr is not None:
            a, b = cs.corr
            inner_cols = set(columns_of(inner_ref.name))
            if b in inner_cols:
                corr = (b, a)
            elif a in inner_cols:
                corr = (a, b)
            else:
                raise UnsupportedQueryError(
                    f"correlation columns {a!r}/{b!r} not found in {inner_ref.name}"
                )
        target = _window_table(q.source, inner, corr, windowable, columns_of)
        if target is not None:
            # the window reads the outer table's rows: drop the
            # subquery's own qualifier from its argument
            expr = re.sub(rf"\b{re.escape(inner_ref.ident)}\s*\.\s*", "", agg.expr)
            column = fresh_view("win")
            windows.append(WindowAgg(
                target.ident, replace(agg, expr=expr),
                corr[0] if corr else None, column,
            ))
            preds.append(f"{cs.left_expr} {cs.op} {column}")
            continue
        if corr is None:
            view = fresh_view("scalar_sub")
            derived.append(DerivedView(view, inner, scalar=True))
            preds.append(f"{cs.left_expr} {cs.op} (SELECT {agg.alias} FROM {view})")
            continue
        inner_col, outer_col = corr
        # the derived table: per-correlation-value aggregate (the
        # paper's `select city, avg(price) ... group by city` example);
        # its correlation column is renamed to stay globally unique
        grouped = replace(inner, groups=(inner_col,))
        view = fresh_view("flat_sub")
        corr_col = f"verdict_corr_{view.rsplit('_', 1)[-1]}"
        derived.append(
            DerivedView(view, grouped, scalar=False, rename=(inner_col, corr_col))
        )
        joins.append(
            JoinEdge(right=TableRef(name=view), on=((outer_col, corr_col),))
        )
        preds.append(f"{cs.left_expr} {cs.op} {agg.alias}")
    flattened = replace(
        q,
        source=Relation(first=q.source.first, joins=tuple(joins)),
        where=" AND ".join(f"({p})" for p in preds) if preds else None,
        subquery_filters=(),
        windows=tuple(windows),
    )
    return flattened, derived
