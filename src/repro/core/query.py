"""Logical query model — the output of the Query Parser box in Fig. 1b.

The model covers exactly the query class of Table 1: mean-like
aggregates (count / sum / avg / count-distinct / stddev / var /
quantile) plus exact extreme statistics (min / max, never approximated),
equi-join table sources (base tables or one aggregate derived table),
scalar filter predicates, and group-by / having / order-by / limit.

Expressions inside filters and aggregate arguments are carried as raw
SQL strings: the rewriter only needs clause-level and aggregate-level
structure, and passing expressions through verbatim is precisely what a
driver-level middleware does.
"""
from __future__ import annotations

from dataclasses import dataclass

# Aggregates VerdictDB approximates (mean-like, Section 2.2) ...
APPROXIMABLE = {"count", "sum", "avg", "count_distinct", "stddev", "var", "quantile"}
# ... and extreme statistics it always computes exactly.
EXTREME = {"min", "max"}


@dataclass(frozen=True)
class AggCall:
    """One aggregate in the select list, e.g. ``sum(price) AS revenue``.

    ``fn`` is lower-case canonical (``count_distinct`` for
    ``count(distinct c)``); ``expr`` is the raw argument SQL (``*`` or
    ``1`` for bare count); ``q`` is the quantile fraction for
    ``quantile``/``percentile`` calls.
    """

    fn: str
    expr: str
    alias: str
    q: float | None = None

    @property
    def approximable(self) -> bool:
        return self.fn in APPROXIMABLE


@dataclass(frozen=True)
class TableRef:
    """A base table (registered view) with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def ident(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinEdge:
    """One equi-join: ``right`` joined on conjunctive column equalities.

    ``on`` pairs are (left-side column, right-side column); columns are
    globally unique across our schemas, so sides need no qualification.
    """

    right: TableRef
    on: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Relation:
    """FROM clause: a first table plus zero or more inner equi-joins."""

    first: TableRef
    joins: tuple[JoinEdge, ...] = ()

    @property
    def tables(self) -> tuple[TableRef, ...]:
        return (self.first,) + tuple(j.right for j in self.joins)


@dataclass(frozen=True)
class AggQuery:
    """A (possibly nested) aggregate query.

    ``source`` is either a :class:`Relation` over base tables or another
    :class:`AggQuery` (the Query 5 shape: aggregate over an aggregate
    derived table). ``groups`` are the non-aggregate select items.
    """

    aggs: tuple[AggCall, ...]
    groups: tuple[str, ...]
    source: "Relation | AggQuery"
    where: str | None = None
    having: str | None = None
    order_by: str | None = None
    limit: int | None = None
    # comparison subqueries found in WHERE, kept for flattening
    subquery_filters: tuple["ComparisonSubquery", ...] = ()
    # flattened comparison subqueries answered over a table's own rows
    windows: tuple["WindowAgg", ...] = ()

    @property
    def nested(self) -> bool:
        return isinstance(self.source, AggQuery)

    def base_tables(self) -> tuple[TableRef, ...]:
        src = self.source
        while isinstance(src, AggQuery):
            src = src.source
        return src.tables


@dataclass(frozen=True)
class ComparisonSubquery:
    """A ``expr op (SELECT agg(col) FROM tbl [WHERE corr])`` predicate.

    ``corr`` is the (outer column, inner column) correlation equality if
    the subquery is correlated, else None. Section 2.2 flattens these
    into a join with the aggregated derived table.
    """

    left_expr: str
    op: str
    subquery: AggQuery
    corr: tuple[str, str] | None = None


@dataclass(frozen=True)
class WindowAgg:
    """A comparison subquery over a table of the outer FROM, answered as
    a window aggregate over that table's rows: ``agg`` over the rows
    that share the row's ``partition`` value (all rows when None),
    exposed to the outer WHERE as column ``column``. ``table`` is the
    table's identifier in the outer FROM."""

    table: str
    agg: AggCall
    partition: str | None
    column: str


def agg_expr(call: AggCall) -> str:
    """Render an AggCall back to an engine SQL expression."""
    if call.fn == "count_distinct":
        return f"count(DISTINCT {call.expr})"
    if call.fn == "quantile":
        return f"percentile({call.expr}, {call.q})"
    if call.fn == "var":
        return f"var_samp({call.expr})"
    if call.fn == "stddev":
        return f"stddev_samp({call.expr})"
    return f"{call.fn}({call.expr})"


def agg_sql(call: AggCall) -> str:
    """Render an AggCall as an aliased select item (for exact passthrough)."""
    return f"{agg_expr(call)} AS {call.alias}"


def relation_sql(rel: Relation, table_names: dict[str, str] | None = None) -> str:
    """Render a Relation's FROM clause.

    ``table_names`` optionally remaps base-table names to other views
    (that is the entire sample-substitution mechanism: the rewriter maps
    base tables to sample views and re-renders).
    """
    names = table_names or {}

    def ref(t: TableRef) -> str:
        name = names.get(t.name, t.name)
        return f"{name} {t.alias}" if t.alias else name

    parts = [ref(rel.first)]
    for j in rel.joins:
        cond = " AND ".join(f"{l} = {r}" for l, r in j.on)
        parts.append(f"INNER JOIN {ref(j.right)} ON {cond}")
    return " ".join(parts)


def exact_sql(q: AggQuery, table_names: dict[str, str] | None = None) -> str:
    """Render the query for exact execution on the engine (passthrough)."""
    select = list(q.groups) + [agg_sql(a) for a in q.aggs]
    if isinstance(q.source, AggQuery):
        src = f"({exact_sql(q.source, table_names)}) verdict_inner"
    else:
        src = relation_sql(q.source, table_names)
    sql = f"SELECT {', '.join(select)} FROM {src}"
    if q.where:
        sql += f" WHERE {q.where}"
    if q.groups:
        sql += f" GROUP BY {', '.join(q.groups)}"
    if q.having:
        sql += f" HAVING {q.having}"
    if q.order_by:
        sql += f" ORDER BY {q.order_by}"
    if q.limit is not None:
        sql += f" LIMIT {q.limit}"
    return sql
