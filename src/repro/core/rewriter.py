"""AQP Rewriter (Fig. 1b): logical query x sample plan -> one rewritten
SQL string implementing the Appendix G template.

The rewritten query has three layers, all plain SQL:

1. **variational source** (``vt``): the FROM clause with base tables
   replaced by sample views; adds ``verdict_prob`` (per-tuple inclusion
   probability — a product across independently sampled relations, or
   the minimum across equi-joined universe samples) and ``verdict_sid``
   (subsample id — random per tuple, hash-of-value for count-distinct,
   composed with Theorem 4's h(i, j) when two variational tables join);
   unsampled tables the planner found small are named in a broadcast
   join hint; a comparison subquery flattened onto a sampled table is
   a Horvitz–Thompson window aggregate over that table's sample rows;
2. **inner aggregate**: ``GROUP BY (groups, sid)`` computing, per
   subsample, its size, raw Horvitz–Thompson sums, and an unbiased
   estimate of the true answer (totals scaled by a fixed ``b``);
3. **outer combiner**: the full-sample HT answer plus the Theorem 2
   error bound ``stddev(est_i) * sqrt(avg(sub_size)/sum(sub_size)) * z``.

A nested query (Section 5.2, Query 7) is the same template over one
more per-sid layer: the inner query's per-subsample estimates form the
variational derived table ``t_v``, and layers 2 and 3 run over it.
:func:`_pieces` is the one place that renders an aggregate's estimator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .catalog import HASHED, SampleMeta
from .parser import UnsupportedQueryError
from .query import AggCall, AggQuery, Relation, WindowAgg, agg_expr
from .planner import PlanEntry
from .staircase import erfcinv
from .variational import b_for, join_sid_expr, sid_hash_expr, sid_rand_expr


def z_value(confidence: float) -> float:
    """Two-sided normal quantile: P(|Z| <= z) = confidence."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    return math.sqrt(2.0) * erfcinv(1.0 - confidence)


@dataclass(frozen=True)
class AggOutput:
    """One output column pair of a rewritten query."""

    alias: str
    err_alias: str | None


@dataclass(frozen=True)
class Rewritten:
    sql: str
    outputs: tuple[AggOutput, ...]
    b: int


def _plain(col: str) -> str:
    """Strip alias qualification: after the vt layer columns are unique."""
    return col.split(".")[-1]


# --------------------------------------------------------------------------
# variational source construction
# --------------------------------------------------------------------------


def _from_sql(
    rel: Relation,
    subs: list[str],
    broadcast: frozenset[str],
    columns_of: Callable[[str], list[str]],
) -> str:
    """FROM clause joining ``subs``, one per table of ``rel``, on the
    query's equi-join conditions.

    The tables in ``broadcast`` join last when the others still join
    each other through their own conditions. Spark keeps a one-partition
    input of a sort-merge join unshuffled only while that input's size
    estimate stays under ``spark.sql.maxSinglePartitionBytes``, and it
    estimates an inner join as the product of its inputs: two
    one-partition samples joined above a broadcast join shuffle both
    sides, joined below it they shuffle neither.
    """
    tables = rel.tables
    edges = [(i, pair) for i, e in enumerate(rel.joins, start=1) for pair in e.on]
    # table position each condition joins at: the user's order by default
    order, at = list(range(len(tables))), [i for i, _ in edges]
    if broadcast:
        owner = {c: i for i, t in enumerate(tables) for c in columns_of(t.name)}
        moved = sorted(order, key=lambda i: tables[i].ident in broadcast)
        pos = {i: k for k, i in enumerate(moved)}
        if all(l in owner and r in owner for _, (l, r) in edges):
            # a condition joins at the later of its two tables
            moved_at = [max(owner[l], owner[r], key=pos.get) for _, (l, r) in edges]
            if set(moved[1:]) <= set(moved_at):
                order, at = moved, moved_at
    parts = [subs[order[0]]]
    for i in order[1:]:
        cond = " AND ".join(
            f"{l} = {r}" for (_, (l, r)), a in zip(edges, at) if a == i
        )
        parts.append(f"INNER JOIN {subs[i]} ON {cond}")
    return " ".join(parts)


def _vt_sql(
    rel: Relation,
    assignment: dict[str, SampleMeta | None],
    where: str | None,
    b: int,
    *,
    columns_of: Callable[[str], list[str]],
    seed: int | None,
    hash_sid_cols: tuple[str, ...] | None = None,
    broadcast: frozenset[str] = frozenset(),
    windows: tuple[WindowAgg, ...] = (),
) -> str:
    """SQL for the variational table of the (joined) FROM clause.

    ``hash_sid_cols``: when set (count-distinct entries), per-tuple sids
    are derived by hashing these columns so subsamples partition the
    value domain instead of the tuple space.

    ``broadcast``: identifiers of unsampled tables to broadcast into the
    join, named in a ``/*+ BROADCAST(...) */`` hint (a comment to
    engines without join hints).

    ``windows``: flattened comparison subqueries, each computed as a
    window over all sample rows of its table, before ``where`` and the
    joins. The caller assigns each window's table a sample: a base
    table gets no window column.
    """
    sub_sqls: list[str] = []
    sid_cols: list[str] = []
    hashed_sid_cols: list[str] = []
    prob_cols: list[str] = []
    hashed_prob_cols: list[str] = []
    for i, tref in enumerate(rel.tables):
        meta = assignment.get(tref.name)
        cols = ", ".join(columns_of(tref.name))
        ident = tref.ident
        if meta is None:
            sub_sqls.append(f"(SELECT {cols} FROM {tref.name}) {ident}")
            continue
        wins = "".join(
            f", {_window_sql(w)} AS {w.column}" for w in windows if w.table == ident
        )
        if meta.stype == HASHED:
            sid = sid_hash_expr(meta.columns, b)
            sub_sqls.append(
                f"(SELECT {cols}, verdict_prob AS verdict_prob_{i}, "
                f"{sid} AS verdict_sid_{i}{wins} FROM {meta.view}) {ident}"
            )
            hashed_sid_cols.append(f"verdict_sid_{i}")
            hashed_prob_cols.append(f"verdict_prob_{i}")
        else:
            if hash_sid_cols:
                sid = sid_hash_expr(hash_sid_cols, b)
            else:
                sid = sid_rand_expr(b, None if seed is None else seed + i)
            sub_sqls.append(
                f"(SELECT {cols}, verdict_prob AS verdict_prob_{i}, "
                f"{sid} AS verdict_sid_{i}{wins} FROM {meta.view}) {ident}"
            )
            sid_cols.append(f"verdict_sid_{i}")
            prob_cols.append(f"verdict_prob_{i}")

    from_sql = _from_sql(rel, sub_sqls, broadcast, columns_of)

    # probability: product of independent samples; equi-joined universe
    # samples survive together, so they contribute min(tau_i) once.
    prob_terms = [f"{c}" for c in prob_cols]
    if len(hashed_prob_cols) == 1:
        prob_terms.append(hashed_prob_cols[0])
    elif len(hashed_prob_cols) > 1:
        prob_terms.append(f"least({', '.join(hashed_prob_cols)})")
    prob_expr = " * ".join(prob_terms) if prob_terms else "CAST(1.0 AS DOUBLE)"

    # sid: equi-joined universe samples agree on sid (same hashed value),
    # so the group contributes a single sid; remaining sids fold through
    # h(i, j). No sampled relation at all means no sid (exact path —
    # callers never reach here in that case).
    sids = list(sid_cols)
    if hashed_sid_cols:
        sids.append(hashed_sid_cols[0])
    if not sids:
        raise UnsupportedQueryError("variational table without any sample")
    sid_expr = sids[0]
    for s in sids[1:]:
        sid_expr = join_sid_expr(sid_expr, s, b)

    all_cols = ", ".join(
        c for t in rel.tables for c in columns_of(t.name)
    )
    hint = f"/*+ BROADCAST({', '.join(sorted(broadcast))}) */ " if broadcast else ""
    sql = (
        f"SELECT {hint}{all_cols}, {prob_expr} AS verdict_prob, "
        f"{sid_expr} AS verdict_sid FROM {from_sql}"
    )
    if where:
        sql += f" WHERE {where}"
    return sql


# --------------------------------------------------------------------------
# aggregate templates
# --------------------------------------------------------------------------


def _scale(raw: str, b: int) -> str:
    """Per-subsample estimate of a *total* (count/sum): ``b * raw``.

    Each subsample holds an expected 1/b of the sample, so scaling its
    Horvitz–Thompson sum by b makes it unbiased for the full answer,
    with variance b times the full-sample estimator's variance — which
    is precisely what the Theorem 2 ``sqrt(n_s/n)`` correction undoes.

    Note: the paper's printed Query 9 scales by a window over the group
    (``mean(1/p) * group total``); for a constant-probability sample
    that expression is *identical across subsamples*, so its stddev
    degenerates to zero (the printed query also references an undefined
    ``count_order`` column — an editing artifact). The fixed-b scaling
    here is the form Theorem 2's proof actually analyses (subsample
    aggregates of disjoint iid blocks).
    """
    return f"(({raw}) * {b})"


@dataclass
class _AggPieces:
    """One aggregate's estimator: ``est`` is its per-subsample estimate,
    ``extra`` the further per-subsample columns ``final`` reads, and
    ``final`` / ``err`` combine the subsamples into answer and error."""

    est: str
    extra: list[str]
    final: str
    err: str


#: Theorem 2's sqrt(n_s / n) scaling of the per-subsample spread
_THEOREM2 = " * sqrt(avg(verdict_sub_size)) / sqrt(sum(verdict_sub_size))"


def _combined(
    k: int,
    est: str,
    z: float,
    *,
    extra: tuple[str, ...] = (),
    final: str | None = None,
    scale: str = _THEOREM2,
) -> _AggPieces:
    """Combine per-subsample estimates ``est_k``: by default their
    subsample-size-weighted mean, with the Theorem 2 error
    ``stddev(est_k) * sqrt(avg(sub_size) / sum(sub_size)) * z``."""
    return _AggPieces(
        est, list(extra),
        final or f"sum(est_{k} * verdict_sub_size) / sum(verdict_sub_size)",
        f"(stddev_samp(est_{k}){scale}) * {z!r}",
    )


def _arg(agg: AggCall) -> str:
    return agg.expr if agg.expr not in ("*", "") else "1"


def _ht(agg: AggCall, over: str = "") -> tuple[str, str]:
    """Horvitz–Thompson sum and count of ``agg``'s argument over the
    sample rows, as aggregates or, with an ``over`` clause, as window
    aggregates. count(e) and the avg(e) denominator count only rows
    where e is set."""
    e = _arg(agg)
    ht_cnt = f"sum(1.0 / verdict_prob){over}" if e == "1" else (
        f"sum(CASE WHEN ({e}) IS NOT NULL THEN 1.0 / verdict_prob END){over}"
    )
    return f"sum(({e}) / verdict_prob){over}", ht_cnt


def _window_sql(w: WindowAgg) -> str:
    """The full-sample Horvitz–Thompson estimate of a window-path
    subquery's count, sum or avg, per partition of the sample rows."""
    over = f" OVER (PARTITION BY {w.partition})" if w.partition else " OVER ()"
    ht_sum, ht_cnt = _ht(w.agg, over)
    if w.agg.fn == "count":
        # a partition whose e is NULL throughout counts 0 rows, not NULL
        return f"coalesce({ht_cnt}, 0)"
    return ht_sum if w.agg.fn == "sum" else f"{ht_sum} / {ht_cnt}"


def _pieces(
    agg: AggCall, k: int, *, b: int, domain_tau: float | None, z: float
) -> _AggPieces:
    e = _arg(agg)
    ht_sum, ht_cnt = _ht(agg)
    if agg.fn in ("count", "sum"):
        raw = ht_cnt if agg.fn == "count" else ht_sum
        return _combined(
            k, _scale(raw, b), z, extra=(f"{raw} AS raw_{k}",), final=f"sum(raw_{k})"
        )
    if agg.fn == "avg":
        return _combined(
            k, f"({ht_sum}) / ({ht_cnt})", z,
            extra=(f"{ht_sum} AS num_{k}", f"{ht_cnt} AS den_{k}"),
            final=f"sum(num_{k}) / sum(den_{k})",
        )
    if agg.fn in ("var", "stddev", "quantile"):
        # scale-free: every subsample estimates the answer itself
        return _combined(k, agg_expr(agg), z)
    if agg.fn == "count_distinct":
        if domain_tau is None or domain_tau <= 0:
            raise UnsupportedQueryError(
                "count-distinct needs a hashed sample on the counted column"
            )
        # subsamples partition the sampled value domain: each holds a
        # tau/b slice, so d_i * b / tau estimates the full distinct count
        # independently; the plain mean recovers distinct(sample)/tau,
        # and its error is the standard error of that mean.
        return _combined(
            k, f"count(DISTINCT {e}) * {b} / {domain_tau!r}", z,
            final=f"avg(est_{k})", scale=" / sqrt(count(*))",
        )
    raise UnsupportedQueryError(f"cannot approximate aggregate {agg.fn!r}")


def _substitute_having(having: str, aggs: tuple[AggCall, ...]) -> str:
    """Replace raw aggregate expressions in HAVING with their aliases
    so the clause can run against the rewritten (combined) output."""
    from .parser import tokenize

    out = having
    for a in aggs:
        raw = agg_expr(a)
        out = out.replace(raw, a.alias)
        # the parser re-emits expressions space-joined ("count ( * )");
        # normalise the rendered form the same way so it matches
        out = out.replace(" ".join(tokenize(raw)), a.alias)
    return out


# --------------------------------------------------------------------------
# the Appendix G template
# --------------------------------------------------------------------------


def _b_and_z(entry: PlanEntry, b: int | None, confidence: float) -> tuple[int, float]:
    sampled = [m for m in entry.tables.values() if m is not None]
    if not sampled:
        raise UnsupportedQueryError("no sampled relation in plan entry")
    if b is None:
        b = b_for(min(m.rows for m in sampled))
    return b, z_value(confidence)


def _by_sid(
    groups: tuple[str, ...], cols: list[str], source: str, name: str, where: str | None
) -> str:
    """One ``GROUP BY (groups, sid)`` layer over the rows of ``source``."""
    select = ", ".join([*groups, "verdict_sid", *cols])
    cond = f" WHERE {where}" if where else ""
    return (
        f"SELECT {select} FROM ({source}) {name}{cond} "
        f"GROUP BY {', '.join([*groups, 'verdict_sid'])}"
    )


def _template(
    query: AggQuery,
    aggs: tuple[AggCall, ...],
    pieces: list[_AggPieces],
    sub_size: str,
    source: str,
    name: str,
    *,
    b: int,
    where: str | None = None,
) -> Rewritten:
    """Layers 2 and 3 over a variational ``source``: per-subsample
    estimates ``GROUP BY (groups, sid)``, then the combiner and the
    user's HAVING / ORDER BY / LIMIT."""
    groups = tuple(_plain(g) for g in query.groups)
    cols = [f"{sub_size} AS verdict_sub_size"]
    for k, p in enumerate(pieces):
        cols += [*p.extra, f"{p.est} AS est_{k}"]
    sub = _by_sid(groups, cols, source, name, where)
    select = (
        list(groups)
        + [f"{p.final} AS {a.alias}" for a, p in zip(aggs, pieces)]
        + [f"{p.err} AS {a.alias}_err" for a, p in zip(aggs, pieces)]
    )
    sql = f"SELECT {', '.join(select)} FROM ({sub}) verdict_sub"
    if groups:
        sql += f" GROUP BY {', '.join(groups)}"
    if query.having:
        hv = _substitute_having(query.having, aggs)
        sql = f"SELECT * FROM ({sql}) verdict_hv WHERE {hv}"
    if query.order_by:
        sql += f" ORDER BY {query.order_by}"
    if query.limit is not None:
        sql += f" LIMIT {query.limit}"
    outputs = tuple(AggOutput(a.alias, f"{a.alias}_err") for a in aggs)
    return Rewritten(sql=sql, outputs=outputs, b=b)


def rewrite_flat(
    query: AggQuery,
    entry: PlanEntry,
    *,
    columns_of: Callable[[str], list[str]],
    confidence: float = 0.95,
    seed: int | None = None,
    b: int | None = None,
    broadcast: frozenset[str] = frozenset(),
) -> Rewritten:
    """Rewrite a flat aggregate query per the Appendix G template.

    ``broadcast`` names the unsampled tables to broadcast into the join
    (see :func:`~repro.core.planner.broadcast_tables`); none by default.
    """
    if not isinstance(query.source, Relation):
        raise UnsupportedQueryError("rewrite_flat requires a flat query")
    b, z = _b_and_z(entry, b, confidence)

    distinct_aggs = [a for a in entry.aggs if a.fn == "count_distinct"]
    hash_sid_cols: tuple[str, ...] | None = None
    domain_tau: float | None = None
    if distinct_aggs:
        col = _plain(distinct_aggs[0].expr)
        hash_sid_cols = (col,)
        for m in entry.tables.values():
            if m is not None and m.stype == HASHED and tuple(m.columns) == (col,):
                domain_tau = m.ratio
                break

    vt = _vt_sql(
        query.source, entry.tables, query.where, b,
        columns_of=columns_of, seed=seed, hash_sid_cols=hash_sid_cols,
        broadcast=broadcast, windows=query.windows,
    )
    pieces = [
        _pieces(a, k, b=b, domain_tau=domain_tau, z=z)
        for k, a in enumerate(entry.aggs)
    ]
    return _template(query, entry.aggs, pieces, "count(*)", vt, "verdict_vt", b=b)


def rewrite_nested(
    query: AggQuery,
    entry: PlanEntry,
    *,
    columns_of: Callable[[str], list[str]],
    confidence: float = 0.95,
    seed: int | None = None,
    b: int | None = None,
    broadcast: frozenset[str] = frozenset(),
) -> Rewritten:
    """Rewrite an aggregate-over-aggregate query as one linear pipeline.

    Query 7's variational derived table (inner GROUP BY gains ``sid``)
    feeds per-subsample outer estimates. Each per-sid estimate is an
    unbiased estimate of the final answer, so — exactly as in the flat
    template for scale-free statistics — the answer is their
    subsample-size-weighted mean and the error is the Theorem 2 scaled
    stddev. One chain vt -> t_v -> per-sid -> combine; no second pass
    over the sample (Spark inlines CTEs, so a separate sid-free answer
    path would re-execute the variational source). ``broadcast`` is as
    in :func:`rewrite_flat`.
    """
    inner = query.source
    if not isinstance(inner, AggQuery) or not isinstance(inner.source, Relation):
        raise UnsupportedQueryError("rewrite_nested requires one nesting level")
    b, z = _b_and_z(entry, b, confidence)
    for a in inner.aggs:
        if a.fn not in ("count", "sum", "avg"):
            raise UnsupportedQueryError(
                f"inner aggregate {a.fn!r} unsupported in nested queries"
            )
    for a in query.aggs:
        if a.fn == "count_distinct":
            raise UnsupportedQueryError(f"outer aggregate {a.fn!r} unsupported")

    vt = _vt_sql(
        inner.source, entry.tables, inner.where, b,
        columns_of=columns_of, seed=seed, broadcast=broadcast,
    )
    # Query 7: the variational table t_v of the derived table t
    tv_cols = ["count(*) AS verdict_tuples"] + [
        f"{_pieces(a, k, b=b, domain_tau=None, z=z).est} AS {a.alias}"
        for k, a in enumerate(inner.aggs)
    ]
    tv = _by_sid(
        tuple(_plain(g) for g in inner.groups), tv_cols, vt, "verdict_vt", None
    )
    pieces = [_combined(k, agg_expr(a), z) for k, a in enumerate(query.aggs)]
    return _template(
        query, query.aggs, pieces, "sum(verdict_tuples)", tv, "verdict_tv",
        b=b, where=query.where,
    )
