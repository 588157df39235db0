"""Sample planner (Appendix E) and default sampling policy (Appendix F).

Given a parsed query and the sample catalog, the planner enumerates
*candidate plans* — one sample-table choice per base table per aggregate
function — consolidates aggregates that share a sample set (Tables 3/4
of the paper), scores each consolidated plan, and picks the
highest-scoring plan whose I/O cost fits the budget. If nothing fits,
base tables are used (no AQP), exactly as Section 2.3 prescribes.

Scoring follows Appendix E.1: ``score = sqrt(effective sampling ratio)
x advantage factors`` averaged across an entry's sample sets, where the
effective ratio of two hashed samples equi-joined on their column sets
is the *minimum* of their ratios (not the product), and a stratified
sample whose column set covers the grouping attributes earns an
advantage factor. Cost is the total tuple count of the plan's sample
tables, duplicates counted per key. The E.2 heuristic bounds the
per-table candidate lists to the k best samples before the cross
product is formed.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .catalog import HASHED, STRATIFIED, UNIFORM, SampleCatalog, SampleMeta
from .query import AggCall, AggQuery, Relation, TableRef

#: advantage factor for a stratified sample covering the group-by columns
STRATIFIED_ADVANTAGE = 2.0
#: default fraction of the base data a query may read (Section 2.4)
DEFAULT_IO_BUDGET = 0.02
#: Appendix E.2 default for the k-best join heuristic
DEFAULT_K = 10


@dataclass(frozen=True)
class PlanEntry:
    """One consolidated plan entry: these aggregates are answered by
    this per-table sample assignment (None = base table)."""

    aggs: tuple[AggCall, ...]
    assignment: tuple[tuple[str, SampleMeta | None], ...]

    @property
    def tables(self) -> dict[str, SampleMeta | None]:
        return dict(self.assignment)

    @property
    def uses_sampling(self) -> bool:
        return any(m is not None for _, m in self.assignment)


@dataclass(frozen=True)
class Plan:
    entries: tuple[PlanEntry, ...]
    score: float
    cost: int

    @property
    def uses_sampling(self) -> bool:
        return any(e.uses_sampling for e in self.entries)


def _join_columns(rel: Relation, table_ident: str) -> set[frozenset[str]]:
    """Column sets on which ``table_ident`` participates in equi-joins."""
    out: set[frozenset[str]] = set()
    idents = [t.ident for t in rel.tables]
    names = {t.ident: t.name for t in rel.tables}
    for pos, edge in enumerate(rel.joins, start=1):
        right = edge.right.ident
        lcols = frozenset(l for l, _ in edge.on)
        rcols = frozenset(r for _, r in edge.on)
        if right == table_ident or names.get(right) == table_ident:
            out.add(rcols)
        # the left side of an edge is any earlier table; attribute the
        # left columns to whichever earlier table the planner asks about
        for earlier in idents[:pos]:
            if earlier == table_ident or names.get(earlier) == table_ident:
                out.add(lcols)
    return out


def _candidates_for(
    agg: AggCall,
    table: str,
    rel: Relation,
    catalog: SampleCatalog,
    k: int,
) -> list[SampleMeta | None]:
    """Admissible samples of ``table`` for ``agg`` (None = base table).

    Encodes Section 5.1's join-cardinality rules and the count-distinct
    requirement (hashed sample on the counted column, Section 2.2).
    Applies the E.2 k-best cut (largest sampling ratio first).
    """
    metas = catalog.for_table(table)
    if agg.fn == "count_distinct":
        col = agg.expr.split(".")[-1].strip()
        owning = [m for m in metas if m.stype == HASHED and m.columns == (col,)]
        if owning:
            # the table holding the counted column must use the hashed
            # sample on that column (domain partitioning, Section 2.2)
            metas = owning
        else:
            # other joined tables: only universe samples on their join
            # columns keep the counted domain's join density intact
            metas = [m for m in metas if m.stype == HASHED]
    multi_table = len(rel.tables) > 1
    if multi_table:
        join_cols = _join_columns(rel, table)
        ok = []
        for m in metas:
            if m.stype == HASHED and frozenset(m.columns) not in join_cols:
                # a universe sample is only join-safe on its hash columns
                continue
            if m.stype == STRATIFIED and not any(
                set(m.columns) >= jc for jc in join_cols
            ):
                # join key must be inside the stratified column set [11]
                continue
            ok.append(m)
        metas = ok
    metas = sorted(metas, key=lambda m: -m.sampling_ratio)[:k]
    return list(metas) + [None]


def _assignment_valid(
    assignment: dict[str, SampleMeta | None],
    rel: Relation,
    *,
    allow_multi_uniform: bool = False,
) -> bool:
    """Section 5.1 join-cardinality rules.

    A multi-table assignment is admissible when it samples (a) at most
    one relation of any type, or (b) exactly two relations via hashed
    (universe) samples whose column sets are the two sides of one join
    edge — the pair survives together, preserving the join density.
    ``allow_multi_uniform`` lifts rule (a) to let two uniform samples
    join (the Theorem 4 h(i, j) path); off by default because the
    joined cardinality collapses by a factor of tau.
    """
    if len(rel.tables) <= 1:
        return True
    sampled = {t: m for t, m in assignment.items() if m is not None}
    hashed = {t: m for t, m in sampled.items() if m.stype == HASHED}
    # A stratified sample whose column set covers one of its join-edge
    # column sets is join-safe: every join-key value is represented
    # (the BlinkDB strategy cited in Section 5.1). It may therefore
    # coexist with one other sampled relation, like the Appendix E
    # example plan (uniform orders x stratified products).
    unsafe = {
        t: m
        for t, m in sampled.items()
        if m.stype != HASHED
        and not (
            m.stype == STRATIFIED
            and any(set(m.columns) >= jc for jc in _join_columns(rel, t))
        )
    }
    if len(hashed) == 0:
        if allow_multi_uniform and all(
            m.stype == UNIFORM for m in unsafe.values()
        ):
            return True
        return len(unsafe) <= 1
    if unsafe:
        return False  # universe samples only pair with join-safe relations
    if len(hashed) == 1:
        return True
    if len(hashed) == 2:
        (ta, ma), (tb, mb) = sorted(hashed.items())
        names = {t.ident: t.name for t in rel.tables}
        idents = [t.ident for t in rel.tables]
        for pos, edge in enumerate(rel.joins, start=1):
            lcols = frozenset(l for l, _ in edge.on)
            rcols = frozenset(r for _, r in edge.on)
            rt = names.get(edge.right.ident, edge.right.ident)
            lts = {names.get(i, i) for i in idents[:pos]}
            pair_cols = {
                (frozenset(ma.columns), frozenset(mb.columns)),
                (frozenset(mb.columns), frozenset(ma.columns)),
            }
            if rt in (ta, tb) and (lcols, rcols) in pair_cols and (
                {ta, tb} - {rt}
            ) <= lts:
                return True
        return False
    return False


def effective_ratio(
    assignment: dict[str, SampleMeta | None], rel: Relation
) -> float:
    """Effective sampling ratio of a joined sample set (Appendix E.1)."""
    hashed = [m for m in assignment.values() if m is not None and m.stype == HASHED]
    others = [m for m in assignment.values() if m is not None and m.stype != HASHED]
    ratio = 1.0
    if hashed:
        # equi-joined universe samples survive together: min, not product
        ratio *= min(m.sampling_ratio for m in hashed)
    for m in others:
        ratio *= m.sampling_ratio
    return ratio


def _entry_score(entry: PlanEntry, rel: Relation, groups: tuple[str, ...]) -> float:
    assignment = entry.tables
    if not entry.uses_sampling:
        return 0.0  # exact execution: valid but never preferred over AQP
    ratio = effective_ratio(assignment, rel)
    adv = 1.0
    for m in assignment.values():
        if (
            m is not None
            and m.stype == STRATIFIED
            and groups
            and set(c.split(".")[-1] for c in groups) <= set(m.columns)
        ):
            adv *= STRATIFIED_ADVANTAGE
    return ratio**0.5 * adv


def _entry_cost(entry: PlanEntry, base_rows: dict[str, int]) -> int:
    cost = 0
    for table, m in entry.assignment:
        cost += m.rows if m is not None else base_rows.get(table, 0)
    return cost


def exact_plan(query: AggQuery, rel: Relation) -> Plan:
    assignment = tuple((t.name, None) for t in rel.tables)
    return Plan(
        entries=(PlanEntry(aggs=tuple(query.aggs), assignment=assignment),),
        score=0.0,
        cost=0,
    )


def plan_query(
    query: AggQuery,
    catalog: SampleCatalog,
    base_rows: dict[str, int],
    *,
    budget: float = DEFAULT_IO_BUDGET,
    k: int = DEFAULT_K,
) -> Plan:
    """Choose the best consolidated sample plan within the I/O budget.

    ``base_rows`` maps base-table name to exact row count (from the
    catalog's creation-time metadata or a count query).

    The budget is enforced **per table**, as Section 2.4 specifies ("a
    maximum percentage of the table that can be used when that table
    appears in analytical queries"): within any sampled entry, every
    table the user nominated for AQP (i.e. that has catalog samples)
    must contribute at most ``budget * |T|`` rows. Tables without
    samples are dimension-sized by construction and may be read fully.
    Entries that use no sampling at all are exact fallbacks and exempt.
    """
    rel = query.source
    while isinstance(rel, AggQuery):  # plan against the innermost relation
        query, rel = rel, rel.source
    tables = [t.name for t in rel.tables]
    approx_aggs = [a for a in query.aggs if a.approximable]
    if not approx_aggs:
        return exact_plan(query, rel)

    # Aggregates with identical candidate sets always end up in the same
    # consolidated entry, so enumerate assignments once per *candidate
    # signature* instead of once per aggregate — this collapses the
    # paper's exponential 4x4x4 enumeration (Appendix E.1) to its
    # distinct choices without changing the chosen plan.
    sig_of_agg: list[int] = []
    signatures: dict[tuple, int] = {}
    sig_options: list[list[dict[str, SampleMeta | None]]] = []
    for agg in approx_aggs:
        cands = {t: _candidates_for(agg, t, rel, catalog, k) for t in tables}
        sig = tuple(
            (t, tuple(m.view if m else "" for m in cands[t])) for t in tables
        )
        if sig not in signatures:
            options = []
            for combo in itertools.product(*(cands[t] for t in tables)):
                assignment = dict(zip(tables, combo))
                if _assignment_valid(assignment, rel):
                    options.append(assignment)
            signatures[sig] = len(sig_options)
            sig_options.append(options)
        sig_of_agg.append(signatures[sig])

    def within_budget(entry: PlanEntry) -> bool:
        if not entry.uses_sampling:
            return True
        for t, m in entry.assignment:
            if not catalog.for_table(t):
                continue  # not nominated for AQP: no per-table cap
            used = m.rows if m is not None else base_rows.get(t, 0)
            if used > budget * base_rows.get(t, 0):
                return False
        return True

    best: Plan | None = None
    # cap the cross product defensively; k-best pruning keeps it small
    for sig_combo in itertools.islice(
        itertools.product(*sig_options), 100_000
    ):
        combo = [sig_combo[s] for s in sig_of_agg]
        # consolidate aggregates sharing the same sample set (E.1)
        consolidated: dict[tuple, tuple[dict, list[AggCall]]] = {}
        for agg, assignment in zip(approx_aggs, combo):
            key = tuple(sorted((t, m.view if m else "") for t, m in assignment.items()))
            consolidated.setdefault(key, (assignment, []))[1].append(agg)
        entries = [
            PlanEntry(aggs=tuple(aggs), assignment=tuple(sorted(a.items())))
            for a, aggs in consolidated.values()
        ]
        cost = sum(_entry_cost(e, base_rows) for e in entries)
        if not all(within_budget(e) for e in entries):
            continue
        score = sum(
            _entry_score(e, rel, query.groups) for e in entries
        ) / max(len(entries), 1)
        cand = Plan(entries=tuple(entries), score=score, cost=cost)
        if (
            best is None
            or cand.score > best.score
            or (cand.score == best.score and cand.cost < best.cost)
        ):
            best = cand
    if best is None or not best.uses_sampling:
        return exact_plan(query, rel)
    return best


def broadcast_tables(
    tables: tuple[TableRef, ...], entry: PlanEntry, base_rows: dict[str, int]
) -> frozenset[str]:
    """Identifiers of the unsampled tables to broadcast into the join of
    a sampled entry.

    A table qualifies when it holds at most as many rows as one scan
    task of a sampled table in the entry reads, the yardstick
    :func:`~repro.core.sampling.view_partitions` sizes sample views
    with: such a table is no bigger than one task's input, so shipping
    it to every task costs less than shuffling the sample and the table.
    Only tables in ``base_rows`` are considered; a derived view's size
    is unknown, so it is never broadcast.
    """
    assignment = entry.tables
    per_task = max(
        (m.rows_per_scan_task for m in assignment.values() if m is not None),
        default=0.0,
    )
    return frozenset(
        t.ident for t in tables
        if assignment.get(t.name) is None
        and t.name in base_rows
        and base_rows[t.name] <= per_task
    )
