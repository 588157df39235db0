"""Section 2.2 comparison-subquery flattening."""
import itertools

import pytest

from repro.core.flatten import flatten
from repro.core.parser import parse
from repro.core.query import Relation

_SCHEMAS = {
    "orders": ["o_id", "city", "price", "o_orderpriority", "o_totalprice"],
    "t": ["x", "price", "city"],
    "u": ["u_k", "city"],
}


def _flatten(q):
    counter = itertools.count()
    return flatten(
        q,
        columns_of=lambda t: _SCHEMAS[t],
        fresh_view=lambda kind: f"v_{kind}_{next(counter)}",
    )


class TestNoop:
    def test_no_subqueries(self):
        q = parse("select count(*) as c from t where x > 1")
        q2, derived = _flatten(q)
        assert q2 is q and derived == []


class TestUncorrelated:
    def test_scalar_view(self):
        q = parse(
            "select count(*) as c from t "
            "where price > (select avg(price) as ap from t)"
        )
        q2, derived = _flatten(q)
        assert len(derived) == 1 and derived[0].scalar
        assert q2.subquery_filters == ()
        assert f"(SELECT ap FROM {derived[0].view})" in q2.where

    def test_keeps_existing_predicate(self):
        q = parse(
            "select count(*) as c from t "
            "where x > 1 and price > (select avg(price) as ap from t)"
        )
        q2, _ = _flatten(q)
        assert "(x > 1)" in q2.where and "ap" in q2.where


class TestCorrelated:
    def test_becomes_join(self):
        q = parse(
            "select count(*) as c from orders o "
            "where price > (select avg(price) as ap from orders i "
            "where i.city = o.city)"
        )
        q2, derived = _flatten(q)
        assert len(derived) == 1 and not derived[0].scalar
        # the derived view is grouped by the correlation column
        assert derived[0].query.groups == ("city",)
        # the outer query joins to the view on that column
        assert isinstance(q2.source, Relation)
        join = q2.source.joins[-1]
        assert join.right.name == derived[0].view
        assert join.on[0][0] == "city"
        assert join.on[0][1].startswith("verdict_corr_")
        assert "price > ap" in q2.where

    def test_unknown_correlation_column(self):
        q = parse(
            "select count(*) as c from orders o "
            "where price > (select avg(price) as ap from orders i "
            "where i.nope = o.nada)"
        )
        from repro.core.parser import UnsupportedQueryError

        with pytest.raises(UnsupportedQueryError):
            _flatten(q)


class TestNested:
    def test_inner_subquery_filter_is_unsupported(self):
        """Neither the nested rewrite nor exact SQL renders an inner
        query's comparison subquery, so the query must pass through."""
        from repro.core.parser import UnsupportedQueryError

        q = parse(
            "select avg(c) as a from (select city, count(*) as c from t "
            "where price > (select avg(price) as ap from t) group by city) s"
        )
        with pytest.raises(UnsupportedQueryError):
            _flatten(q)


class TestMixed:
    def test_two_subqueries(self):
        q = parse(
            "select count(*) as c from orders o "
            "where price > (select avg(price) as ap from orders) "
            "and o_totalprice > (select avg(o_totalprice) as at from orders)"
        )
        q2, derived = _flatten(q)
        assert len(derived) == 2
        assert all(d.scalar for d in derived)


def _flatten_sampled(q, sampled=("orders", "t"), asked=None):
    counter = itertools.count()

    def windowable(table, column):
        if asked is not None:
            asked.append((table, column))
        return table in sampled

    return flatten(
        q,
        columns_of=lambda t: _SCHEMAS[t],
        fresh_view=lambda kind: f"v_{kind}_{next(counter)}",
        windowable=windowable,
    )


class TestWindowPath:
    """A subquery over a sampled table of the outer FROM becomes a
    window aggregate over that table's rows; nothing to register."""

    def test_uncorrelated(self):
        q = parse(
            "select count(*) as c from t "
            "where x > 1 and price > (select avg(price) as ap from t)"
        )
        q2, derived = _flatten_sampled(q)
        assert derived == []
        (w,) = q2.windows
        assert (w.table, w.agg.fn, w.agg.expr, w.partition) == ("t", "avg", "price", None)
        assert q2.where == f"(x > 1) AND (price > {w.column})"
        assert q2.source == q.source and q2.subquery_filters == ()

    def test_correlated_partitions_by_the_column(self):
        q = parse(
            "select count(*) as c from orders o "
            "where price > (select sum(i.price) as sp from orders i "
            "where i.city = o.city)"
        )
        q2, derived = _flatten_sampled(q)
        assert derived == []
        (w,) = q2.windows
        # the window sits on the outer table; the inner qualifier is gone
        assert (w.table, w.agg.expr, w.partition) == ("o", "price", "city")
        assert q2.source.joins == ()

    def test_count_star(self):
        q = parse(
            "select count(*) as c from t "
            "where x < (select count(*) as n from t)"
        )
        q2, derived = _flatten_sampled(q)
        assert derived == [] and q2.windows[0].agg.fn == "count"

    @pytest.mark.parametrize("sql, sampled", [
        # no sample of the subquery's table
        ("select count(*) as c from t "
         "where price > (select avg(price) as a from t)", ()),
        # another table
        ("select count(*) as c from t "
         "where price > (select avg(o_totalprice) as a from orders)", ("orders", "t")),
        # an inner filter besides the correlation
        ("select count(*) as c from t "
         "where price > (select avg(price) as a from t where x > 3)", ("t",)),
        # not a sum of Horvitz–Thompson terms
        ("select count(*) as c from t "
         "where price > (select max(price) as a from t)", ("t",)),
        ("select count(*) as c from t "
         "where price > (select percentile(price, 0.5) as a from t)", ("t",)),
        # correlated on another column of the same table
        ("select count(*) as c from orders o where price > "
         "(select avg(price) as a from orders i where i.city = o.o_id)", ("orders",)),
    ])
    def test_derived_view_kept(self, sql, sampled):
        q2, derived = _flatten_sampled(parse(sql), sampled)
        assert len(derived) == 1 and q2.windows == ()

    def test_asks_for_the_partition_column(self):
        """Whether the samples hold few values of the correlation column
        is the caller's answer; a no keeps the derived view."""
        q = parse(
            "select count(*) as c from orders o "
            "where price > (select avg(i.price) as a from orders i "
            "where i.city = o.city) "
            "and price > (select avg(price) as b from orders)"
        )
        asked = []
        q2, derived = _flatten_sampled(q, sampled=(), asked=asked)
        assert asked == [("orders", "city"), ("orders", None)]
        assert len(derived) == 2 and q2.windows == ()

    def test_outer_column_of_another_table(self):
        """Two outer tables share the correlation column's name: the
        bare name may be u's city, so the derived view keeps it."""
        sql = (
            "select count(*) as c from t inner join u on x = u_k "
            "where price > (select avg(i.price) as a from t i where i.city = u.city)"
        )
        q2, derived = _flatten_sampled(parse(sql), ("t",))
        assert len(derived) == 1 and q2.windows == ()
        # without a second city, the equality matches t's own column
        schemas = dict(_SCHEMAS, u=["u_k"])
        q2, derived = flatten(
            parse(sql.replace("u.city", "t.city")),
            columns_of=lambda t: schemas[t],
            fresh_view=lambda kind: f"v_{kind}",
            windowable=lambda t, c: True,
        )
        assert derived == [] and q2.windows[0].partition == "city"

    def test_table_twice_in_outer_from(self):
        q = parse(
            "select count(*) as c from orders a inner join orders b on o_id = o_id "
            "where price > (select avg(price) as ap from orders)"
        )
        q2, derived = _flatten_sampled(q)
        assert len(derived) == 1 and q2.windows == ()
