"""The names ``perfbench/`` relies on in ``repro.core.verdict``.

The benchmark's traced run wraps ``parse``, ``flatten``, ``plan_query``,
``rewrite_flat`` and ``rewrite_nested`` where the facade looks them up,
as module globals of ``repro.core.verdict``, and calls the rewriters on
hand-built plan entries, passing only ``columns_of`` and ``seed``.
Without these names and that call shape a traced run crashes or loses
its per-layer spans.
"""
import pytest

import repro.core.verdict as verdict_mod
from repro.core.catalog import UNIFORM
from repro.core.parser import parse
from repro.core.planner import PlanEntry
from repro.core.rewriter import rewrite_flat, rewrite_nested
from repro.workloads.tpch_lite import TPCH_QUERIES

_TPCH = {w.name: w.sql for w in TPCH_QUERIES}
_LAYERS = ("parse", "flatten", "plan_query", "rewrite_flat", "rewrite_nested")


def test_layer_names_exposed():
    for name in _LAYERS:
        assert callable(getattr(verdict_mod, name)), name


@pytest.mark.parametrize(
    "query, rewriter", [("tq-1", "rewrite_flat"), ("tq-nested", "rewrite_nested")]
)
def test_sql_goes_through_module_globals(monkeypatch, verdict, query, rewriter):
    calls = []
    for name in _LAYERS:
        def spy(*args, _orig=getattr(verdict_mod, name), _name=name, **kw):
            calls.append(_name)
            return _orig(*args, **kw)

        monkeypatch.setattr(verdict_mod, name, spy)
    res = verdict.sql(_TPCH[query], seed=5)
    assert res.approx, res.fallback_reason
    assert calls == ["parse", "flatten", "plan_query", rewriter]


def test_rewriters_take_the_benchmark_call_shape(spark, verdict):
    """``perfbench/verdictbench.py:errest_shapes`` calls both rewriters
    with ``columns_of`` and ``seed`` only; a join with an unsampled
    table then gets no broadcast hint."""
    uni = verdict.catalog.find("lineitem", UNIFORM)[0]
    cols = lambda t: spark.table(t).columns  # noqa: E731
    flat = parse(_TPCH["tq-14"])
    nested = parse(
        "select avg(rev) as a from (select p_brand, sum(l_extendedprice) as rev "
        "from lineitem inner join part on l_partkey = p_partkey group by p_brand) t"
    )
    assignment = (("lineitem", uni), ("part", None))
    for rw in (
        rewrite_flat(flat, PlanEntry(flat.aggs, assignment), columns_of=cols, seed=1),
        rewrite_nested(
            nested, PlanEntry(nested.source.aggs, assignment), columns_of=cols, seed=1
        ),
    ):
        assert "/*+" not in rw.sql
        assert spark.sql(rw.sql).collect()


#: a comparison subquery over another table keeps its derived view
_CROSS_TABLE = (
    "select sum(l_extendedprice) as rev from lineitem "
    "where l_extendedprice > (select avg(p_retailprice) from part)"
)


def test_flatten_returns_query_and_derived_views(monkeypatch, spark, verdict):
    """The traced run records ``len(out[1])`` of every ``flatten`` call:
    a 2-tuple whose second item has a length, called directly with
    ``columns_of`` and ``fresh_view`` as well as by the facade, for a
    window-path query (tq-18) and a cross-table one."""
    cols = lambda t: spark.table(t).columns  # noqa: E731
    texts = (_TPCH["tq-18"], _CROSS_TABLE)
    for text in texts:
        out = verdict_mod.flatten(
            parse(text), columns_of=cols, fresh_view=lambda kind: f"verdict_{kind}_0"
        )
        assert isinstance(out, tuple) and len(out) == 2
        assert len(out[1]) == 1
    seen = []

    def spy(*args, _orig=verdict_mod.flatten, **kw):
        out = _orig(*args, **kw)
        seen.append(out)
        return out

    monkeypatch.setattr(verdict_mod, "flatten", spy)
    for text in texts:
        assert verdict.sql(text, seed=5).approx
    assert [(len(out), len(out[1])) for out in seen] == [(2, 0), (2, 1)]
