"""The names ``perfbench/`` relies on in ``repro.core.verdict``.

The benchmark's traced run wraps ``parse``, ``flatten``, ``plan_query``,
``rewrite_flat`` and ``rewrite_nested`` where the facade looks them up,
as module globals of ``repro.core.verdict``, and calls the rewriters on
hand-built plan entries. Without these names a traced run crashes or
loses its per-layer spans.
"""
import pytest

import repro.core.verdict as verdict_mod
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
