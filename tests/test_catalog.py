"""Sample catalog registry behaviour."""
from repro.core.catalog import HASHED, STRATIFIED, UNIFORM, SampleCatalog, SampleMeta


def _meta(table="t", view="t_s", stype=UNIFORM, columns=(), ratio=0.01,
          rows=100, base_rows=10000):
    return SampleMeta(table, view, stype, columns, ratio, rows, base_rows)


class TestSampleMeta:
    def test_sampling_ratio(self):
        assert _meta(rows=100, base_rows=10000).sampling_ratio == 0.01

    def test_zero_base(self):
        assert _meta(base_rows=0).sampling_ratio == 0.0

    def test_frozen(self):
        import dataclasses
        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            _meta().rows = 5


class TestSampleCatalog:
    def test_add_and_for_table(self):
        c = SampleCatalog()
        m = _meta()
        c.add(m)
        assert c.for_table("t") == [m]
        assert c.for_table("other") == []

    def test_find_by_type(self):
        c = SampleCatalog()
        u = _meta(view="u", stype=UNIFORM)
        h = _meta(view="h", stype=HASHED, columns=("k",))
        c.add(u)
        c.add(h)
        assert c.find("t", stype=HASHED) == [h]
        assert c.find("t", stype=UNIFORM) == [u]

    def test_find_by_columns(self):
        c = SampleCatalog()
        h1 = _meta(view="h1", stype=HASHED, columns=("a",))
        h2 = _meta(view="h2", stype=HASHED, columns=("b",))
        c.add(h1)
        c.add(h2)
        assert c.find("t", columns=("b",)) == [h2]

    def test_tables_sorted(self):
        c = SampleCatalog()
        c.add(_meta(table="zz"))
        c.add(_meta(table="aa"))
        assert c.tables() == ["aa", "zz"]

    def test_clear_one(self):
        c = SampleCatalog()
        c.add(_meta(table="a"))
        c.add(_meta(table="b"))
        c.clear("a")
        assert c.tables() == ["b"]

    def test_clear_all(self):
        c = SampleCatalog()
        c.add(_meta(table="a"))
        c.clear()
        assert c.tables() == []

    def test_stratified_columns_kept(self):
        m = _meta(stype=STRATIFIED, columns=("city", "age"))
        assert m.columns == ("city", "age")


class TestDistinctCounts:
    def test_probed_once(self):
        c = SampleCatalog()
        calls = []

        def probe():
            calls.append(1)
            return 42

        assert c.distinct_count("t_s", ("a",), probe) == 42
        assert c.distinct_count("t_s", ("a",), probe) == 42
        assert len(calls) == 1
        # another column set is another probe
        assert c.distinct_count("t_s", ("a", "b"), lambda: 7) == 7

    def test_clear_forgets(self):
        c = SampleCatalog()
        c.add(_meta(table="a", view="a_s"))
        c.add(_meta(table="b", view="b_s"))
        c.distinct_count("a_s", ("x",), lambda: 1)
        c.distinct_count("b_s", ("y",), lambda: 2)
        c.clear("a")
        assert c.distinct_count("a_s", ("x",), lambda: 10) == 10
        assert c.distinct_count("b_s", ("y",), lambda: 20) == 2
        c.clear()
        assert c.distinct_count("b_s", ("y",), lambda: 20) == 20
