"""Sample-table metadata catalog (Section 2.3).

The paper records sample metadata "in a specific schema inside the
database catalog". Here the backend is a single Spark session, so the
catalog is an in-process registry keyed by base-table name; each entry
describes one materialised sample temp view. All fields a planner or
rewriter needs — type, column set, sampling parameter tau, actual row
counts, the base table's scan partitions — are captured at creation time
so that query-time planning never re-scans data.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

UNIFORM = "uniform"
HASHED = "hashed"  # a.k.a. universe sample
STRATIFIED = "stratified"


@dataclass(frozen=True)
class SampleMeta:
    """Metadata for one sample table.

    ``ratio`` is the sampling parameter tau from Section 3.1 (for
    stratified samples, the budget parameter of Equation 1 — per-tuple
    probabilities vary and live in the ``verdict_prob`` column).
    ``rows``/``base_rows`` are exact counts taken at creation;
    ``base_partitions`` is the number of tasks that scan the base table
    (0 when unknown).
    """

    table: str
    view: str
    stype: str
    columns: tuple[str, ...]
    ratio: float
    rows: int
    base_rows: int
    base_partitions: int = 0

    @property
    def sampling_ratio(self) -> float:
        """Effective (realised) sampling ratio |T_s| / |T|."""
        return self.rows / self.base_rows if self.base_rows else 0.0

    @property
    def rows_per_scan_task(self) -> float:
        """Base-table rows one scan task reads (0 when unknown)."""
        return self.base_rows / self.base_partitions if self.base_partitions else 0.0


@dataclass
class SampleCatalog:
    """Registry of sample tables grouped by base table, plus the
    distinct counts probed on them."""

    _by_table: dict[str, list[SampleMeta]] = field(default_factory=dict)
    _distinct: dict[tuple[str, tuple[str, ...]], int] = field(default_factory=dict)

    def add(self, meta: SampleMeta) -> None:
        self._by_table.setdefault(meta.table, []).append(meta)

    def for_table(self, table: str) -> list[SampleMeta]:
        return list(self._by_table.get(table, []))

    def tables(self) -> list[str]:
        return sorted(self._by_table)

    def find(
        self,
        table: str,
        stype: str | None = None,
        columns: tuple[str, ...] | None = None,
    ) -> list[SampleMeta]:
        """Samples of ``table`` matching type and (exact) column set."""
        out = []
        for m in self.for_table(table):
            if stype is not None and m.stype != stype:
                continue
            if columns is not None and tuple(m.columns) != tuple(columns):
                continue
            out.append(m)
        return out

    def distinct_count(
        self, view: str, columns: tuple[str, ...], probe: Callable[[], int]
    ) -> int:
        """Distinct count of ``columns`` in sample ``view``: ``probe()``
        the first time, then the recorded value, so every context
        sharing this catalog probes each (view, columns) pair once."""
        key = (view, columns)
        if key not in self._distinct:
            self._distinct[key] = probe()
        return self._distinct[key]

    def clear(self, table: str | None = None) -> None:
        if table is None:
            self._by_table.clear()
            self._distinct.clear()
        else:
            views = {m.view for m in self._by_table.pop(table, [])}
            self._distinct = {
                k: d for k, d in self._distinct.items() if k[0] not in views
            }
