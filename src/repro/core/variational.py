"""Variational subsampling primitives (Sections 4.2 and 5.1–5.2).

A *variational table* is a sample table with one extra integer column,
``verdict_sid`` in 1..b, assigning each tuple to at most one subsample.
Subsamples are therefore disjoint and of (binomially) varying size; a
single ``GROUP BY (groups, sid)`` produces all b subsample aggregates in
one pass — the O(n) core of the paper.

Defaults follow Section 4.2 / Appendix B.3: subsample size
``n_s = sqrt(n)`` hence ``b = n / n_s = sqrt(n)`` subsamples, so the
"sid = 0, not in any subsample" class is empty and every sample tuple
carries a real sid. ``b`` is rounded to a perfect square because the
join-sid function h(i, j) of Theorem 4 needs an integer sqrt(b).

sid assignment is a SQL expression, never a driver-side loop:

- per-tuple samples (uniform/stratified): ``1 + floor(rand() * b)``
  (footnote 7 of the paper: sids must be re-drawn per query, never
  precomputed and reused, to avoid consistently-incorrect estimates);
- hashed samples used for count-distinct: a *second* hash of the value
  column, so subsamples partition the value domain and per-subsample
  distinct counts become independent mean-like estimates;
- joins of two variational tables: Theorem 4's
  ``h(i, j) = floor((i-1)/sqrt(b)) * sqrt(b) + floor((j-1)/sqrt(b)) + 1``.
"""
from __future__ import annotations

import math

#: salt for the independent second hash that derives count-distinct sids
SID_HASH_SALT = 982_451_653


def b_for(n: int) -> int:
    """Number of subsamples: the perfect square nearest sqrt(n).

    For n tuples the paper's default is b = n / n_s = sqrt(n); rounding
    to ``round(n ** 0.25) ** 2`` keeps sqrt(b) integral for h(i, j)
    while staying within a constant factor of sqrt(n). Floor of 4
    guards degenerate tiny samples (b >= 2 needed for a stddev).
    """
    if n <= 16:
        return 4
    return max(4, int(round(n**0.25)) ** 2)


def sid_rand_expr(b: int, seed: int | None = None) -> str:
    """Random sid in 1..b: ``1 + floor(rand() * b)`` (Query 3 shape)."""
    rand = f"rand({seed})" if seed is not None else "rand()"
    return f"CAST(1 + floor({rand} * {b}) AS INT)"


def sid_hash_expr(cols: tuple[str, ...], b: int, salt: int = SID_HASH_SALT) -> str:
    """Domain-partitioning sid: second hash of ``cols`` into 1..b.

    Used when the aggregate is count-distinct over a hashed sample: all
    tuples sharing a value land in the same subsample, so each subsample
    covers a disjoint 1/b slice of the (sampled) value domain.
    """
    args = ", ".join(cols)
    return f"CAST(1 + pmod(hash({args}, {salt}), {b}) AS INT)"


def join_sid_expr(sid_left: str, sid_right: str, b: int) -> str:
    """Theorem 4's h(i, j), reassigning sids after joining two
    variational tables, as a SQL expression over the two sid columns."""
    sq = int(math.isqrt(b))
    if sq * sq != b:
        raise ValueError(f"b={b} must be a perfect square for h(i, j)")
    return (
        f"CAST(floor(({sid_left} - 1) / {sq}) * {sq} "
        f"+ floor(({sid_right} - 1) / {sq}) + 1 AS INT)"
    )


def h(i: int, j: int, b: int) -> int:
    """Python reference of Theorem 4's h(i, j) (used by tests)."""
    sq = int(math.isqrt(b))
    if sq * sq != b:
        raise ValueError(f"b={b} must be a perfect square")
    return (i - 1) // sq * sq + (j - 1) // sq + 1

