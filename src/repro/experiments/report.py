"""Result-table formatting for ``repro.experiments.run``.

Every experiment returns a list of dict rows; ``render`` turns them
into a fixed-width table that is printed and appended to
``results/<name>.txt`` so the numbers survive pytest's output capture
and can be diffed against the paper in EXPERIMENTS.md.
"""
from __future__ import annotations

import os
from typing import Iterable

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")


def render(title: str, rows: list[dict], columns: Iterable[str] | None = None) -> str:
    if not rows:
        return f"== {title} ==\n(no rows)\n"
    cols = list(columns) if columns else list(rows[0].keys())

    def fmt(v) -> str:
        if isinstance(v, float):
            if v == 0:
                return "0"
            if abs(v) >= 1000 or abs(v) < 0.001:
                return f"{v:.3e}"
            return f"{v:.4g}"
        return str(v)

    cells = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = [
        f"== {title} ==",
        "  ".join(c.ljust(w) for c, w in zip(cols, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def emit(name: str, title: str, rows: list[dict], columns=None) -> str:
    """Print the table and persist it under results/<name>.txt."""
    text = render(title, rows, columns)
    print("\n" + text)
    out_dir = os.path.abspath(RESULTS_DIR)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.txt"), "w") as f:
        f.write(text)
    return text
