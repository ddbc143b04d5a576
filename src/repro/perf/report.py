"""Plain-text table rendering for benches and EXPERIMENTS.md."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["format_table", "format_stages", "format_comparisons"]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_stages(stages, title: str = "") -> str:
    """Render a Figure-5-style breakdown."""
    rows = [
        (
            s.name,
            f"{s.modeled_mups:.0f}",
            f"{s.paper_mups:.0f}",
            f"{s.ratio:.2f}",
            s.mechanism,
        )
        for s in stages
    ]
    return format_table(
        ["stage", "model MU/s", "paper MU/s", "ratio", "mechanism"], rows, title
    )


def format_comparisons(rows, title: str = "") -> str:
    """Render Section VII-D comparison rows."""
    table = [
        (
            c.label,
            f"{c.prior_normalized:.0f}",
            f"{c.ours_modeled:.0f}",
            f"{c.modeled_speedup:.2f}X",
            f"{c.paper_speedup:.2f}X",
        )
        for c in rows
    ]
    return format_table(
        ["comparison", "prior (norm.)", "ours (model)", "speedup", "paper"],
        table,
        title,
    )
