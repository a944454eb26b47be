"""Plain-text reporting for experiment results.

The harness prints the same rows/series the paper's figures plot, so a run
of ``examples/fig4_reproduction.py`` can be eyeballed directly against
Figure 4.
"""

from __future__ import annotations

import io

from repro.bench.experiments import ExperimentResult


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    out = io.StringIO()

    def emit(cells: list[str]) -> None:
        out.write("  ".join(cell.rjust(widths[i])
                            for i, cell in enumerate(cells)).rstrip() + "\n")

    emit(headers)
    emit(["-" * w for w in widths])
    for row in rows:
        emit(row)
    return out.getvalue()


def format_series_table(result: ExperimentResult,
                        precision: int = 1) -> str:
    """One row per x value, one column per series (the figure as a table)."""
    xs: list[float] = []
    for series in result.series:
        for point in series.points:
            if point.x not in xs:
                xs.append(point.x)
    xs.sort()
    headers = [result.x_label] + [s.label for s in result.series]
    rows = []
    for x in xs:
        row = [_fmt_x(x)]
        for series in result.series:
            point = next((p for p in series.points if p.x == x), None)
            row.append("-" if point is None
                       else f"{point.mean:.{precision}f}")
        rows.append(row)
    title = f"== {result.name}: {result.y_label} vs {result.x_label} ==\n"
    return title + format_table(headers, rows)


def to_csv(result: ExperimentResult) -> str:
    """CSV with min/mean/max per series point."""
    out = io.StringIO()
    out.write("series,x,mean,min,max,n\n")
    for series in result.series:
        for point in series.points:
            out.write(f"{series.label},{point.x},{point.mean:.6f},"
                      f"{point.minimum:.6f},{point.maximum:.6f},{point.n}\n")
    return out.getvalue()


def _fmt_x(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:g}"
