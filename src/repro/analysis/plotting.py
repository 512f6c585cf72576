"""Terminal (ASCII) rendering of the paper's figure types.

The experiment harness is console-first; these renderers let examples
and the CLI *draw* the figures — CDF/CCDF curves, sparklines and time
series — without any plotting dependency.  Output is deterministic, so
tests can assert on it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError

_BARS = " ▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 60) -> str:
    """One-line sparkline of a series (resampled to ``width``)."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise DatasetError("sparkline of empty data")
    if array.size > width:
        # Block-max resampling keeps peaks visible.
        edges = np.linspace(0, array.size, width + 1).astype(int)
        array = np.array(
            [array[a:b].max() if b > a else array[a] for a, b in zip(edges, edges[1:])]
        )
    lo, hi = float(array.min()), float(array.max())
    span = hi - lo if hi > lo else 1.0
    indices = ((array - lo) / span * (len(_BARS) - 1)).round().astype(int)
    return "".join(_BARS[i] for i in indices)


def ascii_cdf(
    series: dict[str, tuple], width: int = 64, height: int = 16, label: str = "value"
) -> str:
    """Render one or more (x, P) curves as an ASCII plot.

    ``series`` maps a curve name to ``(xs, ps)`` arrays (as produced by
    :func:`repro.analysis.stats.ecdf`/``ccdf``).  Each curve gets a
    distinct glyph; axes are annotated with the data range.
    """
    if not series:
        raise DatasetError("no series to plot")
    glyphs = "*o+x#@%&"
    x_min = min(float(np.min(xs)) for xs, _ in series.values())
    x_max = max(float(np.max(xs)) for xs, _ in series.values())
    if x_max <= x_min:
        x_max = x_min + 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (name, (xs, ps)) in enumerate(series.items()):
        glyph = glyphs[index % len(glyphs)]
        xs = np.asarray(xs, dtype=float)
        ps = np.asarray(ps, dtype=float)
        for col in range(width):
            x = x_min + (x_max - x_min) * col / (width - 1)
            # Probability at x: step interpolation.
            position = np.searchsorted(xs, x, side="right")
            if position == 0:
                continue
            p = float(ps[min(position - 1, len(ps) - 1)])
            row = height - 1 - int(round(p * (height - 1)))
            grid[row][col] = glyph
    lines = []
    for row_index, row in enumerate(grid):
        p = 1.0 - row_index / (height - 1)
        prefix = f"{p:4.2f} |" if row_index % 4 == 0 else "     |"
        lines.append(prefix + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      {x_min:.3g}{' ' * max(1, width - 12)}{x_max:.3g}  ({label})")
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {name}" for i, name in enumerate(series)
    )
    lines.append("      " + legend)
    return "\n".join(lines)


def timeseries_plot(
    times, values, width: int = 64, height: int = 12, label: str = "t"
) -> str:
    """ASCII scatter of a time series (column-binned means)."""
    ts = np.asarray(list(times), dtype=float)
    vs = np.asarray(list(values), dtype=float)
    if ts.size == 0 or ts.size != vs.size:
        raise DatasetError("times and values must be non-empty and aligned")
    t_min, t_max = float(ts.min()), float(ts.max())
    v_min, v_max = float(vs.min()), float(vs.max())
    t_span = t_max - t_min if t_max > t_min else 1.0
    v_span = v_max - v_min if v_max > v_min else 1.0
    grid = [[" "] * width for _ in range(height)]
    columns: dict[int, list[float]] = {}
    for t, v in zip(ts, vs):
        col = min(width - 1, int((t - t_min) / t_span * (width - 1)))
        columns.setdefault(col, []).append(v)
    for col, bucket in columns.items():
        mean = float(np.mean(bucket))
        row = height - 1 - int(round((mean - v_min) / v_span * (height - 1)))
        grid[row][col] = "*"
    lines = [f"{v_max:8.3g} +" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append("         |" + "".join(row))
    lines.append(f"{v_min:8.3g} +" + "".join(grid[-1]))
    lines.append("          " + "-" * width)
    lines.append(
        f"          {t_min:.3g}{' ' * max(1, width - 12)}{t_max:.3g} ({label})"
    )
    return "\n".join(lines)
