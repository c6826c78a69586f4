"""Static SVG plots of result CSVs; no external rendering dependency.

Three kinds: ``trace`` (log10 error vs iteration), ``ratios`` (contraction
ratio vs iteration), ``phase`` (success rate vs sparsity, one polyline per
method).  Output is a plain SVG with labeled axes and, where several
series are drawn, a legend.
"""

from __future__ import annotations

import math

from .experiments import read_phase_csv, read_ratios_csv, read_trace_csv

PLOT_KINDS = ("trace", "ratios", "phase")

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 24, 24, 52
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_TICKS = 5  # ticks per axis


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def _render_svg(x_label: str, y_label: str, series: list[tuple[str, list, list]]) -> str:
    """SVG of ``(label, xs, ys)`` polylines; a legend when there are several."""
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)]
    if pts:
        x_lo, x_hi = min(p[0] for p in pts), max(p[0] for p in pts)
        y_lo, y_hi = min(p[1] for p in pts), max(p[1] for p in pts)
    else:
        x_lo = y_lo = 0.0
        x_hi = y_hi = 1.0
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    px_l, px_r = _MARGIN_L, _WIDTH - _MARGIN_R
    px_b, px_t = _HEIGHT - _MARGIN_B, _MARGIN_T

    def sx(x):
        return px_l + (x - x_lo) / (x_hi - x_lo) * (px_r - px_l)

    def sy(y):
        return px_b - (y - y_lo) / (y_hi - y_lo) * (px_b - px_t)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{px_l}" y1="{px_b}" x2="{px_r}" y2="{px_b}" stroke="black"/>',
        f'<line x1="{px_l}" y1="{px_b}" x2="{px_l}" y2="{px_t}" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{px_b}" x2="{x:.2f}" y2="{px_b + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{px_b + 18}" font-size="11" '
            f'text-anchor="middle">{t:.4g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{px_l - 5}" y1="{y:.2f}" x2="{px_l}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px_l - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{t:.4g}</text>'
        )
    parts.append(
        f'<text x="{(px_l + px_r) / 2:.2f}" y="{_HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(px_t + px_b) / 2:.2f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {(px_t + px_b) / 2:.2f})">'
        f"{y_label}</text>"
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
    if len(series) > 1:
        for i, (label, _, _) in enumerate(series):
            color = _COLORS[i % len(_COLORS)]
            y = px_t + 14 + 16 * i
            parts.append(
                f'<line x1="{px_r - 120}" y1="{y}" x2="{px_r - 96}" y2="{y}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{px_r - 90}" y="{y + 4}" font-size="11" '
                f'class="legend-label">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_plot(csv_path, kind: str, out_path) -> None:
    """Render a result CSV to a static SVG file."""
    if kind not in PLOT_KINDS:
        raise ValueError(f"kind must be one of {PLOT_KINDS}, got {kind!r}")
    if kind == "trace":
        rows = read_trace_csv(csv_path)
        have_ref = any(row["ref_error_l1"] is not None for row in rows)
        xs, ys = [], []
        for row in rows:
            val = row["ref_error_l1"] if have_ref else row["step_l1"]
            if val is not None and val > 0:
                xs.append(row["n"])
                ys.append(math.log10(val))
        series = [("ref_error_l1" if have_ref else "step_l1", xs, ys)]
        svg = _render_svg("iteration n", "log10 error", series)
    elif kind == "ratios":
        rows = read_ratios_csv(csv_path)
        # an empty file draws one empty series and no legend
        series = [
            (col, [r["n"] for r in rows], [r[col] for r in rows])
            for col in (("linear_ratio", "superlinear_ratio") if rows else ("linear_ratio",))
        ]
        svg = _render_svg("iteration n", "ratio", series)
    else:
        rows = read_phase_csv(csv_path)
        series = []
        for tag in sorted({row["method"] for row in rows}):
            pts = sorted(
                (row["k"], row["success_rate"]) for row in rows if row["method"] == tag
            )
            series.append((tag, [p[0] for p in pts], [p[1] for p in pts]))
        svg = _render_svg("sparsity k", "success rate", series)
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(svg)
        fh.write("\n")
