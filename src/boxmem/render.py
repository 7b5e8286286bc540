"""Self-contained SVG line charts for efficiency-curve CSV files.

Output bytes are a pure function of the input: coordinates are written
with fixed precision and no timestamps or ids are embedded.
"""

import numpy as np

from .spinwave import (CURVE_COLUMNS, TOTAL_COLUMN, EfficiencyCurve,
                       curve_column)

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 16, 48

# one stroke colour per curve column, in CURVE_COLUMNS order
COLUMN_COLORS = dict(zip(CURVE_COLUMNS,
                         ("#ff7f0e", "#2ca02c", "#d62728", "#1f77b4")))


def _axis_mapping(t_ms, values, log_y: bool):
    """The (affine) data->pixel mapping used by ``render_svg``.

    Returns (x0, sx, y0, sy) with  px = x0 + sx * t_ms  and
    py = y0 + sy * v  where v is the value (or log10 of it for log_y).
    """
    t_lo, t_hi = float(np.min(t_ms)), float(np.max(t_ms))
    if t_hi == t_lo:
        t_hi = t_lo + 1.0
    v = np.log10(np.maximum(values, 1e-12)) if log_y else values
    v_lo, v_hi = float(np.min(v)), float(np.max(v))
    if v_hi == v_lo:
        v_hi = v_lo + 1.0
    sx = (WIDTH - MARGIN_L - MARGIN_R) / (t_hi - t_lo)
    sy = -(HEIGHT - MARGIN_T - MARGIN_B) / (v_hi - v_lo)
    x0 = MARGIN_L - sx * t_lo
    y0 = HEIGHT - MARGIN_B - sy * v_lo
    return x0, sx, y0, sy


def render_svg(curve: EfficiencyCurve, columns=(TOTAL_COLUMN,),
               log_y: bool = False) -> str:
    """Render the requested factor columns as one polyline each."""
    if len(curve.times) == 0:
        raise ValueError("curve has no points")
    t_ms = np.asarray(curve.times) * 1e3
    series = {name: curve_column(curve, name) for name in columns}
    stacked = np.concatenate(list(series.values()))
    if not (np.all(np.isfinite(t_ms)) and np.all(np.isfinite(stacked))):
        raise ValueError("times and values must be finite")
    x0, sx, y0, sy = _axis_mapping(t_ms, stacked, log_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" '
        f'x2="{WIDTH - MARGIN_R}" y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" y="{HEIGHT - 12}" '
        'text-anchor="middle" font-size="14">t (ms)</text>',
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) // 2}" '
        'text-anchor="middle" font-size="14" transform="rotate(-90 16 '
        f'{(MARGIN_T + HEIGHT - MARGIN_B) // 2})">'
        + ("normalized efficiency (log)" if log_y else "normalized efficiency")
        + "</text>",
    ]
    for name in columns:
        v = series[name]
        vv = np.log10(np.maximum(v, 1e-12)) if log_y else v
        pts = " ".join(f"{x0 + sx * t:.3f},{y0 + sy * u:.3f}"
                       for t, u in zip(t_ms, vv))
        parts.append(f'<polyline fill="none" stroke="{COLUMN_COLORS[name]}" '
                     f'stroke-width="1.5" data-column="{name}" '
                     f'points="{pts}"/>')
    # sparse tick labels
    for frac in (0.0, 0.5, 1.0):
        t = float(np.min(t_ms) + frac * (np.max(t_ms) - np.min(t_ms)))
        px = x0 + sx * t
        parts.append(f'<text x="{px:.3f}" y="{HEIGHT - MARGIN_B + 18}" '
                     f'text-anchor="middle" font-size="12">{t:.3g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(curve: EfficiencyCurve, path: str, columns=(TOTAL_COLUMN,),
              log_y: bool = False):
    svg = render_svg(curve, columns=columns, log_y=log_y)
    with open(path, "w", newline="\n") as fh:
        fh.write(svg)
