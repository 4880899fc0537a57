"""Deterministic SVG charts of the computed homotopy groups and tower pages.

Every chart is a plain dot grid: the horizontal axis is the total degree,
the vertical axis is either a torsion exponent (answer charts) or the
tower filtration (page charts).  Multiplication lines follow fixed styles:
vertical solid for p, diagonal solid for v, dashed for v-squared, and a
short unit-slope stroke for eta.  Output is assembled from sorted data so
the bytes are identical across runs.
"""

from __future__ import annotations

from typing import NamedTuple

from . import closed_forms as cf
from .padic import PrimeContext, nu

CHART_KINDS = ("torsion", "k1-page", "v0-page", "v1-page", "eta-page", "ko-answer")

# fixed line styles, one per multiplication
_STYLES = {
    "p": 'stroke="#333" stroke-width="1"',
    "v": 'stroke="#1f77b4" stroke-width="1"',
    "v2": 'stroke="#1f77b4" stroke-width="1" stroke-dasharray="4 3"',
    "eta": 'stroke="#d62728" stroke-width="1"',
}

_UX = 14  # horizontal pixels per degree
_UY = 14  # vertical pixels per filtration step
_MARGIN = 30


class ChartSpec(NamedTuple("ChartSpec", [("kind", str), ("prime", int), ("lo", int),
                                          ("hi", int), ("paper_style", bool)])):
    __slots__ = ()

    def __new__(cls, kind: str, prime: int, lo: int, hi: int, paper_style: bool = False):
        if kind not in CHART_KINDS:
            raise ValueError(f"unknown chart kind {kind!r}")
        if lo > hi or lo < 0:
            raise ValueError(f"empty degree range [{lo}, {hi}]")
        if kind in ("eta-page", "ko-answer") and prime != 2:
            raise ValueError(f"{kind} charts exist only at the prime 2")
        return super().__new__(cls, kind, prime, lo, hi, paper_style)


def _dots_from_groups(groups) -> tuple[list, list]:
    """Answer charts: a dot per cyclic summand layer, a vertical p-line per
    summand; free summands sit at height 0 as squares."""
    dots, lines = [], []
    for d, (rank, torsion), p in groups:
        col = 0
        for _ in range(rank):
            dots.append((d, col, "free"))
            col += 1
        for order in sorted(torsion):
            e = nu(p, order)
            for h in range(e):
                dots.append((d, col + h, "tor"))
            if e > 1:
                lines.append((d, col, d, col + e - 1, "p"))
            col += e
    return dots, lines


def _answer_chart(spec: ChartSpec):
    ctx = PrimeContext(spec.prime)
    if spec.kind == "torsion":
        mod = cf.thh_ell(ctx, spec.hi)
    else:
        mod = cf.thh_ko(spec.hi)
    groups = [(d, mod.group_at(d), spec.prime) for d in range(spec.lo, spec.hi + 1)]
    return _dots_from_groups(groups)


def _k1_chart(spec: ChartSpec):
    from .verify import enumerate_k1_basis

    ctx = PrimeContext(spec.prime)
    dots, lines = [], []
    seen = {}
    for d in range(spec.lo, spec.hi + 1):
        for fam, level, m, vpow in enumerate_k1_basis(ctx, d):
            dots.append((d, vpow, "tor"))
            prev = seen.get((fam, level, m, vpow - 1))
            if prev is not None:
                lines.append((prev, vpow - 1, d, vpow, "v"))
            seen[(fam, level, m, vpow)] = d
    return dots, lines


def _page_chart(spec: ChartSpec):
    from . import ss

    if spec.kind == "v0-page":
        setup = ss.v0_tower_setup(PrimeContext(spec.prime), spec.hi)
        link, style = (0, 1), "p"
    elif spec.kind == "v1-page":
        setup = ss.v1_tower_setup(PrimeContext(spec.prime), spec.hi)
        link, style = (2 * spec.prime - 2, 1), "v"
    else:
        setup = ss.eta_tower_setup(spec.hi)
        link, style = (1, 1), "eta"
    dots, lines = [], []
    slots = sorted(setup.ss.cells)
    occupied = {slot: len(cells) for slot, cells in setup.ss.cells.items() if cells}
    for (d, s) in slots:
        n = occupied.get((d, s), 0)
        if not (spec.lo <= d <= spec.hi) or n == 0:
            continue
        for _ in range(n):
            dots.append((d, s, "tor"))
        nxt = (d + link[0], s + link[1])
        if occupied.get(nxt) and spec.lo <= nxt[0] <= spec.hi:
            lines.append((d, s, nxt[0], nxt[1], style))
        if spec.kind == "eta-page":
            # the v-squared connection skips a filtration step
            far = (d + 4, s + 2)
            if occupied.get(far) and spec.lo <= far[0] <= spec.hi:
                lines.append((d, s, far[0], far[1], "v2"))
    return dots, lines


def chart_data(spec: ChartSpec):
    if spec.kind in ("torsion", "ko-answer"):
        return _answer_chart(spec)
    if spec.kind == "k1-page":
        return _k1_chart(spec)
    return _page_chart(spec)


def render_svg(spec: ChartSpec) -> str:
    dots, lines = chart_data(spec)
    max_y = max([y for _, y, _ in dots] + [y2 for *_, y2, _ in lines] + [4])
    width = _MARGIN * 2 + (spec.hi - spec.lo) * _UX
    height = _MARGIN * 2 + max_y * _UY

    def X(d):
        return _MARGIN + (d - spec.lo) * _UX

    def Y(y):
        return height - _MARGIN - y * _UY

    shift = 1 if spec.paper_style else 0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<line x1="{_MARGIN}" y1="{Y(0) + 8}" x2="{width - _MARGIN}" '
        f'y2="{Y(0) + 8}" stroke="#999" stroke-width="1"/>',
    ]
    for d in range(spec.lo, spec.hi + 1):
        if d % 2 == 0:
            parts.append(f'<text x="{X(d)}" y="{height - 8}" font-size="8" '
                         f'text-anchor="middle" fill="#666">{d}</text>')
    for x1, y1, x2, y2, style in sorted(lines):
        parts.append(f'<line x1="{X(x1)}" y1="{Y(y1 + shift)}" x2="{X(x2)}" '
                     f'y2="{Y(y2 + shift)}" {_STYLES[style]}/>')
    stack = {}
    for d, y, kind in sorted(dots):
        k = stack.get((d, y), 0)
        stack[(d, y)] = k + 1
        cx, cy = X(d) + 3 * k, Y(y)
        if kind == "free":
            parts.append(f'<rect x="{cx - 3}" y="{cy - 3}" width="6" height="6" '
                         f'fill="none" stroke="#333"/>')
        else:
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="#333"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
