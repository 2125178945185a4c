"""ASCII and SVG drawings of a single path.

Both renderers draw u, d and h as x-advancing segments and v as a vertical
drop in place, matching the lattice geometry.  The SVG output uses only
``line`` and ``circle`` elements (one line per step, one circle per
visited lattice point) so segment kinds are easy to count and to check.
A word that is no path raises ``PathError``.  The text grid is quadratic in
the nesting by nature: u^k d^k draws k rows of 2k cells, about 304 MB of
peak memory at k = 4,000.
"""

from __future__ import annotations

from .paths import RUN, _heights, first_return_blocks

# SVG scale: pixels per lattice unit, and the blank border around the path.
_UNIT = 20
_MARGIN = 10


def render_ascii(word: str) -> str:
    """Character drawing: u -> /, d -> \\, h -> _, v -> |.

    Every step occupies its own column; rows run from the highest band of
    the path down to the axis.
    """
    first_return_blocks(word)
    hs = _heights(word)
    top = max(hs)
    rows = max(top, 1)
    grid = [[" "] * max(len(word), 1) for _ in range(rows)]
    for col, ch in enumerate(word):
        y0, y1 = hs[col], hs[col + 1]
        if ch == "u":
            grid[top - y1][col] = "/"
        elif ch == "d":
            grid[top - y0][col] = "\\"
        elif ch == "h":
            grid[max(top - y0 - 1, 0) if top else 0][col] = "_"
        else:  # v
            grid[top - y0][col] = "|"
    return "\n".join("".join(row).rstrip() for row in grid)


def render_svg(word: str) -> str:
    """SVG 1.1 drawing with one line per step and one circle per vertex."""
    first_return_blocks(word)
    hs = _heights(word)
    top = max(hs)
    xs = [0]
    for ch in word:
        xs.append(xs[-1] + RUN[ch])
    width = xs[-1] * _UNIT + 2 * _MARGIN
    height = max(top, 1) * _UNIT + 2 * _MARGIN

    def px(x: int) -> int:
        return _MARGIN + x * _UNIT

    def py(y: int) -> int:
        return _MARGIN + (max(top, 1) - y) * _UNIT

    lines = []
    for i, ch in enumerate(word):
        lines.append(
            f'<line x1="{px(xs[i])}" y1="{py(hs[i])}" '
            f'x2="{px(xs[i + 1])}" y2="{py(hs[i + 1])}" '
            f'stroke="black" stroke-width="2"/>'
        )
    circles = []
    for i in range(len(word) + 1):
        circles.append(f'<circle cx="{px(xs[i])}" cy="{py(hs[i])}" r="3" fill="black"/>')
    body = "\n".join(lines + circles)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n{body}\n</svg>'
    )
