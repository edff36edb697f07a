"""Write-only plot data: CSV point dumps, SVG sketches of configurations
with their hulls and convex paths, and the refinement poset of regular
subdivisions as a CSV edge list or a DOT digraph.  The poset's edges are
the covers that `secondary.refinement_poset` builds level by level."""

from __future__ import annotations

from .geometry import Config, Dir, convex_hull, infinity_order
from .paths import enumerate_zeta_convex_paths
from .secondary import refinement_poset, secondary_fan


def config_csv(A: Config) -> str:
    lines = ["index,x,y"]
    for i, p in enumerate(A):
        lines.append(f"{i},{p.x},{p.y}")
    return "\n".join(lines) + "\n"


def _bounds(A: Config):
    xs = [float(p.x) for p in A]
    ys = [float(p.y) for p in A]
    pad = 0.15 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    return min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad


def config_svg(A: Config, zeta: Dir | None = None, width: int = 480) -> str:
    x0, y0, x1, y1 = _bounds(A)
    scale = width / (x1 - x0)
    height = int((y1 - y0) * scale)

    def tx(p):
        return (float(p.x) - x0) * scale, height - (float(p.y) - y0) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    hull = convex_hull(A)
    pts = " ".join("%.2f,%.2f" % tx(A[i]) for i in hull)
    parts.append(
        f'<polygon points="{pts}" fill="#eef" stroke="#88a" stroke-width="1"/>'
    )
    # convex paths exist only for a direction that separates the points
    vals, generic = infinity_order(A, zeta) if zeta is not None else ([], False)
    if generic:
        for a, i in enumerate(vals):
            for j in vals[a + 1:]:
                for path in enumerate_zeta_convex_paths(A, i, j, zeta):
                    chain = " ".join(
                        "%.2f,%.2f" % tx(A[v]) for v in path.vertices
                    )
                    parts.append(
                        f'<polyline points="{chain}" fill="none" '
                        'stroke="#c66" stroke-width="0.7" opacity="0.6"/>'
                    )
    for i, p in enumerate(A):
        cx, cy = tx(p)
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="#333"/>')
        parts.append(
            f'<text x="{cx + 5:.2f}" y="{cy - 5:.2f}" font-size="11">{i}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _poset_covers(A: Config):
    """Regular subdivisions of A and the covering pairs (fine, coarse) of
    their refinement poset."""
    regs, codims = zip(*((s, rep.codim) for s, rep, w in secondary_fan(A) if w is not None))
    return regs, refinement_poset(regs, codims)["covers"]


def _label(sub) -> str:
    """The cell polygons, then the omitted points after a `-`: `012-3`."""
    label = "|".join("".join(str(v) for v in c.polygon) for c in sub.cells)
    omitted = "".join(str(w) for w in sorted(sub.omitted))
    return f"{label}-{omitted}" if omitted else label


def poset_csv(A: Config) -> str:
    """CSV edge list (covering relations) of the refinement poset of
    regular subdivisions, with one node row per subdivision."""
    subs, covers = _poset_covers(A)
    lines = ["kind,source,target,label"]
    lines += [f"node,{i},,{_label(s)}" for i, s in enumerate(subs)]
    lines += [f"edge,{i},{j}," for i, j in covers]
    return "\n".join(lines) + "\n"


def poset_dot(A: Config) -> str:
    """DOT digraph of the refinement poset of regular subdivisions
    (covering relations only)."""
    subs, covers = _poset_covers(A)
    lines = ["digraph refinement {", "  rankdir=BT;"]
    lines += [f'  n{i} [label="{_label(s)}"];' for i, s in enumerate(subs)]
    lines += [f"  n{i} -> n{j};" for i, j in covers]
    lines.append("}")
    return "\n".join(lines) + "\n"
