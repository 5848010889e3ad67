"""Planar decomposition of triangle meshes into layer contours.

Slicing planes follow the mid-plane rule z = z_min + (k + 0.5) * layer_height,
which keeps planes off flat horizontal faces of well-behaved models.  Each
triangle crossing a plane contributes one segment; segments are chained into
contours by greedy endpoint matching with a snap tolerance.

The layout follows Minetto et al., "An optimal algorithm for 3D triangle
mesh slicing" (Computer-Aided Design 92, 2017).  A plane sweep finds, by
bisection over the sorted plane heights, the planes each triangle spans, and
visits a triangle only at those planes, in facet order.  Chaining buckets
segment endpoints in a grid of cells at least 2 * snap_eps wide, so the next
segment is looked up in the 3x3 cells around the chain's tail rather than
among all unused segments.  The tie rule is exact: a chain starts at the
lowest unused segment, and the next one is the lowest-indexed unused segment
with an endpoint within snap_eps of the tail, its p end tested before its q
end.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .mesh_io import TriangleMesh, require_finite

log = logging.getLogger(__name__)

Point2 = tuple[float, float]

# The most layers one slice may have; a job needing more is refused before
# its plane heights are built.
MAX_LAYERS = 10**6


@dataclass(frozen=True)
class SliceParams:
    layer_height: float
    snap_eps: float = 1e-7

    def __post_init__(self) -> None:
        if not (self.layer_height > 0.0):
            raise ValueError("layer_height must be > 0")
        if not (self.snap_eps > 0.0):
            raise ValueError("snap_eps must be > 0")


@dataclass(frozen=True)
class Contour:
    vertices: tuple[Point2, ...]
    closed: bool


@dataclass(frozen=True)
class LayerPlan:
    index: int
    z: float
    contours: tuple[Contour, ...] = field(default_factory=tuple)


def _dist(a: Point2, b: Point2) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _triangle_plane_segment(
    zs: tuple[float, float, float],
    xy: tuple[Point2, Point2, Point2],
    plane_z: float,
    nudge: float,
) -> tuple[Point2, Point2] | None:
    """Segment where a triangle crosses z = plane_z, or None.

    Vertices exactly on the plane are nudged by +nudge in z so every
    crossing triangle yields exactly one segment, deterministically.
    """
    d = [z - plane_z for z in zs]
    for i in range(3):
        if d[i] == 0.0:
            d[i] = nudge
    if (d[0] > 0) == (d[1] > 0) == (d[2] > 0):
        return None
    points = []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        if (d[a] > 0) != (d[b] > 0):
            t = d[a] / (d[a] - d[b])
            points.append(
                (
                    xy[a][0] + t * (xy[b][0] - xy[a][0]),
                    xy[a][1] + t * (xy[b][1] - xy[a][1]),
                )
            )
    # mixed signs across three vertices always cut exactly two edges
    return (points[0], points[1])


def _dedupe(points: list[Point2], eps: float) -> list[Point2]:
    out = [points[0]]
    for p in points[1:]:
        if _dist(p, out[-1]) > eps:
            out.append(p)
    return out


def _collinear(a: Point2, b: Point2, c: Point2, eps: float) -> bool:
    # b lies on segment a-c within eps perpendicular distance
    ax, ay = c[0] - a[0], c[1] - a[1]
    bx, by = b[0] - a[0], b[1] - a[1]
    base = math.hypot(ax, ay)
    if base <= eps:
        return True
    return abs(ax * by - ay * bx) / base <= eps


def _simplify(points: list[Point2], closed: bool, eps: float) -> list[Point2]:
    """Drop vertices collinear with their neighbors (wall triangulation
    introduces mid-edge crossing points that carry no shape information)."""
    n = len(points)
    if n < 3:
        return points
    if closed:
        kept = [
            points[i]
            for i in range(n)
            if not _collinear(points[i - 1], points[i], points[(i + 1) % n], eps)
        ]
        return kept
    kept = [points[0]]
    for i in range(1, n - 1):
        if not _collinear(points[i - 1], points[i], points[i + 1], eps):
            kept.append(points[i])
    kept.append(points[-1])
    return kept


# A cell (ix, iy) is packed into the one int ix * _STRIDE + iy; _cell_keys
# keeps |iy| below _STRIDE / 2, so the packing is one-to-one.
_STRIDE = 1 << 43
_NEIGHBOURS = tuple(dx * _STRIDE + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def _cell_keys(segments: list[tuple[Point2, Point2]], eps: float) -> list[int]:
    """Packed grid cell of every endpoint: p then q of each segment.

    Cells are at least 2 * eps wide, so two endpoints within eps of each other
    fall in the same or adjacent cells even after the cell index is rounded.
    They are also at least 2**-40 of the largest coordinate wide, which keeps
    every index within 2**41 for any eps, down to the smallest subnormal; an
    eps whose double overflows makes one cell.  A layer with a non-finite
    endpoint (a mesh wider than the float range) also gets one cell, so its
    lookups scan every segment in index order, as a plain greedy search does.
    """
    coords = [c for seg in segments for point in seg for c in point]
    if not all(map(math.isfinite, coords)):
        return [0] * len(coords)
    width = max(2.0 * eps, max(map(abs, coords), default=0.0) * 2.0**-40)
    return [
        math.floor(x / width) * _STRIDE + math.floor(y / width)
        for seg in segments
        for x, y in seg
    ]


def _chain_segments(segments: list[tuple[Point2, Point2]], eps: float) -> list[Contour]:
    """Greedy chaining; ties broken by lowest segment index.

    Each cell lists, in index order, the segments with an endpoint in it.  A
    lookup takes from each of the 3x3 cells around the tail the first unused
    segment with an endpoint within eps, and keeps the lowest of these.
    """
    keys = _cell_keys(segments, eps)
    cells: dict[int, list[int]] = {}
    for e, key in enumerate(keys):
        bucket = cells.setdefault(key, [])
        if not bucket or bucket[-1] != e >> 1:
            bucket.append(e >> 1)
    n = len(segments)
    used = [False] * n
    contours: list[Contour] = []
    for first in range(n):
        if used[first]:
            continue
        used[first] = True
        a, b = segments[first]
        chain = [a, b]
        tail_key = keys[2 * first + 1]
        closed = False
        while True:
            tail = chain[-1]
            best = n
            for offset in _NEIGHBOURS:
                for j in cells.get(tail_key + offset, ()):
                    if j >= best:
                        break
                    if used[j]:
                        continue
                    p, q = segments[j]
                    if _dist(p, tail) <= eps:
                        best, nxt, nxt_key = j, q, keys[2 * j + 1]
                        break
                    if _dist(q, tail) <= eps:
                        best, nxt, nxt_key = j, p, keys[2 * j]
                        break
            if best == n:
                closed = len(chain) > 2 and _dist(chain[0], chain[-1]) <= eps
                break
            used[best] = True
            chain.append(nxt)
            tail_key = nxt_key
            if _dist(chain[0], chain[-1]) <= eps:
                closed = True
                break
        if closed:
            chain = chain[:-1] if _dist(chain[0], chain[-1]) <= eps else chain
            chain = _simplify(_dedupe(chain, eps), True, eps)
            if len(chain) < 3:
                continue  # sliver from a near-tangent plane
            contour = Contour(tuple(chain), True)
            if contour_signed_area(contour) < 0.0:
                contour = Contour(tuple(reversed(chain)), True)
            contours.append(contour)
        else:
            contours.append(Contour(tuple(_simplify(_dedupe(chain, eps), False, eps)), False))
    return contours


def slice_mesh(mesh: TriangleMesh, params: SliceParams) -> list[LayerPlan]:
    """Decompose a mesh into horizontal layer contours.

    Layer count is ceil((z_max - z_min) / layer_height); a flat or empty
    mesh yields zero layers.  Closed contours are oriented counter-clockwise.
    Open chains (from non-watertight input) are kept and flagged.  Raises
    ValueError, before any plane is built, if a facet has a non-finite
    coordinate or if the layer count overflows a double or exceeds
    MAX_LAYERS.
    """
    require_finite(mesh)
    h = params.layer_height
    tris = [
        (
            (f.v0.z, f.v1.z, f.v2.z),
            ((f.v0.x, f.v0.y), (f.v1.x, f.v1.y), (f.v2.x, f.v2.y)),
        )
        for f in mesh.facets
    ]
    if not tris:
        return []
    z_min = min(min(zs) for zs, _ in tris)
    z_max = max(max(zs) for zs, _ in tris)
    if z_max == z_min:
        return []
    count = (z_max - z_min) / h
    if count == math.inf:
        raise ValueError(
            f"z extent {z_min:g} to {z_max:g} mm over layer height {h:g} mm "
            "overflows the layer count"
        )
    if count > MAX_LAYERS:
        raise ValueError(
            f"z extent {z_min:g} to {z_max:g} mm over layer height {h:g} mm "
            f"needs {count:.4g} layers, more than {MAX_LAYERS}"
        )
    n_layers = math.ceil(count)
    nudge = 1e-9 * h
    planes = [z_min + (k + 0.5) * h for k in range(n_layers)]

    # A triangle can cross only the planes within its z extent, ends
    # included; _triangle_plane_segment settles those at the ends.
    first = [bisect_left(planes, min(zs)) for zs, _ in tris]
    stop = [bisect_right(planes, max(zs)) for zs, _ in tris]
    entering: dict[int, list[int]] = {}  # first plane -> facets, in facet order
    for i in range(len(tris)):
        if first[i] < stop[i]:
            entering.setdefault(first[i], []).append(i)
    active: list[int] = []  # facets spanning the current plane, in facet order

    layers = []
    for k, plane_z in enumerate(planes):
        active = sorted([i for i in active if stop[i] > k] + entering.get(k, []))
        segments = []
        for i in active:
            zs, xy = tris[i]
            seg = _triangle_plane_segment(zs, xy, plane_z, nudge)
            if seg is not None:
                segments.append(seg)
        contours = _chain_segments(segments, params.snap_eps)
        open_count = sum(1 for c in contours if not c.closed)
        if open_count:
            log.warning("layer %d at z=%g has %d open contour(s)", k, plane_z, open_count)
        layers.append(LayerPlan(index=k, z=plane_z, contours=tuple(contours)))
    return layers


def contour_signed_area(c: Contour) -> float:
    """Shoelace area; positive for counter-clockwise winding."""
    if not c.closed:
        raise ValueError("signed area is defined only for closed contours")
    total = 0.0
    n = len(c.vertices)
    for i in range(n):
        x0, y0 = c.vertices[i]
        x1, y1 = c.vertices[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return 0.5 * total


def contour_perimeter(c: Contour) -> float:
    """Sum of edge lengths; closed contours include the closing edge."""
    n = len(c.vertices)
    if n < 2:
        return 0.0
    total = 0.0
    last = n if c.closed else n - 1
    for i in range(last):
        total += _dist(c.vertices[i], c.vertices[(i + 1) % n])
    return total


def layers_to_dict(layers: list[LayerPlan], layer_height: float) -> dict:
    return {
        "layer_height": layer_height,
        "layers": [
            {
                "index": lp.index,
                "z": lp.z,
                "contours": [
                    {"closed": c.closed, "vertices": [[x, y] for x, y in c.vertices]}
                    for c in lp.contours
                ],
            }
            for lp in layers
        ],
    }


def layers_from_dict(doc: dict) -> list[LayerPlan]:
    layers = []
    for entry in doc["layers"]:
        contours = tuple(
            Contour(tuple((float(x), float(y)) for x, y in c["vertices"]), bool(c["closed"]))
            for c in entry["contours"]
        )
        layers.append(LayerPlan(index=int(entry["index"]), z=float(entry["z"]), contours=contours))
    return layers
