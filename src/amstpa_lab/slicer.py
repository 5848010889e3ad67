"""Planar decomposition of triangle meshes into layer contours.

Slicing planes follow the mid-plane rule z = z_min + (k + 0.5) * layer_height,
which keeps planes off flat horizontal faces of well-behaved models.  Each
triangle crossing a plane contributes one segment; segments are chained into
contours by greedy endpoint matching with a snap tolerance.

The layout follows Minetto et al., "An optimal algorithm for 3D triangle
mesh slicing" (Computer-Aided Design 92, 2017).  A plane sweep finds, by
bisection over the sorted plane heights, the planes each triangle spans, and
visits a triangle only at those planes, in facet order.  The tie rule is
exact: a chain starts at the lowest unused segment, and the next one is the
lowest-indexed unused segment with an endpoint within eps = snap_eps of the
tail, its p end tested before its q end.

Chaining buckets segment endpoints in a grid of cells of width
w = max(64 * eps, max|coord| * 2**-40), the largest coordinate taken over the
layer's endpoints.  A tail whose cell coordinates u = x / w and v = y / w
both have a fractional part more than lo = eps / w + 2**-10 from 0 and from 1
is interior, and looks for the next segment only in its own cell; any other
tail looks in the 3x3 cells around it.  The own-cell rule is exact.  Since
w >= max|coord| * 2**-40, |u| < 2**41, so rounding x / w costs at most
2**-13 cell units, and u - floor(u) is exact.  An endpoint within eps of the
tail (within eps / w units of it, less a relative 2**-51 for the distance's
own rounding) therefore lies less than lo from the tail in cell units, which
keeps it in the tail's cell.  Cells are at least 2 * eps wide, so the 3x3
block holds every such endpoint of a tail near a border.

The per-facet crossing, the chain's dedupe and its closed simplify are each
one pass over local floats.  They make the same float operations in the same
order as the per-step helpers they replace, which the tests keep as oracles,
so every layer is byte-identical to theirs.  Sums run in explicit loops: from
Python 3.12, sum() over floats compensates its rounding and would change the
last bits of an area or a perimeter.

A layers file, as `layers_to_dict` writes it, is read back by `jsondoc`
against the table `LAYERS_KEYS`, like every JSON input of the lab.
"""
from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import NamedTuple

from .jsondoc import REQUIRED, checked, read_doc
from .mesh_io import TriangleMesh, require_finite

log = logging.getLogger(__name__)

Point2 = tuple[float, float]

# The most layers one slice may have; a job needing more is refused before
# its plane heights are built.
MAX_LAYERS = 10**6


@checked
class SliceParams(NamedTuple):
    layer_height: float
    snap_eps: float = 1e-7

    def _check(self) -> None:
        if not (0.0 < self.layer_height < math.inf):
            raise ValueError("layer_height must be finite and > 0")
        if not (0.0 < self.snap_eps < math.inf):
            raise ValueError("snap_eps must be finite and > 0")


class Contour(NamedTuple):
    vertices: tuple[Point2, ...]
    closed: bool


class LayerPlan(NamedTuple):
    index: int
    z: float
    contours: tuple[Contour, ...] = ()


# Chaining cells are _CELL snap tolerances wide, or 2**-40 of the largest
# coordinate if that is wider.  About (1 - 2 * lo)**2 of the endpoints, 93 %,
# are then interior: measured, 93 % on the perfbench ngon144 prism and 91 %
# on its sphere, so a lookup scans 1.6 and 1.7 cells on average, not 9.
_CELL = 64.0

# A cell (ix, iy) is packed into the one int ix * _STRIDE + iy; _cell_keys
# keeps |iy| below _STRIDE / 2, so the packing is one-to-one.
_STRIDE = 1 << 43
_NEIGHBOURS = tuple(dx * _STRIDE + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def _cell_keys(segments: list[tuple[Point2, Point2]], eps: float) -> tuple[float, list[int]]:
    """Cell width, and the packed cell of every endpoint, p then q of each
    segment.

    The width keeps every index within 2**41 for any eps, down to the
    smallest subnormal.  A layer with a non-finite endpoint (a mesh wider
    than the float range, where math.floor raises), or an eps whose
    _CELL * eps overflows, gets width inf and a single cell, key 0.
    """
    coords = list(chain.from_iterable(chain.from_iterable(segments)))
    width = max(_CELL * eps, max(map(abs, coords), default=0.0) * 2.0**-40)
    if width < math.inf:
        floor = math.floor
        try:
            ix = [floor(c / width) for c in coords]
        except (OverflowError, ValueError):
            pass
        else:
            return width, [x * _STRIDE + y for x, y in zip(ix[::2], ix[1::2])]
    return math.inf, [0] * (2 * len(segments))


def _chain_segments(segments: list[tuple[Point2, Point2]], eps: float) -> list[Contour]:
    """Greedy chaining; ties broken by lowest segment index.

    Each cell lists, in index order, the segments with an endpoint in it.  A
    lookup from an interior tail scans its own cell; from any other tail it
    takes from each of the 3x3 cells around it the first unused segment with
    an endpoint within eps, and keeps the lowest of these.  Points within eps
    of the last one kept are dropped as the chain grows, and the point that
    closes a chain, back within eps of its start, is not added.
    """
    width, keys = _cell_keys(segments, eps)
    grid = width < math.inf
    lo = eps / width + 2.0**-10
    hi = 1.0 - lo
    cells: dict[int, list[int]] = {}
    for j, (kp, kq) in enumerate(zip(keys[::2], keys[1::2])):
        cells.setdefault(kp, []).append(j)
        if kq != kp:
            cells.setdefault(kq, []).append(j)
    floor = math.floor
    hypot = math.hypot
    n = len(segments)
    used = [False] * n
    contours: list[Contour] = []
    for first in range(n):
        if used[first]:
            continue
        used[first] = True
        a, point = segments[first]
        ax, ay = a
        tx, ty = point
        points = [a]
        if hypot(tx - ax, ty - ay) > eps:
            points.append(point)
        ox, oy = points[-1]
        closed = False
        while True:
            probes = (0,)  # the one cell
            if grid:
                u = tx / width
                v = ty / width
                iu = floor(u)
                iv = floor(v)
                key = iu * _STRIDE + iv
                if lo < u - iu < hi and lo < v - iv < hi:
                    probes = (key,)
                else:
                    probes = [key + d for d in _NEIGHBOURS]
            best = n
            for probe in probes:
                for j in cells.get(probe, ()):
                    if j >= best:
                        break
                    if used[j]:
                        continue
                    p, q = segments[j]
                    if hypot(p[0] - tx, p[1] - ty) <= eps:
                        best, point = j, q
                        break
                    if hypot(q[0] - tx, q[1] - ty) <= eps:
                        best, point = j, p
                        break
            if best == n:
                break
            used[best] = True
            tx, ty = point
            if hypot(ax - tx, ay - ty) <= eps:
                closed = True
                break
            if hypot(tx - ox, ty - oy) > eps:
                points.append(point)
                ox, oy = tx, ty
        contour = _contour(points, closed, eps)
        if contour is not None:
            contours.append(contour)
    return contours


def _contour(points: list[Point2], closed: bool, eps: float) -> Contour | None:
    """Drop each point collinear within eps with its two neighbours (the ends
    of an open chain stay): wall triangulation adds mid-edge points that
    carry no shape.  A closed contour is turned counter-clockwise, and one of
    fewer than 3 points left, a sliver from a near-tangent plane, is None.
    """
    if len(points) < 3:
        return None if closed else Contour(tuple(points), False)
    if closed:
        kept = []
        triples = zip(points[-1:] + points[:-1], points, points[1:] + points[:1])
    else:
        kept = [points[0]]
        triples = zip(points, points[1:-1], points[2:])
    hypot = math.hypot
    for (ax, ay), b, (cx, cy) in triples:
        bx, by = b
        ux = cx - ax
        uy = cy - ay
        base = hypot(ux, uy)
        if not (base <= eps or abs(ux * (by - ay) - uy * (bx - ax)) / base <= eps):
            kept.append(b)
    if not closed:
        kept.append(points[-1])
        return Contour(tuple(kept), False)
    if len(kept) < 3:
        return None
    if _shoelace(kept) < 0.0:
        kept.reverse()
    return Contour(tuple(kept), True)


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
        (z0, z1, z2, x0, y0, x1, y1, x2, y2)
        for _, (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) in mesh.facets
    ]
    if not tris:
        return []
    lows = [min(t[:3]) for t in tris]
    highs = [max(t[:3]) for t in tris]
    z_min = min(lows)
    z_max = max(highs)
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
    # included; the nudge rule below settles those at the ends.
    first = [bisect_left(planes, z) for z in lows]
    stop = [bisect_right(planes, z) for z in highs]
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
            # Where the triangle crosses the plane.  A vertex exactly on the
            # plane is nudged by +nudge in z, so every crossing triangle
            # yields exactly one segment: the points on its first two cut
            # edges, taken in the order (0, 1), (1, 2), (2, 0).
            z0, z1, z2, x0, y0, x1, y1, x2, y2 = tris[i]
            d0 = z0 - plane_z
            d1 = z1 - plane_z
            d2 = z2 - plane_z
            if d0 == 0.0:
                d0 = nudge
            if d1 == 0.0:
                d1 = nudge
            if d2 == 0.0:
                d2 = nudge
            s0 = d0 > 0
            s1 = d1 > 0
            s2 = d2 > 0
            if s0 == s1 == s2:
                continue
            if s0 != s1:
                t = d0 / (d0 - d1)
                p = (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
                if s1 != s2:
                    t = d1 / (d1 - d2)
                    segments.append((p, (x1 + t * (x2 - x1), y1 + t * (y2 - y1))))
                    continue
            else:
                t = d1 / (d1 - d2)
                p = (x1 + t * (x2 - x1), y1 + t * (y2 - y1))
            t = d2 / (d2 - d0)
            segments.append((p, (x2 + t * (x0 - x2), y2 + t * (y0 - y2))))
        contours = _chain_segments(segments, params.snap_eps)
        open_count = sum(1 for c in contours if not c.closed)
        if open_count:
            log.warning("layer %d at z=%g has %d open contour(s)", k, plane_z, open_count)
        layers.append(LayerPlan(index=k, z=plane_z, contours=tuple(contours)))
    return layers


def _shoelace(vertices: list[Point2] | tuple[Point2, ...]) -> float:
    """Shoelace area of a closed polygon, summed in vertex order."""
    if not vertices:
        return 0.0
    total = 0.0
    x0, y0 = vertices[0]
    for x1, y1 in vertices[1:]:
        total += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    x1, y1 = vertices[0]
    return 0.5 * (total + (x0 * y1 - x1 * y0))


def contour_perimeter(c: Contour) -> float:
    """Sum of edge lengths; closed contours include the closing edge."""
    v = c.vertices
    if len(v) < 2:
        return 0.0
    hypot = math.hypot
    total = 0.0
    x0, y0 = v[0]
    for x1, y1 in v[1:]:
        total += hypot(x0 - x1, y0 - y1)
        x0, y0 = x1, y1
    if c.closed:
        x1, y1 = v[0]
        total += hypot(x0 - x1, y0 - y1)
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


# every key of a layers file; layers_to_dict writes each one
LAYERS_KEYS = {
    "layer_height": (float, None),
    "layers": ([{
        "index": (int, REQUIRED),
        "z": (float, REQUIRED),
        "contours": ([{"closed": (bool, REQUIRED), "vertices": ([[float]], REQUIRED)}], REQUIRED),
    }], REQUIRED),
}


def layers_from_dict(doc) -> list[LayerPlan]:
    """The layers of a `layers_to_dict` document, read by `LAYERS_KEYS`;
    ValueError names the first value that is not what its key needs."""
    layers = []
    for i, entry in enumerate(read_doc(doc, LAYERS_KEYS)["layers"]):
        contours = []
        for j, c in enumerate(entry["contours"]):
            vertices = tuple(map(tuple, c["vertices"]))
            if not set(map(len, vertices)) <= {2}:
                raise ValueError(f"layers.{i}.contours.{j}.vertices must hold [x, y] pairs")
            if c["closed"] and not vertices:  # a closed loop starts at its first vertex
                raise ValueError(f"layers.{i}.contours.{j}.vertices must be non-empty when closed")
            contours.append(Contour(vertices, c["closed"]))
        layers.append(LayerPlan(index=entry["index"], z=entry["z"], contours=tuple(contours)))
    return layers
