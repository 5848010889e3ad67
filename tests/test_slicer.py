import logging
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amstpa_lab import shapes, slicer
from amstpa_lab.mesh_io import Encoding, Facet, TriangleMesh, Vec3
from amstpa_lab.slicer import (
    Contour,
    LayerPlan,
    SliceParams,
    _chain_segments,
    _shoelace,
    contour_perimeter,
    layers_from_dict,
    layers_to_dict,
    slice_mesh,
)


# ---------------------------------------------------------------------------
# Scalar oracle: the per-step helpers, the quadratic chainer and the full
# facet x plane loop that the fused passes, the endpoint hash and the plane
# sweep replace.
# ---------------------------------------------------------------------------


def _dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _triangle_plane_segment(zs, xy, plane_z, nudge):
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


def _dedupe(points, eps):
    out = [points[0]]
    for p in points[1:]:
        if _dist(p, out[-1]) > eps:
            out.append(p)
    return out


def _collinear(a, b, c, eps):
    # b lies on segment a-c within eps perpendicular distance
    ax, ay = c[0] - a[0], c[1] - a[1]
    bx, by = b[0] - a[0], b[1] - a[1]
    base = math.hypot(ax, ay)
    if base <= eps:
        return True
    return abs(ax * by - ay * bx) / base <= eps


def _simplify(points, closed, eps):
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


def scalar_signed_area(c):
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


def scalar_perimeter(c):
    """Sum of edge lengths; closed contours include the closing edge."""
    n = len(c.vertices)
    if n < 2:
        return 0.0
    total = 0.0
    last = n if c.closed else n - 1
    for i in range(last):
        total += _dist(c.vertices[i], c.vertices[(i + 1) % n])
    return total


def _close(chain, closed, eps):
    """The contour of a chain, or None for a closed sliver."""
    if closed:
        chain = chain[:-1] if _dist(chain[0], chain[-1]) <= eps else chain
        chain = _simplify(_dedupe(chain, eps), True, eps)
        if len(chain) < 3:
            return None  # sliver from a near-tangent plane
        contour = Contour(tuple(chain), True)
        if scalar_signed_area(contour) < 0.0:
            contour = Contour(tuple(reversed(chain)), True)
        return contour
    return Contour(tuple(_simplify(_dedupe(chain, eps), False, eps)), False)


def scalar_chain_segments(segments, eps):
    """Greedy chaining; ties broken by lowest segment index."""
    unused = list(range(len(segments)))
    contours = []
    while unused:
        first = unused.pop(0)
        a, b = segments[first]
        chain = [a, b]
        closed = False
        while True:
            tail = chain[-1]
            found = None
            for j in unused:
                p, q = segments[j]
                if _dist(p, tail) <= eps:
                    found = (j, q)
                    break
                if _dist(q, tail) <= eps:
                    found = (j, p)
                    break
            if found is None:
                closed = len(chain) > 2 and _dist(chain[0], chain[-1]) <= eps
                break
            j, nxt = found
            unused.remove(j)
            chain.append(nxt)
            if _dist(chain[0], chain[-1]) <= eps:
                closed = True
                break
        contour = _close(chain, closed, eps)
        if contour is not None:
            contours.append(contour)
    return contours


# The 3x3 grid chainer that the own-cell lookup replaces: cells 2 * eps wide,
# and every lookup scans the 3x3 cells around the tail.
_STRIDE = 1 << 43
_NEIGHBOURS = tuple(dx * _STRIDE + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def grid_cell_keys(segments, eps):
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


def grid_chain_segments(segments, eps):
    """Greedy chaining; ties broken by lowest segment index.

    Each cell lists, in index order, the segments with an endpoint in it.  A
    lookup takes from each of the 3x3 cells around the tail the first unused
    segment with an endpoint within eps, and keeps the lowest of these.
    """
    keys = grid_cell_keys(segments, eps)
    cells = {}
    for e, key in enumerate(keys):
        bucket = cells.setdefault(key, [])
        if not bucket or bucket[-1] != e >> 1:
            bucket.append(e >> 1)
    n = len(segments)
    used = [False] * n
    contours = []
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
        contour = _close(chain, closed, eps)
        if contour is not None:
            contours.append(contour)
    return contours


def facet_cache(f):
    """(z of each vertex, xy of each vertex), as _triangle_plane_segment takes them."""
    return (f.v0.z, f.v1.z, f.v2.z), ((f.v0.x, f.v0.y), (f.v1.x, f.v1.y), (f.v2.x, f.v2.y))


def scalar_slice_mesh(mesh, params):
    """Every facet tested against every plane, chained by the scalar chainer."""
    h = params.layer_height
    zs_all = [v.z for f in mesh.facets for v in f.vertices]
    if not zs_all:
        return []
    z_min, z_max = min(zs_all), max(zs_all)
    if z_max == z_min:
        return []
    n_layers = math.ceil((z_max - z_min) / h)
    nudge = 1e-9 * h
    tri_cache = [facet_cache(f) for f in mesh.facets]
    layers = []
    for k in range(n_layers):
        plane_z = z_min + (k + 0.5) * h
        segments = []
        for zs, xy in tri_cache:
            seg = _triangle_plane_segment(zs, xy, plane_z, nudge)
            if seg is not None:
                segments.append(seg)
        contours = scalar_chain_segments(segments, params.snap_eps)
        layers.append(LayerPlan(index=k, z=plane_z, contours=tuple(contours)))
    return layers


def translate(mesh, dx, dy, dz):
    def mv(v):
        return Vec3(v.x + dx, v.y + dy, v.z + dz)

    return TriangleMesh(
        tuple(Facet(f.normal, mv(f.v0), mv(f.v1), mv(f.v2)) for f in mesh.facets),
        mesh.source_encoding,
    )


def scale(mesh, s):
    def mv(v):
        return Vec3(v.x * s, v.y * s, v.z * s)

    return TriangleMesh(
        tuple(Facet(f.normal, mv(f.v0), mv(f.v1), mv(f.v2)) for f in mesh.facets),
        mesh.source_encoding,
    )


class TestSliceCube:
    def test_four_layers_one_square_each(self, cube, cube_layers):
        assert len(cube_layers) == 4
        for k, layer in enumerate(cube_layers):
            assert layer.index == k
            assert layer.z == pytest.approx(0.0 + (k + 0.5) * 0.25, abs=0.0)
            assert len(layer.contours) == 1
            contour = layer.contours[0]
            assert contour.closed
            assert len(contour.vertices) == 4
            assert scalar_signed_area(contour) == pytest.approx(1.0, abs=1e-9)

    def test_mid_cube_area(self, cube):
        layers = slice_mesh(cube, SliceParams(layer_height=1.0))
        assert len(layers) == 1
        assert layers[0].z == 0.5
        assert scalar_signed_area(layers[0].contours[0]) == pytest.approx(1.0, abs=1e-9)

    def test_contours_are_ccw(self, cube_layers):
        for layer in cube_layers:
            for contour in layer.contours:
                assert scalar_signed_area(contour) > 0.0


class TestSliceTetrahedron:
    def test_layer0_area(self):
        layers = slice_mesh(shapes.corner_tetrahedron(), SliceParams(layer_height=0.5))
        assert len(layers) == 2
        assert layers[0].z == 0.25
        area = scalar_signed_area(layers[0].contours[0])
        assert area == pytest.approx(0.28125, abs=1e-9)

    def test_brute_force_area_oracle(self):
        # polygon area via dense point-in-halfspace counting on a grid
        layers = slice_mesh(shapes.corner_tetrahedron(), SliceParams(layer_height=0.5))
        z = layers[0].z
        n = 600
        hits = sum(
            1
            for i in range(n)
            for j in range(n)
            if (i + 0.5) / n + (j + 0.5) / n + z <= 1.0
        )
        oracle = hits / (n * n)
        assert scalar_signed_area(layers[0].contours[0]) == pytest.approx(oracle, abs=2e-3)


class TestEdgeCases:
    def test_empty_mesh_zero_layers(self):
        assert slice_mesh(TriangleMesh((), Encoding.ASCII), SliceParams(0.25)) == []

    def test_flat_mesh_zero_layers(self):
        flat = TriangleMesh(
            (Facet(Vec3(0, 0, 1), Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)),),
            Encoding.ASCII,
        )
        assert slice_mesh(flat, SliceParams(0.25)) == []

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            SliceParams(layer_height=0.0)
        with pytest.raises(ValueError):
            SliceParams(layer_height=0.1, snap_eps=0.0)

    def test_layer_cap_boundary(self, cube, monkeypatch):
        # the unit cube at 0.25 mm needs exactly 4 layers, at 0.2 mm 5
        monkeypatch.setattr(slicer, "MAX_LAYERS", 4)
        assert len(slice_mesh(cube, SliceParams(layer_height=0.25))) == 4
        with pytest.raises(ValueError, match="needs 5 layers, more than 4"):
            slice_mesh(cube, SliceParams(layer_height=0.2))

    def test_open_contours_from_missing_wall(self, cube, caplog):
        # facets 4 and 5 are the front wall; slices can no longer close
        broken = TriangleMesh(cube.facets[:4] + cube.facets[6:], cube.source_encoding)
        with caplog.at_level(logging.WARNING, logger="amstpa_lab.slicer"):
            layers = slice_mesh(broken, SliceParams(layer_height=0.25))
        assert any(not c.closed for layer in layers for c in layer.contours)
        assert [r.getMessage() for r in caplog.records] == [
            f"layer {k} at z={z:g} has 2 open contour(s)"
            for k, z in enumerate((0.125, 0.375, 0.625, 0.875))
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            {"v2": Vec3(0.0, 0.0, math.inf)},
            {"v2": Vec3(0.0, 0.0, math.nan)},
            {"v2": Vec3(math.nan, 0.0, 1.0)},
            {"normal": Vec3(0.0, math.nan, 0.0)},
        ],
        ids=["z-inf", "z-nan", "x-nan", "normal-nan"],
    )
    def test_nonfinite_coordinate_rejected(self, cube, bad):
        f = cube.facets[3]
        fields = {"normal": f.normal, "v0": f.v0, "v1": f.v1, "v2": f.v2, **bad}
        mesh = TriangleMesh(cube.facets[:3] + (Facet(**fields),) + cube.facets[4:])
        with pytest.raises(ValueError, match="facet 3 has a non-finite coordinate"):
            slice_mesh(mesh, SliceParams(layer_height=0.25))


class TestContourMath:
    def test_unit_square_ccw(self):
        square = Contour(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), True)
        assert scalar_signed_area(square) == 1.0
        assert contour_perimeter(square) == 4.0

    def test_unit_square_cw(self):
        square = Contour(((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)), True)
        assert scalar_signed_area(square) == -1.0

    def test_open_contour_rejected(self):
        with pytest.raises(ValueError):
            scalar_signed_area(Contour(((0.0, 0.0), (1.0, 0.0)), False))

    @pytest.mark.parametrize("n", [32, 64])
    def test_ngon_area_matches_formula(self, n):
        pts = tuple(
            (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)
        )
        area = scalar_signed_area(Contour(pts, True))
        assert area == pytest.approx((n / 2) * math.sin(2 * math.pi / n), abs=1e-12)

    def test_32gon_area_value(self):
        # (n/2)*sin(2*pi/n) at n=32 is the 3.1214 reference value
        pts = tuple(
            (math.cos(2 * math.pi * k / 32), math.sin(2 * math.pi * k / 32)) for k in range(32)
        )
        assert scalar_signed_area(Contour(pts, True)) == pytest.approx(3.1214, abs=1e-4)


class TestInvariance:
    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
    )
    def test_translation_preserves_areas(self, cube, dx, dy, dz):
        base = slice_mesh(cube, SliceParams(layer_height=0.25))
        moved = slice_mesh(translate(cube, dx, dy, dz), SliceParams(layer_height=0.25))
        assert len(moved) == len(base)
        for a, b in zip(base, moved):
            assert len(a.contours) == len(b.contours)
            for ca, cb in zip(a.contours, b.contours):
                assert scalar_signed_area(cb) == pytest.approx(
                    scalar_signed_area(ca), rel=1e-9, abs=1e-9
                )

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_scales_areas_by_s_squared(self, cube, s):
        base = slice_mesh(cube, SliceParams(layer_height=0.25))
        scaled = slice_mesh(scale(cube, s), SliceParams(layer_height=0.25 * s))
        assert len(scaled) == len(base)
        for a, b in zip(base, scaled):
            assert scalar_signed_area(b.contours[0]) == pytest.approx(
                s * s * scalar_signed_area(a.contours[0]), rel=1e-9
            )

    @pytest.mark.parametrize(
        "mesh,h",
        [
            (shapes.box(), 0.2),
            (shapes.corner_tetrahedron(), 0.19),
            (shapes.octahedron(), 0.23),
            (shapes.ngon_prism(12), 0.31),
        ],
    )
    def test_convex_solids_one_closed_contour_per_layer(self, mesh, h):
        eps = SliceParams(layer_height=h).snap_eps
        for layer in slice_mesh(mesh, SliceParams(layer_height=h)):
            if not layer.contours:
                continue  # plane above the solid in the final partial layer
            assert len(layer.contours) == 1
            contour = layer.contours[0]
            assert contour.closed
            assert len(contour.vertices) >= 3
            for a, b in zip(contour.vertices, contour.vertices[1:]):
                assert math.hypot(b[0] - a[0], b[1] - a[1]) > eps

    def test_layer_volume_approximates_cube(self, cube_layers):
        volume = sum(
            scalar_signed_area(layer.contours[0]) * 0.25 for layer in cube_layers
        )
        assert volume == pytest.approx(1.0, rel=1e-9)  # exact for prisms

    def test_layer_volume_approximates_octahedron(self):
        h = 0.02
        layers = slice_mesh(shapes.octahedron(), SliceParams(layer_height=h))
        volume = sum(
            sum(scalar_signed_area(c) for c in layer.contours) * h for layer in layers
        )
        assert volume == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_mid_plane_rule(self, cube_layers):
        for layer in cube_layers:
            assert layer.z == 0.0 + (layer.index + 0.5) * 0.25


def test_layers_json_round_trip(cube_layers):
    doc = layers_to_dict(cube_layers, 0.25)
    assert layers_from_dict(doc) == cube_layers


# ---------------------------------------------------------------------------
# The endpoint hash and the plane sweep against the scalar oracle
# ---------------------------------------------------------------------------

# the smallest subnormal, the default, one whose double overflows, and none
EPS_EDGES = [5e-324, 1e-7, 1e308, math.inf]
NONFINITE = [math.nan, math.inf, -math.inf]


def same(a, b):
    # repr tells -0.0 from 0.0 and equates NaNs, where == would not
    return repr(a) == repr(b)


@st.composite
def jittered_soups(draw):
    """(segments, eps): endpoints on a coarse grid, each moved by up to 1.2 * eps
    per coordinate, so endpoints meet near, at and beyond the snap tolerance."""
    eps = draw(st.sampled_from(EPS_EDGES) | st.floats(min_value=1e-12, max_value=10.0))
    reach = min(eps, 1e300)  # an infinite eps still jitters by a finite amount
    spacing = draw(st.sampled_from([1.0, 2.0 * reach, 3.0 * reach]))
    jitter = st.floats(min_value=-1.2, max_value=1.2)

    def endpoint():
        i, j = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        return (i * spacing + draw(jitter) * reach, j * spacing + draw(jitter) * reach)

    segments = [(endpoint(), endpoint()) for _ in range(draw(st.integers(0, 40)))]
    if segments and draw(st.booleans()):  # a mesh wider than the float range
        k = draw(st.integers(0, len(segments) - 1))
        (px, py), q = segments[k]
        segments[k] = ((draw(st.sampled_from(NONFINITE)), py), q)
    return segments, eps


@st.composite
def triangle_soups(draw):
    """(mesh, params): random triangles whose vertices sit on a grid of half
    layers, so many of them lie exactly on a slicing plane."""
    unit = draw(st.sampled_from([1.0, 0.1, 1e-300, 1e-320]))
    h = draw(st.sampled_from([0.5, 1.0, 0.75])) * unit
    eps = draw(st.sampled_from(EPS_EDGES + [0.3 * unit]))
    coord = st.integers(-6, 6).map(lambda i: i * 0.25 * unit) | st.floats(-1.5, 1.5).map(
        lambda x: x * unit
    )

    def vertex():
        return Vec3(draw(coord), draw(coord), draw(coord))

    facets = tuple(
        Facet(Vec3(0.0, 0.0, 1.0), vertex(), vertex(), vertex())
        for _ in range(draw(st.integers(0, 24)))
    )
    return TriangleMesh(facets), SliceParams(layer_height=h, snap_eps=eps)


@st.composite
def cell_border_soups(draw):
    """(segments, eps): endpoints near the borders of the chaining cells.

    Each axis gets a few anchors: a multiple of the cell width w, negative
    ones included, moved by 0, by +-eps, or by the interior margin lo * w from
    either border, or by one ulp either side of it.  Endpoints sit on anchors,
    moved by 0, +-eps, one ulp past eps, or up to 1.2 * eps, so a match within
    eps straddles a border or sits just inside the margin.  Half the soups
    also hold one endpoint 2**40 cells out, which makes w 2**-40 of it: there
    x / w rounds by up to 2**-13 cell units."""
    eps = draw(st.sampled_from([5e-324, 1e-300, 1e-7, 0.01, 1.0]) | st.floats(1e-9, 1.0))
    far = draw(st.sampled_from([0.0, 2.0**40, -(2.0**40)])) * slicer._CELL * eps
    w = max(slicer._CELL * eps, abs(far) * 2.0**-40)
    margin = (eps / w + 2.0**-10) * w
    offsets = [0.0, eps, -eps]
    for m in (margin, math.nextafter(margin, 0.0), math.nextafter(margin, math.inf)):
        offsets += [m, -m]
    ulp = math.nextafter(eps, math.inf)
    jitter = st.sampled_from([0.0, eps, -eps, ulp, -ulp]) | st.floats(-1.2, 1.2).map(
        lambda f: f * eps
    )
    # near the far endpoint, so the cells there are 2**40 units out
    base = draw(st.sampled_from([0.0, far]))

    def anchors():
        anchor = st.builds(
            lambda i, off: base + i * w + off, st.integers(-3, 2), st.sampled_from(offsets)
        )
        return draw(st.lists(anchor, min_size=1, max_size=4))

    xs, ys = anchors(), anchors()

    def endpoint():
        return (draw(st.sampled_from(xs)) + draw(jitter), draw(st.sampled_from(ys)) + draw(jitter))

    segments = [(endpoint(), endpoint()) for _ in range(draw(st.integers(0, 40)))]
    if far and segments:
        segments.append(((far, far), segments[0][0]))
    return segments, eps


def broken_prism():
    prism = shapes.ngon_prism(24, radius=5.0, height=3.0)
    return TriangleMesh(prism.facets[:40] + prism.facets[44:])


class TestMatchesScalarOracle:
    @given(jittered_soups() | cell_border_soups())
    def test_chaining(self, soup):
        segments, eps = soup
        assert same(_chain_segments(segments, eps), scalar_chain_segments(segments, eps))

    @given(jittered_soups() | cell_border_soups())
    def test_chaining_matches_the_3x3_grid(self, soup):
        segments, eps = soup
        assert same(_chain_segments(segments, eps), grid_chain_segments(segments, eps))

    @given(
        st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)), max_size=12),
        st.booleans(),
    )
    def test_contour_math(self, vertices, closed):
        contour = Contour(tuple(vertices), closed)
        assert same(contour_perimeter(contour), scalar_perimeter(contour))
        if closed:
            assert same(_shoelace(contour.vertices), scalar_signed_area(contour))

    @given(triangle_soups())
    def test_random_meshes(self, case):
        mesh, params = case
        assert same(slice_mesh(mesh, params), scalar_slice_mesh(mesh, params))

    @given(
        st.sampled_from(["box", "corner_tetrahedron", "octahedron", "prism"]),
        st.floats(min_value=0.05, max_value=0.8),
        st.sampled_from(EPS_EDGES),
    )
    def test_solids(self, name, h, eps):
        mesh = shapes.ngon_prism(9) if name == "prism" else getattr(shapes, name)()
        params = SliceParams(layer_height=h, snap_eps=eps)
        assert same(slice_mesh(mesh, params), scalar_slice_mesh(mesh, params))

    @pytest.mark.parametrize(
        "mesh,h",
        [
            (shapes.ngon_prism(96, radius=10.0, height=10.0), 0.2),
            (broken_prism(), 0.1),
            (shapes.octahedron(radius=10.0), 0.1),
        ],
        ids=["ngon96", "broken-prism", "octahedron"],
    )
    def test_dense_meshes(self, mesh, h):
        params = SliceParams(layer_height=h)
        assert same(slice_mesh(mesh, params), scalar_slice_mesh(mesh, params))

    @pytest.mark.parametrize("eps", EPS_EDGES)
    def test_wider_than_the_float_range(self, cube, eps):
        # crossing points on wall diagonals 2e308 wide overflow to inf and NaN
        def widen(v):
            return Vec3((2.0 * v.x - 1.0) * 1e308, (2.0 * v.y - 1.0) * 1e308, v.z)

        mesh = TriangleMesh(
            tuple(Facet(f.normal, widen(f.v0), widen(f.v1), widen(f.v2)) for f in cube.facets)
        )
        ends = [
            c
            for f in mesh.facets
            for seg in [_triangle_plane_segment(*facet_cache(f), 0.125, 1e-9)]
            if seg is not None
            for point in seg
            for c in point
        ]
        assert not all(map(math.isfinite, ends))
        params = SliceParams(layer_height=0.25, snap_eps=eps)
        assert same(slice_mesh(mesh, params), scalar_slice_mesh(mesh, params))

    @pytest.mark.parametrize("radius", [1.0, 1e-320])
    def test_vertices_on_the_plane(self, radius):
        # The one plane, z = 0, holds the four equator vertices, which count
        # as above it: the lower facets cut it in a closed square, and the
        # missing upper facet 0 leaves no gap.  At the subnormal radius the
        # nudge 1e-9 * h rounds to 0, the vertices count as below the plane,
        # and the upper facets cut it in a chain that facet 0 leaves open.
        octahedron = scale(shapes.octahedron(), radius)
        mesh = TriangleMesh(octahedron.facets[1:])
        params = SliceParams(layer_height=2.0 * radius, snap_eps=max(radius * 1e-7, 5e-324))
        layers = slice_mesh(mesh, params)
        assert [lp.z for lp in layers] == [0.0]
        assert [c.closed for c in layers[0].contours] == [radius == 1.0]
        assert same(layers, scalar_slice_mesh(mesh, params))


def test_chaining_stays_linear(monkeypatch):
    """One W2 layer (ngon512) chains with a few distance checks per segment;
    the scalar chainer makes about s**2 / 4."""
    h = 0.05
    mesh = shapes.ngon_prism(512, radius=10.0, height=10.0)
    cuts = [_triangle_plane_segment(*facet_cache(f), 100.5 * h, 1e-9 * h) for f in mesh.facets]
    segments = [seg for seg in cuts if seg is not None]
    calls = 0
    hypot = math.hypot

    def counting_hypot(x, y):
        nonlocal calls
        calls += 1
        return hypot(x, y)

    # the chainer and its contour pass bind math.hypot when called
    monkeypatch.setattr(math, "hypot", counting_hypot)
    contours = _chain_segments(segments, 1e-7)
    monkeypatch.undo()
    assert len(segments) == 1024
    assert [(c.closed, len(c.vertices)) for c in contours] == [(True, 512)]
    assert len(segments) < calls < 20 * len(segments)
