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
    _dedupe,
    _dist,
    _simplify,
    _triangle_plane_segment,
    contour_perimeter,
    contour_signed_area,
    layers_from_dict,
    layers_to_dict,
    slice_mesh,
)


# ---------------------------------------------------------------------------
# Scalar oracle: the quadratic chainer and the full facet x plane loop that
# the endpoint hash and the plane sweep replace.
# ---------------------------------------------------------------------------


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
            assert contour_signed_area(contour) == pytest.approx(1.0, abs=1e-9)

    def test_mid_cube_area(self, cube):
        layers = slice_mesh(cube, SliceParams(layer_height=1.0))
        assert len(layers) == 1
        assert layers[0].z == 0.5
        assert contour_signed_area(layers[0].contours[0]) == pytest.approx(1.0, abs=1e-9)

    def test_contours_are_ccw(self, cube_layers):
        for layer in cube_layers:
            for contour in layer.contours:
                assert contour_signed_area(contour) > 0.0


class TestSliceTetrahedron:
    def test_layer0_area(self):
        layers = slice_mesh(shapes.corner_tetrahedron(), SliceParams(layer_height=0.5))
        assert len(layers) == 2
        assert layers[0].z == 0.25
        area = contour_signed_area(layers[0].contours[0])
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
        assert contour_signed_area(layers[0].contours[0]) == pytest.approx(oracle, abs=2e-3)


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
        assert contour_signed_area(square) == 1.0
        assert contour_perimeter(square) == 4.0

    def test_unit_square_cw(self):
        square = Contour(((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)), True)
        assert contour_signed_area(square) == -1.0

    def test_open_contour_rejected(self):
        with pytest.raises(ValueError):
            contour_signed_area(Contour(((0.0, 0.0), (1.0, 0.0)), False))

    @pytest.mark.parametrize("n", [32, 64])
    def test_ngon_area_matches_formula(self, n):
        pts = tuple(
            (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)
        )
        area = contour_signed_area(Contour(pts, True))
        assert area == pytest.approx((n / 2) * math.sin(2 * math.pi / n), abs=1e-12)

    def test_32gon_area_value(self):
        # (n/2)*sin(2*pi/n) at n=32 is the 3.1214 reference value
        pts = tuple(
            (math.cos(2 * math.pi * k / 32), math.sin(2 * math.pi * k / 32)) for k in range(32)
        )
        assert contour_signed_area(Contour(pts, True)) == pytest.approx(3.1214, abs=1e-4)


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
                assert contour_signed_area(cb) == pytest.approx(
                    contour_signed_area(ca), rel=1e-9, abs=1e-9
                )

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_scales_areas_by_s_squared(self, cube, s):
        base = slice_mesh(cube, SliceParams(layer_height=0.25))
        scaled = slice_mesh(scale(cube, s), SliceParams(layer_height=0.25 * s))
        assert len(scaled) == len(base)
        for a, b in zip(base, scaled):
            assert contour_signed_area(b.contours[0]) == pytest.approx(
                s * s * contour_signed_area(a.contours[0]), rel=1e-9
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
            contour_signed_area(layer.contours[0]) * 0.25 for layer in cube_layers
        )
        assert volume == pytest.approx(1.0, rel=1e-9)  # exact for prisms

    def test_layer_volume_approximates_octahedron(self):
        h = 0.02
        layers = slice_mesh(shapes.octahedron(), SliceParams(layer_height=h))
        volume = sum(
            sum(contour_signed_area(c) for c in layer.contours) * h for layer in layers
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


def broken_prism():
    prism = shapes.ngon_prism(24, radius=5.0, height=3.0)
    return TriangleMesh(prism.facets[:40] + prism.facets[44:])


class TestMatchesScalarOracle:
    @given(jittered_soups())
    def test_chaining(self, soup):
        segments, eps = soup
        assert same(_chain_segments(segments, eps), scalar_chain_segments(segments, eps))

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

    def counting_dist(a, b):
        nonlocal calls
        calls += 1
        return _dist(a, b)

    monkeypatch.setattr(slicer, "_dist", counting_dist)
    contours = _chain_segments(segments, 1e-7)
    assert len(segments) == 1024
    assert [(c.closed, len(c.vertices)) for c in contours] == [(True, 512)]
    assert calls < 20 * len(segments)
