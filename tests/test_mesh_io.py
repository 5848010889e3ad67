import math
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amstpa_lab import shapes
from amstpa_lab.mesh_io import (
    BINARY_HEADER,
    Encoding,
    Facet,
    MeshReport,
    MeshTally,
    StlError,
    TriangleMesh,
    Vec3,
    binary_delta,
    emit_stl_ascii,
    emit_stl_binary,
    facets_of,
    parse_stl,
    parse_stl_ascii,
    parse_stl_binary,
    require_finite,
    validate_mesh,
)

DATA = Path(__file__).parent / "data"

finite32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
finite64 = st.floats(allow_nan=False, allow_infinity=False)


def vec3s(elems):
    return st.builds(Vec3, elems, elems, elems)


def meshes(elems, encoding):
    facet = st.builds(Facet, vec3s(elems), vec3s(elems), vec3s(elems), vec3s(elems))
    return st.builds(
        TriangleMesh,
        st.lists(facet, max_size=8).map(tuple),
        st.just(encoding),
    )


class TestParseAscii:
    def test_reference_listing_first_facet(self):
        mesh = parse_stl_ascii((DATA / "cube_ascii_snippet.stl").read_bytes())
        assert len(mesh.facets) == 3
        first = mesh.facets[0]
        assert first.normal == Vec3(9.461808e-17, -0.0, 1.0)
        # -0.0 must survive with its sign bit
        assert math.copysign(1.0, first.normal.y) == -1.0
        assert first.v0 == Vec3(1.443618, -5.518407, 1.280603)
        assert first.v1 == Vec3(1.443618, 0.0, 1.280603)
        assert first.v2 == Vec3(-1.443618, 0.0, 1.280603)
        assert mesh.source_encoding is Encoding.ASCII

    def test_empty_solid(self):
        mesh = parse_stl_ascii(b"solid a\nendsolid a\n")
        assert mesh.facets == ()

    def test_missing_endsolid(self):
        with pytest.raises(StlError, match="endsolid"):
            parse_stl_ascii(b"solid a\n")

    def test_bad_keyword_names_line(self):
        data = b"solid a\nfacet normal 0 0 1\n  outer loop\n  vertex 0 0 0\n"
        with pytest.raises(StlError) as exc:
            parse_stl_ascii(data)
        assert exc.value.line is not None

    def test_two_vertex_loop_rejected(self):
        data = (
            b"solid a\nfacet normal 0 0 1\nouter loop\n"
            b"vertex 0 0 0\nvertex 1 0 0\nendloop\nendfacet\nendsolid a\n"
        )
        with pytest.raises(StlError, match="2 vertices"):
            parse_stl_ascii(data)

    def test_unparseable_float_names_line(self):
        data = (
            b"solid a\nfacet normal 0 0 zz\nouter loop\n"
            b"vertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid a\n"
        )
        with pytest.raises(StlError, match="line 2.*zz"):
            parse_stl_ascii(data)

    def test_not_starting_with_solid(self):
        with pytest.raises(StlError, match="solid"):
            parse_stl_ascii(b"cube 1 2 3\n")


class TestParseBinary:
    def test_empty_file(self):
        data = b"\x00" * 80 + struct.pack("<I", 0)
        assert parse_stl_binary(data).facets == ()

    def test_truncation_names_byte_counts(self):
        data = b"\x00" * 80 + struct.pack("<I", 2) + b"\x00" * 50
        with pytest.raises(StlError, match="expected 184 bytes, got 134"):
            parse_stl_binary(data)

    def test_too_short(self):
        with pytest.raises(StlError, match="84"):
            parse_stl_binary(b"\x00" * 50)

    def test_round_trip_cube(self, cube):
        blob = emit_stl_binary(cube)
        again = parse_stl_binary(blob)
        assert len(again.facets) == 12
        assert emit_stl_binary(again) == blob


class TestEmit:
    def test_empty_mesh_is_84_bytes(self):
        blob = emit_stl_binary(TriangleMesh((), Encoding.BINARY))
        assert len(blob) == 84
        assert struct.unpack_from("<I", blob, 80) == (0,)
        assert blob[:80] == BINARY_HEADER

    def test_fixed_header(self, cube):
        assert emit_stl_binary(cube)[:10] == b"amstpa-lab"

    def test_nonfinite_rejected(self):
        bad = TriangleMesh(
            (Facet(Vec3(0, 0, 1), Vec3(0, 0, float("nan")), Vec3(1, 0, 0), Vec3(0, 1, 0)),),
            Encoding.BINARY,
        )
        with pytest.raises(ValueError, match="non-finite"):
            emit_stl_binary(bad)
        with pytest.raises(ValueError, match="non-finite"):
            emit_stl_ascii(bad, 6)

    def test_beyond_float32_range_rejected(self):
        huge = TriangleMesh(
            (Facet(Vec3(0, 0, 1), Vec3(1e39, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)),),
            Encoding.BINARY,
        )
        with pytest.raises(ValueError, match="32-bit float range"):
            emit_stl_binary(huge)

    def test_ascii_precision_6_reproduces_reference_mantissas(self):
        mesh = TriangleMesh(
            (
                Facet(
                    Vec3(9.461808e-17, -0.0, 1.0),
                    Vec3(1.443618, -5.518407, 1.280603),
                    Vec3(1.443618, 0.0, 1.280603),
                    Vec3(-1.443618, 0.0, 1.280603),
                ),
            ),
            Encoding.ASCII,
        )
        text = emit_stl_ascii(mesh, 6).decode()
        # 2-digit exponents here vs 3-digit in some tools; mantissas must match
        assert "facet normal 9.461808e-17" in text
        assert "vertex 1.443618e+00 -5.518407e+00 1.280603e+00" in text

    @given(meshes(finite32, Encoding.BINARY))
    def test_binary_round_trip_bit_exact(self, mesh):
        blob = emit_stl_binary(mesh)
        assert emit_stl_binary(parse_stl_binary(blob)) == blob

    @given(meshes(finite64, Encoding.ASCII))
    def test_ascii_17_digits_round_trips_exactly(self, mesh):
        assert parse_stl_ascii(emit_stl_ascii(mesh, 17)) == mesh


class TestAutoDetect:
    def test_binary_with_solid_header_falls_back(self, cube):
        blob = bytearray(emit_stl_binary(cube))
        blob[:5] = b"solid"
        mesh = parse_stl(bytes(blob))
        assert mesh.source_encoding is Encoding.BINARY
        assert len(mesh.facets) == 12

    def test_ascii_detected(self):
        mesh = parse_stl(b"solid a\nendsolid a\n")
        assert mesh.source_encoding is Encoding.ASCII

    def test_binary_detected(self, cube):
        assert parse_stl(emit_stl_binary(cube)).source_encoding is Encoding.BINARY


class TestValidate:
    def test_cube_is_watertight(self, cube):
        report = validate_mesh(cube)
        assert report.watertight
        assert report.nonmanifold_edges == 0
        assert report.facet_count == 12
        assert report.degenerate_facets == ()
        assert report.inverted_normals == ()
        assert report.bbox_min == Vec3(0.0, 0.0, 0.0)
        assert report.bbox_max == Vec3(1.0, 1.0, 1.0)

    def test_cube_edge_census(self, cube):
        # brute-force oracle: count undirected edges on exact coordinates
        edges = {}
        for f in cube.facets:
            vs = [(v.x, v.y, v.z) for v in f.vertices]
            for a, b in ((0, 1), (1, 2), (2, 0)):
                key = tuple(sorted([vs[a], vs[b]]))
                edges[key] = edges.get(key, 0) + 1
        assert len(edges) == 18
        assert all(count == 2 for count in edges.values())

    def test_missing_facet_breaks_three_edges(self, cube):
        broken = TriangleMesh(cube.facets[1:], cube.source_encoding)
        report = validate_mesh(broken)
        assert report.nonmanifold_edges == 3
        assert not report.watertight

    @pytest.mark.parametrize(
        "mesh", [shapes.corner_tetrahedron(), shapes.octahedron(), shapes.ngon_prism(8)]
    )
    def test_closed_solids_are_watertight(self, mesh):
        report = validate_mesh(mesh)
        assert report.watertight
        assert report.nonmanifold_edges == 0

    def test_degenerate_facet_listed(self):
        v = Vec3(0.0, 0.0, 0.0)
        mesh = TriangleMesh(
            (Facet(Vec3(0, 0, 1), v, v, Vec3(1.0, 0.0, 0.0)),), Encoding.ASCII
        )
        report = validate_mesh(mesh)
        assert report.degenerate_facets == (0,)

    @pytest.mark.parametrize(
        "bad",
        [{"v1": Vec3(0.0, math.nan, 0.0)}, {"normal": Vec3(0.0, 0.0, -math.inf)}],
        ids=["vertex-nan", "normal-inf"],
    )
    def test_nonfinite_facet_listed(self, cube, bad):
        f = cube.facets[5]
        fields = {"normal": f.normal, "v0": f.v0, "v1": f.v1, "v2": f.v2, **bad}
        mesh = TriangleMesh(cube.facets[:5] + (Facet(**fields),) + cube.facets[6:])
        report = validate_mesh(mesh)
        assert report.nonfinite_facets == (5,)
        assert not report.is_clean()
        assert validate_mesh(cube).nonfinite_facets == ()

    def test_inverted_normal_detected(self, cube):
        flipped = TriangleMesh(
            (
                Facet(
                    Vec3(-cube.facets[0].normal.x, -cube.facets[0].normal.y,
                         -cube.facets[0].normal.z),
                    *cube.facets[0].vertices,
                ),
            )
            + cube.facets[1:],
            cube.source_encoding,
        )
        report = validate_mesh(flipped)
        assert report.inverted_normals == (0,)

    def test_empty_mesh(self):
        report = validate_mesh(TriangleMesh((), Encoding.ASCII))
        assert not report.watertight
        assert report.facet_count == 0

    @given(meshes(st.floats(-100, 100), Encoding.ASCII))
    def test_report_counts_and_bbox(self, mesh):
        report = validate_mesh(mesh)
        assert report.facet_count == len(mesh.facets)
        for f in mesh.facets:
            for v in f.vertices:
                assert report.bbox_min.x <= v.x <= report.bbox_max.x
                assert report.bbox_min.y <= v.y <= report.bbox_max.y
                assert report.bbox_min.z <= v.z <= report.bbox_max.z


# ---------------------------------------------------------------------------
# Scalar oracle: the validator the single-pass one replaced.
# ---------------------------------------------------------------------------


def _vertex_key(v: Vec3) -> bytes:
    return struct.pack("<3d", v.x, v.y, v.z)


def scalar_validate_mesh(mesh: TriangleMesh, area_tol: float = 1e-12) -> MeshReport:
    degenerate: list[int] = []
    nonfinite: list[int] = []
    inverted: list[int] = []
    edge_count: dict[tuple[bytes, bytes], int] = {}

    xs: list[float] = []
    ys: list[float] = []
    zs: list[float] = []
    for i, f in enumerate(mesh.facets):
        # the right-hand-rule normal of (v0, v1, v2), unnormalized
        computed = (f.v1 - f.v0).cross(f.v2 - f.v0)
        area = 0.5 * computed.norm()
        if area < area_tol:
            degenerate.append(i)
        if not all(math.isfinite(c) for v in (f.normal, *f.vertices) for c in (v.x, v.y, v.z)):
            nonfinite.append(i)
        if computed.norm() > 0.0 and f.normal.dot(computed) < 0.0:
            inverted.append(i)
        keys = [_vertex_key(v) for v in f.vertices]
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edge = (min(keys[a], keys[b]), max(keys[a], keys[b]))
            edge_count[edge] = edge_count.get(edge, 0) + 1
        for v in f.vertices:
            xs.append(v.x)
            ys.append(v.y)
            zs.append(v.z)

    nonmanifold = sum(1 for c in edge_count.values() if c != 2)
    if xs:
        bbox_min = Vec3(min(xs), min(ys), min(zs))
        bbox_max = Vec3(max(xs), max(ys), max(zs))
    else:
        bbox_min = bbox_max = Vec3(0.0, 0.0, 0.0)
    return MeshReport(
        facet_count=len(mesh.facets),
        degenerate_facets=tuple(degenerate),
        nonfinite_facets=tuple(nonfinite),
        nonmanifold_edges=nonmanifold,
        inverted_normals=tuple(inverted),
        bbox_min=bbox_min,
        bbox_max=bbox_max,
        watertight=(nonmanifold == 0 and len(mesh.facets) > 0),
    )


def exact(report: MeshReport) -> MeshReport:
    """The report with its box corners as bit patterns, so a NaN equals itself."""
    def bits(v: Vec3) -> bytes:
        return struct.pack("<3d", v.x, v.y, v.z)

    return report._replace(bbox_min=bits(report.bbox_min), bbox_max=bits(report.bbox_max))


# few distinct values, so facets share vertices, collapse and flip; the
# signed zeros and the two NaNs differ only in their bits
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, 1e-7, 1e-160, math.nan, -math.nan, math.inf, -math.inf]
CLOSED = [shapes.box(), shapes.corner_tetrahedron(), shapes.octahedron(), shapes.ngon_prism(5)]


@st.composite
def edited(draw, f: Facet) -> Facet:
    """`f` with its normal flipped or replaced, a vertex replaced, or collapsed."""
    edit = draw(st.sampled_from(["flip", "normal", "v0", "v1", "v2", "collapse"]))
    if edit == "flip":
        return Facet(Vec3(-f.normal.x, -f.normal.y, -f.normal.z), f.v0, f.v1, f.v2)
    if edit == "collapse":
        return Facet(f.normal, f.v0, f.v0, f.v2)
    return f._replace(**{edit: draw(vec3s(st.sampled_from(SPECIAL)))})


@st.composite
def awkward_meshes(draw):
    """A closed solid with some facets edited, or a soup over a small vertex pool."""
    if draw(st.booleans()):
        facets = list(draw(st.sampled_from(CLOSED)).facets)
        for _ in range(draw(st.integers(0, 4))):
            i = draw(st.integers(0, len(facets) - 1))
            facets[i] = draw(edited(facets[i]))
        return TriangleMesh(tuple(facets))
    pool = draw(st.lists(vec3s(st.sampled_from(SPECIAL)), min_size=1, max_size=6))
    vertex = st.sampled_from(pool)
    facet = st.builds(Facet, vec3s(st.sampled_from(SPECIAL) | finite64), vertex, vertex, vertex)
    return TriangleMesh(tuple(draw(st.lists(facet, max_size=10))))


class TestValidateMatchesScalarOracle:
    @given(awkward_meshes(), st.sampled_from([1e-12, 0.0, 0.5, math.inf]))
    def test_awkward_meshes(self, mesh, area_tol):
        assert exact(validate_mesh(mesh, area_tol)) == exact(scalar_validate_mesh(mesh, area_tol))

    @given(meshes(finite64, Encoding.ASCII))
    def test_random_meshes(self, mesh):
        assert exact(validate_mesh(mesh)) == exact(scalar_validate_mesh(mesh))

    def test_signed_zero_vertices_are_distinct(self):
        cube = shapes.box()
        f = cube.facets[0]
        twin = Facet(f.normal, Vec3(-f.v0.x, f.v0.y, f.v0.z), f.v1, f.v2)
        assert f.v0.x == 0.0  # so the twin differs only in the sign of zero
        mesh = TriangleMesh((twin,) + cube.facets[1:])
        report = validate_mesh(mesh)
        assert report == scalar_validate_mesh(mesh)
        assert report.nonmanifold_edges == 4 and not report.watertight

    def test_underflowing_normal_is_not_inverted(self):
        # the cross product is 1e-320 along z, so its norm underflows to 0
        # while its dot with the stored normal is still negative
        tiny = TriangleMesh((Facet(Vec3(0.0, 0.0, -1.0), Vec3(0.0, 0.0, 0.0),
                                   Vec3(1e-160, 0.0, 0.0), Vec3(0.0, 1e-160, 0.0)),))
        report = validate_mesh(tiny)
        assert report == scalar_validate_mesh(tiny)
        assert report.inverted_normals == () and report.degenerate_facets == (0,)

    def test_nan_bounds_follow_facet_order(self):
        # min and max keep a NaN met first, so the box depends on vertex order
        cube = shapes.box()
        f = cube.facets[0]
        first = Facet(f.normal, Vec3(math.nan, f.v0.y, f.v0.z), f.v1, f.v2)
        mesh = TriangleMesh((first,) + cube.facets[1:])
        report = validate_mesh(mesh)
        assert exact(report) == exact(scalar_validate_mesh(mesh))
        assert math.isnan(report.bbox_min.x) and math.isnan(report.bbox_max.x)


# ---------------------------------------------------------------------------
# Per-record oracle: the binary reader the one-pass comprehension replaced.
# ---------------------------------------------------------------------------


def record_loop_parse_stl_binary(data: bytes) -> TriangleMesh:
    (count,) = struct.unpack_from("<I", data, 80)
    facets = []
    for i in range(count):
        values = struct.unpack_from("<12fH", data, 84 + 50 * i)
        facets.append(
            Facet(
                Vec3(*values[0:3]),
                Vec3(*values[3:6]),
                Vec3(*values[6:9]),
                Vec3(*values[9:12]),
            )
        )
    return TriangleMesh(tuple(facets), Encoding.BINARY)


def mesh_bits(mesh: TriangleMesh) -> list[bytes]:
    """Each facet's 12 coordinates as bit patterns, so a NaN equals itself."""
    return [struct.pack("<12d", *f.normal, *f.v0, *f.v1, *f.v2) for f in mesh.facets]


# float32 bit patterns: NaNs of both signs and several payloads, signed
# zeros, infinities, the smallest subnormal and the largest finite value
SPECIAL32 = [0x7FC00000, 0xFFC00000, 0x7F800001, 0x7FBFFFFF, 0x00000000, 0x80000000,
             0x7F800000, 0xFF800000, 0x00000001, 0x7F7FFFFF]
float32_bits = st.sampled_from(SPECIAL32) | st.integers(0, 2**32 - 1)


@st.composite
def binary_stl_files(draw):
    records = draw(st.lists(
        st.tuples(st.lists(float32_bits, min_size=12, max_size=12), st.integers(0, 0xFFFF)),
        max_size=8,
    ))
    body = b"".join(struct.pack("<12IH", *words, attr) for words, attr in records)
    header = draw(st.binary(min_size=80, max_size=80))
    return header + struct.pack("<I", len(records)) + body


class TestBinaryReaderMatchesRecordLoop:
    @given(binary_stl_files())
    def test_random_records(self, data):
        mesh = parse_stl_binary(data)
        oracle = record_loop_parse_stl_binary(data)
        assert mesh_bits(mesh) == mesh_bits(oracle)
        assert mesh.source_encoding is oracle.source_encoding
        assert all(type(f) is Facet and all(type(v) is Vec3 for v in f) for f in mesh.facets)


# ---------------------------------------------------------------------------
# Delta oracle: a binary STL that differs from a known one in a few records,
# read and validated whole.
# ---------------------------------------------------------------------------


def swapped(mesh: TriangleMesh, replaced: dict[int, Facet]) -> TriangleMesh:
    facets = list(mesh.facets)
    for i, f in replaced.items():
        facets[i] = f
    return TriangleMesh(tuple(facets), mesh.source_encoding)


@st.composite
def facet_swaps(draw):
    """A mesh and some of its facets replaced: edited, copied from another of
    its facets, or put back as they were in the closed solid it came from."""
    solid = draw(st.sampled_from(CLOSED))
    facets = list(solid.facets)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(facets) - 1))
        facets[i] = draw(edited(facets[i]))
    mesh = TriangleMesh(tuple(facets))
    replaced = {}
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(facets) - 1))
        replaced[i] = draw(
            st.just(solid.facets[i]) | edited(facets[i]) | st.sampled_from(facets)
        )
    return mesh, replaced


@st.composite
def record_edits(draw):
    """A binary STL and a copy of it with some bytes overwritten."""
    pristine = draw(binary_stl_files())
    data = bytearray(pristine)
    for _ in range(draw(st.integers(0, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):  # sometimes open with "solid", as an ASCII file does
        data[:6] = b"solid "
    return pristine, bytes(data)


class TestDeltaMatchesWholeRead:
    @given(record_edits())
    def test_binary_delta(self, case):
        pristine, data = case
        delta = binary_delta(pristine, data)
        if data[80:84] != pristine[80:84] or data.lstrip()[:5].lower() == b"solid":
            assert delta is None
            return
        replaced, moved = delta
        changed = [i for i in range((len(data) - 84) // 50)
                   if data[84 + 50 * i:134 + 50 * i] != pristine[84 + 50 * i:134 + 50 * i]]
        assert sorted(replaced) == changed
        assert moved == any(data[96 + 50 * i:132 + 50 * i] != pristine[96 + 50 * i:132 + 50 * i]
                            for i in changed)
        assert mesh_bits(swapped(parse_stl(pristine), replaced)) == mesh_bits(parse_stl(data))

    def test_other_lengths_have_no_delta(self, cube):
        pristine = emit_stl_binary(cube)
        assert binary_delta(pristine, pristine[:-1]) is None
        assert binary_delta(pristine, pristine + b"\x00") is None
        assert binary_delta(pristine, pristine) == ({}, False)

    def test_changes_in_several_blocks(self):
        # 200 records: more than one block of compares, and a last block
        # shorter than the others
        mesh = TriangleMesh(shapes.ngon_prism(50).facets * 2)
        pristine = emit_stl_binary(mesh)
        data = bytearray(pristine)
        for i, at in [(0, 0), (63, 49), (64, 12), (150, 47), (199, 20)]:
            data[84 + 50 * i + at] ^= 0x40
        replaced, moved = binary_delta(pristine, bytes(data))
        assert sorted(replaced) == [0, 63, 64, 150, 199] and moved
        assert mesh_bits(swapped(parse_stl(pristine), replaced)) == mesh_bits(parse_stl(data))

    @given(facet_swaps(), st.sampled_from([1e-12, 0.0, 0.5]))
    def test_tally(self, case, area_tol):
        mesh, replaced = case
        oracle = scalar_validate_mesh(swapped(mesh, replaced), area_tol).is_clean()
        assert MeshTally(mesh, area_tol).is_clean_with(replaced) == oracle

    def test_tally_drops_an_edge_no_facet_uses(self, cube):
        # bend one vertex: its two new edges are used once, and the two
        # edges they replace are used once too; bending it back takes the
        # first pair's count from 1 to 0 and the second's from 1 to 2
        f = cube.facets[0]
        bent = TriangleMesh((f._replace(v0=Vec3(0.5, f.v0.y, f.v0.z)),) + cube.facets[1:])
        tally = MeshTally(bent)
        assert tally.nonmanifold == 4
        assert tally.is_clean_with({0: f})
        assert not tally.is_clean_with({})
        assert not tally.is_clean_with({1: cube.facets[1]})

    def test_tally_of_no_facets(self):
        assert not MeshTally(TriangleMesh(())).is_clean_with({})


# ---------------------------------------------------------------------------
# Tuple mesh records: repr, construction and hashing as the frozen
# dataclasses had them
# ---------------------------------------------------------------------------


class TestMeshRecords:
    def test_repr_unchanged(self):
        f = Facet(Vec3(0.0, 0.0, 1.0), Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0),
                  Vec3(0.0, -0.0, 0.0))
        assert repr(f.v2) == "Vec3(x=0.0, y=-0.0, z=0.0)"
        assert repr(f) == (
            "Facet(normal=Vec3(x=0.0, y=0.0, z=1.0), v0=Vec3(x=0.0, y=0.0, z=0.0), "
            "v1=Vec3(x=1.0, y=0.0, z=0.0), v2=Vec3(x=0.0, y=-0.0, z=0.0))"
        )

    def test_keyword_construction(self):
        v = Vec3(z=3.0, x=1.0, y=2.0)
        assert (v.x, v.y, v.z) == (1.0, 2.0, 3.0) and v == Vec3(1.0, 2.0, 3.0)
        f = Facet(v2=v, v1=v, v0=Vec3(0.0, 0.0, 0.0), normal=Vec3(0.0, 0.0, 1.0))
        assert f.vertices == (Vec3(0.0, 0.0, 0.0), v, v)
        assert Vec3._fields == ("x", "y", "z") and Facet._fields == ("normal", "v0", "v1", "v2")

    def test_equal_records_hash_equal(self, cube):
        again = parse_stl_binary(emit_stl_binary(cube))
        assert again.facets == cube.facets
        assert [hash(f) for f in again.facets] == [hash(f) for f in cube.facets]
        assert len(set(cube.facets) | set(again.facets)) == 12

    def test_facets_of_flat_coordinates(self, cube):
        facets = facets_of([x for f in cube.facets for v in f for x in v])
        assert facets == cube.facets
        assert all(type(f) is Facet and all(type(v) is Vec3 for v in f) for f in facets)


# ---------------------------------------------------------------------------
# One-pass mesh kernels against the per-facet code they replaced: the same
# float operations in the same order, so the same bits, bytes and errors
# ---------------------------------------------------------------------------


def sub_by_fields(p: Vec3, q: Vec3) -> Vec3:
    return Vec3(p.x - q.x, p.y - q.y, p.z - q.z)


def cross_by_fields(p: Vec3, q: Vec3) -> Vec3:
    return Vec3(p.y * q.z - p.z * q.y, p.z * q.x - p.x * q.z, p.x * q.y - p.y * q.x)


def facet_by_vectors(a: Vec3, b: Vec3, c: Vec3) -> Facet:
    """shapes._facet as built from Vec3 arithmetic."""
    n = cross_by_fields(sub_by_fields(b, a), sub_by_fields(c, a))
    norm = n.norm()
    return Facet(Vec3(n.x / norm, n.y / norm, n.z / norm), a, b, c)


def require_finite_by_facet(mesh: TriangleMesh) -> None:
    for i, f in enumerate(mesh.facets):
        if not all(map(math.isfinite, f.normal + f.v0 + f.v1 + f.v2)):
            raise ValueError(f"facet {i} has a non-finite coordinate")


def emit_stl_ascii_by_facet(mesh: TriangleMesh, precision: int = 6) -> bytes:
    require_finite_by_facet(mesh)
    if precision < 0:
        raise ValueError("precision must be >= 0")

    def fmt(v: Vec3) -> str:
        return f"{v.x:.{precision}e} {v.y:.{precision}e} {v.z:.{precision}e}"

    parts = ["solid amstpa-lab\n"]
    for f in mesh.facets:
        parts.append(f"facet normal {fmt(f.normal)}\n")
        parts.append("  outer loop\n")
        for v in f.vertices:
            parts.append(f"    vertex {fmt(v)}\n")
        parts.append("  endloop\n")
        parts.append("endfacet\n")
    parts.append("endsolid amstpa-lab\n")
    return "".join(parts).encode("ascii")


def outcome(fn, *args):
    """What `fn(*args)` returns, floats as bits, or the error it raises."""
    try:
        value = fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    if isinstance(value, Facet):
        return mesh_bits(TriangleMesh((value,)))
    return value


F32_MAX = struct.unpack("<f", struct.pack("<I", 0x7F7FFFFF))[0]
# signed zeros, subnormals, huge values, the float32 limit and the first
# double that rounds past it, and the non-finite values
EDGE = [0.0, -0.0, 1.0, -2.5, 5e-324, -5e-324, 2.2250738585072014e-308, 1.401298464324817e-45,
        1e300, -1e300, F32_MAX, -F32_MAX, 3.4028235677973366e38, math.nan, math.inf, -math.inf]
edge_floats = st.sampled_from(EDGE) | st.floats()
edge_vec3s = vec3s(edge_floats)
edge_meshes = meshes(edge_floats, Encoding.ASCII)


class TestMeshKernelsMatchPerFacetOracles:
    @given(edge_vec3s, edge_vec3s)
    def test_vector_arithmetic(self, p, q):
        for got, want in ((p - q, sub_by_fields(p, q)), (p.cross(q), cross_by_fields(p, q))):
            assert type(got) is Vec3 and struct.pack("<3d", *got) == struct.pack("<3d", *want)

    @given(edge_vec3s, edge_vec3s, edge_vec3s)
    def test_facet(self, a, b, c):
        assert outcome(shapes._facet, a, b, c) == outcome(facet_by_vectors, a, b, c)

    def test_facet_on_random_vertices(self):
        # drawn floats are mostly ones whose sums are exact in any order;
        # these are not, so a normal summed in another order shows
        rng = random.Random(23)
        for _ in range(2000):
            a, b, c = (Vec3(*(rng.uniform(-100.0, 100.0) for _ in range(3))) for _ in range(3))
            assert outcome(shapes._facet, a, b, c) == outcome(facet_by_vectors, a, b, c)

    @given(edge_meshes)
    def test_require_finite(self, mesh):
        assert outcome(require_finite, mesh) == outcome(require_finite_by_facet, mesh)

    @given(edge_meshes, st.integers(-1, 17))
    def test_emit_ascii(self, mesh, precision):
        assert (outcome(emit_stl_ascii, mesh, precision)
                == outcome(emit_stl_ascii_by_facet, mesh, precision))

    @pytest.mark.parametrize("mesh", [shapes.box(), shapes.octahedron()], ids=["box", "octahedron"])
    def test_shapes_at_every_precision(self, mesh):
        assert_built_by_vectors(mesh)
        for precision in range(18):
            assert emit_stl_ascii(mesh, precision) == emit_stl_ascii_by_facet(mesh, precision)

    def test_prisms(self):
        # every prism from 3 to 200 sides, each at one precision of 0..17 in turn
        for sides in range(3, 201):
            mesh = shapes.ngon_prism(sides, 10.0, 10.0)
            assert_built_by_vectors(mesh)
            precision = sides % 18
            assert emit_stl_ascii(mesh, precision) == emit_stl_ascii_by_facet(mesh, precision)


def assert_built_by_vectors(mesh: TriangleMesh) -> None:
    again = TriangleMesh(tuple(facet_by_vectors(*f.vertices) for f in mesh.facets))
    assert mesh_bits(mesh) == mesh_bits(again)
