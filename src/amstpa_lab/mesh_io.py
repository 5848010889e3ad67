"""STL mesh parsing, emission, and validation.

Supports both ASCII and binary STL with bit-exact binary round-trips.
Coordinates are millimeters, stored as 64-bit floats in memory; binary STL
carries 32-bit floats on the wire (widened on parse, rounded on emit).

Mesh records are tuples: `Vec3`, `Facet`, `TriangleMesh` and `MeshReport`
are NamedTuples, so a facet flattens to its 12 floats by unpacking or
concatenation (`n + a + b + c`), and one builder, `facets_of`, turns flat
coordinates back into facets: the binary reader feeds it each record's
floats.

A binary STL that differs from a known one in a few records need not be read
or validated whole: `binary_delta` finds and reads only the records that
differ, and a `MeshTally` of the known mesh answers whether the changed mesh
is clean from those facets alone, by the same per-facet rules as
`validate_mesh`.
"""

from __future__ import annotations

import logging
import math
import struct
from collections import Counter
from enum import Enum
from itertools import chain, repeat
from operator import countOf
from typing import NamedTuple

log = logging.getLogger(__name__)

BINARY_HEADER = b"amstpa-lab".ljust(80, b"\x00")
# a binary STL record: 12 floats, then the attribute word, written 0 and not read
_RECORD = struct.Struct("<12f2x")
_COUNT = struct.Struct("<I")
_VERTICES = struct.Struct("<9d")
# validate_mesh's and MeshTally's default degenerate-facet area, mm^2
_AREA_TOL = 1e-12
# records compared at once by binary_delta before it looks at single records
_BLOCK = 64 * _RECORD.size
# builds a record from its full field tuple, skipping the keyword __new__
_new = tuple.__new__


class StlError(ValueError):
    """Malformed STL input.  `line` is 1-based for ASCII, None for binary."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Encoding(Enum):
    ASCII = "ascii"
    BINARY = "binary"


class Vec3(NamedTuple):
    x: float
    y: float
    z: float

    def __sub__(self, other: "Vec3") -> "Vec3":
        x, y, z = self
        u, v, w = other
        return _new(Vec3, (x - u, y - v, z - w))

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        x, y, z = self
        u, v, w = other
        return _new(Vec3, (y * w - z * v, z * u - x * w, x * v - y * u))

    def norm(self) -> float:
        return math.sqrt(self.dot(self))


class Facet(NamedTuple):
    normal: Vec3
    v0: Vec3
    v1: Vec3
    v2: Vec3

    @property
    def vertices(self) -> tuple[Vec3, Vec3, Vec3]:
        return self[1:]


class TriangleMesh(NamedTuple):
    facets: tuple[Facet, ...]
    source_encoding: Encoding = Encoding.ASCII


class MeshReport(NamedTuple):
    facet_count: int
    degenerate_facets: tuple[int, ...]
    nonfinite_facets: tuple[int, ...]
    nonmanifold_edges: int
    inverted_normals: tuple[int, ...]
    bbox_min: Vec3
    bbox_max: Vec3
    watertight: bool

    def is_clean(self) -> bool:
        return (
            self.watertight
            and not self.degenerate_facets
            and not self.nonfinite_facets
            and not self.inverted_normals
        )


def _parse_float(token: str, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise StlError(f"unparseable float {token!r}", line) from None


def parse_stl_ascii(data: bytes) -> TriangleMesh:
    """Parse ASCII STL.  Keywords are matched case-insensitively.

    Raises StlError with a 1-based line number on malformed keyword
    sequences, loops without exactly 3 vertices, or bad floats.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StlError(f"not valid UTF-8 text: {exc}") from None

    # (line_no, tokens) for each non-blank line
    lines = [
        (i + 1, raw.split())
        for i, raw in enumerate(text.splitlines())
        if raw.strip()
    ]
    if not lines:
        raise StlError("empty input, expected 'solid'", 1)

    pos = 0

    def peek_kw() -> str:
        return lines[pos][1][0].lower() if pos < len(lines) else ""

    line_no, tokens = lines[pos]
    if tokens[0].lower() != "solid":
        raise StlError(f"expected 'solid', got {tokens[0]!r}", line_no)
    pos += 1

    facets: list[Facet] = []
    while pos < len(lines):
        line_no, tokens = lines[pos]
        kw = tokens[0].lower()
        if kw == "endsolid":
            pos += 1
            break
        if kw != "facet":
            raise StlError(f"expected 'facet' or 'endsolid', got {tokens[0]!r}", line_no)
        if len(tokens) != 5 or tokens[1].lower() != "normal":
            raise StlError("expected 'facet normal nx ny nz'", line_no)
        normal = Vec3(*(_parse_float(t, line_no) for t in tokens[2:5]))
        pos += 1

        line_no, tokens = lines[pos] if pos < len(lines) else (line_no, [""])
        if [t.lower() for t in tokens] != ["outer", "loop"]:
            raise StlError("expected 'outer loop'", line_no)
        pos += 1

        verts: list[Vec3] = []
        while pos < len(lines) and peek_kw() == "vertex":
            line_no, tokens = lines[pos]
            if len(tokens) != 4:
                raise StlError("expected 'vertex x y z'", line_no)
            verts.append(Vec3(*(_parse_float(t, line_no) for t in tokens[1:4])))
            pos += 1
        if len(verts) != 3:
            where = lines[pos][0] if pos < len(lines) else line_no
            raise StlError(f"loop has {len(verts)} vertices, expected 3", where)

        line_no, tokens = lines[pos] if pos < len(lines) else (line_no, [""])
        if tokens[0].lower() != "endloop":
            raise StlError(f"expected 'endloop', got {tokens[0]!r}", line_no)
        pos += 1
        line_no, tokens = lines[pos] if pos < len(lines) else (line_no, [""])
        if tokens[0].lower() != "endfacet":
            raise StlError(f"expected 'endfacet', got {tokens[0]!r}", line_no)
        pos += 1
        facets.append(Facet(normal, verts[0], verts[1], verts[2]))
    else:
        raise StlError("missing 'endsolid'", lines[-1][0])

    if pos < len(lines):
        raise StlError("content after 'endsolid'", lines[pos][0])
    return TriangleMesh(tuple(facets), Encoding.ASCII)


def parse_stl_binary(data: bytes) -> TriangleMesh:
    """Parse binary STL: 80-byte header, uint32 LE count, 50-byte records.

    The declared record count must account for the file length exactly.
    """
    if len(data) < 84:
        raise StlError(f"binary STL needs at least 84 bytes, got {len(data)}")
    (count,) = _COUNT.unpack_from(data, 80)
    expected = 84 + 50 * count
    if len(data) != expected:
        raise StlError(
            f"truncated or oversized binary STL: {count} facets declared, "
            f"expected {expected} bytes, got {len(data)}"
        )
    floats = chain.from_iterable(_RECORD.iter_unpack(data[84:]))
    return TriangleMesh(facets_of(floats), Encoding.BINARY)


def facets_of(coords) -> tuple[Facet, ...]:
    """The facets of flat coordinates, 12 per facet: the normal, then three vertices."""
    values = iter(coords)
    vectors = map(_new, repeat(Vec3), zip(values, values, values))
    return tuple(map(_new, repeat(Facet), zip(vectors, vectors, vectors, vectors)))


def _opens_with_solid(data: bytes) -> bool:
    return data.lstrip()[:5].lower() == b"solid"


def parse_stl(data: bytes) -> TriangleMesh:
    """Auto-detect encoding.

    Files that open with 'solid' are tried as ASCII first; if that fails
    they are retried as binary (a common real-world malformation), with the
    fallback logged.
    """
    if _opens_with_solid(data):
        try:
            return parse_stl_ascii(data)
        except StlError as ascii_err:
            try:
                mesh = parse_stl_binary(data)
            except StlError:
                raise ascii_err from None
            log.warning(
                "input starts with 'solid' but is not valid ASCII STL (%s); "
                "parsed as binary instead",
                ascii_err,
            )
            return mesh
    return parse_stl_binary(data)


def binary_delta(pristine: bytes, data: bytes) -> tuple[dict[int, Facet], bool] | None:
    """The facets `data` changes in `pristine`, a well-formed binary STL.

    Returns None unless parse_stl reads `data` as binary STL with the
    length and the count word of `pristine`.  Otherwise parse_stl(data) is
    parse_stl(pristine) with some facets replaced: returns those facets by
    index, read from only the records that differ, and whether any of those
    records differs in its 36 vertex bytes.
    """
    if len(data) != len(pristine) or data[80:84] != pristine[80:84] or _opens_with_solid(data):
        return None
    size = _RECORD.size
    changed: list[int] = []  # byte offsets of the records that differ
    for block in range(84, len(data), _BLOCK):
        end = block + _BLOCK
        if data[block:end] != pristine[block:end]:
            changed += (
                at for at in range(block, min(end, len(data)), size)
                if data[at:at + size] != pristine[at:at + size]
            )
    moved = any(data[at + 12:at + 48] != pristine[at + 12:at + 48] for at in changed)
    records = b"".join(data[at:at + size] for at in changed)
    facets = facets_of(chain.from_iterable(_RECORD.iter_unpack(records)))
    return {(at - 84) // size: f for at, f in zip(changed, facets)}, moved


def require_finite(mesh: TriangleMesh) -> None:
    """Raise ValueError naming the first facet with a NaN or infinite coordinate."""
    facets = mesh.facets
    if not _finite(chain.from_iterable(chain.from_iterable(facets))):
        # only a bad mesh pays for finding which facet to name
        i = next(i for i, (n, a, b, c) in enumerate(facets) if not _finite(n + a + b + c))
        raise ValueError(f"facet {i} has a non-finite coordinate")


def emit_stl_binary(mesh: TriangleMesh) -> bytes:
    """Emit binary STL with the fixed 80-byte header and zero attributes."""
    require_finite(mesh)
    out = bytearray(BINARY_HEADER)
    out += _COUNT.pack(len(mesh.facets))
    for i, (n, a, b, c) in enumerate(mesh.facets):
        try:
            out += _RECORD.pack(*n, *a, *b, *c)
        except OverflowError:
            raise ValueError(f"facet {i} has a coordinate beyond 32-bit float range") from None
    return bytes(out)


def emit_stl_ascii(mesh: TriangleMesh, precision: int = 6) -> bytes:
    """Emit ASCII STL using lowercase scientific notation.

    `precision` is the number of digits after the decimal point; 17 is
    enough to round-trip any 64-bit float exactly.  Exponents are emitted
    with the platform-standard 2-digit width.
    """
    require_finite(mesh)
    if precision < 0:
        raise ValueError("precision must be >= 0")
    xyz = " ".join([f"{{:.{precision}e}}"] * 3)
    facet = (f"facet normal {xyz}\n  outer loop\n" + f"    vertex {xyz}\n" * 3
             + "  endloop\nendfacet\n").format
    body = "".join([facet(*n, *a, *b, *c) for n, a, b, c in mesh.facets])
    return f"solid amstpa-lab\n{body}endsolid amstpa-lab\n".encode("ascii")


def _finite(coords) -> bool:
    return all(map(math.isfinite, coords))


def _facet_checks(facets, area_tol: float):
    """validate_mesh's per-facet rules, over `facets` in order.

    Returns the positions in `facets` of the degenerate, the non-finite and
    the inverted facets, the keys of each facet's three undirected edges, and
    x, y, z of every vertex.
    """
    degenerate: list[int] = []
    nonfinite: list[int] = []
    inverted: list[int] = []
    edges: list[bytes] = []
    points: list[float] = []  # x, y, z of every vertex in facet order
    pack = _VERTICES.pack
    for i, (n, a, b, c) in enumerate(facets):
        coords = n + a + b + c
        nx, ny, nz, ax, ay, az, bx, by, bz, cx, cy, cz = coords
        # right-hand-rule normal (v1 - v0) x (v2 - v0)
        ux, uy, uz = bx - ax, by - ay, bz - az
        wx, wy, wz = cx - ax, cy - ay, cz - az
        px, py, pz = uy * wz - uz * wy, uz * wx - ux * wz, ux * wy - uy * wx
        norm = math.sqrt(px * px + py * py + pz * pz)
        if 0.5 * norm < area_tol:
            degenerate.append(i)
        if not _finite(coords):
            nonfinite.append(i)
        if norm > 0.0 and nx * px + ny * py + nz * pz < 0.0:
            inverted.append(i)
        # vertex keys are their exact bit patterns, deliberately stricter
        # than epsilon snapping: -0.0 and 0.0 differ, a NaN matches its bits;
        # an edge's key is its two vertex keys, the lesser first
        vertices = coords[3:]
        keys = pack(*vertices)
        k0, k1, k2 = keys[:24], keys[24:48], keys[48:]
        edges += (
            k0 + k1 if k0 < k1 else k1 + k0,
            k1 + k2 if k1 < k2 else k2 + k1,
            k2 + k0 if k2 < k0 else k0 + k2,
        )
        points += vertices
    return degenerate, nonfinite, inverted, edges, points


def _nonmanifold_edges(uses: Counter) -> int:
    """Edges not shared by exactly two facets; `uses` counts each edge's facets."""
    return len(uses) - countOf(uses.values(), 2)


def validate_mesh(mesh: TriangleMesh, area_tol: float = _AREA_TOL) -> MeshReport:
    """Produce a validation report; never raises.

    Degenerate facets have area < area_tol (mm^2).  Non-finite facets have a
    NaN or infinite coordinate in a vertex or the normal.  Manifoldness counts
    undirected edges (on bit-identical vertices) not shared by exactly two
    facets.  Inverted facets have a stored normal opposing the computed
    right-hand-rule normal.
    """
    degenerate, nonfinite, inverted, edges, points = _facet_checks(mesh.facets, area_tol)
    nonmanifold = _nonmanifold_edges(Counter(edges))
    if points:
        xs, ys, zs = points[0::3], points[1::3], points[2::3]
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


class MeshTally:
    """validate_mesh's per-facet findings on one mesh, kept to judge meshes
    that replace a few of its facets.

    `is_clean_with(replaced)` equals validate_mesh(the mesh with `replaced`
    swapped in, same area_tol).is_clean(), worked out from the replaced
    facets alone.
    """

    def __init__(self, mesh: TriangleMesh, area_tol: float = _AREA_TOL):
        degenerate, nonfinite, inverted, edges, _ = _facet_checks(mesh.facets, area_tol)
        self.facets = mesh.facets
        self.area_tol = area_tol
        self.flagged = frozenset(degenerate + nonfinite + inverted)
        self.edges = Counter(edges)
        self.nonmanifold = _nonmanifold_edges(self.edges)

    def is_clean_with(self, replaced: dict[int, Facet]) -> bool:
        if not self.facets or not self.flagged.issubset(replaced):
            return False
        degenerate, nonfinite, inverted, added, _ = _facet_checks(replaced.values(), self.area_tol)
        if degenerate or nonfinite or inverted:
            return False
        removed = _facet_checks([self.facets[i] for i in replaced], self.area_tol)[3]
        change = Counter(added)
        change.subtract(removed)
        nonmanifold = self.nonmanifold
        for edge, d in change.items():
            before = self.edges[edge]
            # an edge no facet uses any more drops out, as it does from
            # validate_mesh's count
            nonmanifold += (before + d not in (0, 2)) - (before not in (0, 2))
        return nonmanifold == 0
