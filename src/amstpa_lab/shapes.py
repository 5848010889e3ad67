"""Programmatic test solids: closed, consistently oriented triangle meshes."""

from __future__ import annotations

import math

from .mesh_io import Encoding, Facet, TriangleMesh, Vec3


# builds a record from its full field tuple, skipping the keyword __new__
_new = tuple.__new__


def _facet(a: Vec3, b: Vec3, c: Vec3) -> Facet:
    """The facet a, b, c under the unit normal (b - a) x (c - a)."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = a, b, c
    ux, uy, uz = bx - ax, by - ay, bz - az
    wx, wy, wz = cx - ax, cy - ay, cz - az
    nx, ny, nz = uy * wz - uz * wy, uz * wx - ux * wz, ux * wy - uy * wx
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    return _new(Facet, (_new(Vec3, (nx / norm, ny / norm, nz / norm)), a, b, c))


def box(lo: Vec3 = Vec3(0.0, 0.0, 0.0), hi: Vec3 = Vec3(1.0, 1.0, 1.0)) -> TriangleMesh:
    """Axis-aligned box as 12 outward-facing triangles."""
    if not (lo.x < hi.x and lo.y < hi.y and lo.z < hi.z):
        raise ValueError("box corners must satisfy lo < hi on every axis")
    p = {
        (i, j, k): Vec3(hi.x if i else lo.x, hi.y if j else lo.y, hi.z if k else lo.z)
        for i in (0, 1)
        for j in (0, 1)
        for k in (0, 1)
    }
    quads = [
        # cyclic vertex order, outward per right-hand rule
        (p[0, 0, 0], p[0, 1, 0], p[1, 1, 0], p[1, 0, 0]),  # bottom (-z)
        (p[0, 0, 1], p[1, 0, 1], p[1, 1, 1], p[0, 1, 1]),  # top (+z)
        (p[0, 0, 0], p[1, 0, 0], p[1, 0, 1], p[0, 0, 1]),  # front (-y)
        (p[0, 1, 0], p[0, 1, 1], p[1, 1, 1], p[1, 1, 0]),  # back (+y)
        (p[0, 0, 0], p[0, 0, 1], p[0, 1, 1], p[0, 1, 0]),  # left (-x)
        (p[1, 0, 0], p[1, 1, 0], p[1, 1, 1], p[1, 0, 1]),  # right (+x)
    ]
    facets = []
    for a, b, c, d in quads:
        facets.append(_facet(a, b, c))
        facets.append(_facet(a, c, d))
    return TriangleMesh(tuple(facets), Encoding.BINARY)


def corner_tetrahedron() -> TriangleMesh:
    """Tetrahedron with vertices at the origin and the three unit axes."""
    a = Vec3(0.0, 0.0, 0.0)
    b = Vec3(1.0, 0.0, 0.0)
    c = Vec3(0.0, 1.0, 0.0)
    d = Vec3(0.0, 0.0, 1.0)
    return TriangleMesh(
        (
            _facet(a, c, b),  # base z=0, outward -z
            _facet(a, b, d),  # y=0 face, outward -y
            _facet(a, d, c),  # x=0 face, outward -x
            _facet(b, c, d),  # slanted face, outward (1,1,1)
        ),
        Encoding.BINARY,
    )


def octahedron(radius: float = 1.0) -> TriangleMesh:
    """Regular octahedron with vertices on the coordinate axes."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    facets = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                a = Vec3(sx * radius, 0.0, 0.0)
                b = Vec3(0.0, sy * radius, 0.0)
                c = Vec3(0.0, 0.0, sz * radius)
                if sx * sy * sz > 0:
                    facets.append(_facet(a, b, c))
                else:
                    facets.append(_facet(a, c, b))
    return TriangleMesh(tuple(facets), Encoding.BINARY)


def ngon_prism(sides: int, radius: float = 1.0, height: float = 1.0) -> TriangleMesh:
    """Closed prism over a regular polygon, axis along +z from z=0."""
    if sides < 3:
        raise ValueError("a prism needs at least 3 sides")
    ring = [
        (radius * math.cos(2.0 * math.pi * k / sides), radius * math.sin(2.0 * math.pi * k / sides))
        for k in range(sides)
    ]
    bot = [Vec3(x, y, 0.0) for x, y in ring]
    top = [Vec3(x, y, height) for x, y in ring]
    cb = Vec3(0.0, 0.0, 0.0)
    ct = Vec3(0.0, 0.0, height)
    facets = []
    for k in range(sides):
        k2 = (k + 1) % sides
        facets.append(_facet(cb, bot[k2], bot[k]))      # bottom fan, -z
        facets.append(_facet(ct, top[k], top[k2]))      # top fan, +z
        facets.append(_facet(bot[k], bot[k2], top[k2]))  # side wall
        facets.append(_facet(bot[k], top[k2], top[k]))
    return TriangleMesh(tuple(facets), Encoding.BINARY)
