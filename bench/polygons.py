"""Seeded random triangulations of convex polygons, as surface JSON.

The n-gon has vertices 0..n-1 in counterclockwise order.  Its n - 3
diagonals are the internal arcs (ids 1..n-3, in sorted vertex order),
its n sides the boundary arcs (ids n-2..2n-3, side (i, i+1) first and
the closing side (0, n-1) last).  Each triangle lists its sides as a
counterclockwise arc triple, the convention of the bundled surfaces.

The generator draws a triangulation by splitting the polygon at a
random apex over the side (0, n-1) and recursing into both halves.  It
redraws until the triangulation has the requested number of internal
triangles (triangles with three diagonals as sides).  That number fixes
the arrow count of the quiver, so every seed gives the same number of
strings of at most two vertices, and so the same amount of work for a
length-two `verify`, while the triangulation itself changes.
"""

from __future__ import annotations

import random

MAX_DRAWS = 10_000


def _triangles(n: int, rng: random.Random) -> list:
    out = []
    stack = [(0, n - 1)]
    while stack:
        a, c = stack.pop()
        if c - a < 2:
            continue
        b = rng.randint(a + 1, c - 1)
        out.append((a, b, c))
        stack += [(a, b), (b, c)]
    return out


def _surface(n: int, triangles: list) -> dict:
    sides = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    edges = {e for a, b, c in triangles for e in ((a, b), (b, c), (a, c))}
    diagonals = sorted(edges - set(sides))
    ids = {e: k + 1 for k, e in enumerate(diagonals + sides)}
    return {
        "name": f"polygon{n}",
        "arcs": [{"id": ids[e], "kind": "internal"} for e in diagonals]
        + [{"id": ids[e], "kind": "boundary"} for e in sides],
        # a < b < c run counterclockwise: sides ab, bc, then ca
        "triangles": [[ids[(a, b)], ids[(b, c)], ids[(a, c)]] for a, b, c in sorted(triangles)],
    }


def internal_triangles(surface: dict) -> int:
    internal = {arc["id"] for arc in surface["arcs"] if arc["kind"] == "internal"}
    return sum(1 for tri in surface["triangles"] if set(tri) <= internal)


def polygon(n: int, internal: int, rng: random.Random) -> dict:
    """A random triangulated n-gon with exactly ``internal`` internal triangles."""
    if n < 4:
        raise ValueError(f"a polygon with internal arcs needs n >= 4, got {n}")
    for _ in range(MAX_DRAWS):
        surface = _surface(n, _triangles(n, rng))
        if internal_triangles(surface) == internal:
            return surface
    raise ValueError(f"no {n}-gon with {internal} internal triangles in {MAX_DRAWS} draws")
