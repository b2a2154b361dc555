"""Snake graphs of strings: tiles, labels, matchings, twists.

Each position of a string word contributes one unit-square tile whose
diagonal is the crossed arc; the tile's four sides carry the flanking
arcs of the two triangles meeting that arc.  Consecutive tiles are
glued right or up along the edge labeled by the third side of the
triangle shared by the two crossings.

Conventions (fixed once, checked by the test suite):

* The step after tile j goes right when letter j is direct and the
  previous step went right, alternating whenever two consecutive
  letters point the same way.  Equivalently: the first step is right
  iff letter 1 is direct, and step j repeats step j-1 iff letters j-1
  and j have opposite directions.
* Each flank class owns one opposite side pair: odd tiles put the
  counterclockwise flanks on south/north and the clockwise ones on
  east/west, even tiles the other way round (even tiles are drawn
  mirrored).
* Within its pair a class's exit flank takes the south/east slot and
  its entry flank the other, except that the exit flank takes N when a
  gluing sits at S (in-glue) or at N (out-glue).  In-glues sit at W or
  S and out-glues at E or N, so the rule puts every glued flank on the
  shared side; a glued flank whose class does not own that side means an
  incoherently oriented triangulation.

The glue sides of every tile and the edge table (each tile's four edge
ids, each edge's (tile, side) pairs, the sorted lattice points) are
fixed when the graph is built, with the word's crossing counts per arc
(g.crossings).  Every geometry query reads them; callers read the edge
table through tile_edges(j) and edge_sides(e).

A matching is an int mask over the graph's sorted edge ids (bit i: the
i-th edge id is matched); ``g.edges(P)`` gives the edge ids of mask P.
The mask tables (each lattice point's edges, one mask per label, each
tile's twist row and west edge) are built with the edge table, so a
twist is an XOR and a label count a popcount.  So are the extremal
matchings: the glue-free edges of the cw (minimal) or ccw (maximal)
flank class, checked to be perfect matchings.  A twist row holds all a
twist at its tile reads: the two opposite pairs and their union, the
edges carrying the tile's diagonal before and after it, and
m_minus - m_plus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BijectionViolation, CannotTwist, InvalidSurface, NotCrossingSequence, UnmatchedCase
from .strings import StringWord, dimension_vector, enumerate_canonical_submodules, is_canonical_submodule
from .surface import Triangulation

__all__ = [
    "Tile",
    "SnakeGraph",
    "snake_shape",
    "label_snake",
    "enumerate_matchings",
    "minimal_matching",
    "maximal_matching",
    "can_twist",
    "twist",
    "enclosed_tiles",
    "matching_to_submodule",
    "bijection_image",
    "canonical_submodules",
    "check_bijection",
]

_SIDES = ("S", "E", "N", "W")
# Each side's two corners, as offsets from its tile's lower-left corner.
_CORNERS = {
    "S": ((0, 0), (1, 0)),
    "E": ((1, 0), (1, 1)),
    "N": ((0, 1), (1, 1)),
    "W": ((0, 0), (0, 1)),
}


def snake_shape(w: StringWord) -> tuple:
    """Sequence of steps "R"/"U" between consecutive tiles."""
    steps = []
    for p, letter in enumerate(w.letters):
        if p == 0:
            steps.append("R" if letter.direct else "U")
        elif letter.direct == w.letters[p - 1].direct:
            steps.append("U" if steps[-1] == "R" else "R")
        else:
            steps.append(steps[-1])
    return tuple(steps)


@dataclass(frozen=True)
class Tile:
    index: int  # 1-based
    diagonal: int
    x: int
    y: int
    tri_in: int
    tri_out: int
    labels: dict  # side -> arc id
    flank_class: dict  # side -> "ccw" | "cw"
    in_glue_side: str | None
    out_glue_side: str | None


class SnakeGraph:
    def __init__(self, word: StringWord, t: Triangulation, shape: tuple, tiles: list) -> None:
        self.word = word
        self.d = len(tiles)
        self.triangulation = t
        self.shape = shape
        self.tiles = tiles
        # How often the word crosses each arc: the expansion's denominator.
        self.crossings = dimension_vector(word, n=t.m)
        # Caches: the matchings, the bijection image (matching -> enclosed
        # tiles), the word's canonical submodules as the generator lists
        # them (word-side data) and the valuation table both routes agreed on.
        self._matchings: list | None = None
        self._image: dict | None = None
        self._canonical: list | None = None
        self._compared: dict | None = None
        # The edge table, read by every geometry query: each tile's side ->
        # edge id, each edge id -> its (tile, side) pairs in tile order, and
        # the sorted lattice points.  Bit i of a matching is edge id i.
        self._tile_edges: list = []
        incidence: dict = {}
        for j, tile in enumerate(tiles, start=1):
            ids = {s: (j, s) for s in _SIDES}
            if tile.in_glue_side is not None:
                ids[tile.in_glue_side] = (j - 1, tiles[j - 2].out_glue_side)
            for side, e in ids.items():
                incidence.setdefault(e, []).append((j, side))
            self._tile_edges.append(ids)
        self._edge_sides = {e: tuple(incidence[e]) for e in sorted(incidence)}
        self._edges = tuple(self._edge_sides)
        bit = {e: 1 << i for i, e in enumerate(self._edges)}
        ends = {e: self.edge_endpoints(e) for e in self._edges}
        self._points = sorted({p for pair in ends.values() for p in pair})
        at = {p: i for i, p in enumerate(self._points)}
        # Mask tables: each lattice point's (endpoint mask, edge bit) pairs,
        # one mask per label, and per tile its twist row and its west edge.
        self._point_options: list = [[] for _ in self._points]
        self._label_masks = [0] * t.m
        named = [0] * len(tiles)  # per tile, the edges named after it (their first tile)
        for e, (a, b) in ends.items():
            option = ((1 << at[a]) | (1 << at[b]), bit[e])
            self._point_options[at[a]].append(option)
            self._point_options[at[b]].append(option)
            self._label_masks[self.edge_label(e) - 1] |= bit[e]
            named[e[0] - 1] |= bit[e]
        # Each tile's twist row (ccw, cw, ccw | cw, before, after, m): its two
        # opposite pairs and their union, the edges carrying its diagonal
        # before and after it, and m_minus - m_plus, how many more times the
        # word crosses that diagonal before the tile than after it.  A tile's
        # sides are the other sides of the two triangles at its diagonal, so
        # no edge of tile j carries its diagonal: the edges that do lie before
        # it (named after an earlier tile) or after it.
        diagonals = [tile.diagonal for tile in tiles]
        self._twist_rows, earlier = [], 0
        for slot, (tile, ids, own) in enumerate(zip(tiles, self._tile_edges, named)):
            ccw, cw = (
                sum(bit[e] for s, e in ids.items() if tile.flank_class[s] == cls)
                for cls in ("ccw", "cw")
            )
            k = tile.diagonal
            tau = self._label_masks[k - 1]
            m = diagonals[:slot].count(k) - diagonals[slot + 1 :].count(k)
            self._twist_rows.append((ccw, cw, ccw | cw, tau & earlier, tau & ~earlier, m))
            earlier |= own
        self._west_bits = [bit[ids["W"]] for ids in self._tile_edges]
        # The extremal matchings: the glue-free edges of flank class cw
        # (minimal) and ccw (maximal); label_snake checks both are perfect.
        glue_free = [
            (bit[e], tiles[j - 1].flank_class[side])
            for e, ((j, side), *glued) in self._edge_sides.items()
            if not glued
        ]
        self._minimal = sum(b for b, cls in glue_free if cls == "cw")
        self._maximal = sum(b for b, cls in glue_free if cls == "ccw")
        # Word-side valuation tables, built by `valuation` on first use.
        self._end_sides: list | None = None
        self._window_bytes: tuple | None = None
        self._omega_prime_rows: dict = {}

    def _slot(self, j: int) -> int:
        """The list slot of tile j; a tile outside 1..d is an UnmatchedCase."""
        if not 1 <= j <= self.d:
            raise UnmatchedCase(f"tile {j} outside 1..{self.d}")
        return j - 1

    def tile(self, j: int) -> Tile:
        return self.tiles[self._slot(j)]

    # -- edges ---------------------------------------------------------

    def tile_edges(self, j: int) -> list:
        """Tile j's (edge id, side) pairs; a glue edge is named after the lower tile."""
        return [(e, s) for s, e in self._tile_edges[self._slot(j)].items()]

    def all_edges(self) -> list:
        return list(self._edges)

    def edge_sides(self, e) -> tuple:
        """The (tile, side) pairs that edge e occupies, by tile."""
        return self._edge_sides[e]

    def edge_label(self, e) -> int:
        j, side = e
        return self.tile(j).labels[side]

    def glue_label(self, j: int) -> int:
        """Label of the edge shared by tiles j and j+1."""
        if j == self.d:
            raise UnmatchedCase(f"tile {j} is the last tile; glue edges follow tiles 1..{j - 1}")
        t = self.tile(j)
        return t.labels[t.out_glue_side]

    def edge_endpoints(self, e) -> tuple:
        j, side = e
        t = self.tile(j)
        (ax, ay), (bx, by) = _CORNERS[side]
        return ((t.x + ax, t.y + ay), (t.x + bx, t.y + by))

    def vertices(self) -> list:
        return list(self._points)

    def edges(self, P: int) -> frozenset:
        """The edge ids of matching mask P."""
        return frozenset(e for i, e in enumerate(self._edges) if P >> i & 1)


def _entry_exit_triangles(w: StringWord, t: Triangulation, j: int) -> tuple:
    """(entry triangle, exit triangle) indices for tile j."""
    d = w.d
    if d == 1:
        tri1, tri2 = t.triangles_at(w.vertices[0])
        return tri1, tri2
    if j == 1:
        out = w.letters[0].arrow.triangle
        return t.other_triangle_at(w.vertices[0], out), out
    if j == d:
        inn = w.letters[d - 2].arrow.triangle
        return inn, t.other_triangle_at(w.vertices[d - 1], inn)
    return w.letters[j - 2].arrow.triangle, w.letters[j - 1].arrow.triangle


def label_snake(w: StringWord, t: Triangulation) -> SnakeGraph:
    """Build the labeled snake graph of a string's crossing sequence."""
    for p, letter in enumerate(w.letters, start=1):
        tri = t.triangles[letter.arrow.triangle]
        if w.vertices[p - 1] not in tri or w.vertices[p] not in tri:
            raise NotCrossingSequence(
                f"letter {p} lives in triangle {tri}, which misses "
                f"{w.vertices[p - 1]} or {w.vertices[p]}"
            )
    for p in range(len(w.letters) - 1):
        if w.letters[p].arrow.triangle == w.letters[p + 1].arrow.triangle:
            raise NotCrossingSequence(
                f"letters {p + 1} and {p + 2} cross inside one triangle"
            )
    for v in w.vertices:
        if not t.is_internal(v):
            raise NotCrossingSequence(f"crossed arc {v} is not internal")

    shape = snake_shape(w)
    tiles = []
    x = y = 0
    for j in range(1, w.d + 1):
        diag = w.vertices[j - 1]
        tri_in, tri_out = _entry_exit_triangles(w, t, j)
        # each class's (entry flank, exit flank) and (south/east, north/west) pair
        flanks = {
            "ccw": (t.ccw_flank(tri_in, diag), t.ccw_flank(tri_out, diag)),
            "cw": (t.cw_flank(tri_in, diag), t.cw_flank(tri_out, diag)),
        }
        sn, ew = ("S", "N"), ("E", "W")
        slot_pair = {"ccw": sn, "cw": ew} if j % 2 == 1 else {"ccw": ew, "cw": sn}
        glued = []  # (class, label, side) of the flanks a gluing pins
        in_glue_side = out_glue_side = None
        if j > 1:
            in_glue_side = "W" if shape[j - 2] == "R" else "S"
            prev_diag = w.vertices[j - 2]
            cls = "ccw" if flanks["ccw"][0] != prev_diag else "cw"
            if flanks[cls][0] == prev_diag:
                raise NotCrossingSequence(
                    f"tile {j}: both entry flanks equal the previous arc {prev_diag}"
                )
            glued.append((cls, flanks[cls][0], in_glue_side))
        if j < w.d:
            out_glue_side = "E" if shape[j - 1] == "R" else "N"
            cls = "ccw" if flanks["ccw"][1] != w.vertices[j] else "cw"
            glued.append((cls, flanks[cls][1], out_glue_side))
        for cls, label, side in glued:
            if side not in slot_pair[cls]:
                raise InvalidSurface(
                    f"tile {j}: {cls} flank {label} forced onto slot {side}; "
                    "the triangulation is not coherently oriented"
                )
        # the exit flank takes south/east, or N when a gluing pins S or N
        labels, classes = {}, {}
        for cls, (exit_slot, entry_slot) in slot_pair.items():
            if exit_slot == "S" and (in_glue_side == "S" or out_glue_side == "N"):
                exit_slot, entry_slot = entry_slot, exit_slot
            labels[entry_slot], labels[exit_slot] = flanks[cls]
            classes[entry_slot] = classes[exit_slot] = cls
        tiles.append(
            Tile(
                index=j,
                diagonal=diag,
                x=x,
                y=y,
                tri_in=tri_in,
                tri_out=tri_out,
                labels=labels,
                flank_class=classes,
                in_glue_side=in_glue_side,
                out_glue_side=out_glue_side,
            )
        )
        if j < w.d:
            if shape[j - 1] == "R":
                x += 1
            else:
                y += 1
    g = SnakeGraph(w, t, shape, tiles)
    _check_glue_coherence(g)
    _check_extremal_matchings(g)
    return g


def _check_glue_coherence(g: SnakeGraph) -> None:
    for j in range(1, g.d):
        low, high = g.tile(j), g.tile(j + 1)
        shared = g.triangulation.third_side(low.tri_out, low.diagonal, high.diagonal)
        if low.labels[low.out_glue_side] != shared or high.labels[high.in_glue_side] != shared:
            raise InvalidSurface(
                f"glue edge between tiles {j} and {j + 1} mislabeled"
            )


def _check_extremal_matchings(g: SnakeGraph) -> None:
    points = g.vertices()
    for name, m in (("minimal", g._minimal), ("maximal", g._maximal)):
        if sorted(p for e in g.edges(m) for p in g.edge_endpoints(e)) != points:
            raise BijectionViolation(f"the {name} matching misses or repeats a lattice point")


# -- matchings ---------------------------------------------------------


def enumerate_matchings(g: SnakeGraph) -> list:
    """All perfect matchings as masks, ordered by their sorted edge ids.

    Backtracking along the snake: repeatedly match the lowest uncovered
    lattice point, kept as the lowest clear bit of a covered-points mask.
    Sizes here are tiny (Fibonacci-bounded in the tile count).
    """
    if g._matchings is not None:
        return g._matchings
    options, full = g._point_options, (1 << len(g._points)) - 1
    results = []
    stack = [(0, 0)]
    while stack:
        covered, chosen = stack.pop()
        if covered == full:
            results.append(chosen)
            continue
        for ends, e in options[(~covered & (covered + 1)).bit_length() - 1]:
            if not covered & ends:
                stack.append((covered | ends, chosen | e))
    # Sorted edge-id tuples compare at their first difference, the lowest
    # bit where two masks differ: the mask holding it comes first.
    width = len(g._edges)
    g._matchings = sorted(results, key=lambda P: f"{P:0{width}b}"[::-1], reverse=True)
    return g._matchings


def minimal_matching(g: SnakeGraph) -> int:
    """The glue-free matching made of clockwise-flank edges only."""
    return g._minimal


def maximal_matching(g: SnakeGraph) -> int:
    """The glue-free matching made of counterclockwise-flank edges only."""
    return g._maximal


def can_twist(g: SnakeGraph, P: int, j: int) -> bool:
    """Whether P meets tile j in exactly one of its opposite pairs."""
    ccw, cw, both = g._twist_rows[g._slot(j)][:3]
    return (P & both) in (ccw, cw)


def twist(g: SnakeGraph, P: int, j: int) -> int:
    """Flip the matching on tile j between its two opposite side pairs."""
    if not can_twist(g, P, j):
        sides = sorted(s for e, s in g.tile_edges(j) if e in g.edges(P))
        raise CannotTwist(f"matching meets tile {j} in sides {sides}")
    return P ^ g._twist_rows[j - 1][2]


def enclosed_tiles(g: SnakeGraph, P: int) -> frozenset:
    """Tiles inside the symmetric difference of P with the minimal matching.

    A tile is enclosed when a leftward ray from it crosses the
    difference cycle an odd number of times.  The vertical edges such a
    ray meets are the west edges of the tiles up to it in its row, so a
    walk along each row toggles at every west edge in the difference.
    """
    diff = P ^ g._minimal
    out = []
    row, inside = None, False
    for tile, west in zip(g.tiles, g._west_bits):
        if tile.y != row:
            row, inside = tile.y, False
        inside ^= diff & west != 0
        if inside:
            out.append(tile.index)
    return frozenset(out)


def bijection_image(g: SnakeGraph) -> dict:
    """Each matching's enclosed tiles, checked canonical; built once per graph
    in enumerate_matchings order and shared, so loops read it, not change it."""
    if g._image is None:
        image = {}
        for P in enumerate_matchings(g):
            indices = enclosed_tiles(g, P)
            if not is_canonical_submodule(g.word, indices):
                raise BijectionViolation(
                    f"enclosed tiles {sorted(indices)} are not a submodule index set"
                )
            image[P] = indices
        g._image = image
    return g._image


def matching_to_submodule(g: SnakeGraph, P: int) -> frozenset:
    indices = bijection_image(g).get(P)
    if indices is None:
        raise BijectionViolation(f"{sorted(g.edges(P))} is not a perfect matching of the graph")
    return indices


def canonical_submodules(g: SnakeGraph) -> list:
    """The word's canonical submodules from the generator, listed once per graph."""
    if g._canonical is None:
        g._canonical = enumerate_canonical_submodules(g.word)
    return g._canonical


def check_bijection(g: SnakeGraph) -> dict:
    """Verify matchings <-> canonical index sets; return the dictionary."""
    image = bijection_image(g)
    if len(image) != len(enumerate_matchings(g)):
        raise BijectionViolation("duplicate matchings")
    if len(set(image.values())) != len(image):
        raise BijectionViolation("matching-to-submodule map is not injective")
    targets = set(canonical_submodules(g))
    if set(image.values()) != targets:
        raise BijectionViolation(
            f"image has {len(set(image.values()))} sets, "
            f"submodule count is {len(targets)}"
        )
    return dict(image)
