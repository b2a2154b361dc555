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

One pass over the tiles builds the graph's tables, with the word's
crossing counts per arc (g.crossings); no query re-derives them.  A tile
names its own sides in sorted order, all but its in-glue side (named by
the tile below), so the edge ids come out sorted; callers read the edge
table through tile_edges(j) and edge_sides(e).  Lattice points are
numbered along the snake: tile 1's corners are 0..3, tile j adds 2j, 2j+1.

A matching is an int mask over the graph's sorted edge ids (bit i: the
i-th edge id is matched); ``g.edges(P)`` gives the edge ids of mask P.
The tiles a matching encloses are an index set, an int mask with bit j
for tile j, as the word's canonical submodules are.
The same pass builds the mask tables (each lattice point's edges, each
edge's endpoints, one mask per label, each tile's twist row, glue label
and west edge, row by row), so a twist is an XOR and a label count a
popcount.  So are the extremal matchings: the glue-free edges of the cw
(minimal) or ccw (maximal) flank class, checked to be perfect matchings.
A twist row holds all a twist at its tile reads: the two opposite pairs
and their union, the edges carrying the tile's diagonal before and after
it, and m_minus - m_plus.  Matchings are sorted by edge ids with one
bytes key per mask (strings.sort_masks).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .errors import BijectionViolation, CannotTwist, InvalidSurface, NotCrossingSequence, UnmatchedCase
from .strings import StringWord, dimension_vector, enumerate_canonical_submodules, is_canonical_submodule
from .strings import positions, sort_masks
from .surface import Triangulation

__all__ = [
    "Tile",
    "SnakeGraph",
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
_SORTED_SIDES = ("E", "N", "S", "W")  # a tile's own edge ids (j, side), in order
# Each side's two corners, as corner numbers c: offset (c & 1, c >> 1) from
# the tile's lower-left corner.
_SIDE_CORNERS = {"S": (0, 1), "E": (1, 3), "N": (2, 3), "W": (0, 2)}
# Each side's flank class on even and on odd tiles, shared read-only by the tiles.
_FLANK_CLASSES = tuple(
    MappingProxyType({"S": sn, "E": ew, "N": sn, "W": ew}) for sn, ew in (("cw", "ccw"), ("ccw", "cw"))
)


def _snake_shape(w: StringWord) -> tuple:
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


class Tile(NamedTuple):
    index: int  # 1-based
    diagonal: int
    x: int
    y: int
    tri_in: int
    tri_out: int
    labels: dict  # side -> arc id
    flank_class: MappingProxyType  # side -> "ccw" | "cw"
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
        # The one pass over the tiles (module docstring).  Per edge id its
        # (tile, side) pairs and endpoint mask; per lattice point its
        # (endpoint mask, edge bit) options.
        self._edge_sides: dict = {}
        self._edge_ends: list = []
        self._point_options: list = [[] for _ in range(2 * self.d + 2)]
        self._label_masks = [0] * t.m
        self._glue_labels: list = []
        self._west_rows: list = []  # per row of tiles, its (tile, west edge bit) pairs
        corners, out_glue, free, pairs = (0, 1, 2, 3), None, {"ccw": 0, "cw": 0}, []
        for j, tile in enumerate(tiles, start=1):
            labels, classes, in_side = tile.labels, tile.flank_class, tile.in_glue_side
            if in_side == "W":
                corners = (corners[1], 2 * j, corners[3], 2 * j + 1)
            elif in_side == "S":
                corners = (corners[2], corners[3], 2 * j, 2 * j + 1)
            # the tile below's out-glue (edge id, bit), read before E or N (sorted first) resets it
            first, in_glue, pair = len(self._edge_ends), out_glue, {"ccw": 0, "cw": 0}
            for side in _SORTED_SIDES:
                if side == in_side:
                    e, bit = in_glue
                    self._edge_sides[e] += ((j, side),)
                else:
                    bit = 1 << len(self._edge_ends)
                    a, b = (corners[c] for c in _SIDE_CORNERS[side])
                    ends = 1 << a | 1 << b
                    self._edge_ends.append(ends)
                    self._point_options[a].append((ends, bit))
                    self._point_options[b].append((ends, bit))
                    self._edge_sides[j, side] = ((j, side),)
                    self._label_masks[labels[side] - 1] |= bit
                    if side == tile.out_glue_side:
                        out_glue = (j, side), bit
                        self._glue_labels.append(labels[side])
                    else:  # the glue-free edges: cw ones are minimal, ccw maximal
                        free[classes[side]] |= bit
                pair[classes[side]] |= bit
                if side == "W":
                    if j == 1 or tile.y != tiles[j - 2].y:
                        self._west_rows.append([])
                    self._west_rows[-1].append((j, bit))
            pairs.append((pair["ccw"], pair["cw"], first, tile.diagonal))
        self._edges = tuple(self._edge_sides)
        self._minimal, self._maximal = free["cw"], free["ccw"]
        # Each tile's twist row (ccw, cw, ccw | cw, before, after, m): its two
        # opposite pairs and their union, the edges carrying its diagonal
        # before and after it, and m_minus - m_plus, how many more times the
        # word crosses that diagonal before the tile than after it.  A tile's
        # sides are the other sides of the two triangles at its diagonal, so
        # no edge of tile j carries its diagonal: the edges that do lie before
        # it (named after an earlier tile: the bits below its first) or after it.
        self._twist_rows, seen = [], {}
        for ccw, cw, first, k in pairs:
            tau, before = self._label_masks[k - 1], seen.get(k, 0)
            seen[k] = before + 1
            m = 2 * before + 1 - self.crossings[k - 1]
            self._twist_rows.append((ccw, cw, ccw | cw, tau & ((1 << first) - 1), tau >> first << first, m))
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
        tile = self.tiles[self._slot(j)]
        return [
            ((j - 1, self.tiles[j - 2].out_glue_side) if s == tile.in_glue_side else (j, s), s)
            for s in _SIDES
        ]

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
        return self._glue_labels[self._slot(j)]

    def edge_endpoints(self, e) -> tuple:
        j, side = e
        t = self.tile(j)
        return tuple((t.x + (c & 1), t.y + (c >> 1)) for c in _SIDE_CORNERS[side])

    def vertices(self) -> list:
        """The lattice points, sorted."""
        return sorted({p for e in self._edges for p in self.edge_endpoints(e)})

    def edges(self, P: int) -> frozenset:
        """The edge ids of matching mask P."""
        return frozenset(e for i, e in enumerate(self._edges) if P >> i & 1)


def _crossed_triangles(w: StringWord, t: Triangulation) -> list:
    """The triangles the curve passes through, in order: tile j enters from
    the (j-1)-th (from 0) and exits into the j-th."""
    mid = [letter.arrow.triangle for letter in w.letters]
    if not mid:
        return t.triangles_at(w.vertices[0])
    return [t.other_triangle_at(w.vertices[0], mid[0]), *mid, t.other_triangle_at(w.vertices[-1], mid[-1])]


def label_snake(w: StringWord, t: Triangulation) -> SnakeGraph:
    """Build the labeled snake graph of a string's crossing sequence."""
    arcs, triangles = w.vertices, t.triangles
    for p, letter in enumerate(w.letters, start=1):
        index = letter.arrow.triangle
        if not 0 <= index < len(triangles):
            raise NotCrossingSequence(
                f"letter {p} ({letter}) names triangle {index}, but the surface "
                f"has {len(triangles)} triangles"
            )
        tri = triangles[index]
        if arcs[p - 1] not in tri or arcs[p] not in tri:
            raise NotCrossingSequence(
                f"letter {p} lives in triangle {tri}, which misses "
                f"{arcs[p - 1]} or {arcs[p]}"
            )
    for p in range(len(w.letters) - 1):
        if w.letters[p].arrow.triangle == w.letters[p + 1].arrow.triangle:
            raise NotCrossingSequence(f"letters {p + 1} and {p + 2} cross inside one triangle")
    for v in arcs:
        if not t.is_internal(v):
            raise NotCrossingSequence(f"crossed arc {v} is not internal")

    shape, path = _snake_shape(w), _crossed_triangles(w, t)
    d = len(arcs)
    tiles = []
    x = y = 0
    for j in range(1, d + 1):
        diag, tri_in, tri_out = arcs[j - 1], path[j - 1], path[j]
        # each class's (entry flank, exit flank)
        ccw = t.ccw_flank(tri_in, diag), t.ccw_flank(tri_out, diag)
        cw = t.cw_flank(tri_in, diag), t.cw_flank(tri_out, diag)
        # odd tiles put the ccw class on south/north and cw on east/west
        classes = _FLANK_CLASSES[j % 2]
        sn, ew = (ccw, cw) if j % 2 else (cw, ccw)
        glued = []  # (class, label, side) of the flanks a gluing pins
        in_glue_side = out_glue_side = None
        if j > 1:
            in_glue_side = "W" if shape[j - 2] == "R" else "S"
            prev_diag = arcs[j - 2]
            cls, label = ("ccw", ccw[0]) if ccw[0] != prev_diag else ("cw", cw[0])
            if label == prev_diag:
                raise NotCrossingSequence(f"tile {j}: both entry flanks equal the previous arc {prev_diag}")
            glued.append((cls, label, in_glue_side))
        if j < d:
            out_glue_side = "E" if shape[j - 1] == "R" else "N"
            cls, label = ("ccw", ccw[1]) if ccw[1] != arcs[j] else ("cw", cw[1])
            glued.append((cls, label, out_glue_side))
        for cls, label, side in glued:
            if classes[side] != cls:
                raise InvalidSurface(
                    f"tile {j}: {cls} flank {label} forced onto slot {side}; "
                    "the triangulation is not coherently oriented"
                )
        # each class's exit flank takes south/east and its entry flank
        # north/west, except that the exit flank takes N when a gluing pins S or N
        if in_glue_side == "S" or out_glue_side == "N":
            labels = {"S": sn[0], "E": ew[1], "N": sn[1], "W": ew[0]}
        else:
            labels = {"S": sn[1], "E": ew[1], "N": sn[0], "W": ew[0]}
        tiles.append(
            Tile(index=j, diagonal=diag, x=x, y=y, tri_in=tri_in, tri_out=tri_out, labels=labels,
                 flank_class=classes, in_glue_side=in_glue_side, out_glue_side=out_glue_side)
        )
        x, y = (x + 1, y) if out_glue_side == "E" else (x, y + 1)
    g = SnakeGraph(w, t, shape, tiles)
    _check_glue_coherence(g)
    _check_extremal_matchings(g)
    return g


def _check_glue_coherence(g: SnakeGraph) -> None:
    t = g.triangulation
    for j, (low, high) in enumerate(zip(g.tiles, g.tiles[1:]), start=1):
        shared = t.third_side(low.tri_out, low.diagonal, high.diagonal)
        if low.labels[low.out_glue_side] != shared or high.labels[high.in_glue_side] != shared:
            raise InvalidSurface(f"glue edge between tiles {j} and {j + 1} mislabeled")


def _check_extremal_matchings(g: SnakeGraph) -> None:
    """Each extremal matching has one endpoint per lattice point: its n
    endpoint bits sum to the mask of all n points, which no sum of n powers
    of two reaches when one repeats."""
    points = len(g._point_options)
    for name, m in (("minimal", g._minimal), ("maximal", g._maximal)):
        ends = sum(ends for i, ends in enumerate(g._edge_ends) if m >> i & 1)
        if ends != (1 << points) - 1 or 2 * m.bit_count() != points:
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
    options = g._point_options
    full = (1 << len(options)) - 1
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
    g._matchings = sort_masks(results, len(g._edges))
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


def enclosed_tiles(g: SnakeGraph, P: int) -> int:
    """Tiles inside the symmetric difference of P with the minimal matching,
    as an index set: bit j set for each enclosed tile j.

    A tile is enclosed when a leftward ray from it crosses the
    difference cycle an odd number of times.  The vertical edges such a
    ray meets are the west edges of the tiles up to it in its row, so a
    walk along each row toggles at every west edge in the difference.
    """
    diff = P ^ g._minimal
    out = 0
    for row in g._west_rows:
        inside = False
        for j, west in row:
            inside ^= diff & west != 0
            if inside:
                out |= 1 << j
    return out


def bijection_image(g: SnakeGraph) -> dict:
    """Each matching's enclosed tiles, checked canonical; built once per graph
    in enumerate_matchings order and shared, so loops read it, not change it."""
    if g._image is None:
        image = {}
        for P in enumerate_matchings(g):
            indices = enclosed_tiles(g, P)
            if not is_canonical_submodule(g.word, indices):
                raise BijectionViolation(
                    f"enclosed tiles {positions(indices)} are not a submodule index set"
                )
            image[P] = indices
        g._image = image
    return g._image


def matching_to_submodule(g: SnakeGraph, P: int) -> int:
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
