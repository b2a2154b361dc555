"""Snake graphs: tile placement, perfect matchings, twists and the bijection."""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from qcluster import snake
from qcluster.errors import (
    BijectionViolation,
    CannotTwist,
    InvalidSurface,
    NotCrossingSequence,
    QClusterError,
)
from qcluster.expansion import quantum_expansion, x_of_matching
from qcluster.kronecker import family_word
from qcluster.snake import (
    can_twist,
    check_bijection,
    enclosed_tiles,
    enumerate_matchings,
    label_snake,
    matching_to_submodule,
    maximal_matching,
    minimal_matching,
    twist,
)
from qcluster.snake import _snake_shape as snake_shape
from qcluster.strings import (
    Letter,
    StringWord,
    enumerate_canonical_submodules,
    enumerate_strings,
    parse_string,
)
from qcluster.strings import _trivial_word as trivial_word

from qcluster.surface import Triangulation, build_quiver, load_surface

from conftest import ANNULUS_21, WHEEL3, make_word, mask_of, positions_of


def submodule_to_matching(g, indices: int) -> int:
    """Inverse of matching_to_submodule, searched in the bijection image."""
    found = [P for P, image in snake.bijection_image(g).items() if image == indices]
    if len(found) != 1:
        raise BijectionViolation(
            f"index set {positions_of(indices)} does not match exactly one matching"
        )
    return found[0]


@pytest.fixture(scope="module")
def g1_graph(annulus, g1_word):
    return label_snake(g1_word, annulus)


def test_shape_steps_right_after_a_direct_letter(g1_word):
    assert snake_shape(g1_word) == ("R", "R")


def test_shape_steps_up_after_an_inverse_letter(quivers):
    w = make_word(quivers["pentagon"], (1, 2), [("a", False)])
    assert snake_shape(w) == ("U",)


def test_shape_of_the_longer_family_word(quivers):
    w = make_word(
        quivers["annulus"], (1, 2, 1, 2), [("a", True), ("b", False), ("a", True)]
    )
    assert snake_shape(w) == ("R", "R", "R")


def test_double_crossing_tiles_are_frozen(g1_graph):
    assert g1_graph.shape == ("R", "R")
    t1, t2, t3 = (g1_graph.tile(j) for j in (1, 2, 3))
    assert (t1.x, t1.y) == (0, 0)
    assert (t2.x, t2.y) == (1, 0)
    assert (t3.x, t3.y) == (2, 0)
    assert t1.labels == {"S": 2, "E": 3, "N": 2, "W": 4}
    assert t2.labels == {"S": 1, "E": 4, "N": 1, "W": 3}
    assert t3.labels == {"S": 2, "E": 3, "N": 2, "W": 4}
    assert g1_graph.glue_label(1) == 3
    assert g1_graph.glue_label(2) == 4


def test_glued_sides_share_one_canonical_edge_id(g1_graph):
    # tile 2's west side is tile 1's east side
    assert g1_graph.edge_sides((1, "E")) == ((1, "E"), (2, "W"))
    assert g1_graph.edge_sides((2, "E")) == ((2, "E"), (3, "W"))
    assert sorted(g1_graph.all_edges()) == [
        (1, "E"),
        (1, "N"),
        (1, "S"),
        (1, "W"),
        (2, "E"),
        (2, "N"),
        (2, "S"),
        (3, "E"),
        (3, "N"),
        (3, "S"),
    ]


@pytest.mark.parametrize("name", ["annulus", "pentagon", "hexagon", "square"])
def test_edge_table_glues_consecutive_tiles_only(quivers, surfaces, name):
    for w in enumerate_strings(quivers[name], 6):
        g = label_snake(w, surfaces[name])
        assert len(g.all_edges()) == 3 * g.d + 1
        for e in g.all_edges():
            sides = g.edge_sides(e)
            if len(sides) == 2:
                (j, low), (k, high) = sides
                assert k == j + 1
                assert (low, high) == (g.tile(j).out_glue_side, g.tile(k).in_glue_side)
            else:
                assert len(sides) == 1
            assert {g.edge_endpoints((j, side)) for j, side in sides} == {
                g.edge_endpoints(e)
            }
            for j, side in sides:
                assert (e, side) in g.tile_edges(j)


def test_vertical_snake_of_the_pentagon(pentagon, quivers):
    w = make_word(quivers["pentagon"], (1, 2), [("a", False)])
    g = label_snake(w, pentagon)
    t1, t2 = g.tile(1), g.tile(2)
    assert (t1.x, t1.y) == (0, 0)
    assert (t2.x, t2.y) == (0, 1)
    assert t1.labels == {"S": 3, "E": 2, "N": 5, "W": 4}
    assert t2.labels == {"S": 5, "E": 6, "N": 7, "W": 1}
    assert g.edge_sides((1, "N")) == ((1, "N"), (2, "S"))


def test_single_tile_square(square):
    g = label_snake(trivial_word(1), square)
    assert g.shape == ()
    assert g.tile(1).labels == {"S": 4, "E": 5, "N": 2, "W": 3}
    assert len(enumerate_matchings(g)) == 2


def test_label_snake_rejects_non_crossing_words(hexagon, quivers):
    q = quivers["hexagon"]
    # arcs 1 and 3 share no triangle with arrow b
    bad = StringWord((1, 3), (Letter(q.arrow_named("b"), True),))
    with pytest.raises(NotCrossingSequence):
        label_snake(bad, hexagon)


@pytest.mark.parametrize(
    "text, name, letter",
    [("2 <b< 3", "square", "letter 1 (<b<)"), ("1 >a> 2 <b< 3", "annulus", "letter 2 (<b<)")],
)
def test_a_word_naming_a_triangle_the_surface_lacks_is_not_a_crossing_sequence(
    quivers, surfaces, seeds, text, name, letter
):
    # hexagon words whose letters name triangle 2; square and annulus have two
    w, t = parse_string(text, quivers["hexagon"]), surfaces[name]
    message = re.escape(f"{letter} names triangle 2, but the surface has 2 triangles")
    with pytest.raises(NotCrossingSequence, match=message):
        label_snake(w, t)
    with pytest.raises(NotCrossingSequence, match=message):
        quantum_expansion(w, t, seeds[name])


@pytest.mark.parametrize("arc", [0, -1, 5])
def test_a_one_vertex_word_on_no_internal_arc_is_not_a_crossing_sequence(annulus, arc):
    with pytest.raises(NotCrossingSequence, match=f"^crossed arc {arc} is not internal$"):
        label_snake(StringWord((arc,), ()), annulus)


def test_a_negative_triangle_index_is_not_read_from_the_end(annulus, g1_word):
    # index -1 would read the annulus's last triangle, which holds arcs 1 and 2
    first = g1_word.letters[0]
    wrong = replace(first, arrow=replace(first.arrow, triangle=-1))
    w = StringWord(g1_word.vertices, (wrong, *g1_word.letters[1:]))
    with pytest.raises(NotCrossingSequence, match=re.escape("letter 1 (>a>) names triangle -1")):
        label_snake(w, annulus)


def slot_by_slot_tiles(w, t):
    """The slot-by-slot flank placement that the class rule replaced: the reference.

    Glued flanks are placed first, then each remaining flank takes its
    class's south/east (exit) or north/west (entry) slot, or the other
    one when that is taken.  Returns the tiles.
    """
    shape = snake_shape(w)
    tiles = []
    x = y = 0
    for j in range(1, w.d + 1):
        diag = w.vertices[j - 1]
        tri_in, tri_out = snake._crossed_triangles(w, t)[j - 1 : j + 1]
        alpha = t.ccw_flank(tri_in, diag)
        beta = t.cw_flank(tri_in, diag)
        gamma = t.ccw_flank(tri_out, diag)
        delta = t.cw_flank(tri_out, diag)
        odd = j % 2 == 1
        slot_pair = {"ccw": ("S", "N") if odd else ("E", "W"), "cw": ("E", "W") if odd else ("S", "N")}
        preferred = {}
        for cls in ("ccw", "cw"):
            a_slot, b_slot = slot_pair[cls]
            south_east = a_slot if a_slot in ("S", "E") else b_slot
            north_west = b_slot if south_east == a_slot else a_slot
            preferred[cls] = (south_east, north_west)
        flanks = [("in", "ccw", alpha), ("in", "cw", beta), ("out", "ccw", gamma), ("out", "cw", delta)]
        placement = {}
        placed = set()

        def place(which_flank, slot, j=j):
            origin, cls, label = which_flank
            if slot not in slot_pair[cls]:
                raise InvalidSurface(
                    f"tile {j}: {cls} flank {label} forced onto slot {slot}; "
                    "the triangulation is not coherently oriented"
                )
            if slot in placement:
                raise InvalidSurface(f"tile {j}: slot {slot} assigned twice")
            placement[slot] = (label, cls)
            placed.add(id(which_flank))

        in_glue_side = out_glue_side = None
        if j > 1:
            want = "W" if shape[j - 2] == "R" else "S"
            in_glue_side = want
            prev_diag = w.vertices[j - 2]
            flank = flanks[0] if alpha != prev_diag else flanks[1]
            if flank[2] == prev_diag:
                raise NotCrossingSequence(
                    f"tile {j}: both entry flanks equal the previous arc {prev_diag}"
                )
            place(flank, want)
        if j < w.d:
            want = "E" if shape[j - 1] == "R" else "N"
            out_glue_side = want
            next_diag = w.vertices[j]
            flank = flanks[2] if gamma != next_diag else flanks[3]
            place(flank, want)
        for which_flank in flanks:
            if id(which_flank) in placed:
                continue
            origin, cls, label = which_flank
            south_east, north_west = preferred[cls]
            slot = south_east if origin == "out" else north_west
            if slot in placement:
                slot = north_west if slot == south_east else south_east
            place(which_flank, slot)
        tiles.append(
            snake.Tile(
                index=j,
                diagonal=diag,
                x=x,
                y=y,
                tri_in=tri_in,
                tri_out=tri_out,
                labels={s: placement[s][0] for s in "SENW"},
                flank_class={s: placement[s][1] for s in "SENW"},
                in_glue_side=in_glue_side,
                out_glue_side=out_glue_side,
            )
        )
        if j < w.d:
            if shape[j - 1] == "R":
                x += 1
            else:
                y += 1
    return tiles


def placement_outcome(build):
    """The tiles build() places, or the type and message of what it raises."""
    try:
        return build()
    except QClusterError as exc:
        return type(exc), str(exc)


def reference_outcome(w, t):
    """slot_by_slot_tiles, then the graph checks label_snake runs."""

    def build():
        g = snake.SnakeGraph(w, t, snake_shape(w), slot_by_slot_tiles(w, t))
        snake._check_glue_coherence(g)
        snake._check_extremal_matchings(g)
        return g.tiles

    return placement_outcome(build)


def test_the_class_rule_places_every_flank_where_the_slot_rule_did(corpus_words, surfaces):
    wheel = load_surface(WHEEL3)
    cases = list(corpus_words) + [(wheel, w) for w in enumerate_strings(build_quiver(wheel), 7)]
    # each surface with all its triangles, or one of them, turned the
    # other way round, under its own strings and under the original ones
    for t in [*surfaces.values(), load_surface(ANNULUS_21), wheel]:
        words = enumerate_strings(build_quiver(t), 7)
        for turned in [None, *range(len(t.triangles))]:
            triangles = [tri[::-1] if turned in (None, k) else tri for k, tri in enumerate(t.triangles)]
            f = Triangulation(t.arcs, triangles, None, t.name)
            cases += [(f, w) for w in words + enumerate_strings(build_quiver(f), 7)]
    kinds = Counter()
    for t, w in cases:
        got = placement_outcome(lambda: label_snake(w, t).tiles)
        assert got == reference_outcome(w, t), (t.triangles, str(w))
        kinds[got[0].__name__ if isinstance(got, tuple) else "tiles"] += 1
    assert kinds == {"tiles": 294, "InvalidSurface": 62}


def test_matchings_of_the_double_crossing_are_frozen(g1_graph):
    got = {g1_graph.edges(m) for m in enumerate_matchings(g1_graph)}
    assert got == {
        frozenset({(1, "W"), (2, "N"), (2, "S"), (3, "E")}),
        frozenset({(1, "E"), (1, "W"), (2, "E"), (3, "E")}),
        frozenset({(1, "E"), (1, "W"), (3, "N"), (3, "S")}),
        frozenset({(1, "N"), (1, "S"), (2, "E"), (3, "E")}),
        frozenset({(1, "N"), (1, "S"), (3, "N"), (3, "S")}),
    }


def test_matching_counts_grow_like_fibonacci(annulus):
    from qcluster.kronecker import family_word

    # d tiles in a row give F(d + 2) matchings: 5, 8, 13 for d = 3, 4, 5
    for s, family, expected in ((1, "G", 5), (2, "H", 8), (2, "G", 13)):
        g = label_snake(family_word(annulus, s, family), annulus)
        assert len(enumerate_matchings(g)) == expected


def test_extreme_matchings_are_frozen(g1_graph):
    assert g1_graph.edges(minimal_matching(g1_graph)) == frozenset(
        {(1, "W"), (2, "N"), (2, "S"), (3, "E")}
    )
    assert g1_graph.edges(maximal_matching(g1_graph)) == frozenset(
        {(1, "N"), (1, "S"), (3, "N"), (3, "S")}
    )


def test_extreme_matchings_use_one_flank_class(quivers, surfaces):
    for name in ("annulus", "pentagon", "hexagon"):
        for w in enumerate_strings(quivers[name], 5):
            g = label_snake(w, surfaces[name])
            for pick, cls in ((minimal_matching, "cw"), (maximal_matching, "ccw")):
                m = pick(g)
                for e in g.edges(m):
                    for j, side in g.edge_sides(e):
                        assert g.tile(j).flank_class[side] == cls


def enumerated_extremal_matchings(g):
    """The enumerate-and-filter form of the extremal matchings: the reference.

    Of the two glue-free matchings, the one made of clockwise-flank
    edges only is minimal and the counterclockwise one maximal.
    """
    glue_free = [m for m in enumerate_matchings(g) if all(len(g.edge_sides(e)) == 1 for e in g.edges(m))]
    assert len(glue_free) == 2

    def uniform(m, cls):
        return all(
            g.tile(j).flank_class[side] == cls for e in g.edges(m) for j, side in g.edge_sides(e)
        )

    (low,) = [m for m in glue_free if uniform(m, "cw")]
    (high,) = [m for m in glue_free if uniform(m, "ccw")]
    return low, high


def test_the_flank_classes_give_the_enumerated_extremal_matchings(corpus_words):
    matchings = 0
    for t, w in corpus_words:
        g = label_snake(w, t)
        assert (minimal_matching(g), maximal_matching(g)) == enumerated_extremal_matchings(g)
        matchings += len(enumerate_matchings(g))
    assert (len(corpus_words), matchings) == (50, 11265)


def test_extremal_matchings_of_a_long_word_need_no_enumeration(monkeypatch, annulus):
    def refuse(g):
        raise AssertionError("enumerate_matchings was called")

    monkeypatch.setattr(snake, "enumerate_matchings", refuse)
    g = label_snake(family_word(annulus, 20, "G"), annulus)
    low, high = minimal_matching(g), maximal_matching(g)
    assert low.bit_count() == high.bit_count() == 42
    assert not low & high
    assert x_of_matching(g, low) == (19, -20, 1, 1)


def test_a_doctored_flank_class_breaks_the_extremal_matchings(monkeypatch, annulus):
    real_tile = snake.Tile

    def doctored(**fields):
        if fields["index"] == 2:
            swap = {"cw": "ccw", "ccw": "cw"}
            fields["flank_class"] = {s: swap[c] for s, c in fields["flank_class"].items()}
        return real_tile(**fields)

    monkeypatch.setattr(snake, "Tile", doctored)
    with pytest.raises(BijectionViolation, match="minimal matching"):
        label_snake(family_word(annulus, 1, "G"), annulus)


def test_minimal_matching_avoids_glue_edges(quivers, surfaces):
    for name in ("annulus", "hexagon"):
        for w in enumerate_strings(quivers[name], 5):
            g = label_snake(w, surfaces[name])
            assert all(len(g.edge_sides(e)) == 1 for e in g.edges(minimal_matching(g)))


def test_twist_swaps_a_tile_boundary(g1_graph):
    pmin = minimal_matching(g1_graph)
    assert can_twist(g1_graph, pmin, 2)
    flipped = twist(g1_graph, pmin, 2)
    assert g1_graph.edges(flipped) == frozenset({(1, "E"), (1, "W"), (2, "E"), (3, "E")})
    assert twist(g1_graph, flipped, 2) == pmin


def test_twist_requires_two_parallel_edges(g1_graph):
    pmin = minimal_matching(g1_graph)
    assert not can_twist(g1_graph, pmin, 1)
    with pytest.raises(CannotTwist, match=r"matching meets tile 1 in sides \['W'\]"):
        twist(g1_graph, pmin, 1)


def test_enclosed_tiles_of_the_double_crossing(g1_graph):
    expected = {
        frozenset({(1, "W"), (2, "N"), (2, "S"), (3, "E")}): mask_of(()),
        frozenset({(1, "E"), (1, "W"), (2, "E"), (3, "E")}): mask_of({2}),
        frozenset({(1, "E"), (1, "W"), (3, "N"), (3, "S")}): mask_of({2, 3}),
        frozenset({(1, "N"), (1, "S"), (2, "E"), (3, "E")}): mask_of({1, 2}),
        frozenset({(1, "N"), (1, "S"), (3, "N"), (3, "S")}): mask_of({1, 2, 3}),
    }
    got = {g1_graph.edges(P): enclosed_tiles(g1_graph, P) for P in enumerate_matchings(g1_graph)}
    assert got == expected


def ray_cast_enclosed_tiles(g, P):
    """The ray-casting form enclosed_tiles had before the row walk: the reference."""
    diff = g.edges(P) ^ g.edges(minimal_matching(g))
    verticals = [
        (g.edge_endpoints(e)[0][0], g.edge_endpoints(e)[0][1])
        for e in diff
        if e[1] in ("E", "W")
    ]
    out = set()
    for tile in g.tiles:
        crossings = sum(1 for (xe, ye) in verticals if ye == tile.y and xe <= tile.x)
        if crossings % 2 == 1:
            out.add(tile.index)
    return frozenset(out)


def test_the_row_walk_encloses_the_tiles_the_rays_do(quivers, surfaces, annulus):
    graphs = [
        label_snake(w, surfaces[name])
        for name in ("annulus", "pentagon", "hexagon", "square")
        for w in enumerate_strings(quivers[name], 7)
    ]
    graphs += [label_snake(family_word(annulus, s, "G"), annulus) for s in range(8)]
    graphs += [label_snake(family_word(annulus, s, "H"), annulus) for s in range(1, 8)]
    checked = 0
    for g in graphs:
        for P in enumerate_matchings(g):
            assert enclosed_tiles(g, P) == mask_of(ray_cast_enclosed_tiles(g, P))
            checked += 1
    assert checked > 4000


def edge_mask(g, edges):
    """The matching mask of a set of edge ids: bit i is the i-th sorted edge."""
    return sum(1 << g.all_edges().index(e) for e in edges)


def test_a_set_that_is_not_a_perfect_matching_has_no_submodule(g1_graph):
    pmin = g1_graph.edges(minimal_matching(g1_graph))
    for edges in (frozenset(), pmin - {(1, "W")}, pmin | {(1, "N")}):
        message = re.escape(f"{sorted(edges)} is not a perfect matching")
        with pytest.raises(BijectionViolation, match=message):
            matching_to_submodule(g1_graph, edge_mask(g1_graph, edges))


def test_bijection_table_of_the_double_crossing(g1_graph):
    table = {g1_graph.edges(P): N for P, N in check_bijection(g1_graph).items()}
    assert table[frozenset({(1, "W"), (2, "N"), (2, "S"), (3, "E")})] == mask_of(())
    assert table[frozenset({(1, "N"), (1, "S"), (3, "N"), (3, "S")})] == mask_of(
        {1, 2, 3}
    )
    assert len(table) == 5


def test_bijection_round_trip_on_the_corpus(quivers, surfaces):
    for name in ("annulus", "pentagon", "hexagon"):
        for w in enumerate_strings(quivers[name], 6):
            g = label_snake(w, surfaces[name])
            submods = set(enumerate_canonical_submodules(w))
            for P in enumerate_matchings(g):
                N = matching_to_submodule(g, P)
                assert N in submods
                assert submodule_to_matching(g, N) == P


def brute_force_matchings(g):
    """Every edge subset that covers each vertex exactly once."""
    edges = g.all_edges()
    points = g.vertices()
    found = []
    for size in range(len(points) // 2, len(points) // 2 + 1):
        for combo in combinations(edges, size):
            cover = [p for e in combo for p in g.edge_endpoints(e)]
            if len(set(cover)) == len(cover) and set(cover) == set(points):
                found.append(frozenset(combo))
    return found


def test_matchings_agree_with_brute_force_for_short_words(quivers, surfaces):
    for name in ("annulus", "pentagon", "hexagon"):
        for w in enumerate_strings(quivers[name], 4):
            g = label_snake(w, surfaces[name])
            assert sorted(sorted(g.edges(P)) for P in enumerate_matchings(g)) == sorted(
                map(sorted, brute_force_matchings(g))
            )
