"""Mask matchings against the frozenset forms they replaced.

The reference_* functions below are the frozenset-of-edge-ids code that
enumerate_matchings, enclosed_tiles, valuation_v and valuation_v_gamma
ran before matchings became int masks.  They read only the graph's
public geometry, so the comparisons go through ``g.edges``.
reference_valuation_v_gamma is also the breadth-first search that
valuation_v_gamma ran before its one pass over the generated sets.
reference_graph_tables and the functions after it are the graph's
tables, matching order, window table and term rows as they were built
before one pass over the tiles built the tables.
"""
from __future__ import annotations

import sys
from bisect import bisect_left
from collections import deque
from pathlib import Path
from unittest.mock import patch

import pytest
from click.testing import CliRunner

from qcluster import valuation
from qcluster.cli import main
from qcluster.errors import CannotTwist, InconsistentValuation, QClusterError, UnreachableSubmodule
from qcluster.expansion import graph_expansion, x_of_matching
from qcluster.kronecker import family_word
from qcluster.seeds import initial_seed
from qcluster.snake import (
    bijection_image,
    can_twist,
    enclosed_tiles,
    enumerate_matchings,
    label_snake,
    minimal_matching,
    twist,
)
from qcluster.strings import dimension_vector, enumerate_canonical_submodules, enumerate_strings
from qcluster.surface import build_quiver, load_surface, pair_from_surface
from qcluster.valuation import (
    compare_valuations,
    omega,
    omega_prime,
    valuation_v,
    valuation_v_gamma,
)

from conftest import ANNULUS_21, SURFACES, WHEEL3, m_pm, mask_of, positions_of
from test_strings import ANNULUS_31
from test_valuation_kernels import (
    every_string,
    full_window_table,
    reference_crossing_positions,
    reference_n_module,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


# -- the frozenset forms ---------------------------------------------------


def reference_enumerate_matchings(g):
    """All perfect matchings as frozensets, ordered by their sorted edge ids."""
    points = g.vertices()
    point_edges = {}
    for e in g.all_edges():
        for p in g.edge_endpoints(e):
            point_edges.setdefault(p, []).append(e)
    results = []

    def grow(covered, chosen):
        uncovered = [p for p in points if p not in covered]
        if not uncovered:
            results.append(frozenset(chosen))
            return
        p = uncovered[0]
        for e in point_edges[p]:
            a, b = g.edge_endpoints(e)
            if a in covered or b in covered:
                continue
            grow(covered | {a, b}, chosen + (e,))

    grow(set(), ())
    return sorted(results, key=lambda m: tuple(sorted(m)))


def reference_minimal(g):
    """The glue-free edges of the clockwise flank class."""
    return frozenset(
        e for e in g.all_edges() if len(g.edge_sides(e)) == 1 and g.tile(e[0]).flank_class[e[1]] == "cw"
    )


def reference_maximal(g):
    return frozenset(
        e for e in g.all_edges() if len(g.edge_sides(e)) == 1 and g.tile(e[0]).flank_class[e[1]] == "ccw"
    )


def reference_enclosed_tiles(g, P):
    diff = P ^ reference_minimal(g)
    out = []
    row, inside = None, False
    for tile in g.tiles:
        if tile.y != row:
            row, inside = tile.y, False
        inside ^= next(e for e, side in g.tile_edges(tile.index) if side == "W") in diff
        if inside:
            out.append(tile.index)
    return frozenset(out)


def reference_opposite_pairs(g, j):
    """Tile j's ccw and cw flank edges."""
    tile = g.tile(j)
    return tuple(
        frozenset(e for e, side in g.tile_edges(j) if tile.flank_class[side] == cls)
        for cls in ("ccw", "cw")
    )


def reference_twist_pairs(g, P, j):
    first, second = reference_opposite_pairs(g, j)
    if first <= P and second.isdisjoint(P):
        return first, second
    if second <= P and first.isdisjoint(P):
        return second, first
    return None


def reference_omega(g, s, P):
    if reference_twist_pairs(g, P, s) is None:
        raise CannotTwist(f"matching does not cover tile {s} by an opposite pair")
    tau = g.tile(s).diagonal
    m_minus, m_plus = m_pm(g, s, tau)
    n_minus = n_plus = 0
    for e in P:
        if g.edge_label(e) == tau:
            tiles = [j for j, _ in g.edge_sides(e)]
            n_minus += tiles[0] < s
            n_plus += tiles[-1] > s
    sign = 1 if reference_opposite_pairs(g, s)[0] <= P else -1
    return sign * (n_plus - m_plus - n_minus + m_minus)


def reference_valuation_v(g):
    base = reference_minimal(g)
    values = {base: 0}
    queue = deque([base])
    while queue:
        P = queue.popleft()
        for s in range(1, g.d + 1):
            pairs = reference_twist_pairs(g, P, s)
            if pairs is None:
                continue
            held, other = pairs
            Q = P - held | other
            val = values[P] - reference_omega(g, s, P)
            if Q in values:
                if values[Q] != val:
                    raise InconsistentValuation(f"twist at tile {s} gives {val}, stored {values[Q]}")
            else:
                values[Q] = val
                queue.append(Q)
    all_matchings = reference_enumerate_matchings(g)
    if set(values) != set(all_matchings):
        raise InconsistentValuation(f"twists reach {len(values)} of {len(all_matchings)} matchings")
    if values[reference_maximal(g)] != 0:
        raise InconsistentValuation(
            f"maximal matching has valuation {values[reference_maximal(g)]}, want 0"
        )
    return values


def _toggle_keeps_canonical(w, N, j):
    """Whether the canonical set N with position j toggled is canonical.

    Only the runs next to j change.  Removing j must close a run at j-1
    (letter j-1 inverse) if j-1 is in N and open one at j+1 (letter j
    direct) if j+1 is in N; adding j must open a run at j (j = 1 or letter
    j-1 direct) unless j-1 is in N and close one at j (j = d or letter j
    inverse) unless j+1 is in N.
    """
    letters, left, right = w.letters, j - 1 in N, j + 1 in N
    if j in N:
        return not (left and letters[j - 2].direct or right and not letters[j - 1].direct)
    return (left or j == 1 or letters[j - 2].direct) and (
        right or j == w.d or not letters[j - 1].direct
    )


def reference_valuation_v_gamma(g):
    """The breadth-first containment walk that evaluated every step from
    both endpoints, deciding each toggle by _toggle_keeps_canonical.  It
    walks position sets, and its table is keyed by their masks."""
    d = g.d
    values = {frozenset(): 0}
    queue = deque([frozenset()])
    while queue:
        N = queue.popleft()
        for j in range(1, d + 1):
            if not _toggle_keeps_canonical(g.word, N, j):
                continue
            if j in N:
                bigger, smaller = N, N - {j}
            else:
                bigger, smaller = N | {j}, N
            step = omega_prime(g, j, mask_of(smaller))
            back = omega_prime(g, j, mask_of(bigger))
            if step != -back:
                raise InconsistentValuation(f"asymmetric step at position {j}: {step} vs -({back})")
            other = bigger if N == smaller else smaller
            val = values[N] - (step if N == smaller else back)
            if other in values:
                if values[other] != val:
                    raise InconsistentValuation(
                        f"index step at {j} gives {val}, stored {values[other]}"
                    )
            else:
                values[other] = val
                queue.append(other)
    canonical = {frozenset(positions_of(N)) for N in enumerate_canonical_submodules(g.word)}
    if set(values) != canonical:
        raise UnreachableSubmodule(
            f"single-index steps reach {len(values)} of {len(canonical)} index sets"
        )
    full = frozenset(range(1, d + 1))
    if values[full] != 0:
        raise InconsistentValuation(f"full index set has valuation {values[full]}, want 0")
    return {mask_of(N): value for N, value in values.items()}


# -- the graph's tables as built through the per-edge queries ---------------

# Each side's two corners, as offsets from its tile's lower-left corner.
CORNERS = {"S": ((0, 0), (1, 0)), "E": ((1, 0), (1, 1)), "N": ((0, 1), (1, 1)), "W": ((0, 0), (0, 1))}


def reference_graph_tables(g):
    """SnakeGraph's tables as its constructor built them, through per-edge
    queries (a tile's side -> edge id, an edge's endpoints and label) that
    read only the tiles: the edge table, the sorted lattice points and each
    one's (endpoint mask, edge bit) options, the label masks, twist rows,
    west edges, glue labels and extremal matchings."""
    tiles = g.tiles

    def endpoints(e):
        j, side = e
        (ax, ay), (bx, by) = CORNERS[side]
        x, y = tiles[j - 1].x, tiles[j - 1].y
        return ((x + ax, y + ay), (x + bx, y + by))

    tile_edges, incidence = [], {}
    for j, tile in enumerate(tiles, start=1):
        ids = {s: (j, s) for s in ("S", "E", "N", "W")}
        if tile.in_glue_side is not None:
            ids[tile.in_glue_side] = (j - 1, tiles[j - 2].out_glue_side)
        for side, e in ids.items():
            incidence.setdefault(e, []).append((j, side))
        tile_edges.append(ids)
    edge_sides = {e: tuple(incidence[e]) for e in sorted(incidence)}
    bit = {e: 1 << i for i, e in enumerate(edge_sides)}
    ends = {e: endpoints(e) for e in edge_sides}
    points = sorted({p for pair in ends.values() for p in pair})
    at = {p: i for i, p in enumerate(points)}
    options = [[] for _ in points]
    label_masks = [0] * g.triangulation.m
    named = [0] * len(tiles)  # per tile, the edges named after it
    for e, (a, b) in ends.items():
        option = ((1 << at[a]) | (1 << at[b]), bit[e])
        options[at[a]].append(option)
        options[at[b]].append(option)
        label_masks[tiles[e[0] - 1].labels[e[1]] - 1] |= bit[e]
        named[e[0] - 1] |= bit[e]
    diagonals = [tile.diagonal for tile in tiles]
    twist_rows, earlier = [], 0
    for slot, (tile, ids, own) in enumerate(zip(tiles, tile_edges, named)):
        ccw, cw = (
            sum(bit[e] for s, e in ids.items() if tile.flank_class[s] == cls) for cls in ("ccw", "cw")
        )
        k = tile.diagonal
        tau = label_masks[k - 1]
        m = diagonals[:slot].count(k) - diagonals[slot + 1 :].count(k)
        twist_rows.append((ccw, cw, ccw | cw, tau & earlier, tau & ~earlier, m))
        earlier |= own
    glue_free = [
        (bit[e], tiles[j - 1].flank_class[side]) for e, ((j, side), *glued) in edge_sides.items() if not glued
    ]
    return {
        "tile_edges": [[(e, s) for s, e in ids.items()] for ids in tile_edges],
        "edge_sides": edge_sides,
        "ends": [ends[e] for e in edge_sides],
        "points": points,
        "options": options,
        "label_masks": label_masks,
        "twist_rows": twist_rows,
        "west_bits": [bit[ids["W"]] for ids in tile_edges],
        "glue_labels": [tile.labels[tile.out_glue_side] for tile in tiles[:-1]],
        "minimal": sum(b for b, cls in glue_free if cls == "cw"),
        "maximal": sum(b for b, cls in glue_free if cls == "ccw"),
    }


def reference_matching_order(tables):
    """enumerate_matchings over the reference options, sorted by a binary string per mask."""
    options, full = tables["options"], (1 << len(tables["points"])) - 1
    results, stack = [], [(0, 0)]
    while stack:
        covered, chosen = stack.pop()
        if covered == full:
            results.append(chosen)
            continue
        for ends, e in options[(~covered & (covered + 1)).bit_length() - 1]:
            if not covered & ends:
                stack.append((covered | ends, chosen | e))
    width = len(tables["edge_sides"])
    return sorted(results, key=lambda P: f"{P:0{width}b}"[::-1], reverse=True)


def reference_window_bytes(g):
    """_window_bytes over the full window table, one plain table per position."""
    table, crossings = full_window_table(g, reference_n_module), reference_crossing_positions(g.word)
    c, arcs = 0, []
    for k, rows in table.items():
        tables = [valuation._row_tables(row) for row in rows]
        c = max(c, *[largest for *_, largest in tables])
        signed = [(p, tables[p][1], m - tables[p][2]) for p, m in crossings[k]]
        arcs.append(([plain for plain, *_ in tables], signed))
    return 1 << (((g.d + 1) * (c + 1)).bit_length() // 8).bit_length(), arcs


def reference_terms(g):
    """graph_expansion's term rows, gathered in matching order and sorted by
    (size, sorted indices)."""
    values, rows = compare_valuations(g), []
    for P, indices in bijection_image(g).items():
        key = tuple(positions_of(indices))
        dim = dimension_vector(g.word, indices, n=g.triangulation.n)
        rows.append((len(key), key, indices, dim, values[indices], x_of_matching(g, P)))
    return tuple((indices, dim, v, xp) for _, _, indices, dim, v, xp in sorted(rows))


def point_coordinates(g, ends):
    """Each of the graph's point numbers -> its lattice point: the one point
    that the reference endpoints of every edge at that number share."""
    found = {}
    for mask, pair in zip(g._edge_ends, ends):
        for a in (i for i in range(mask.bit_length()) if mask >> i & 1):
            found[a] = found.get(a, set(pair)) & set(pair)
    assert all(len(points) == 1 for points in found.values())
    return {a: points.pop() for a, points in found.items()}


def located(options, where):
    """(endpoint mask, edge bit) options with each mask as the set of its points."""
    return [(frozenset(where[i] for i in range(ends.bit_length()) if ends >> i & 1), e) for ends, e in options]


def outcome(build):
    """build(), or the type and message of the QClusterError it raises."""
    try:
        return build()
    except QClusterError as exc:
        return type(exc), str(exc)


def test_the_one_pass_tables_equal_the_per_edge_construction(surfaces):
    """Every string of at most 7 vertices on the bundled surfaces, ANNULUS_21,
    ANNULUS_31 and WHEEL3.  The graph numbers its lattice points along the
    snake, where the reference numbered them in sorted order, so point
    options and endpoint masks are compared through the points' coordinates."""
    graphs = failed = 0
    corpus = [surfaces[name] for name in SURFACES] + [load_surface(d) for d in (ANNULUS_21, ANNULUS_31, WHEEL3)]
    for t in corpus:
        seed = initial_seed(pair_from_surface(t))
        for w in every_string(build_quiver(t), 7):
            g = label_snake(w, t)
            ref = reference_graph_tables(g)
            assert [g.tile_edges(j) for j in range(1, g.d + 1)] == ref["tile_edges"], str(w)
            assert g._edge_sides == ref["edge_sides"] and list(g._edge_sides) == list(ref["edge_sides"])
            assert g.all_edges() == list(ref["edge_sides"]) and g.vertices() == ref["points"]
            coord = point_coordinates(g, ref["ends"])
            assert sorted(coord) == list(range(len(ref["points"]))) == list(range(len(g._point_options)))
            assert {coord[a]: located(opts, coord) for a, opts in enumerate(g._point_options)} == {
                ref["points"][a]: located(opts, ref["points"]) for a, opts in enumerate(ref["options"])
            }, str(w)
            edge_ends = located([(ends, 0) for ends in g._edge_ends], coord)
            assert edge_ends == [(frozenset(pair), 0) for pair in ref["ends"]]
            assert g._label_masks == ref["label_masks"] and g._twist_rows == ref["twist_rows"], str(w)
            rows = [[(tile.index, west)] for tile, west in zip(g.tiles, ref["west_bits"])]
            for j in range(len(rows) - 1, 0, -1):  # join the tiles of one row, as enclosed_tiles walked them
                if g.tiles[j].y == g.tiles[j - 1].y:
                    rows[j - 1] += rows.pop(j)
            assert g._west_rows == rows, str(w)
            assert g._glue_labels == ref["glue_labels"]
            assert [g.glue_label(j) for j in range(1, g.d)] == ref["glue_labels"]
            assert (g._minimal, g._maximal) == (ref["minimal"], ref["maximal"])
            assert enumerate_matchings(g) == reference_matching_order(ref), str(w)
            assert valuation._window_bytes(g) == reference_window_bytes(g), str(w)
            got = outcome(lambda: graph_expansion(g, seed).terms)
            assert got == outcome(lambda: reference_terms(g)), str(w)
            graphs += 1
            failed += isinstance(got[0], type)
    # 10 ANNULUS_31 strings raise InconsistentValuation on both sides (CHANGES.md FOUND, ROADMAP item 9)
    assert (graphs, failed) == (97, 10)


# -- the generator's order against the tuple generator ----------------------


def reference_canonical_index_sets(w):
    """Every index set whose runs satisfy the run conditions, as sorted tuples,
    in the (size, sorted tuple) order: the generator before index sets became
    masks.  A run may open at p when p = 1 or letter p-1 is direct, and close
    at p when p = d or letter p is inverse; the next run opens two or more
    positions after the close."""
    d = w.d
    opens = [p for p in range(1, d + 1) if p == 1 or w.letters[p - 2].direct]
    closes = [p for p in range(1, d + 1) if p == d or not w.letters[p - 1].direct]
    found = []
    stack = [((), 1)]
    while stack:
        prefix, start = stack.pop()
        found.append(prefix)
        for a in opens[bisect_left(opens, start) :]:
            for b in closes[bisect_left(closes, a) :]:
                stack.append((prefix + tuple(range(a, b + 1)), b + 2))
    return sorted(found, key=lambda c: (len(c), c))


def test_the_mask_generator_lists_the_tuple_generators_sets_in_order(surfaces):
    """Every string of at most 7 vertices on the bundled surfaces, ANNULUS_21,
    ANNULUS_31 and WHEEL3; then G_1..G_9 and H_1..H_9, whose masks span two
    bytes from d = 8 on, where a bit-reversed sort key meets the byte order."""
    corpus = [surfaces[name] for name in SURFACES] + [load_surface(d) for d in (ANNULUS_21, ANNULUS_31, WHEEL3)]
    words = [w for t in corpus for w in every_string(build_quiver(t), 7)]
    annulus = surfaces["annulus"]
    words += [family_word(annulus, s, family) for family in "GH" for s in range(1, 10)]
    sets = 0
    for w in words:
        got = enumerate_canonical_submodules(w)
        assert [tuple(positions_of(N)) for N in got] == reference_canonical_index_sets(w), str(w)
        assert got == [mask_of(c) for c in reference_canonical_index_sets(w)]
        sets += len(got)
    assert (len(words), max(w.d for w in words)) == (115, 19)
    assert sets > 10000


# -- the corpus ------------------------------------------------------------


@pytest.fixture(scope="module")
def mask_corpus(surfaces, quivers, annulus):
    """Every string of at most 7 vertices on the bundled surfaces and on
    ANNULUS_21, and the annulus families G_0..G_6 and H_1..H_6."""
    out = [(surfaces[name], w) for name in SURFACES for w in enumerate_strings(quivers[name], 7)]
    t = load_surface(ANNULUS_21)
    out += [(t, w) for w in enumerate_strings(build_quiver(t), 7)]
    out += [(annulus, family_word(annulus, s, "G")) for s in range(7)]
    out += [(annulus, family_word(annulus, s, "H")) for s in range(1, 7)]
    return out


def test_mask_enumeration_lists_the_frozenset_matchings_in_order(mask_corpus):
    matchings = 0
    for t, w in mask_corpus:
        g = label_snake(w, t)
        masks = enumerate_matchings(g)
        assert [g.edges(P) for P in masks] == reference_enumerate_matchings(g), str(w)
        assert g.edges(minimal_matching(g)) == reference_minimal(g)
        matchings += len(masks)
    assert (len(mask_corpus), matchings) == (44, 1804)


def test_mask_twists_enclosures_and_valuations_equal_the_frozenset_forms(mask_corpus):
    twists = 0
    for t, w in mask_corpus:
        g = label_snake(w, t)
        v = valuation_v(g)
        assert {g.edges(P): val for P, val in v.items()} == reference_valuation_v(g), str(w)
        assert valuation_v_gamma(g) == reference_valuation_v_gamma(g), str(w)
        for P in enumerate_matchings(g):
            edges = g.edges(P)
            assert enclosed_tiles(g, P) == mask_of(reference_enclosed_tiles(g, edges))
            for s in range(1, g.d + 1):
                pairs = reference_twist_pairs(g, edges, s)
                assert can_twist(g, P, s) == (pairs is not None)
                if pairs is not None:
                    held, other = pairs
                    assert g.edges(twist(g, P, s)) == edges - held | other
                    assert omega(g, s, P) == reference_omega(g, s, edges)
                    twists += 1
    assert twists == 11144


def test_the_twenty_one_annulus_matchings_equal_the_frozenset_forms():
    t = load_surface(ANNULUS_21)
    checked = 0
    for w in enumerate_strings(build_quiver(t), 9):
        g = label_snake(w, t)
        assert [g.edges(P) for P in enumerate_matchings(g)] == reference_enumerate_matchings(g)
        assert {g.edges(P): val for P, val in valuation_v(g).items()} == reference_valuation_v(g)
        assert valuation_v_gamma(g) == reference_valuation_v_gamma(g)
        checked += 1
    assert checked == 14


# -- the checks still see a wrong step --------------------------------------


@pytest.mark.parametrize("tile", [None, 2])
def test_an_omega_off_by_one_is_inconsistent(monkeypatch, annulus, tile):
    g = label_snake(family_word(annulus, 2, "G"), annulus)
    real = valuation.omega

    def off_by_one(graph, s, P):
        return real(graph, s, P) + (tile is None or s == tile)

    monkeypatch.setattr(valuation, "omega", off_by_one)
    with pytest.raises(InconsistentValuation, match="twist at tile"):
        valuation_v(g)


def corrupted_outcome(walk, w, t, k, p, patterns, field):
    """walk's table, or its error type, with one window count raised by 1."""
    g = label_snake(w, t)
    table, crossings = valuation._window_counts(g)
    cells = list(table[k][p])
    for pattern in patterns:
        cell = list(cells[pattern])
        cell[field] += 1
        cells[pattern] = tuple(cell)
    table[k][p] = tuple(cells)
    # the graph's one window-table build reads the corrupted table
    with patch.object(valuation, "_window_counts", lambda graph: (table, crossings)):
        try:
            return walk(g), g
        except InconsistentValuation:
            return InconsistentValuation, g


def test_a_corrupted_window_count_is_caught_as_before(annulus):
    """One window count off by one, in every cell, field and position of
    three family words: the once-per-step walk raises exactly when the
    walk that evaluated every step twice did, and a table that still
    comes out either equals the true one or fails compare_valuations."""
    outcomes = {"raised": 0, "unchanged": 0, "disagrees": 0}
    for family, s in (("G", 2), ("H", 2), ("G", 3)):
        w = family_word(annulus, s, family)
        true = valuation_v_gamma(label_snake(w, annulus))
        for k in (1, 2):
            for p in range(w.d):
                for patterns in [[pattern] for pattern in range(8)] + [range(8)]:
                    for field in range(3):
                        args = (w, annulus, k, p, patterns, field)
                        got, g = corrupted_outcome(valuation_v_gamma, *args)
                        assert got == corrupted_outcome(reference_valuation_v_gamma, *args)[0]
                        if got is InconsistentValuation:
                            outcomes["raised"] += 1
                        elif got == true:
                            outcomes["unchanged"] += 1
                        else:
                            with pytest.raises(InconsistentValuation, match="valuations disagree"):
                                compare_valuations(g)
                            outcomes["disagrees"] += 1
    assert outcomes == {"raised": 243, "unchanged": 615, "disagrees": 6}


def test_valuation_v_gamma_evaluates_each_containment_step_once(monkeypatch, annulus):
    g = label_snake(family_word(annulus, 7, "G"), annulus)
    calls = []
    real = valuation.omega_prime
    monkeypatch.setattr(valuation, "omega_prime", lambda *a: calls.append(a) or real(*a))
    valuation_v_gamma(g)
    # two omega_prime calls per step, and 13,730 / 2 steps: each twist of
    # valuation_v's count is one step seen from both ends
    assert len(calls) == 13730


# -- the traced harness -----------------------------------------------------


def traced_calls(commands):
    """The bench tracer's call counts over CLI commands run in-process."""
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for args in commands:
            res = CliRunner().invoke(main, args)
            assert res.exit_code == 0, res.output
    finally:
        tracer.restore()
    return tracing, tracer.calls


def test_the_traced_expansion_leaves_no_annulus_expand_target_silent(annulus):
    commands = [
        ["expand", "-s", "annulus", "--string", str(family_word(annulus, 2, family))]
        for family in ("G", "H")
    ]
    tracing, calls = traced_calls(commands)
    assert tracing.silent_targets([calls], "annulus_expand") == []


@pytest.mark.parametrize(
    "workload, commands",
    [
        ("polygon_verify", [["verify", "-s", "pentagon", "--max-length", "2", "--jobs", "1"]]),
        ("annulus_mutate", [["mutate", "-s", "annulus", "--seq", "1,2,1,2,1,2"]]),
        (
            "annulus_identities",
            [
                ["skein-multiply", "-s", "annulus", "--v", "1 >a> 2 <b< 1", "--w", "1 >a> 2"],
                ["kronecker", "-s", "annulus", "--s", "1", "--check"],
            ],
        ),
    ],
)
def test_one_small_command_per_workload_leaves_no_target_silent(workload, commands):
    tracing, calls = traced_calls(commands)
    assert tracing.silent_targets([calls], workload) == []
