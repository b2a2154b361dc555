"""Mask matchings against the frozenset forms they replaced.

The reference_* functions below are the frozenset-of-edge-ids code that
enumerate_matchings, enclosed_tiles, valuation_v and valuation_v_gamma
ran before matchings became int masks.  They read only the graph's
public geometry, so the comparisons go through ``g.edges``.
reference_valuation_v_gamma is also the breadth-first search that
valuation_v_gamma ran before its one pass over the generated sets.
"""
from __future__ import annotations

import sys
from collections import deque
from pathlib import Path
from unittest.mock import patch

import pytest
from click.testing import CliRunner

from qcluster import valuation
from qcluster.cli import main
from qcluster.errors import CannotTwist, InconsistentValuation, UnreachableSubmodule
from qcluster.kronecker import family_word
from qcluster.snake import (
    can_twist,
    enclosed_tiles,
    enumerate_matchings,
    label_snake,
    minimal_matching,
    twist,
)
from qcluster.strings import enumerate_canonical_submodules, enumerate_strings
from qcluster.surface import build_quiver, load_surface
from qcluster.valuation import (
    compare_valuations,
    omega,
    omega_prime,
    valuation_v,
    valuation_v_gamma,
)

from conftest import ANNULUS_21, SURFACES, m_pm

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
    both endpoints, deciding each toggle by _toggle_keeps_canonical."""
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
            step = omega_prime(g, j, smaller)
            back = omega_prime(g, j, bigger)
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
    canonical = set(enumerate_canonical_submodules(g.word))
    if set(values) != canonical:
        raise UnreachableSubmodule(
            f"single-index steps reach {len(values)} of {len(canonical)} index sets"
        )
    full = frozenset(range(1, d + 1))
    if values[full] != 0:
        raise InconsistentValuation(f"full index set has valuation {values[full]}, want 0")
    return values


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
            assert enclosed_tiles(g, P) == reference_enclosed_tiles(g, edges)
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
