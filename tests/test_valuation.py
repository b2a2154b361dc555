"""Twist valuations on matchings and their module-side counterparts."""
from __future__ import annotations

from collections import Counter

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from qcluster import snake, valuation
from qcluster.cli import main
from qcluster.errors import (
    BijectionViolation,
    CannotTwist,
    InconsistentValuation,
    QClusterError,
    UnmatchedCase,
)
from qcluster.expansion import quantum_expansion
from qcluster.kronecker import family_word
from qcluster.snake import (
    can_twist,
    enumerate_matchings,
    label_snake,
    matching_to_submodule,
    maximal_matching,
    minimal_matching,
    twist,
)
from qcluster.strings import (
    enumerate_canonical_submodules,
    enumerate_strings,
    is_canonical_submodule,
)
from qcluster.surface import build_quiver, load_surface
from qcluster.valuation import (
    compare_valuations,
    n_module,
    omega,
    omega_prime,
    valuation_v,
    valuation_v_gamma,
)

from conftest import SURFACES, WHEEL3, m_pm, mask_of, positions_of
from test_matching_masks import _toggle_keeps_canonical
from test_snake import submodule_to_matching
from test_strings import scan_canonical_submodules


# -- reference forms the per-graph tables are checked against ------------


def n_pm(g, s, P, tau):
    """Matched tau-labeled edges strictly on either side of tile s.

    The side regions include the edges gluing them to tile s.  Only
    defined at twistable tiles.
    """
    if not can_twist(g, P, s):
        raise CannotTwist(f"matching does not cover tile {s} by an opposite pair")
    tiles = [[j for j, _ in g.edge_sides(e)] for e in g.edges(P) if g.edge_label(e) == tau]
    n_minus = sum(1 for js in tiles if js[0] < s)
    n_plus = sum(1 for js in tiles if js[-1] > s)
    return n_minus, n_plus


def big_counts(g, k, j, indices):
    """(M_minus, M_plus, N_minus, N_plus) for arc k anchored at position j.

    Position j must cross arc k.  The M-counts repeat m_pm on the word;
    the N-counts add the anchored signed parts to the plain totals of
    the other positions on each side.
    """
    arcs, d = g.word.vertices, g.d
    if arcs[j - 1] != k:
        raise UnmatchedCase(f"position {j} crosses {arcs[j - 1]}, not {k}")
    m_minus = arcs[: j - 1].count(k)
    m_plus = arcs[j:].count(k)
    _, n_plus_here, n_minus_here = n_module(g, k, j, indices)
    n_minus = n_minus_here + sum(n_module(g, k, i, indices)[0] for i in range(1, j))
    n_plus = n_plus_here + sum(n_module(g, k, i, indices)[0] for i in range(j + 1, d + 1))
    return m_minus, m_plus, n_minus, n_plus

@pytest.fixture(scope="module")
def short_words(quivers):
    """(surface, word) for every string of at most 7 vertices on the bundled surfaces."""
    return [(name, w) for name in SURFACES for w in enumerate_strings(quivers[name], 7)]


@pytest.fixture(scope="module")
def g1_graph(annulus, g1_word):
    return label_snake(g1_word, annulus)


def test_valuation_table_of_the_double_crossing(g1_graph):
    v = {g1_graph.edges(P): val for P, val in valuation_v(g1_graph).items()}
    assert v[frozenset({(1, "W"), (2, "N"), (2, "S"), (3, "E")})] == 0
    assert v[frozenset({(1, "E"), (1, "W"), (2, "E"), (3, "E")})] == 0
    assert v[frozenset({(1, "E"), (1, "W"), (3, "N"), (3, "S")})] == 1
    assert v[frozenset({(1, "N"), (1, "S"), (2, "E"), (3, "E")})] == -1
    assert v[frozenset({(1, "N"), (1, "S"), (3, "N"), (3, "S")})] == 0


def test_module_side_valuation_of_the_double_crossing(g1_graph):
    vg = valuation_v_gamma(g1_graph)
    assert {frozenset(positions_of(N)): v for N, v in vg.items()} == {
        frozenset(): 0,
        frozenset({2}): 0,
        frozenset({1, 2}): -1,
        frozenset({2, 3}): 1,
        frozenset({1, 2, 3}): 0,
    }


def test_module_side_valuation_of_the_longer_family_word(annulus):
    vg = valuation_v_gamma(label_snake(family_word(annulus, 2, "H"), annulus))
    assert {frozenset(positions_of(N)): v for N, v in vg.items()} == {
        frozenset(): 0,
        frozenset({2}): -1,
        frozenset({4}): 1,
        frozenset({1, 2}): 0,
        frozenset({2, 4}): 0,
        frozenset({1, 2, 4}): -1,
        frozenset({2, 3, 4}): 1,
        frozenset({1, 2, 3, 4}): 0,
    }


def test_extreme_matchings_have_valuation_zero(quivers, surfaces):
    for name in ("annulus", "pentagon", "hexagon"):
        for w in enumerate_strings(quivers[name], 6):
            g = label_snake(w, surfaces[name])
            v = valuation_v(g)
            assert v[minimal_matching(g)] == 0
            assert v[maximal_matching(g)] == 0


def test_both_valuations_agree_under_the_bijection(quivers, surfaces):
    for name in ("annulus", "pentagon", "hexagon"):
        for w in enumerate_strings(quivers[name], 6):
            g = label_snake(w, surfaces[name])
            v = valuation_v(g)
            vg = valuation_v_gamma(g)
            assert {matching_to_submodule(g, P): val for P, val in v.items()} == vg
            assert compare_valuations(label_snake(w, surfaces[name])) == vg


def test_twisting_subtracts_the_local_exponent(quivers, surfaces):
    for name in ("annulus", "pentagon"):
        for w in enumerate_strings(quivers[name], 5):
            g = label_snake(w, surfaces[name])
            v = valuation_v(g)
            for P in enumerate_matchings(g):
                for s in range(1, g.d + 1):
                    if can_twist(g, P, s):
                        assert v[twist(g, P, s)] == v[P] - omega(g, s, P)


def test_valuation_v_looks_up_each_twist_once(monkeypatch, annulus):
    g = label_snake(family_word(annulus, 7, "G"), annulus)
    calls = []
    real = valuation.omega

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(valuation, "omega", counted)
    valuation_v(g)
    # valuation_v scans the 15 * 1,597 (matching, tile) pairs by a mask test
    # on the tiles' twist rows, so omega runs once per twist from each end
    assert len(calls) == len(set(calls)) == 13730


def test_omega_agrees_with_its_module_side_form(quivers, surfaces):
    checked = 0
    for name in ("annulus", "pentagon", "hexagon"):
        t = surfaces[name]
        for w in enumerate_strings(quivers[name], 5):
            g = label_snake(w, t)
            for N in enumerate_canonical_submodules(w):
                P = submodule_to_matching(g, N)
                for s in range(1, g.d + 1):
                    if can_twist(g, P, s):
                        assert omega(g, s, P) == omega_prime(g, s, N)
                        checked += 1
    assert checked > 100


def test_case_split_counts_sum_to_plain_edge_counts(quivers, surfaces):
    # summed over positions, the case analysis reproduces a direct scan of
    # the matching attached to the submodule
    internal = {"annulus": (1, 2), "pentagon": (1, 2), "hexagon": (1, 2, 3)}
    for name in ("annulus", "pentagon", "hexagon"):
        t = surfaces[name]
        for w in enumerate_strings(quivers[name], 5):
            g = label_snake(w, t)
            for N in enumerate_canonical_submodules(w):
                P = submodule_to_matching(g, N)
                for k in internal[name]:
                    total = sum(
                        n_module(g, k, j, N)[0] for j in range(1, g.d + 1)
                    )
                    assert total == sum(1 for e in g.edges(P) if g.edge_label(e) == k)


def test_big_counts_match_the_edge_scans_at_the_diagonal(quivers, surfaces):
    for name in ("annulus", "pentagon", "hexagon"):
        t = surfaces[name]
        for w in enumerate_strings(quivers[name], 5):
            g = label_snake(w, t)
            for N in enumerate_canonical_submodules(w):
                P = submodule_to_matching(g, N)
                for s in range(1, g.d + 1):
                    if not can_twist(g, P, s):
                        continue
                    k = w.vertices[s - 1]
                    m_lo, m_hi = m_pm(g, s, k)
                    n_lo, n_hi = n_pm(g, s, P, k)
                    assert big_counts(g, k, s, N) == (
                        m_lo,
                        m_hi,
                        n_lo,
                        n_hi,
                    )


def test_big_counts_frozen_sample(annulus, g1_word, g1_graph):
    assert big_counts(g1_graph, 1, 1, mask_of({2})) == (
        0,
        1,
        0,
        0,
    )
    assert m_pm(g1_graph, 1, 1) == (0, 1)
    P = submodule_to_matching(g1_graph, mask_of({2}))
    assert n_pm(g1_graph, 1, P, 1) == (0, 0)


@given(data=st.data())
def test_n_module_reads_an_index_set_only_in_its_window(short_words, surfaces, data):
    name, w = data.draw(st.sampled_from(short_words))
    t = surfaces[name]
    g = label_snake(w, t)
    k = data.draw(st.sampled_from(sorted(set(w.vertices))))
    j = data.draw(st.integers(1, w.d))
    positions = range(1, w.d + 1)
    window = {j - 1, j, j + 1}
    first = data.draw(st.sets(st.sampled_from(positions)))
    outside = data.draw(st.sets(st.sampled_from(positions)))
    second = (first & window) | (outside - window)
    assert n_module(g, k, j, mask_of(first)) == n_module(g, k, j, mask_of(second))


def test_omega_prime_equals_the_big_counts_at_every_position(short_words, surfaces):
    checked = 0
    for name, w in short_words:
        t = surfaces[name]
        g = label_snake(w, t)
        for N in enumerate_canonical_submodules(w):
            for j in range(1, w.d + 1):
                k = w.vertices[j - 1]
                m_minus, m_plus, n_minus, n_plus = big_counts(g, k, j, N)
                sign = 1 if j in positions_of(N) else -1
                assert omega_prime(g, j, N) == sign * (
                    n_plus - m_plus - n_minus + m_minus
                ), (str(w), positions_of(N), j)
                checked += 1
    assert checked > 500


def test_omega_prime_rejects_a_position_outside_the_word(g1_graph):
    for j in (0, 4):
        with pytest.raises(UnmatchedCase, match=f"position {j} outside 1..3"):
            omega_prime(g1_graph, j, mask_of({2}))


@pytest.mark.parametrize("position", [0, -1, 4])
def test_omega_prime_rejects_an_index_set_outside_the_word(g1_graph, position):
    if position < 0:  # no bit stands for a negative position, so no mask holds one
        with pytest.raises(ValueError):
            mask_of({2, position})
        return
    with pytest.raises(UnmatchedCase, match=f"^position {position} outside 1..3$"):
        omega_prime(g1_graph, 1, mask_of({2, position}))


@pytest.mark.parametrize("j", [0, -1, 4])
def test_a_tile_outside_the_graph_is_an_unmatched_case(g1_graph, j):
    P = minimal_matching(g1_graph)
    for call in (
        lambda: g1_graph.tile(j),
        lambda: g1_graph.tile_edges(j),
        lambda: can_twist(g1_graph, P, j),
        lambda: twist(g1_graph, P, j),
        lambda: omega(g1_graph, j, P),
        lambda: m_pm(g1_graph, j, 1),
        lambda: g1_graph.glue_label(j),
    ):
        with pytest.raises(UnmatchedCase, match=f"tile {j} outside 1..3"):
            call()


def test_no_glue_edge_follows_the_last_tile(g1_graph):
    with pytest.raises(UnmatchedCase, match="tile 3 is the last tile"):
        g1_graph.glue_label(3)


def nonzero_window_rows(g):
    """The rows (word arc, position) of the full window table that are nonzero somewhere."""
    return sum(
        any(n_module(g, k, j, valuation._windows(j, g.d)[p]) != (0, 0, 0) for p in range(8))
        for k in set(g.word.vertices)
        for j in range(1, g.d + 1)
    )


def n_module_calls(monkeypatch, w, t, seed):
    """How often one expansion of w calls n_module."""
    calls = []
    real = valuation.n_module
    with monkeypatch.context() as patched:
        patched.setattr(
            valuation, "n_module", lambda *args, **kw: calls.append(args) or real(*args, **kw)
        )
        quantum_expansion(w, t, seed)
    return len(calls)


def test_the_g7_expansion_tabulates_each_window_once(monkeypatch, surfaces, quivers, seeds):
    # 8 window patterns per row (word arc, position) of the full table that
    # is nonzero somewhere, once for the one graph: 17 of G_7's 30 rows
    annulus = surfaces["annulus"]
    w = family_word(annulus, 7, "G")
    nonzero = nonzero_window_rows(label_snake(w, annulus))
    assert nonzero == 17
    assert n_module_calls(monkeypatch, w, annulus, seeds["annulus"]) == 8 * nonzero
    # and every one-vertex word, whose own arc's row is zero: it has no
    # letter to give n_plus or n_minus, and its end sides skip the diagonal
    words = 0
    for name in SURFACES:
        t = surfaces[name]
        for w in enumerate_strings(quivers[name], 1):
            nonzero = nonzero_window_rows(label_snake(w, t))
            assert n_module_calls(monkeypatch, w, t, seeds[name]) == 8 * nonzero, (name, str(w))
            words += 1
    assert words == 8


class Untouchable:
    """Stands in for a cache that must not be read: any use raises."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a matching-side cache was read")

    __getattr__ = __iter__ = __len__ = __contains__ = __getitem__ = _refuse
    __bool__ = __eq__ = __hash__ = _refuse


def test_the_word_route_reads_no_matching_side_cache(annulus):
    w = family_word(annulus, 3, "G")
    expected = valuation_v_gamma(label_snake(w, annulus))
    g = label_snake(w, annulus)
    matching_side = ("_matchings", "_minimal", "_maximal", "_image", "_compared")
    mask_tables = ("_point_options", "_edge_ends", "_label_masks", "_twist_rows", "_west_rows")
    for cache in matching_side + mask_tables:
        setattr(g, cache, Untouchable())
    assert valuation_v_gamma(g) == expected


def test_a_failed_comparison_keeps_no_table(monkeypatch, annulus):
    g = label_snake(family_word(annulus, 3, "G"), annulus)
    real = valuation.valuation_v

    def one_wrong_value(graph):
        values = dict(real(graph))
        values[maximal_matching(graph)] += 1
        return values

    monkeypatch.setattr(valuation, "valuation_v", one_wrong_value)
    for _ in range(3):
        with pytest.raises(InconsistentValuation, match="valuations disagree"):
            compare_valuations(g)


def test_the_toggle_rule_agrees_with_the_run_conditions(corpus_words):
    steps = 0
    for _, w in corpus_words:
        for N in map(frozenset, map(positions_of, enumerate_canonical_submodules(w))):
            for j in range(1, w.d + 1):
                toggled = N ^ {j}
                keeps = _toggle_keeps_canonical(w, N, j)
                assert keeps == is_canonical_submodule(w, mask_of(toggled))
                steps += keeps
    assert steps > 10000


def test_every_canonical_set_has_a_canonical_subset_one_position_smaller(corpus_words):
    """The fact valuation_v_gamma's single pass rests on, against the 2^d
    scan, which also shows that the generator lists every canonical set."""
    wheel = load_surface(WHEEL3)
    words = [w for _, w in corpus_words] + enumerate_strings(build_quiver(wheel), 7)
    sets = 0
    for w in words:
        scanned = set(scan_canonical_submodules(w))
        assert scanned == set(enumerate_canonical_submodules(w)), str(w)
        for N in map(frozenset, map(positions_of, scanned - {mask_of(())})):
            assert any(mask_of(N - {j}) in scanned for j in N), (str(w), sorted(N))
        sets += len(scanned)
    assert sets == 11280


@pytest.mark.parametrize(
    "family, outcomes",
    [
        ("G", {"BijectionViolation": 28, "UnreachableSubmodule": 6}),
        ("H", {"BijectionViolation": 16, "UnreachableSubmodule": 5}),
    ],
)
def test_a_generated_set_dropped_from_the_walk_is_a_typed_error(monkeypatch, annulus, family, outcomes):
    w = family_word(annulus, 3, family)
    real = snake.enumerate_canonical_submodules
    seen = Counter()
    for drop in range(len(real(w))):
        monkeypatch.setattr(
            snake,
            "enumerate_canonical_submodules",
            lambda word, drop=drop: [cs for i, cs in enumerate(real(word)) if i != drop],
        )
        with pytest.raises(QClusterError) as caught:
            compare_valuations(label_snake(w, annulus))
        seen[type(caught.value).__name__] += 1
        res = CliRunner().invoke(main, ["expand", "-s", "annulus", "--string", str(w)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error: ") and res.output.count("\n") == 1
    assert seen == outcomes


def test_a_word_side_set_that_no_matching_reaches_is_a_bijection_violation(monkeypatch, annulus):
    real = valuation.valuation_v
    monkeypatch.setattr(valuation, "valuation_v", lambda graph: dict(list(real(graph).items())[1:]))
    with pytest.raises(BijectionViolation, match="matchings reach 20 of the 21 word-side index sets"):
        compare_valuations(label_snake(family_word(annulus, 3, "H"), annulus))
