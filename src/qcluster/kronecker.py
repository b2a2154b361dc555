"""The two-arc annulus families and their twist-weight recursions.

Over the annulus the arcs wrapping s times produce snake graphs with
2s+1 tiles (family "G") and 2s tiles (family "H"), the tiles crossing
arcs 1 and 2 alternately.  Each tile carries an integer alpha-weight
depending only on its offset from the middle; summing the weights over
the enclosed tiles of a matching reproduces the valuation distribution
dimension by dimension, which the four recursions below prove by
induction.  The series r_s built from alpha therefore equals the snake
expansion of the (2s+1)-tile string.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import UnmatchedCase
from .expansion import counted_element, uniform_d, x_of_matching
from .seeds import QuantumSeed
from .snake import SnakeGraph, enumerate_matchings, label_snake, matching_to_submodule
from .strings import Letter, StringWord, dimension_vector
from .surface import Triangulation, build_quiver
from .torus import TorusElement
from .valuation import valuation_v

__all__ = [
    "WeightedSnake",
    "family_word",
    "build_weighted",
    "alpha_of_set",
    "r_s",
    "weighted_series",
    "equality_check",
    "recursion_checks",
]


@dataclass(frozen=True)
class WeightedSnake:
    family: str  # "G" | "H"
    s: int
    graph: SnakeGraph
    alphas: tuple  # per-tile weight, 1-based via index j-1

    @cached_property
    def tables(self) -> tuple:
        """(alpha table, valuation table), each index set -> integer.

        Read once per weighted snake from the graph's bijection image.
        """
        v = valuation_v(self.graph)
        alpha_by_set, v_by_set = {}, {}
        for P in enumerate_matchings(self.graph):
            indices = matching_to_submodule(self.graph, P)
            alpha_by_set[indices] = alpha_of_set(self, indices)
            v_by_set[indices] = v[P]
        return alpha_by_set, v_by_set


def family_word(t: Triangulation, s: int, family: str = "G") -> StringWord:
    """The alternating (1,2)-word with 2s+1 (G) or 2s (H) vertices over t's quiver."""
    if family not in ("G", "H"):
        raise UnmatchedCase(f"unknown family {family!r}")
    if s < 0 or (family == "H" and s < 1):
        raise UnmatchedCase(f"family {family} needs s >= {1 if family == 'H' else 0}")
    arrows_12 = build_quiver(t).arrows_between(1, 2)
    if len(arrows_12) != 2:
        raise UnmatchedCase("surface does not have the double arrow 1 -> 2")
    first, second = arrows_12
    d = 2 * s + 1 if family == "G" else 2 * s
    vertices = tuple(1 if j % 2 == 1 else 2 for j in range(1, d + 1))
    letters = []
    for p in range(1, d):
        if p % 2 == 1:
            letters.append(Letter(first, True))
        else:
            letters.append(Letter(second, False))
    return StringWord(vertices, tuple(letters))


def build_weighted(t: Triangulation, s: int, family: str = "G") -> WeightedSnake:
    """G_s or H_s: the family word's snake graph with its alpha-weights."""
    word = family_word(t, s, family)
    alphas = []
    for j, arc in enumerate(word.vertices, start=1):
        offset = j - s - 1
        if family == "G":
            alphas.append(offset if arc == 1 else -offset)
        else:
            alphas.append(offset + 1 if arc == 1 else -offset)
    return WeightedSnake(family, s, label_snake(word, t), tuple(alphas))


def alpha_of_set(ws: WeightedSnake, indices) -> int:
    return sum(ws.alphas[j - 1] for j in indices)


def r_s(t: Triangulation, s: int, seed: QuantumSeed, family: str = "G") -> TorusElement:
    """Matching sum with alpha-weights in place of valuations."""
    return weighted_series(build_weighted(t, s, family), seed)


def weighted_series(ws: WeightedSnake, seed: QuantumSeed) -> TorusElement:
    """r_s of the weighted snake's own graph."""
    d, g = uniform_d(seed), ws.graph
    counts: dict = {}  # exponent -> {q-power: matchings}
    for P in enumerate_matchings(g):
        powers = counts.setdefault(x_of_matching(g, P), {})
        twice = d * alpha_of_set(ws, matching_to_submodule(g, P))
        powers[twice] = powers.get(twice, 0) + 1
    return counted_element(g.triangulation.m, counts)


def equality_check(ws: WeightedSnake) -> bool:
    """Per-dimension multisets of alpha and of the valuation must agree."""
    alphas, values = ws.tables
    by_dim_alpha: dict = {}
    by_dim_value: dict = {}
    for indices, a in alphas.items():
        dim = dimension_vector(ws.graph.word, indices, n=2)
        by_dim_alpha.setdefault(dim, []).append(a)
        by_dim_value.setdefault(dim, []).append(values[indices])
    return all(
        sorted(by_dim_alpha[dim]) == sorted(by_dim_value[dim])
        for dim in by_dim_alpha
    )


def recursion_checks(ws: WeightedSnake) -> list:
    """Check the four twist-set recursions at the level of ws; return failures.

    ws is G_s or H_s.  The other levels the recursions read (H_s or G_s,
    G_{s-1}, and H_{s-1} from s = 2 on) are built here.
    """
    s = ws.s
    if s < 1:
        raise UnmatchedCase("recursions start at s = 1")
    t = ws.graph.triangulation
    other = build_weighted(t, s, "H" if ws.family == "G" else "G")
    g_s, h_s = (ws, other) if ws.family == "G" else (other, ws)
    a_gs, v_gs = g_s.tables
    a_hs, v_hs = h_s.tables
    a_gp, v_gp = build_weighted(t, s - 1, "G").tables
    if s >= 2:
        a_hp, v_hp = build_weighted(t, s - 1, "H").tables
    failures = []

    last_g = 2 * s + 1
    for indices in a_gs:
        u, w_count = dimension_vector(g_s.graph.word, indices, n=2)
        if last_g not in indices:
            # same set inside the one-tile-shorter family
            if indices not in a_hs:
                failures.append(f"G{s} set {sorted(indices)} missing from H{s}")
                continue
            if a_gs[indices] != a_hs[indices] - u:
                failures.append(f"alpha recursion (drop last) fails at {sorted(indices)}")
            if v_gs[indices] != v_hs[indices] - u:
                failures.append(f"valuation recursion (drop last) fails at {sorted(indices)}")
        else:
            if last_g - 1 not in indices:
                failures.append(
                    f"G{s} set {sorted(indices)} contains {last_g} without {last_g - 1}"
                )
                continue
            smaller = frozenset(indices - {last_g, last_g - 1})
            if smaller not in a_gp:
                failures.append(f"G{s} set {sorted(indices)} does not restrict to G{s - 1}")
                continue
            expected = a_gp[smaller] - u + w_count + 1
            if a_gs[indices] != expected:
                failures.append(f"alpha recursion (keep last) fails at {sorted(indices)}")
            if v_gs[indices] != v_gp[smaller] - u + w_count + 1:
                failures.append(f"valuation recursion (keep last) fails at {sorted(indices)}")

    last_h = 2 * s
    for indices in a_hs:
        u, w_count = dimension_vector(h_s.graph.word, indices, n=2)
        if last_h in indices:
            smaller = frozenset(indices - {last_h})
            if smaller not in a_gp:
                failures.append(f"H{s} set {sorted(indices)} does not restrict to G{s - 1}")
                continue
            if a_hs[indices] != a_gp[smaller] - s + w_count:
                failures.append(f"alpha recursion (H keep last) fails at {sorted(indices)}")
            if v_hs[indices] != v_gp[smaller] + s - w_count:
                failures.append(f"valuation recursion (H keep last) fails at {sorted(indices)}")
        else:
            if last_h - 1 in indices:
                failures.append(
                    f"H{s} set {sorted(indices)} contains {last_h - 1} without {last_h}"
                )
                continue
            if s == 1:
                if indices:
                    failures.append(f"H1 set {sorted(indices)} should be empty without tile 2")
                continue
            if indices not in a_hp:
                failures.append(f"H{s} set {sorted(indices)} does not restrict to H{s - 1}")
                continue
            if a_hs[indices] != a_hp[indices] - u + w_count:
                failures.append(f"alpha recursion (H drop last) fails at {sorted(indices)}")
            if v_hs[indices] != v_hp[indices] + u - w_count:
                failures.append(f"valuation recursion (H drop last) fails at {sorted(indices)}")

    anchor_g = frozenset({last_g - 1, last_g})
    if anchor_g in v_gs and v_gs[anchor_g] != 1:
        failures.append(f"anchor valuation of {sorted(anchor_g)} in G{s} is {v_gs[anchor_g]}, want 1")
    if anchor_g not in v_gs:
        failures.append(f"anchor set {sorted(anchor_g)} missing from G{s}")
    anchor_h = frozenset({last_h})
    if anchor_h in v_hs and v_hs[anchor_h] != s - 1:
        failures.append(f"anchor valuation of {sorted(anchor_h)} in H{s} is {v_hs[anchor_h]}, want {s - 1}")
    if anchor_h not in v_hs:
        failures.append(f"anchor set {sorted(anchor_h)} missing from H{s}")
    return failures
