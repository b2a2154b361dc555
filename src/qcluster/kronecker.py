"""The two-arc annulus families and their twist-weight recursions.

Over the annulus the arcs wrapping s times produce snake graphs with
2s+1 tiles (family "G") and 2s tiles (family "H"), the tiles crossing
arcs 1 and 2 alternately.  Each tile carries an integer alpha-weight
depending only on its offset from the middle.  The four recursions
below, with the anchors v_{G_s}({2s, 2s+1}) = 1 and v_{H_s}({2s}) = s - 1,
prove by induction that alpha and the valuation v agree dimension by
dimension, so the series r_s built from alpha equals the snake expansion
of the (2s+1)-tile string.  A set N with dimension vector (u, w) has its
row's alpha step alpha(N) - alpha(restriction); v's step is the same on
G_s and negated on H_s:

    row          N in  last in N  also needs                      restriction              alpha step
    drop last    G_s   2s+1: no   -                               N in H_s                 -u
    keep last    G_s   2s+1: yes  2s in N                         N - {2s, 2s+1} in G_s-1  -u + w + 1
    H keep last  H_s   2s: yes    -                               N - {2s} in G_s-1        -s + w
    H drop last  H_s   2s: no     2s-1 not in N; N = {} if s = 1  N in H_s-1               -u + w
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import UnmatchedCase
from .expansion import counted_element, uniform_d, x_of_matching
from .seeds import QuantumSeed
from .snake import SnakeGraph, bijection_image, label_snake
from .strings import Letter, StringWord, dimension_vector, positions
from .surface import Triangulation, build_quiver
from .torus import TorusElement
from .valuation import valuation_v

__all__ = [
    "WeightedSnake",
    "family_word",
    "build_weighted",
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
        """(alpha table, valuation table), each index set mask -> integer.

        Read once per weighted snake from the graph's bijection image.
        """
        v = valuation_v(self.graph)
        alpha_by_set, v_by_set = {}, {}
        for P, indices in bijection_image(self.graph).items():
            alpha_by_set[indices] = _alpha_of_set(self, indices)
            v_by_set[indices] = v[P]
        return alpha_by_set, v_by_set

    @cached_property
    def dims(self) -> dict:
        """Each index set mask of the tables -> its dimension vector (u, w), taken once."""
        return {N: dimension_vector(self.graph.word, N, n=2) for N in self.tables[0]}


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
    alphas = tuple(
        j - s - 1 + (family == "H") if arc == 1 else s + 1 - j
        for j, arc in enumerate(word.vertices, start=1)
    )
    return WeightedSnake(family, s, label_snake(word, t), alphas)


def _alpha_of_set(ws: WeightedSnake, indices: int) -> int:
    return sum([ws.alphas[j - 1] for j in positions(indices)])


def r_s(t: Triangulation, s: int, seed: QuantumSeed, family: str = "G") -> TorusElement:
    """Matching sum with alpha-weights in place of valuations."""
    return weighted_series(build_weighted(t, s, family), seed)


def weighted_series(ws: WeightedSnake, seed: QuantumSeed) -> TorusElement:
    """r_s of the weighted snake's own graph."""
    d, g = uniform_d(seed), ws.graph
    counts: dict = {}  # exponent -> {q-power: matchings}
    for P, indices in bijection_image(g).items():
        powers = counts.setdefault(x_of_matching(g, P), {})
        twice = d * _alpha_of_set(ws, indices)
        powers[twice] = powers.get(twice, 0) + 1
    return counted_element(g.triangulation.m, counts)


def equality_check(ws: WeightedSnake) -> bool:
    """Per dimension vector, alpha and the valuation take the same multiset of values."""
    (alphas, values), dims = ws.tables, ws.dims
    return Counter((dims[N], alphas[N]) for N in dims) == Counter((dims[N], values[N]) for N in dims)


def recursion_checks(ws: WeightedSnake) -> list:
    """Check the four twist-set recursions at the level of ws; return failures.

    ws is G_s or H_s; the levels the rows read are built here.  Each set of
    G_s, then of H_s, is checked against its row of the module docstring's
    rule table, for alpha and for v (v's step is negated on H_s); a set
    lacking what its row needs is not compared.
    """
    s = ws.s
    if s < 1:
        raise UnmatchedCase("recursions start at s = 1")
    t = ws.graph.triangulation
    other = build_weighted(t, s, "H" if ws.family == "G" else "G")
    g_s, h_s = (ws, other) if ws.family == "G" else (other, ws)
    levels = {f"G{s}": g_s.tables, f"H{s}": h_s.tables, f"G{s - 1}": build_weighted(t, s - 1, "G").tables}
    if s >= 2:
        levels[f"H{s - 1}"] = build_weighted(t, s - 1, "H").tables
    failures = []
    for level, last, sign in ((g_s, 2 * s + 1, 1), (h_s, 2 * s, -1)):
        name = f"{level.family}{s}"
        for N, (u, w) in level.dims.items():
            broken, missing = None, "does not restrict to"
            if level is g_s and not N >> last & 1:
                rule, cut, into, step, missing = "drop last", 0, f"H{s}", -u, "missing from"
            elif level is g_s:
                rule, cut, into, step = "keep last", 3 << last - 1, f"G{s - 1}", -u + w + 1
                broken = not N >> last - 1 & 1 and f"contains {last} without {last - 1}"
            elif N >> last & 1:
                rule, cut, into, step = "H keep last", 1 << last, f"G{s - 1}", -s + w
            else:
                rule, cut, into, step = "H drop last", 0, f"H{s - 1}", -u + w
                broken = N >> last - 1 & 1 and f"contains {last - 1} without {last}"
                broken = broken or (s == 1 and N and "should be empty without tile 2")
            if broken:
                failures.append(f"{name} set {positions(N)} {broken}")
                continue
            if into not in levels:  # H_0: the empty set of H_1 has no recursion
                continue
            smaller = N & ~cut
            if smaller not in levels[into][0]:
                failures.append(f"{name} set {positions(N)} {missing} {into}")
                continue
            changes = zip(("alpha", "valuation"), levels[name], levels[into], (step, sign * step))
            for kind, table, before, change in changes:
                if table[N] != before[smaller] + change:
                    failures.append(f"{kind} recursion ({rule}) fails at {positions(N)}")
    anchors = ((f"G{s}", 3 << 2 * s, 1), (f"H{s}", 1 << 2 * s, s - 1))
    for name, anchor, want in anchors:
        values = levels[name][1]
        if anchor not in values:
            failures.append(f"anchor set {positions(anchor)} missing from {name}")
        elif values[anchor] != want:
            failures.append(f"anchor valuation of {positions(anchor)} in {name} is {values[anchor]}, want {want}")
    return failures
