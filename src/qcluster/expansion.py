"""Quantum Laurent expansions of arc variables from snake-graph data.

The expansion of the variable attached to a string is assembled twice:

* matching route: one term per perfect matching, with exponent vector
  "edge labels minus crossed arcs" and q-power d * v(P);
* module route: one term per canonical index set, with exponent vector
  x(minimal) + B dim(N) and q-power d * v_gamma(N).

Both routes must produce the identical torus element; the result keeps
the per-term data for reporting, one `ExpansionTerm` NamedTuple per
matching, each placed at its set's index in the canonical generator,
whose order is (size, sorted positions); `expand` prints them in that
order, each index set mask as its sorted positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import BijectionViolation, InconsistentValuation, NotCompatible
from .seeds import QuantumSeed
from .snake import SnakeGraph, bijection_image, canonical_submodules, label_snake, minimal_matching
from .strings import StringWord, positions
from .surface import Triangulation
from .torus import QCoefficient, TorusElement
from .valuation import compare_valuations

__all__ = [
    "ExpansionTerm",
    "ExpansionResult",
    "uniform_d",
    "x_of_matching",
    "counted_element",
    "quantum_expansion",
    "graph_expansion",
    "classical_specialization",
]


class ExpansionTerm(NamedTuple):
    """One matching's term.  Being a tuple it is cheap to build, and it
    also equals a plain tuple of the same four values.  The index set is
    a mask, as everywhere in the package; printing lists its positions."""

    indices: int  # index set: bit j set for each position j
    dim: tuple  # dimension vector over internal arcs
    valuation: int  # raw power (before scaling by d)
    exponent: tuple  # lattice vector of the torus monomial


@dataclass(frozen=True)
class ExpansionResult:
    word: StringWord
    element: TorusElement
    terms: tuple
    denominator: tuple  # crossing counts per arc


def uniform_d(seed: QuantumSeed) -> int:
    ds = set(seed.pair.d)
    if len(ds) != 1:
        raise NotCompatible(f"expected a uniform diagonal, got {seed.pair.d}")
    return ds.pop()


def x_of_matching(g: SnakeGraph, P: int) -> tuple:
    """The exponent of matching P: per arc, its matched edges carrying the
    arc (one popcount of the label mask) minus the word's crossings of it."""
    return tuple([(P & mask).bit_count() - c for mask, c in zip(g._label_masks, g.crossings)])


def counted_element(rank: int, counts: dict) -> TorusElement:
    """The sum of c * q^(t/2) X^x over a table {x: {t: c}}, one term per exponent."""
    total = TorusElement.zero(rank)
    for x, powers in counts.items():
        total = total + TorusElement(rank, {x: QCoefficient(powers)})
    return total


def quantum_expansion(w: StringWord, t: Triangulation, seed: QuantumSeed) -> ExpansionResult:
    """Expansion of the arc variable of w in the seed's initial torus.

    The seed must be the initial seed of this surface (its exchange
    matrix the surface's own); mutated seeds have their own tori and
    are compared through mutation, not through this formula.
    """
    return graph_expansion(label_snake(w, t), seed)


def graph_expansion(g: SnakeGraph, seed: QuantumSeed) -> ExpansionResult:
    """quantum_expansion of the snake graph's word, reading its tables.

    The q-powers come from the valuation table both routes agreed on
    (compare_valuations), so each route runs once per graph.  A dimension
    vector is one popcount per internal arc, and x(minimal) + B dim is built
    once per dimension vector and compared with every matching's exponent;
    counted_element sums the element once per distinct exponent.  Each term
    row goes to its set's index in the canonical generator: no sort.
    """
    d = uniform_d(seed)
    w, t = g.word, g.triangulation
    values = compare_valuations(g)
    base_x = x_of_matching(g, minimal_matching(g))
    columns = tuple(zip(*seed.pair.b_tilde))  # one column of B per internal arc
    arcs, n = w.vertices, t.n
    arc_masks = [0] * n  # per internal arc, the mask of the positions crossing it
    for p, arc in enumerate(arcs, start=1):
        arc_masks[arc - 1] |= 1 << p

    by_dim: dict = {}  # dimension vector -> x(minimal) + B dim
    by_exponent: dict = {}  # exponent -> {q-power: matchings}
    image, canonical = bijection_image(g), canonical_submodules(g)
    if len(image) != len(canonical):  # compare_valuations reached every canonical set
        raise BijectionViolation("matching-to-submodule map is not injective")
    slot = {N: i for i, N in enumerate(canonical)}
    rows = [None] * len(canonical)
    for P, indices in image.items():
        xp = x_of_matching(g, P)
        dim = tuple([(indices & mask).bit_count() for mask in arc_masks])
        xs = by_dim.get(dim)
        if xs is None:
            xs = base_x
            for k, column in zip(dim, columns):
                if k:
                    xs = tuple(x + k * c for x, c in zip(xs, column))
            by_dim[dim] = xs
        if xs != xp:
            raise InconsistentValuation(
                f"exponent mismatch on {positions(indices)}: weights give {xp}, "
                f"dimension vector gives {xs}"
            )
        v = values[indices]
        powers = by_exponent.setdefault(xp, {})
        powers[d * v] = powers.get(d * v, 0) + 1
        rows[slot[indices]] = ExpansionTerm(indices, dim, v, xp)
    return ExpansionResult(
        word=w,
        element=counted_element(t.m, by_exponent),
        terms=tuple(rows),
        denominator=g.crossings,
    )


def classical_specialization(element: TorusElement, *, n: int | None = None) -> dict:
    """q = 1 image as an exponent-to-coefficient dictionary.

    With ``n`` given, boundary coordinates (past the first n) are
    specialized to 1, i.e. dropped from the exponent vectors.
    """
    out: dict = {}
    for g, coeff in element.terms.items():
        key = tuple(g[:n]) if n is not None else tuple(g)
        val = out.get(key, 0) + coeff.at_q_one()
        if val:
            out[key] = val
        elif key in out:
            del out[key]
    return out
