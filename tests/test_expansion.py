"""Laurent expansions of arc variables and the matching-weight formula."""
from __future__ import annotations

from dataclasses import dataclass, replace

import pytest

from qcluster.expansion import (
    ExpansionResult,
    ExpansionTerm,
    classical_specialization,
    graph_expansion,
    quantum_expansion,
    uniform_d,
    x_of_matching,
)
from qcluster.errors import BijectionViolation, InconsistentValuation, InvalidMutation, NotCompatible
from qcluster.kronecker import family_word
from qcluster.seeds import QuantumSeed, initial_seed, mutation_sequence
from qcluster.snake import (
    bijection_image,
    canonical_submodules,
    enumerate_matchings,
    label_snake,
    matching_to_submodule,
    minimal_matching,
)
from qcluster.strings import StringWord, dimension_vector, enumerate_strings
from qcluster.strings import _trivial_word as trivial_word
from qcluster.surface import Triangulation, b_matrix, build_quiver, load_surface, pair_from_surface
from qcluster.torus import CompatiblePair, QCoefficient, TorusElement, bar
from qcluster.valuation import compare_valuations

from conftest import ANNULUS_21, SURFACES, make_word, mask_of, positions_of


def element(rank, rows):
    return TorusElement(rank, {tuple(vec): QCoefficient(co) for vec, co in rows})


def test_double_crossing_expansion_is_frozen(annulus, seeds, g1_word):
    res = quantum_expansion(g1_word, annulus, seeds["annulus"])
    assert res.element == element(
        4,
        [
            ((0, -1, 1, 1), {0: 1}),
            ((-2, 3, 0, 0), {0: 1}),
            ((-2, 1, 1, 1), {-2: 1, 2: 1}),
            ((-2, -1, 2, 2), {0: 1}),
        ],
    )
    assert res.denominator == (2, 1, 0, 0)


def test_double_crossing_term_table(annulus, seeds, g1_word):
    res = quantum_expansion(g1_word, annulus, seeds["annulus"])
    table = {tuple(positions_of(term.indices)): (term.dim, term.valuation, term.exponent) for term in res.terms}
    assert table == {
        (): ((0, 0), 0, (0, -1, 1, 1)),
        (2,): ((0, 1), 0, (-2, -1, 2, 2)),
        (1, 2): ((1, 1), -1, (-2, 1, 1, 1)),
        (2, 3): ((1, 1), 1, (-2, 1, 1, 1)),
        (1, 2, 3): ((2, 1), 0, (-2, 3, 0, 0)),
    }


def test_an_expansion_term_is_a_value_type(annulus, seeds):
    res = quantum_expansion(family_word(annulus, 3, "G"), annulus, seeds["annulus"])
    assert type(res.terms) is tuple and {*map(type, res.terms)} == {ExpansionTerm}
    keys = [(len(positions_of(term.indices)), positions_of(term.indices)) for term in res.terms]
    assert all(a < b for a, b in zip(keys, keys[1:]))  # (size, indices) order, no ties
    term = ExpansionTerm(indices=mask_of((1, 2)), dim=(1, 1), valuation=-1, exponent=(-2, 1, 1, 1))
    same = ExpansionTerm(mask_of((1, 2)), (1, 1), -1, (-2, 1, 1, 1))
    assert term == same == (mask_of((1, 2)), (1, 1), -1, (-2, 1, 1, 1))
    assert hash(term) == hash(same) and len({term, same}) == 1
    assert term != same._replace(valuation=1)
    assert term._fields == ("indices", "dim", "valuation", "exponent")


def test_pentagon_word_expansion_is_frozen(pentagon, seeds, quivers):
    w = make_word(quivers["pentagon"], (1, 2), [("a", False)])
    res = quantum_expansion(w, pentagon, seeds["pentagon"])
    assert res.element == element(
        7,
        [
            ((0, -1, 1, 0, 0, 1, 0), {0: 1}),
            ((-1, 0, 0, 1, 0, 0, 1), {0: 1}),
            ((-1, -1, 1, 0, 1, 0, 1), {0: 1}),
        ],
    )


def test_flip_variables_of_the_pentagon(pentagon, seeds):
    res1 = quantum_expansion(trivial_word(1), pentagon, seeds["pentagon"])
    assert res1.element == element(
        7, [((-1, 1, 0, 1, 0, 0, 0), {0: 1}), ((-1, 0, 1, 0, 1, 0, 0), {0: 1})]
    )
    res2 = quantum_expansion(trivial_word(2), pentagon, seeds["pentagon"])
    assert res2.element == element(
        7, [((1, -1, 0, 0, 0, 1, 0), {0: 1}), ((0, -1, 0, 0, 1, 0, 1), {0: 1})]
    )


def test_square_expansion_is_a_binomial(square, seeds):
    res = quantum_expansion(trivial_word(1), square, seeds["square"])
    assert res.element == element(
        5, [((-1, 0, 1, 0, 1), {0: 1}), ((-1, 1, 0, 1, 0), {0: 1})]
    )


def test_expansions_are_bar_invariant_with_nonnegative_coefficients(
    quivers, surfaces, seeds
):
    for name in ("annulus", "pentagon", "hexagon"):
        for w in enumerate_strings(quivers[name], 5):
            el = quantum_expansion(w, surfaces[name], seeds[name]).element
            assert bar(el) == el
            assert el.coefficients_nonnegative()


def test_classical_specialization_counts_matchings(annulus, seeds, g1_word):
    res = quantum_expansion(g1_word, annulus, seeds["annulus"])
    assert classical_specialization(res.element, n=2) == {
        (0, -1): 1,
        (-2, 3): 1,
        (-2, 1): 2,
        (-2, -1): 1,
    }
    assert sum(classical_specialization(res.element).values()) == 5


def test_weight_and_crossing_exponents(annulus, g1_word):
    g = label_snake(g1_word, annulus)
    assert g.crossings == (2, 1, 0, 0)
    low = minimal_matching(g)
    weights = tuple(sum(g.edge_label(e) == k for e in g.edges(low)) for k in range(1, 5))
    assert weights == (2, 0, 1, 1)
    assert tuple(x + c for x, c in zip(x_of_matching(g, low), g.crossings)) == weights
    assert x_of_matching(g, low) == (0, -1, 1, 1)


def test_matching_exponents_factor_through_the_dimension_vector(
    quivers, surfaces
):
    for name in ("annulus", "pentagon", "hexagon", "square"):
        t = surfaces[name]
        b = b_matrix(t)
        for w in enumerate_strings(quivers[name], 5):
            g = label_snake(w, t)
            base = x_of_matching(g, minimal_matching(g))
            for P in enumerate_matchings(g):
                dim = dimension_vector(w, matching_to_submodule(g, P), n=t.n)
                shift = tuple(
                    sum(b[i][j] * dim[j] for j in range(len(dim)))
                    for i in range(len(base))
                )
                assert x_of_matching(g, P) == tuple(
                    base[i] + shift[i] for i in range(len(base))
                )


# -- the expansion against iterated mutation -----------------------------


@dataclass(frozen=True)
class ComparisonReport:
    matches: bool
    expansion: TorusElement
    mutated: TorusElement
    message: str


def oracle_compare(w: StringWord, t: Triangulation, seed: QuantumSeed, sequence) -> ComparisonReport:
    """Compare the snake-graph expansion against iterated mutation.

    ``sequence`` is a list of directions whose final step mutates the
    arc whose new variable should equal the expansion of w.
    """
    sequence = list(sequence)
    if not sequence:
        raise InvalidMutation("need at least one mutation step")
    mutated_seed = mutation_sequence(seed, sequence)
    mutated = mutated_seed.cluster[sequence[-1] - 1]
    expansion = quantum_expansion(w, t, seed).element
    if mutated == expansion:
        return ComparisonReport(True, expansion, mutated, "expansion equals mutated variable")
    return ComparisonReport(
        False,
        expansion,
        mutated,
        f"expansion {expansion} differs from mutated variable {mutated}",
    )


def test_oracle_compare_matches_the_double_mutation(annulus, seeds, g1_word):
    report = oracle_compare(g1_word, annulus, seeds["annulus"], [1, 2])
    assert report.matches
    assert report.expansion == report.mutated


def test_oracle_compare_flags_the_wrong_sequence(annulus, seeds, g1_word):
    report = oracle_compare(g1_word, annulus, seeds["annulus"], [2, 1])
    assert not report.matches
    assert "differs" in report.message


def test_oracle_compare_rejects_an_empty_sequence(annulus, seeds, g1_word):
    with pytest.raises(InvalidMutation, match="need at least one mutation step"):
        oracle_compare(g1_word, annulus, seeds["annulus"], [])
    # InvalidMutation is a ValueError, so older callers still catch it
    with pytest.raises(ValueError):
        oracle_compare(g1_word, annulus, seeds["annulus"], ())


def test_pentagon_word_matches_both_mutation_orders(pentagon, seeds, quivers):
    w = make_word(quivers["pentagon"], (1, 2), [("a", False)])
    assert oracle_compare(w, pentagon, seeds["pentagon"], [1, 2]).matches
    assert oracle_compare(w, pentagon, seeds["pentagon"], [2, 1]).matches


def test_uniform_d_reads_the_diagonal(seeds):
    assert uniform_d(seeds["annulus"]) == 2
    assert uniform_d(seeds["pentagon"]) == 1


def test_uniform_d_rejects_mixed_diagonals():
    pair = CompatiblePair(((0, 1), (-2, 0)), ((0, 1), (-1, 0)), (2, 1))
    with pytest.raises(NotCompatible):
        uniform_d(initial_seed(pair))


def reference_graph_expansion(g, seed):
    """graph_expansion as one torus sum per matching, with B dim(N) taken row by row."""
    d = uniform_d(seed)
    w, t = g.word, g.triangulation
    values = compare_valuations(g)
    cross = tuple(w.vertices.count(k) for k in range(1, t.m + 1))
    base_x = x_of_matching(g, minimal_matching(g))
    b_rows = seed.pair.b_tilde

    by_matching = TorusElement.zero(t.m)
    terms = []
    for P in enumerate_matchings(g):
        xp = tuple((P & mask).bit_count() - c for mask, c in zip(g._label_masks, cross))
        indices = matching_to_submodule(g, P)
        dim = dimension_vector(w, indices, n=t.n)
        shift = tuple(sum(b[j] * dim[j] for j in range(len(dim))) for b in b_rows)
        xs = tuple(a + c for a, c in zip(base_x, shift))
        if xs != xp:
            raise InconsistentValuation(
                f"exponent mismatch on {positions_of(indices)}: weights give {xp}, "
                f"dimension vector gives {xs}"
            )
        by_matching = by_matching + TorusElement.monomial(xp, q_twice=d * values[indices])
        terms.append(
            ExpansionTerm(
                indices=indices,
                dim=dim,
                valuation=values[indices],
                exponent=xp,
            )
        )
    terms.sort(key=lambda term: (len(positions_of(term.indices)), positions_of(term.indices)))
    return ExpansionResult(word=w, element=by_matching, terms=tuple(terms), denominator=cross)


def test_graph_expansion_equals_the_per_matching_sum(surfaces, quivers, seeds):
    annulus = surfaces["annulus"]
    cases = [
        (surfaces[name], seeds[name], w) for name in SURFACES for w in enumerate_strings(quivers[name], 7)
    ]
    t21 = load_surface(ANNULUS_21)
    seed21 = initial_seed(pair_from_surface(t21))
    cases += [(t21, seed21, w) for w in enumerate_strings(build_quiver(t21), 7)]
    cases += [(annulus, seeds["annulus"], family_word(annulus, s, "G")) for s in range(9)]
    cases += [(annulus, seeds["annulus"], family_word(annulus, s, "H")) for s in range(1, 9)]
    for t, seed, w in cases:
        g = label_snake(w, t)
        got, want = graph_expansion(g, seed), reference_graph_expansion(g, seed)
        assert got.element == want.element, f"{t.name}: {w}"
        assert list(got.element.terms) == list(want.element.terms), f"{t.name}: {w}"
        assert got.terms == want.terms, f"{t.name}: {w}"
        assert got.denominator == want.denominator


def test_an_exponent_the_dimension_vector_does_not_give_is_inconsistent(annulus, seeds):
    seed = seeds["annulus"]
    b = [list(row) for row in seed.pair.b_tilde]
    b[0][0] += 1
    changed = replace(seed, pair=CompatiblePair(tuple(map(tuple, b)), seed.pair.lam, seed.pair.d))
    g = label_snake(family_word(annulus, 1, "G"), annulus)
    with pytest.raises(
        InconsistentValuation,
        match=r"exponent mismatch on \[2, 3\]: weights give \(-2, 1, 1, 1\), "
        r"dimension vector gives \(-1, 1, 1, 1\)",
    ):
        graph_expansion(g, changed)
    # the unchanged seed expands the same graph
    assert graph_expansion(g, seed).element == reference_graph_expansion(g, seed).element


def test_term_rows_take_the_canonical_generator_order(annulus, seeds):
    g = label_snake(family_word(annulus, 3, "G"), annulus)
    terms = graph_expansion(g, seeds["annulus"]).terms
    assert [term.indices for term in terms] == canonical_submodules(g)
    # a second matching on one index set leaves the rows one slot short
    g._image = {**bijection_image(g), -1: mask_of(())}
    with pytest.raises(BijectionViolation, match="^matching-to-submodule map is not injective$"):
        graph_expansion(g, seeds["annulus"])


def test_the_element_is_summed_once_per_monomial(monkeypatch, annulus, seeds):
    adds = []
    real = TorusElement.__add__

    def counted(a, b):
        adds.append(len(b.terms))
        return real(a, b)

    monkeypatch.setattr(TorusElement, "__add__", counted)
    res = quantum_expansion(family_word(annulus, 7, "G"), annulus, seeds["annulus"])
    assert len(res.terms) == 1597
    assert len(res.element.terms) == 37
    assert adds == [1] * 37
