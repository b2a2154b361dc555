"""The two annulus families: weighted matchings against twist valuations."""
from __future__ import annotations

from dataclasses import replace

import pytest

from qcluster import kronecker
from qcluster.errors import UnmatchedCase
from qcluster.expansion import quantum_expansion, uniform_d, x_of_matching
from qcluster.kronecker import (
    alpha_of_set,
    build_weighted,
    equality_check,
    family_word,
    r_s,
    recursion_checks,
)
from qcluster.snake import (
    enumerate_matchings,
    label_snake,
    matching_to_submodule,
    maximal_matching,
    minimal_matching,
)
from qcluster.strings import trivial_word
from qcluster.torus import QCoefficient, TorusElement
from qcluster.valuation import valuation_v, valuation_v_gamma


def element(rank, rows):
    return TorusElement(rank, {tuple(vec): QCoefficient(co) for vec, co in rows})


def test_family_words_are_frozen(annulus):
    assert family_word(annulus, 0, "G") == trivial_word(1)
    g1 = family_word(annulus, 1, "G")
    assert g1.vertices == (1, 2, 1)
    assert [(l.arrow.name, l.direct) for l in g1.letters] == [("a", True), ("b", False)]
    h1 = family_word(annulus, 1, "H")
    assert h1.vertices == (1, 2)
    assert [(l.arrow.name, l.direct) for l in h1.letters] == [("a", True)]
    assert family_word(annulus, 2, "G").vertices == (1, 2, 1, 2, 1)
    assert family_word(annulus, 2, "H").vertices == (1, 2, 1, 2)


def test_alpha_weights_are_frozen(annulus):
    assert build_weighted(annulus, 1, "G").alphas == (-1, 0, 1)
    assert build_weighted(annulus, 2, "H").alphas == (-1, 1, 1, -1)


def test_alpha_table_of_the_even_family(annulus):
    ws = build_weighted(annulus, 2, "H")
    assert ws.tables[0] == {
        frozenset(): 0,
        frozenset({2}): 1,
        frozenset({4}): -1,
        frozenset({1, 2}): 0,
        frozenset({2, 4}): 0,
        frozenset({1, 2, 4}): -1,
        frozenset({2, 3, 4}): 1,
        frozenset({1, 2, 3, 4}): 0,
    }
    assert alpha_of_set(ws, {2, 3, 4}) == 1


def test_alpha_matches_valuation_per_dimension(annulus):
    for s in (1, 2, 3, 4):
        for family in ("G", "H"):
            assert equality_check(build_weighted(annulus, s, family))


def test_recursions_close_at_low_levels(annulus):
    for s in (1, 2, 3, 4):
        assert recursion_checks(build_weighted(annulus, s, "G")) == []


def test_recursions_reject_level_zero(annulus):
    with pytest.raises(UnmatchedCase):
        recursion_checks(build_weighted(annulus, 0, "G"))


def test_the_checks_see_one_wrong_valuation(monkeypatch, annulus):
    def one_wrong_value(graph):
        values = dict(valuation_v(graph))
        extremal = (minimal_matching(graph), maximal_matching(graph))
        inner = next(P for P in enumerate_matchings(graph) if P not in extremal)
        values[inner] += 1
        return values

    monkeypatch.setattr(kronecker, "valuation_v", one_wrong_value)
    failures = recursion_checks(build_weighted(annulus, 2, "G"))
    assert any("valuation recursion" in failure for failure in failures)
    assert not equality_check(build_weighted(annulus, 2, "G"))
    assert not equality_check(build_weighted(annulus, 2, "H"))


def test_the_checks_see_one_wrong_alpha_weight(annulus):
    ws = build_weighted(annulus, 2, "G")
    wrong = replace(ws, alphas=ws.alphas[:-1] + (ws.alphas[-1] + 1,))
    failures = recursion_checks(wrong)
    assert failures and all("alpha recursion" in failure for failure in failures)
    assert not equality_check(wrong)


def test_anchor_valuations(annulus):
    # the final two tiles of the odd family always carry valuation one
    for s in (1, 2, 3):
        vg = valuation_v_gamma(label_snake(family_word(annulus, s, "G"), annulus))
        assert vg[frozenset({2 * s, 2 * s + 1})] == 1
    # the last tile of the even family carries one less than the level
    for s in (2, 3, 4):
        vh = valuation_v_gamma(label_snake(family_word(annulus, s, "H"), annulus))
        assert vh[frozenset({2 * s})] == s - 1


def test_weighted_series_of_the_odd_family_is_frozen(annulus, seeds):
    got = r_s(annulus, 2, seeds["annulus"], "G")
    assert got == element(
        4,
        [
            ((1, -2, 1, 1), {0: 1}),
            ((-1, 0, 1, 1), {-2: 1, 2: 1}),
            ((-1, -2, 2, 2), {-2: 1, 2: 1}),
            ((-3, 4, 0, 0), {0: 1}),
            ((-3, 2, 1, 1), {-4: 1, 0: 1, 4: 1}),
            ((-3, 0, 2, 2), {-4: 1, 0: 1, 4: 1}),
            ((-3, -2, 3, 3), {0: 1}),
        ],
    )


def test_weighted_series_of_the_even_family_is_frozen(annulus, seeds):
    got = r_s(annulus, 2, seeds["annulus"], "H")
    assert got == element(
        4,
        [
            ((2, -2, 0, 1), {0: 1}),
            ((0, 0, 0, 1), {0: 1}),
            ((0, -2, 1, 2), {-2: 1, 2: 1}),
            ((-2, 2, 0, 1), {0: 1}),
            ((-2, 0, 1, 2), {-2: 1, 2: 1}),
            ((-2, -2, 2, 3), {0: 1}),
        ],
    )


def reference_weighted_series(ws, seed):
    """The sum weighted_series replaced: one monomial added per matching."""
    d = uniform_d(seed)
    total = TorusElement.zero(ws.graph.triangulation.m)
    for P in enumerate_matchings(ws.graph):
        indices = matching_to_submodule(ws.graph, P)
        total = total + TorusElement.monomial(
            x_of_matching(ws.graph, P), q_twice=d * alpha_of_set(ws, indices)
        )
    return total


def test_weighted_series_equals_the_per_matching_sum_term_for_term(monkeypatch, annulus, seeds):
    adds = []
    real = TorusElement.__add__

    def counted(a, b):
        adds.append(len(b.terms))
        return real(a, b)

    for family, levels in (("G", range(8)), ("H", range(1, 8))):
        for s in levels:
            ws = build_weighted(annulus, s, family)
            want = reference_weighted_series(ws, seeds["annulus"])
            monkeypatch.setattr(TorusElement, "__add__", counted)
            adds.clear()
            got = kronecker.weighted_series(ws, seeds["annulus"])
            monkeypatch.undo()
            # the same terms, in the same order, each summed once
            assert [(x, list(c.coeffs.items())) for x, c in got.terms.items()] == [
                (x, list(c.coeffs.items())) for x, c in want.terms.items()
            ]
            assert adds == [1] * len(got.terms)


def test_weighted_series_equals_the_expansion(annulus, seeds):
    for s in (1, 2, 3):
        for family in ("G", "H"):
            word = family_word(annulus, s, family)
            expected = quantum_expansion(word, annulus, seeds["annulus"]).element
            assert r_s(annulus, s, seeds["annulus"], family) == expected
