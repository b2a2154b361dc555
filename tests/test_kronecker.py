"""The two annulus families: weighted matchings against twist valuations."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

from qcluster import kronecker
from qcluster.errors import UnmatchedCase
from qcluster.expansion import quantum_expansion, uniform_d, x_of_matching
from qcluster.kronecker import _alpha_of_set as alpha_of_set
from qcluster.kronecker import (
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
from qcluster.strings import _trivial_word as trivial_word
from qcluster.strings import dimension_vector
from qcluster.torus import QCoefficient, TorusElement
from qcluster.valuation import valuation_v, valuation_v_gamma

from conftest import mask_of, positions_of


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
    assert {frozenset(positions_of(N)): a for N, a in ws.tables[0].items()} == {
        frozenset(): 0,
        frozenset({2}): 1,
        frozenset({4}): -1,
        frozenset({1, 2}): 0,
        frozenset({2, 4}): 0,
        frozenset({1, 2, 4}): -1,
        frozenset({2, 3, 4}): 1,
        frozenset({1, 2, 3, 4}): 0,
    }
    assert alpha_of_set(ws, mask_of({2, 3, 4})) == 1


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
        assert vg[mask_of({2 * s, 2 * s + 1})] == 1
    # the last tile of the even family carries one less than the level
    for s in (2, 3, 4):
        vh = valuation_v_gamma(label_snake(family_word(annulus, s, "H"), annulus))
        assert vh[mask_of({2 * s})] == s - 1


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


def reference_equality_check(ws):
    """The per-dimension comparison equality_check replaced."""
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


def position_tables(level):
    """A weighted snake's (alpha, valuation) tables keyed by position sets."""
    return tuple({frozenset(positions_of(N)): x for N, x in table.items()} for table in level.tables)


def reference_recursion_checks(ws):
    """The recursion checks as written before the rule table: each
    recursion twice, once for alpha and once for v, over position sets.
    Levels are built through kronecker.build_weighted, as the checks under
    test build them."""
    build_weighted = kronecker.build_weighted
    s = ws.s
    if s < 1:
        raise UnmatchedCase("recursions start at s = 1")
    t = ws.graph.triangulation
    other = build_weighted(t, s, "H" if ws.family == "G" else "G")
    g_s, h_s = (ws, other) if ws.family == "G" else (other, ws)
    a_gs, v_gs = position_tables(g_s)
    a_hs, v_hs = position_tables(h_s)
    a_gp, v_gp = position_tables(build_weighted(t, s - 1, "G"))
    if s >= 2:
        a_hp, v_hp = position_tables(build_weighted(t, s - 1, "H"))
    failures = []

    last_g = 2 * s + 1
    for indices in a_gs:
        u, w_count = dimension_vector(g_s.graph.word, mask_of(indices), n=2)
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
        u, w_count = dimension_vector(h_s.graph.word, mask_of(indices), n=2)
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


def corrupted(ws, rng):
    """A copy of ws whose tables carry one to three seeded edits: a set
    deleted, alpha or v moved by one, or a random index set added."""
    alphas, values = (dict(table) for table in ws.tables)
    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(("delete", "alpha", "value", "add"))
        sets = list(alphas)
        if edit == "delete" and sets:
            N = rng.choice(sets)
            del alphas[N], values[N]
        elif edit == "alpha" and sets:
            alphas[rng.choice(sets)] += rng.choice((-1, 1))
        elif edit == "value" and sets:
            values[rng.choice(sets)] += rng.choice((-1, 1))
        elif edit == "add":
            N = mask_of(j for j in range(1, ws.graph.d + 1) if rng.random() < 0.5)
            alphas[N], values[N] = rng.randint(-3, 3), rng.randint(-3, 3)
    copy = replace(ws)
    copy.__dict__["tables"] = (alphas, values)
    return copy


def test_the_rule_table_equals_the_written_out_recursions(monkeypatch, annulus):
    clean = {(s, f): build_weighted(annulus, s, f) for s in range(7) for f in "GH" if s or f == "G"}
    rng = random.Random(23)
    cases, failing, recursions = 0, 0, set()
    for s in range(1, 7):
        for family in "GH":
            read = [(s, "G"), (s, "H"), (s - 1, "G")] + [(s - 1, "H")] * (s >= 2)
            for trial in range(41):
                # trial 0 is untouched; every other trial edits at least one level read
                levels = dict(clean)
                for key in read if trial else ():
                    if rng.random() < 0.5:
                        levels[key] = corrupted(clean[key], rng)
                if trial and all(levels[key] is clean[key] for key in read):
                    key = rng.choice(read)
                    levels[key] = corrupted(clean[key], rng)
                monkeypatch.setattr(kronecker, "build_weighted", lambda t, s, family="G": levels[(s, family)])
                ws = levels[(s, family)]
                want = reference_recursion_checks(ws)
                assert recursion_checks(ws) == want
                assert equality_check(ws) == reference_equality_check(ws)
                monkeypatch.undo()
                assert trial or not want  # the untouched levels pass
                cases += 1
                failing += bool(want)
                recursions |= {failure.split(" fails")[0] for failure in want if " fails at " in failure}
    assert cases == 492
    # three seeded edits happen to break no rule
    assert failing == 477
    assert len(recursions) == 8  # alpha and v under each of the four rows
