"""Acceptance battery: one test per headline guarantee of the package.

Each test here is an end-to-end gate over the bundled corpus of surfaces
(annulus, pentagon, hexagon, square) and is meant to be read as a single
pass/fail line under ``pytest -v``.
"""
from __future__ import annotations

import random
from itertools import combinations

from click.testing import CliRunner

from qcluster.cli import main as cli_main
from qcluster.expansion import (
    quantum_expansion,
    x_of_matching,
)
from qcluster.kronecker import (
    build_weighted,
    equality_check,
    family_word,
    r_s,
    recursion_checks,
)
from qcluster.seeds import initial_seed, mutate_seed
from qcluster.skein_mult import count_extensions, multiply_and_certify
from qcluster.snake import (
    can_twist,
    check_bijection,
    enumerate_matchings,
    label_snake,
    matching_to_submodule,
    maximal_matching,
    minimal_matching,
)
from qcluster.strings import (
    Letter,
    StringWord,
    dimension_vector,
    enumerate_canonical_submodules,
    enumerate_strings,
)
from qcluster.strings import _trivial_word as trivial_word
from qcluster.surface import b_matrix
from qcluster.torus import (
    CompatiblePair,
    QCoefficient,
    TorusElement,
    bar,
    check_compatible,
    torus_mul,
)
from qcluster.valuation import (
    n_module,
    omega,
    omega_prime,
    valuation_v,
    valuation_v_gamma,
)

from conftest import m_pm, make_word, mask_of
from test_expansion import oracle_compare
from test_snake import submodule_to_matching
from test_valuation import big_counts, n_pm

KRON_PAIR = CompatiblePair(((0, 2), (-2, 0)), ((0, 1), (-1, 0)), (2, 2))


def mono(vec, twice=0):
    return TorusElement(len(vec), {tuple(vec): QCoefficient({twice: 1})})


def test_criterion_01_torus_laws_hold_on_a_thousand_random_checks():
    rng = random.Random(20260816)
    for _ in range(1000):
        entries = [rng.randint(-3, 3) for _ in range(3)]
        lam = (
            (0, entries[0], entries[1]),
            (-entries[0], 0, entries[2]),
            (-entries[1], -entries[2], 0),
        )
        pair = CompatiblePair((), lam, ())
        g, h, k = (
            tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)
        )
        s, t = rng.randint(-4, 4), rng.randint(-4, 4)

        # q-commutation at the full commutation pairing
        pairing = sum(
            lam[i][j] * g[i] * h[j] for i in range(3) for j in range(3)
        )
        assert torus_mul(mono(g), mono(h), pair) == torus_mul(
            mono(h), mono(g), pair
        ).shifted(2 * pairing)

        # associativity on binomials
        a = mono(g, s) + mono(h)
        b = mono(h, t) + mono(k)
        c = mono(k) + mono(g, -s)
        assert torus_mul(torus_mul(a, b, pair), c, pair) == torus_mul(
            a, torus_mul(b, c, pair), pair
        )

        # the bar involution reverses products and squares to the identity
        assert bar(torus_mul(a, b, pair)) == torus_mul(bar(b), bar(a), pair)
        assert bar(bar(c)) == c


def test_criterion_02_mutation_involutive_and_compatibility_preserved(
    seeds,
):
    corpus = [
        initial_seed(KRON_PAIR),
        seeds["pentagon"],
        seeds["hexagon"],
        seeds["annulus"],
    ]
    for seed in corpus:
        for k in range(1, seed.n + 1):
            assert mutate_seed(mutate_seed(seed, k), k) == seed

    def state(seed):
        return (
            seed.pair.b_tilde,
            seed.pair.lam,
            tuple(repr(x.sorted_terms()) for x in seed.cluster),
        )

    # walking every mutation sequence of length up to eight is the same as
    # visiting every seed reachable in at most eight steps
    for seed in corpus:
        d0 = seed.pair.d
        seen = {state(seed)}
        frontier = [seed]
        for _ in range(8):
            new = []
            for current in frontier:
                for k in range(1, current.n + 1):
                    child = mutate_seed(current, k)
                    if state(child) in seen:
                        continue
                    assert (
                        check_compatible(child.pair.b_tilde, child.pair.lam)
                        == d0
                    )
                    for x in child.cluster:
                        assert bar(x) == x
                        assert x.coefficients_nonnegative()
                    seen.add(state(child))
                    new.append(child)
            frontier = new


def test_criterion_03_matchings_biject_with_canonical_submodules(
    quivers, surfaces
):
    for name in ("annulus", "pentagon", "hexagon"):
        t = surfaces[name]
        for w in enumerate_strings(quivers[name], 7):
            g = label_snake(w, t)
            matchings = enumerate_matchings(g)
            submodules = enumerate_canonical_submodules(w)
            assert len(matchings) == len(submodules)
            table = check_bijection(g)
            assert len(table) == len(matchings)

            if w.d <= 4:
                # independent oracle: try every edge subset of the right size
                edges, points = g.all_edges(), g.vertices()
                brute = set()
                for combo in combinations(edges, len(points) // 2):
                    cover = [p for e in combo for p in g.edge_endpoints(e)]
                    if len(set(cover)) == len(cover):
                        brute.add(frozenset(combo))
                assert brute == {g.edges(m) for m in matchings}


def test_criterion_04_counting_forms_agree_everywhere(quivers, surfaces):
    internal = {"annulus": (1, 2), "pentagon": (1, 2), "hexagon": (1, 2, 3)}
    for name in ("annulus", "pentagon", "hexagon"):
        t = surfaces[name]
        for w in enumerate_strings(quivers[name], 7):
            g = label_snake(w, t)
            for N in enumerate_canonical_submodules(w):
                P = submodule_to_matching(g, N)
                for k in internal[name]:
                    assert sum(
                        n_module(g, k, j, N)[0] for j in range(1, g.d + 1)
                    ) == sum(1 for e in g.edges(P) if g.edge_label(e) == k)
                for s in range(1, g.d + 1):
                    if not can_twist(g, P, s):
                        continue
                    diag = w.vertices[s - 1]
                    m_lo, m_hi = m_pm(g, s, diag)
                    n_lo, n_hi = n_pm(g, s, P, diag)
                    assert big_counts(g, diag, s, N) == (
                        m_lo,
                        m_hi,
                        n_lo,
                        n_hi,
                    )
                    assert omega(g, s, P) == omega_prime(g, s, N)


def test_criterion_05_valuations_well_defined_and_cross_checked(
    quivers, surfaces
):
    for name in ("annulus", "pentagon", "hexagon", "square"):
        t = surfaces[name]
        for w in enumerate_strings(quivers[name], 7):
            g = label_snake(w, t)
            v = valuation_v(g)  # raises if any twist path disagrees
            assert v[minimal_matching(g)] == 0
            assert v[maximal_matching(g)] == 0
            vg = valuation_v_gamma(g)
            assert {
                matching_to_submodule(g, P): val for P, val in v.items()
            } == vg


def test_criterion_06_expansions_match_seed_mutation(quivers, surfaces, seeds):
    pent, pseed = surfaces["pentagon"], seeds["pentagon"]
    pword = make_word(quivers["pentagon"], (1, 2), [("a", False)])
    assert oracle_compare(trivial_word(1), pent, pseed, [1]).matches
    assert oracle_compare(trivial_word(2), pent, pseed, [2]).matches
    assert oracle_compare(pword, pent, pseed, [1, 2]).matches
    assert oracle_compare(pword, pent, pseed, [2, 1]).matches

    ann, aseed = surfaces["annulus"], seeds["annulus"]
    aq = quivers["annulus"]

    def mirror_word(s):
        # the same zigzag run starting and ending on the second arc
        verts = tuple(2 if i % 2 == 0 else 1 for i in range(2 * s + 1))
        letters = tuple(
            Letter(aq.arrow_named("a" if i % 2 == 0 else "b"), i % 2 == 1)
            for i in range(2 * s)
        )
        return StringWord(verts, letters)

    for length in range(1, 6):
        seq_from_1 = [1 if i % 2 == 0 else 2 for i in range(length)]
        word = family_word(ann, length - 1, "G")
        assert oracle_compare(word, ann, aseed, seq_from_1).matches

        seq_from_2 = [2 if i % 2 == 0 else 1 for i in range(length)]
        word = trivial_word(2) if length == 1 else mirror_word(length - 1)
        assert oracle_compare(word, ann, aseed, seq_from_2).matches


def test_criterion_07_every_matching_exponent_factors_through_dimensions(
    quivers, surfaces
):
    for name in ("annulus", "pentagon", "hexagon", "square"):
        t = surfaces[name]
        b = b_matrix(t)
        for w in enumerate_strings(quivers[name], 7):
            g = label_snake(w, t)
            base = x_of_matching(g, minimal_matching(g))
            for P in enumerate_matchings(g):
                dim = dimension_vector(w, matching_to_submodule(g, P), n=t.n)
                assert x_of_matching(g, P) == tuple(
                    base[i] + sum(b[i][j] * dim[j] for j in range(len(dim)))
                    for i in range(len(base))
                )


def test_criterion_08_weighted_matching_series_of_the_annulus_families(
    annulus, seeds
):
    for s in range(1, 7):
        for family in ("G", "H"):
            assert equality_check(build_weighted(annulus, s, family))
        assert recursion_checks(build_weighted(annulus, s, "G")) == []
    for s in (1, 2, 3):
        vg = valuation_v_gamma(label_snake(family_word(annulus, s, "G"), annulus))
        assert vg[mask_of({2 * s, 2 * s + 1})] == 1
    for s in (2, 3, 4):
        vh = valuation_v_gamma(label_snake(family_word(annulus, s, "H"), annulus))
        assert vh[mask_of({2 * s})] == s - 1
    for s in range(1, 5):
        for family in ("G", "H"):
            assert r_s(annulus, s, seeds["annulus"], family) == quantum_expansion(
                family_word(annulus, s, family), annulus, seeds["annulus"]
            ).element


def test_criterion_09_products_resolve_into_two_certified_terms(
    quivers, surfaces, seeds
):
    aq = quivers["annulus"]
    hq = quivers["hexagon"]
    t1, t2, t3 = trivial_word(1), trivial_word(2), trivial_word(3)
    m_a = make_word(aq, (1, 2), [("a", True)])
    m_b = make_word(aq, (1, 2), [("b", True)])
    g_1 = make_word(aq, (1, 2, 1), [("a", True), ("b", False)])
    h_2 = make_word(aq, (1, 2, 1, 2), [("a", True), ("b", False), ("a", True)])
    pairs = [
        ("pentagon", t2, t1),
        ("hexagon", t2, t1),
        ("hexagon", t2, t3),
        ("hexagon", t3, make_word(hq, (1, 2), [("a", True)])),
        ("hexagon", make_word(hq, (1, 2, 3), [("a", True), ("b", False)]), t2),
        ("hexagon", t1, make_word(hq, (2, 3), [("b", False)])),
        ("annulus", t1, m_a),
        ("annulus", t1, m_b),
        ("annulus", m_a, m_a),
        ("annulus", m_a, g_1),
        ("annulus", m_a, h_2),
        ("annulus", m_a, t2),
        ("annulus", m_b, m_b),
        ("annulus", m_b, g_1),
        ("annulus", m_b, t2),
    ]
    assert len(pairs) >= 10
    kinds = set()
    for name, v, w in pairs:
        assert count_extensions(v, w, quivers[name]) == 1
        cert = multiply_and_certify(v, w, surfaces[name], seeds[name])
        assert cert.identity_verified
        assert cert.s1_twice >= cert.s2_twice
        kinds.add(cert.extension.kind)

        # at q = 1 the two terms add up to the plain product
        from qcluster.expansion import classical_specialization

        total = dict(classical_specialization(cert.m1))
        for vec, count in classical_specialization(cert.m2).items():
            total[vec] = total.get(vec, 0) + count
        assert classical_specialization(cert.product) == total
    assert kinds == {"arrow", "overlap"}


def test_criterion_10_cli_output_is_deterministic_and_parallel_safe():
    runner = CliRunner()
    verify_args = ["verify", "-s", "annulus", "--max-length", "4"]
    first = runner.invoke(cli_main, verify_args)
    second = runner.invoke(cli_main, verify_args)
    parallel = runner.invoke(cli_main, verify_args + ["--jobs", "2"])
    assert first.exit_code == second.exit_code == parallel.exit_code == 0
    assert first.output == second.output == parallel.output

    expand_args = ["expand", "-s", "annulus", "--string", "1 >a> 2 <b< 1"]
    runs = [runner.invoke(cli_main, expand_args) for _ in range(2)]
    assert all(r.exit_code == 0 for r in runs)
    assert runs[0].output == runs[1].output
