"""Two-term resolutions of products of arc variables."""
from __future__ import annotations

import pytest

from qcluster import build_quiver, enumerate_strings, initial_seed, load_surface, pair_from_surface
from qcluster.errors import AmbiguousSolution, NoSolution
from qcluster.skein_mult import (
    count_extensions,
    multiply_and_certify,
    relative_exponent_check,
)
from qcluster.strings import _trivial_word as trivial_word
from qcluster.torus import QCoefficient, TorusElement, torus_mul

from conftest import ANNULUS_21, HEPTAGON_WITH_A_CYCLE, WHEEL3, make_word


def element(rank, rows):
    return TorusElement(rank, {tuple(vec): QCoefficient(co) for vec, co in rows})


def classical(el):
    from qcluster.expansion import classical_specialization

    return classical_specialization(el)


def merged(a, b):
    out = dict(a)
    for key, val in b.items():
        out[key] = out.get(key, 0) + val
    return out


def test_pentagon_simple_pair_certificate(pentagon, seeds):
    cert = multiply_and_certify(
        trivial_word(2), trivial_word(1), pentagon, seeds["pentagon"]
    )
    # the certified order puts the larger shift first
    assert cert.v == trivial_word(1)
    assert cert.w == trivial_word(2)
    assert (cert.s1_twice, cert.s2_twice) == (1, 0)
    assert cert.extension.kind == "arrow"
    assert cert.m2_source == "predicted"
    assert cert.identity_verified
    assert cert.m1 == element(
        7,
        [
            ((0, -1, 1, 0, 1, 1, 0), {0: 1}),
            ((-1, 0, 0, 1, 1, 0, 1), {0: 1}),
            ((-1, -1, 1, 0, 2, 0, 1), {0: 1}),
        ],
    )
    assert cert.m2 == element(7, [((0, 0, 0, 1, 0, 1, 0), {0: 1})])


def test_certificate_reassembles_the_product(pentagon, seeds):
    from qcluster.expansion import quantum_expansion

    cert = multiply_and_certify(
        trivial_word(2), trivial_word(1), pentagon, seeds["pentagon"]
    )
    left = quantum_expansion(cert.v, pentagon, seeds["pentagon"]).element
    right = quantum_expansion(cert.w, pentagon, seeds["pentagon"]).element
    product = torus_mul(left, right, seeds["pentagon"].base_pair)
    assert cert.product == product
    assert cert.m1.shifted(cert.s1_twice) + cert.m2.shifted(cert.s2_twice) == product


def test_shift_gap_is_not_the_geometric_square(pentagon, seeds):
    # with the algebraically solved commutation matrix the two shifts sit
    # one half-power apart here, not the full q^2 of the geometric form
    cert = multiply_and_certify(
        trivial_word(2), trivial_word(1), pentagon, seeds["pentagon"]
    )
    assert cert.relative_twice == 1
    assert not relative_exponent_check(cert)


def test_classical_smoothing_of_the_pentagon_pair(pentagon, seeds):
    cert = multiply_and_certify(
        trivial_word(2), trivial_word(1), pentagon, seeds["pentagon"]
    )
    assert classical(cert.product) == merged(classical(cert.m1), classical(cert.m2))


def test_hexagon_certificates_are_frozen(hexagon, seeds, quivers):
    q = quivers["hexagon"]
    cases = [
        (trivial_word(2), trivial_word(1), (2,), (1,), (0, -1), "arrow", "predicted"),
        (trivial_word(2), trivial_word(3), (2,), (3,), (1, 0), "arrow", "predicted"),
        (
            trivial_word(3),
            make_word(q, (1, 2), [("a", True)]),
            (1, 2),
            (3,),
            (0, -1),
            "arrow",
            "solved",
        ),
        (
            make_word(q, (1, 2, 3), [("a", True), ("b", False)]),
            trivial_word(2),
            (2,),
            (1, 2, 3),
            (1, 0),
            "overlap",
            "solved",
        ),
        (
            trivial_word(1),
            make_word(q, (2, 3), [("b", False)]),
            (2, 3),
            (1,),
            (1, 0),
            "arrow",
            "solved",
        ),
    ]
    for v, w, head, tail, shifts, kind, source in cases:
        cert = multiply_and_certify(v, w, hexagon, seeds["hexagon"])
        assert cert.v.vertices == head
        assert cert.w.vertices == tail
        assert (cert.s1_twice, cert.s2_twice) == shifts
        assert cert.extension.kind == kind
        assert cert.m2_source == source
        assert cert.identity_verified
        assert classical(cert.product) == merged(classical(cert.m1), classical(cert.m2))


def test_self_crossing_pair_resolves_with_zero_shifts(annulus, seeds, quivers):
    w = make_word(quivers["annulus"], (1, 2), [("a", True)])
    cert = multiply_and_certify(w, w, annulus, seeds["annulus"])
    assert (cert.s1_twice, cert.s2_twice) == (0, 0)
    assert cert.m2_source == "solved"
    assert cert.identity_verified


def test_certified_shifts_are_ordered(annulus, seeds, quivers):
    q = quivers["annulus"]
    pairs = [
        (trivial_word(1), make_word(q, (1, 2), [("a", True)])),
        (make_word(q, (1, 2), [("a", True)]), trivial_word(2)),
        (make_word(q, (1, 2), [("b", True)]), trivial_word(2)),
    ]
    for v, w in pairs:
        cert = multiply_and_certify(v, w, annulus, seeds["annulus"])
        assert cert.s1_twice >= cert.s2_twice
        assert cert.identity_verified


def test_extension_counts_are_frozen(quivers):
    q = quivers["annulus"]
    assert count_extensions(trivial_word(2), trivial_word(1), quivers["pentagon"]) == 1
    assert count_extensions(trivial_word(1), trivial_word(2), q) == 2
    g1 = make_word(q, (1, 2, 1), [("a", True), ("b", False)])
    assert count_extensions(g1, trivial_word(2), q) == 3


def test_multiple_extension_classes_are_rejected(annulus, seeds):
    with pytest.raises(AmbiguousSolution):
        multiply_and_certify(trivial_word(1), trivial_word(2), annulus, seeds["annulus"])


def test_unconnected_pair_is_rejected(annulus, seeds):
    with pytest.raises(NoSolution):
        multiply_and_certify(trivial_word(1), trivial_word(1), annulus, seeds["annulus"])


@pytest.mark.parametrize("v, w", [("1", "1 <a< 2 >c> 3"), ("1 <a< 2 >c> 3", "2 >c> 3")])
def test_the_gap_check_is_signed(v, w):
    # certified in the given order: M2 sits q^2 above M1, which the signed
    # check does not count as the geometric gap
    from qcluster.strings import parse_string

    t = load_surface(ANNULUS_21)
    q, seed = build_quiver(t), initial_seed(pair_from_surface(t))
    cert = multiply_and_certify(parse_string(v, q), parse_string(w, q), t, seed)
    assert (str(cert.v), str(cert.w), cert.relative_twice) == (v, w, -4)
    assert relative_exponent_check(cert) is False


@pytest.mark.parametrize(
    "v, w, outcome",
    [
        ("1 >a> 2 <b< 1", "1 >a> 2", None),  # `1 >a> 2` is v, w and a factor
        ("1 >a> 2 <b< 1 >a> 2", "1 >a> 2", NoSolution),
    ],
)
def test_each_distinct_word_is_expanded_once_per_product(annulus, seeds, quivers, monkeypatch, v, w, outcome):
    from qcluster import skein_mult
    from qcluster.strings import parse_string

    calls = []
    real = skein_mult.quantum_expansion
    monkeypatch.setattr(skein_mult, "quantum_expansion", lambda word, t, seed: calls.append(word) or real(word, t, seed))
    v, w = parse_string(v, quivers["annulus"]), parse_string(w, quivers["annulus"])
    if outcome is None:
        assert multiply_and_certify(v, w, annulus, seeds["annulus"]).identity_verified
    else:
        with pytest.raises(outcome):
            multiply_and_certify(v, w, annulus, seeds["annulus"])
    assert len(calls) == len(set(calls)) == 5
    # nothing is kept between calls: the next product expands `1 >a> 2` again
    calls.clear()
    multiply_and_certify(trivial_word(1), w, annulus, seeds["annulus"])
    assert w in calls and len(calls) == len(set(calls))


# Every single-extension product of strings of at most 7 vertices:
# (v, w) -> (certified v, certified w, extension kind, s1_twice, s2_twice,
# m2_source, identity_verified), or None where it raises NoSolution.
# WHEEL3 has an internal triangle; ANNULUS_21 is A(2, 1).  On ANNULUS_21
# X of `1 <a< 2 >c> 3` is not bar-invariant, so its two products with
# s1 < s2 are certified in the given order, not mirrored.
FROZEN_WHEEL3_PRODUCTS = {
    ("1", "2"): ("2", "1", "arrow", 1, 0, "predicted", True),
    ("1", "3"): ("1", "3", "arrow", 1, 0, "predicted", True),
    ("2", "1"): ("2", "1", "arrow", 1, 0, "predicted", True),
    ("2", "3"): ("3", "2", "arrow", 1, 0, "predicted", True),
    ("3", "1"): ("1", "3", "arrow", 1, 0, "predicted", True),
    ("3", "2"): ("3", "2", "arrow", 1, 0, "predicted", True),
}
FROZEN_ANNULUS_21_PRODUCTS = {
    ("1", "1 <a< 2 >c> 3"): ("1", "1 <a< 2 >c> 3", "arrow", -2, 2, "solved", True),
    ("1", "1 >b> 3 <c< 2"): ("1", "1 >b> 3 <c< 2", "arrow", 0, -4, "solved", True),
    ("1", "1 >b> 3 <c< 2 >a> 1 >b> 3 <c< 2"):
        ("1", "1 >b> 3 <c< 2 >a> 1 >b> 3 <c< 2", "arrow", 0, -4, "solved", True),
    ("1", "2"): ("1", "2", "arrow", 0, -2, "predicted", True),
    ("1", "3"): ("3", "1", "arrow", 2, 0, "predicted", True),
    ("1 <a< 2", "1 <a< 2 >c> 3"): None,
    ("1 <a< 2", "1 <a< 2 >c> 3 <b< 1"):
        ("1 <a< 2 >c> 3 <b< 1", "1 <a< 2", "overlap", 1, -1, "solved", True),
    ("1 <a< 2", "1 >b> 3 <c< 2"): None,
    ("1 <a< 2", "2 >c> 3"): ("2 >c> 3", "1 <a< 2", "arrow", 2, 0, "solved", True),
    ("1 <a< 2 >c> 3", "1"): ("1 <a< 2 >c> 3", "1", "arrow", 2, 2, "solved", True),
    ("1 <a< 2 >c> 3", "1 <a< 2"): None,
    ("1 <a< 2 >c> 3", "1 <a< 2 >c> 3"): None,
    ("1 <a< 2 >c> 3", "1 >b> 3"): None,
    ("1 <a< 2 >c> 3", "1 >b> 3 <c< 2 >a> 1 >b> 3"): None,
    ("1 <a< 2 >c> 3", "2"): None,
    ("1 <a< 2 >c> 3", "2 >c> 3"): ("1 <a< 2 >c> 3", "2 >c> 3", "arrow", -2, 2, "solved", True),
    ("1 <a< 2 >c> 3", "3"): None,
    ("1 <a< 2 >c> 3 <b< 1", "1 <a< 2"):
        ("1 <a< 2 >c> 3 <b< 1", "1 <a< 2", "overlap", 1, -1, "solved", True),
    ("1 <a< 2 >c> 3 <b< 1", "1 <a< 2 >c> 3 <b< 1"):
        ("1 <a< 2 >c> 3 <b< 1", "1 <a< 2 >c> 3 <b< 1", "overlap", 0, 0, "solved", True),
    ("1 <a< 2 >c> 3 <b< 1", "1 <a< 2 >c> 3 <b< 1 <a< 2 >c> 3 <b< 1"):
        ("1 <a< 2 >c> 3 <b< 1", "1 <a< 2 >c> 3 <b< 1 <a< 2 >c> 3 <b< 1", "overlap", 0, 0, "solved", True),
    ("1 <a< 2 >c> 3 <b< 1", "1 >b> 3"):
        ("1 >b> 3", "1 <a< 2 >c> 3 <b< 1", "overlap", 1, -1, "solved", True),
    ("1 <a< 2 >c> 3 <b< 1", "1 >b> 3 <c< 2 >a> 1 >b> 3"):
        ("1 >b> 3 <c< 2 >a> 1 >b> 3", "1 <a< 2 >c> 3 <b< 1", "overlap", 1, -1, "solved", True),
    ("1 <a< 2 >c> 3 <b< 1 <a< 2 >c> 3 <b< 1", "1 <a< 2 >c> 3 <b< 1"):
        ("1 <a< 2 >c> 3 <b< 1 <a< 2 >c> 3 <b< 1", "1 <a< 2 >c> 3 <b< 1", "overlap", 0, 0, "solved", True),
    ("1 >b> 3", "1 <a< 2 >c> 3"): None,
    ("1 >b> 3", "1 <a< 2 >c> 3 <b< 1"):
        ("1 >b> 3", "1 <a< 2 >c> 3 <b< 1", "overlap", 1, -1, "solved", True),
    ("1 >b> 3", "1 >b> 3 <c< 2"): None,
    ("1 >b> 3", "2 >c> 3"): ("1 >b> 3", "2 >c> 3", "arrow", 0, -2, "solved", True),
    ("1 >b> 3 <c< 2", "1"): ("1 >b> 3 <c< 2", "1", "arrow", 0, 0, "solved", True),
    ("1 >b> 3 <c< 2", "1 <a< 2"): None,
    ("1 >b> 3 <c< 2", "1 >b> 3"): None,
    ("1 >b> 3 <c< 2", "1 >b> 3 <c< 2"): None,
    ("1 >b> 3 <c< 2", "1 >b> 3 <c< 2 >a> 1 >b> 3"): None,
    ("1 >b> 3 <c< 2", "1 >b> 3 <c< 2 >a> 1 >b> 3 <c< 2"): None,
    ("1 >b> 3 <c< 2", "2"): None,
    ("1 >b> 3 <c< 2", "2 >c> 3"): ("1 >b> 3 <c< 2", "2 >c> 3", "arrow", 0, -4, "solved", True),
    ("1 >b> 3 <c< 2", "3"): None,
    ("1 >b> 3 <c< 2 >a> 1 >b> 3", "1 <a< 2 >c> 3"): None,
    ("1 >b> 3 <c< 2 >a> 1 >b> 3", "1 <a< 2 >c> 3 <b< 1"):
        ("1 >b> 3 <c< 2 >a> 1 >b> 3", "1 <a< 2 >c> 3 <b< 1", "overlap", 1, -1, "solved", True),
    ("1 >b> 3 <c< 2 >a> 1 >b> 3", "1 >b> 3 <c< 2"): None,
    ("1 >b> 3 <c< 2 >a> 1 >b> 3", "2 >c> 3"):
        ("1 >b> 3 <c< 2 >a> 1 >b> 3", "2 >c> 3", "arrow", 0, -2, "solved", True),
    ("1 >b> 3 <c< 2 >a> 1 >b> 3", "3"):
        ("3", "1 >b> 3 <c< 2 >a> 1 >b> 3", "overlap", 2, 0, "solved", True),
    ("1 >b> 3 <c< 2 >a> 1 >b> 3 <c< 2", "1"):
        ("1 >b> 3 <c< 2 >a> 1 >b> 3 <c< 2", "1", "arrow", 0, 0, "solved", True),
    ("1 >b> 3 <c< 2 >a> 1 >b> 3 <c< 2", "1 >b> 3 <c< 2"): None,
    ("1 >b> 3 <c< 2 >a> 1 >b> 3 <c< 2", "2 >c> 3"):
        ("1 >b> 3 <c< 2 >a> 1 >b> 3 <c< 2", "2 >c> 3", "arrow", 0, -4, "solved", True),
    ("2", "1"): ("1", "2", "arrow", 0, -2, "predicted", True),
    ("2", "1 <a< 2 >c> 3"): None,
    ("2", "1 >b> 3 <c< 2"): None,
    ("2", "3"): ("3", "2", "arrow", 0, -2, "predicted", True),
    ("2 >c> 3", "1 <a< 2"): ("2 >c> 3", "1 <a< 2", "arrow", 2, 0, "solved", True),
    ("2 >c> 3", "1 <a< 2 >c> 3"): ("2 >c> 3", "1 <a< 2 >c> 3", "arrow", 2, 2, "solved", True),
    ("2 >c> 3", "1 >b> 3"): ("1 >b> 3", "2 >c> 3", "arrow", 0, -2, "solved", True),
    ("2 >c> 3", "1 >b> 3 <c< 2"): ("2 >c> 3", "1 >b> 3 <c< 2", "arrow", 0, 0, "solved", True),
    ("2 >c> 3", "1 >b> 3 <c< 2 >a> 1 >b> 3"):
        ("1 >b> 3 <c< 2 >a> 1 >b> 3", "2 >c> 3", "arrow", 0, -2, "solved", True),
    ("2 >c> 3", "1 >b> 3 <c< 2 >a> 1 >b> 3 <c< 2"):
        ("2 >c> 3", "1 >b> 3 <c< 2 >a> 1 >b> 3 <c< 2", "arrow", 0, 0, "solved", True),
    ("3", "1"): ("3", "1", "arrow", 2, 0, "predicted", True),
    ("3", "1 <a< 2 >c> 3"): None,
    ("3", "1 >b> 3 <c< 2"): None,
    ("3", "1 >b> 3 <c< 2 >a> 1 >b> 3"):
        ("3", "1 >b> 3 <c< 2 >a> 1 >b> 3", "overlap", 2, 0, "solved", True),
    ("3", "2"): ("3", "2", "arrow", 0, -2, "predicted", True),
}


@pytest.mark.parametrize(
    "data, frozen", [(WHEEL3, FROZEN_WHEEL3_PRODUCTS), (ANNULUS_21, FROZEN_ANNULUS_21_PRODUCTS)]
)
def test_single_extension_products_are_frozen(data, frozen):
    t = load_surface(data)
    q, seed = build_quiver(t), initial_seed(pair_from_surface(t))
    words = enumerate_strings(q, 7)
    seen = {}
    for v in words:
        for w in words:
            if count_extensions(v, w, q) != 1:
                continue
            try:
                cert = multiply_and_certify(v, w, t, seed)
            except NoSolution:
                seen[str(v), str(w)] = None
                continue
            seen[str(v), str(w)] = (
                str(cert.v),
                str(cert.w),
                cert.extension.kind,
                cert.s1_twice,
                cert.s2_twice,
                cert.m2_source,
                cert.identity_verified,
            )
    assert seen == frozen
    assert all(row[-1] for row in seen.values() if row is not None)


def test_the_lowest_terms_do_not_give_the_wheel_shift():
    # On WHEEL3, X_3 X_2 certifies with s1_twice = 1, yet the commutation
    # form of the two lowest exponents is 0: the product's lowest term
    # lies in M2, not in M1.
    t = load_surface(WHEEL3)
    seed = initial_seed(pair_from_surface(t))
    cert = multiply_and_certify(trivial_word(3), trivial_word(2), t, seed)
    assert (str(cert.v), str(cert.w), cert.s1_twice) == ("3", "2", 1)
    from qcluster.expansion import quantum_expansion

    lo = [min(quantum_expansion(trivial_word(i), t, seed).element.terms) for i in (3, 2)]
    lam = seed.base_pair.lam
    assert sum(lo[0][i] * lam[i][j] * lo[1][j] for i in range(t.m) for j in range(t.m)) == 0
    lowest = min(cert.product.terms)
    assert lowest in cert.m2.terms and lowest not in cert.m1.terms


def test_an_overlap_closed_by_a_connector_string(monkeypatch):
    from qcluster import strings
    from qcluster.strings import parse_string

    t = load_surface(HEPTAGON_WITH_A_CYCLE)
    q, seed = build_quiver(t), initial_seed(pair_from_surface(t))
    v, w = parse_string("1 <a< 3 >d> 2", q), parse_string("3 <c< 4", q)
    connected = []
    real = strings._connector_factor

    def spied(*args):
        connected.append(real(*args))
        return connected[-1]

    monkeypatch.setattr(strings, "_connector_factor", spied)
    (ext,) = strings.all_extensions(v, w, q)
    assert (ext.kind, str(ext.u1), [str(u.word) for u in ext.u2_options]) == ("overlap", "3 >d> 2", ["1 <a< 3 <c< 4"])
    # u3 is left open; u4 joins the two right ends through the connector b^-1
    assert ext.u3.kind == "open"
    assert (ext.u4.kind, str(ext.u4.word)) == ("string", "4 <b< 2")
    assert connected == [ext.u4]  # one run: the (v^-1, w^-1) twin is not searched
    cert = multiply_and_certify(v, w, t, seed)
    assert (str(cert.v), str(cert.w), cert.extension.kind) == ("1 <a< 3 >d> 2", "3 <c< 4", "overlap")
    assert (cert.s1_twice, cert.s2_twice, cert.m2_source) == (1, 0, "solved")
    assert cert.identity_verified
