"""Two-term resolutions of products of arc variables."""
from __future__ import annotations

import pytest

from qcluster.errors import AmbiguousSolution, NoSolution
from qcluster.skein_mult import (
    count_extensions,
    multiply_and_certify,
    relative_exponent_check,
)
from qcluster.strings import trivial_word
from qcluster.torus import QCoefficient, TorusElement, torus_mul

from conftest import make_word


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


@pytest.mark.parametrize(
    "v, w, outcome",
    [
        ("1 >a> 2 <b< 1", "1 >a> 2", None),  # `1 >a> 2` is v, w and a factor
        ("1 >a> 2 <b< 1 >a> 2", "1 >a> 2", NoSolution),
    ],
)
def test_each_distinct_word_is_expanded_once_per_product(annulus, seeds, quivers, monkeypatch, v, w, outcome):
    from qcluster import skein_mult
    from qcluster.cli import parse_string

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
