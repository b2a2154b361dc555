"""Mutation's packed exchange numerator against the unpacked pipeline it replaced.

reference_torus_mul, reference_div_exact_right and reference_mutate_seed
are torus_mul, div_exact_right and mutate_seed as they were before the
exchange numerator stayed packed: every product visited each ordered
term pair and unpacked its result, the numerator was summed as an
element, and the division packed it again.  The packed layout helpers
(_pack, _unpack, _common_stride, _digit_bits, _relayout) are shared.
"""
from __future__ import annotations

import random
from dataclasses import replace
from math import gcd
from operator import add, mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import torus
from qcluster.errors import (
    DivisionByZero,
    InvalidMutation,
    NonExactDivision,
    NotCompatible,
    OutsideDomain,
    QClusterError,
    RankMismatch,
)
from qcluster.seeds import QuantumSeed, initial_seed, mutate_lambda, mutate_matrix, mutate_seed
from qcluster.surface import load_surface, pair_from_surface
from qcluster.torus import (
    CompatiblePair,
    QCoefficient,
    TorusElement,
    bar,
    div_exact_right,
    torus_mul,
)

from conftest import ANNULUS_21, SURFACES, WHEEL3
from test_surface import random_polygon
from test_torus import PACKED_PAIRS, PAIR3, _same, packed_elements

_pack, _unpack, _common_stride, _digit_bits = torus._pack, torus._unpack, torus._common_stride, torus._digit_bits
mul_packed = torus._mul_packed


# -- the unpacked pipeline -------------------------------------------------


def reference_torus_mul(a, b, pair):
    a._check_rank(b)
    rows_b = [pair.twist_row(h) for h in b.terms]
    if len(a.terms) <= 1 or len(b.terms) <= 1:
        out = {}
        for g, cg in a.terms.items():
            for (h, ch), row in zip(b.terms.items(), rows_b):
                out[tuple(map(add, g, h))] = (cg * ch).shifted(-sum(map(mul, g, row)))
        return TorusElement._wrap(a.rank, out)
    coeffs_a = [cg.coeffs for cg in a.terms.values()]
    coeffs_b = [ch.coeffs for ch in b.terms.values()]
    lows_a, lows_b = [min(x) for x in coeffs_a], [min(x) for x in coeffs_b]
    spans_b = [max(x) - lo for x, lo in zip(coeffs_b, lows_b)]
    stride = _common_stride(*coeffs_a, *coeffs_b)
    keys = {}
    for i, (g, x) in enumerate(zip(a.terms, coeffs_a)):
        base, span_g = lows_a[i], max(x) - lows_a[i]
        offsets = [base + lo - sum(map(mul, g, row)) for lo, row in zip(lows_b, rows_b)]
        for j, (h, span_h, offset) in enumerate(zip(b.terms, spans_b, offsets)):
            top = offset + span_g + span_h
            entry = keys.get(key := tuple(map(add, g, h)))
            if entry is None:
                keys[key] = [offset, top, [(i, j, offset)]]
                continue
            stride = gcd(stride, offset - entry[0])
            if offset < entry[0]:
                entry[0] = offset
            if top > entry[1]:
                entry[1] = top
            entry[2].append((i, j, offset))
    stride = stride or 1
    bound = max(max(map(abs, x.values())) for x in coeffs_a) * max(max(map(abs, x.values())) for x in coeffs_b)
    bound *= min(max(map(len, coeffs_a)), max(map(len, coeffs_b))) * min(len(coeffs_a), len(coeffs_b))
    bits = _digit_bits(bound)
    packed_a = [_pack(x, lo, stride, bits) for x, lo in zip(coeffs_a, lows_a)]
    packed_b = packed_a if a is b else [_pack(x, lo, stride, bits) for x, lo in zip(coeffs_b, lows_b)]
    out = {}
    for key, (lo, hi, pairs) in keys.items():
        acc = 0
        for i, j, offset in pairs:
            acc += packed_a[i] * packed_b[j] << bits * ((offset - lo) // stride)
        if acc:
            out[key] = QCoefficient._wrap(_unpack(acc, lo, stride, bits, (hi - lo) // stride + 1))
    return TorusElement._wrap(a.rank, out)


def reference_div_exact_right(a, c, pair):
    if c.is_zero():
        raise DivisionByZero("division by the zero element")
    if a.is_zero():
        return TorusElement.zero(a.rank)
    a._check_rank(c)
    box = [
        (min(xs_a) - min(xs_c), max(xs_a) - max(xs_c))
        for xs_a, xs_c in zip(zip(*a.terms), zip(*c.terms))
    ]
    g_c = c.leading_vector()
    gamma_c = c.terms[g_c]
    row_gc = pair.twist_row(g_c)
    lows_c = [min(ch.coeffs) for ch in c.terms.values()]
    terms_c = list(zip(c.terms, lows_c, map(pair.twist_row, c.terms)))
    top_c = max(max(map(abs, ch.coeffs.values())) for ch in c.terms.values())
    len_c = max(len(ch.coeffs) for ch in c.terms.values())
    stride = _common_stride(*[x.coeffs for x in a.terms.values()], *[x.coeffs for x in c.terms.values()]) or 1
    bound = max(top_c, *[max(map(abs, x.coeffs.values())) for x in a.terms.values()])
    bits = _digit_bits(bound)
    remainder = {g: (lo := min(x.coeffs), _pack(x.coeffs, lo, stride, bits)) for g, x in a.terms.items()}
    packed_c = [_pack(ch.coeffs, lo, stride, bits) for ch, lo in zip(c.terms.values(), lows_c)]
    quotient = {}
    while remainder:
        g_a = max(remainder)
        g_b = tuple(x - y for x, y in zip(g_a, g_c))
        for i, (x, (lo, hi)) in enumerate(zip(g_b, box)):
            if not lo <= x <= hi:
                raise NonExactDivision(
                    f"quotient exponent {g_b} needed for {g_a} has coordinate {i} = {x} "
                    f"outside [{lo}, {hi}]"
                )
        lo, packed = remainder[g_a]
        lead = _unpack(packed, lo, stride, bits, packed.bit_length() // bits + 1)
        gamma_b = QCoefficient._wrap(lead).shifted(sum(map(mul, g_b, row_gc)))
        gamma_b = gamma_b.divide_exact(gamma_c)
        if gamma_b is None:
            raise NonExactDivision(f"coefficient at {g_a} is not divisible")
        quotient[g_b] = gamma_b
        coeffs = gamma_b.coeffs
        lo_b = min(coeffs)
        offsets = [
            (tuple(map(add, g_b, h)), lo_b + lo_h - sum(map(mul, g_b, row))) for h, lo_h, row in terms_c
        ]
        new_stride = stride
        for t in coeffs:
            new_stride = gcd(new_stride, t - lo_b)
        for key, offset in offsets:
            if key in remainder:
                new_stride = gcd(new_stride, offset - remainder[key][0])
        bound += max(map(abs, coeffs.values())) * top_c * min(len(coeffs), len_c)
        new_bits = bits if bound < 1 << (bits - 1) else max(2 * bits, _digit_bits(bound))
        if (new_stride, new_bits) != (stride, bits):
            torus._relayout(remainder, (stride, bits), (new_stride, new_bits))
            stride, bits = new_stride, new_bits
            packed_c = [_pack(ch.coeffs, lo, stride, bits) for ch, lo in zip(c.terms.values(), lows_c)]
        packed_b = _pack(coeffs, lo_b, stride, bits)
        for (key, offset), pc in zip(offsets, packed_c):
            if key not in remainder:
                remainder[key] = (offset, -(packed_b * pc))
                continue
            lo, packed = remainder[key]
            if offset < lo:
                packed, lo = packed << bits * ((lo - offset) // stride), offset
            packed -= packed_b * pc << bits * ((offset - lo) // stride)
            if packed:
                remainder[key] = (lo, packed)
            else:
                del remainder[key]
    return TorusElement._wrap(a.rank, quotient)


def reference_product(factors, pair):
    result, *rest = factors
    for x in rest:
        result = reference_torus_mul(result, x, pair)
    return result


def reference_cluster_monomial(exponents, variables, pair, base_pair):
    a = [int(x) for x in exponents]
    if len(a) != len(variables):
        raise RankMismatch("exponent/variable length mismatch")
    if any(x < 0 for x in a):
        raise OutsideDomain("cluster_monomial requires nonnegative exponents")
    support = [i for i, x in enumerate(a) if x]
    if not support:
        return TorusElement.unit(variables[0].rank if variables else pair.m)
    twice = 0
    for s, i in enumerate(support):
        row = pair.lam[i]
        for j in support[s + 1 :]:
            twice -= a[i] * a[j] * row[j]
    result = reference_product([variables[support[0]]] * a[support[0]], base_pair)
    for i in support[1:]:
        result = reference_torus_mul(result, reference_product([variables[i]] * a[i], base_pair), base_pair)
    return result.shifted(twice)


def reference_mutate_seed(seed, k):
    if not 1 <= k <= seed.n:
        raise InvalidMutation(f"direction {k} outside 1..{seed.n}")
    b, lam = seed.pair.b_tilde, seed.pair.lam
    kk = k - 1
    plus = [max(b[i][kk], 0) for i in range(seed.m)]
    minus = [max(-b[i][kk], 0) for i in range(seed.m)]
    plus[kk] = minus[kk] = 0

    def exchange_term(exponents):
        lam_k = sum(e * row[kk] for e, row in zip(exponents, lam))
        monomial = reference_cluster_monomial(exponents, seed.cluster, seed.pair, seed.base_pair)
        return monomial.shifted(lam_k)

    numerator = exchange_term(plus) + exchange_term(minus)
    try:
        new_var = reference_div_exact_right(numerator, seed.cluster[kk], seed.base_pair)
    except NonExactDivision as exc:
        raise NonExactDivision(
            f"exchange numerator not right-divisible by variable {k}: {exc}"
        ) from exc
    if bar(new_var) != new_var:
        raise NotCompatible(f"mutated variable {k} is not bar-invariant")
    new_b = tuple(map(tuple, mutate_matrix(b, k)))
    new_lam = tuple(map(tuple, mutate_lambda(lam, b, k)))
    cluster = list(seed.cluster)
    cluster[kk] = new_var
    return replace(seed, pair=CompatiblePair(new_b, new_lam, seed.pair.d), cluster=tuple(cluster))


def _outcome(call, *args):
    try:
        return call(*args)
    except QClusterError as exc:
        return type(exc), str(exc)


def _same_seed(x, y):
    return x.pair == y.pair and all(_same(a, b) for a, b in zip(x.cluster, y.cluster))


# -- products, squares and the packed numerator -----------------------------


@pytest.mark.parametrize("name", PACKED_PAIRS)
@settings(deadline=None)
@given(data=st.data())
def test_a_square_equals_the_ordered_pair_product(name, data):
    pair, rank = PACKED_PAIRS[name]
    a, b = data.draw(packed_elements(rank)), data.draw(packed_elements(rank))
    for x in (a, a - b, a + b.shifted(2)):
        assert _same(torus_mul(x, x, pair), reference_torus_mul(x, x, pair))
    assert _same(torus_mul(a, b, pair), reference_torus_mul(a, b, pair))


@pytest.mark.parametrize("n", [6, 9])
def test_a_square_visits_each_unordered_pair_once(monkeypatch, n):
    # Each visited pair multiplies its two packed coefficients once; from
    # torus._LANE_TERMS terms on, the twists are read from lanes.
    a = TorusElement(3, {(i, i % 2, 0): QCoefficient({0: i + 1, 2: -1}) for i in range(n)})
    visits = []

    class Packed(int):
        def __mul__(self, other):
            visits.append(1)
            return int(self) * other

    real = torus._pack
    monkeypatch.setattr(torus, "_pack", lambda *args: Packed(real(*args)))
    square = torus_mul(a, a, PAIR3)
    assert len(visits) == n * (n + 1) // 2
    visits.clear()
    assert torus_mul(a, TorusElement(3, a.terms), PAIR3) == square
    assert len(visits) == n * n


@pytest.mark.parametrize("name", PACKED_PAIRS)
@settings(deadline=None)
@given(data=st.data())
def test_each_key_bound_holds_its_coefficients_below_the_whole_product_bound(name, data):
    # The bound before it was taken per key: max|a| * max|b| * (fewer
    # q-terms) * min(|a|, |b|), for a product and for a square.
    pair, rank = PACKED_PAIRS[name]
    a, b = data.draw(packed_elements(rank)), data.draw(packed_elements(rank))
    for x, y in ((a, b), (a, a)):
        packed = mul_packed(x, y, pair)
        top_x, top_y = (max(abs(v) for c in z.terms.values() for v in c.coeffs.values()) for z in (x, y))
        size_x, size_y = (max(len(c.coeffs) for c in z.terms.values()) for z in (x, y))
        assert packed.bound <= top_x * top_y * min(size_x, size_y) * min(len(x.terms), len(y.terms))
        coefficients = [v for c in torus._unpacked(packed).terms.values() for v in c.coeffs.values()]
        assert max(map(abs, coefficients), default=0) <= packed.bound


@pytest.mark.parametrize("shape", [(0,), (0, 1), (0, 0), (0, 2), (0, 0, 0), (0, 1, 1), (0, 1, 2), (2, 0, 1)])
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_a_packed_product_equals_the_reference_fold(shape, data):
    # Factors drawn from x, y and a one-term z; a repeated index is the same
    # object, so a last x * x is a square kept packed.
    x, y = data.draw(packed_elements(3)), data.draw(packed_elements(3))
    z = TorusElement.monomial(data.draw(st.tuples(*[st.integers(-1, 1)] * 3)), data.draw(st.integers(-3, 3)))
    factors = [(x, y, z)[i] for i in shape]
    twice = data.draw(st.integers(min_value=-3, max_value=3))
    squares = []
    with mock.patch.object(torus, "_mul_packed", lambda a, b, *rest: squares.append(a is b) or mul_packed(a, b, *rest)):
        packed = torus._packed_product(factors, PAIR3, twice)
    assert torus._unpacked(packed) == reference_product(factors, PAIR3).shifted(twice)
    if shape == (0, 0) and len(x.terms) > 1:
        assert squares == [True]
    if shape == (0, 2):
        assert squares == []


@pytest.mark.parametrize("name", PACKED_PAIRS)
@settings(deadline=None)
@given(data=st.data())
def test_a_packed_numerator_divides_like_its_element(name, data):
    # a^2 (a square kept packed) + e, with e = b c - a^2 (packed as an
    # element): an exact numerator, then the same plus a perturbation.
    # The last case shifts the square by q^(1/2), so that its keys meet
    # those of the element in other residue classes.
    pair, rank = PACKED_PAIRS[name]
    a, b, c = (data.draw(packed_elements(rank)) for _ in range(3))
    extra = data.draw(packed_elements(rank))
    square, bc = reference_torus_mul(a, a, pair), reference_torus_mul(b, c, pair)
    for twice, e in ((0, bc - square), (0, bc - square + extra), (1, extra)):
        if e.is_zero():
            continue
        numerator = torus._packed_sum(torus._mul_packed(a, a, pair, twice), torus._packed(e))
        target = square.shifted(twice) + e
        assert torus._unpacked(numerator._replace(terms=dict(numerator.terms))) == target
        got = _outcome(div_exact_right, numerator, c, pair)
        want = _outcome(reference_div_exact_right, target, c, pair)
        if isinstance(want, TorusElement):
            assert _same(got, want)
        else:
            assert got == want
    assert div_exact_right(reference_torus_mul(b, c, pair), c, pair) == b


def test_a_shared_key_refines_the_stride_and_widens_the_digits():
    # a^2 has gaps of 4 at X^(2,0,0); q (q^(1/2) + q^(5/2)) X^(2,0,0) sits
    # 2 off that class, so the sum needs stride 2.
    a = TorusElement(3, {(1, 0, 0): QCoefficient({0: 1, 4: 1}), (0, 1, 0): QCoefficient({0: 1})})
    square = torus_mul(a, a, PAIR3)
    odd = TorusElement(3, {(2, 0, 0): QCoefficient({2: 1, 6: 1})})
    total = torus._packed_sum(torus._mul_packed(a, a, PAIR3), torus._packed(odd))
    assert total.stride == 2
    assert torus._unpacked(total) == square + odd
    # 8 X^(1,0,0) squared is 64 X^(2,0,0), within 8-bit digits; twice that is not.
    b = TorusElement(3, {(1, 0, 0): QCoefficient({0: 8})})
    total = torus._packed_sum(torus._mul_packed(b, b, PAIR3), torus._packed(torus_mul(b, b, PAIR3)))
    assert total.bits == 16
    assert torus._unpacked(total) == TorusElement(3, {(2, 0, 0): QCoefficient({0: 128})})


# -- mutation ---------------------------------------------------------------


@pytest.mark.parametrize("start", (1, 2))
def test_both_annulus_sequences_equal_the_unpacked_pipeline_to_step_18(start):
    seed = initial_seed(pair_from_surface(load_surface("annulus")))
    for step in range(18):
        k = start if step % 2 == 0 else 3 - start
        new = mutate_seed(seed, k)
        assert _same_seed(new, reference_mutate_seed(seed, k)), step + 1
        seed = new


def test_no_coefficient_is_divided_along_both_12_step_annulus_sequences(monkeypatch):
    # every divisor is a cluster variable, whose lex-leading coefficient is 1 q^t
    calls = []
    real = QCoefficient.divide_exact
    monkeypatch.setattr(QCoefficient, "divide_exact", lambda self, other: calls.append(other) or real(self, other))
    for start in (1, 2):
        seed = initial_seed(pair_from_surface(load_surface("annulus")))
        for step in range(12):
            seed = mutate_seed(seed, start if step % 2 == 0 else 3 - start)
    assert calls == []
    # the count sees a lead that is not +-q^t
    two = TorusElement(3, {(1, 0, 0): QCoefficient({0: 2})})
    assert div_exact_right(torus_mul(two, two, PAIR3), two, PAIR3) == two
    assert calls == [QCoefficient({0: 2})]


def _surfaces():
    rng = random.Random(26)
    yield from SURFACES
    yield ANNULUS_21
    yield WHEEL3
    for n in (5, 7, 9, 11):
        yield random_polygon(n, rng)


@pytest.mark.parametrize("index, data", list(enumerate(_surfaces())))
def test_random_paths_equal_the_unpacked_pipeline(index, data):
    rng = random.Random(index)
    seed = initial_seed(pair_from_surface(load_surface(data)))
    for _ in range(7):
        k = rng.randint(1, seed.n)
        new = mutate_seed(seed, k)
        assert _same_seed(new, reference_mutate_seed(seed, k))
        seed = new


@pytest.mark.parametrize("index, data", list(enumerate(_surfaces())))
def test_a_perturbed_numerator_fails_like_the_unpacked_pipeline(index, data):
    # Adding a term to a variable of the exchange (or to the divisor) makes
    # the division inexact; both pipelines must stop at the same place.
    rng = random.Random(index)
    seed = initial_seed(pair_from_surface(load_surface(data)))
    for _ in range(3):
        seed = mutate_seed(seed, rng.randint(1, seed.n))
    checked = 0
    for k in range(1, seed.n + 1):
        for i in range(seed.m):
            if seed.pair.b_tilde[i][k - 1] == 0 and i != k - 1:
                continue
            g = [0] * seed.m
            g[rng.randrange(seed.m)] = 1
            cluster = list(seed.cluster)
            cluster[i] = cluster[i] + TorusElement.monomial(g, 2 * rng.randint(-1, 1))
            perturbed = QuantumSeed(seed.pair, tuple(cluster), seed.base_pair)
            got, want = _outcome(mutate_seed, perturbed, k), _outcome(reference_mutate_seed, perturbed, k)
            if isinstance(want, QuantumSeed):
                assert _same_seed(got, want)
            else:
                assert got == want
                checked += want[0] is NonExactDivision
    assert checked
