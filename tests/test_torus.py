"""Exact arithmetic in the based quantum torus."""
from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qcluster.errors import (
    NonExactDivision,
    NonPositiveD,
    NotCompatible,
    NotNormalizable,
    NotSkew,
)
from qcluster.torus import (
    CompatiblePair,
    HalfInteger,
    QCoefficient,
    TorusElement,
    bar,
    bar_normalize,
    check_compatible,
    cluster_monomial,
    div_exact_right,
    torus_mul,
    torus_pow,
)

# Torus products only read the commutation matrix, so a bare pair is enough.
LAM3 = ((0, 1, -2), (-1, 0, 3), (2, -3, 0))
PAIR3 = CompatiblePair(b_tilde=(), lam=LAM3, d=())

KRON_B = ((0, 2), (-2, 0))
KRON_LAM = ((0, 1), (-1, 0))
KRON_PAIR = CompatiblePair(KRON_B, KRON_LAM, (2, 2))


def mono(vec, twice=0, coeff=1):
    return TorusElement(len(vec), {tuple(vec): QCoefficient({twice: coeff})})


def lam_pairing(g, h, lam=LAM3):
    return sum(lam[i][j] * g[i] * h[j] for i in range(len(g)) for j in range(len(h)))


def test_monomial_product_picks_up_half_power_of_lambda():
    prod = torus_mul(mono((1, 0, 2)), mono((0, 1, -1)), PAIR3)
    assert prod.sorted_terms() == [((1, 1, 1), QCoefficient({-3: 1}))]


def test_product_with_identity_is_identity():
    one = mono((0, 0, 0))
    a = mono((2, -1, 3), twice=5)
    assert torus_mul(a, one, PAIR3) == a
    assert torus_mul(one, a, PAIR3) == a


def test_q_commutation_swaps_factors_at_a_full_lambda_power():
    g, h = (2, 0, -1), (1, 1, 1)
    lhs = torus_mul(mono(g), mono(h), PAIR3)
    rhs = torus_mul(mono(h), mono(g), PAIR3).shifted(2 * lam_pairing(g, h))
    assert lhs == rhs


def test_multiplication_is_associative_on_sums():
    a = mono((1, 0, 0)) + mono((0, 1, 0), twice=2)
    b = mono((0, 0, 1)) + mono((1, 1, 0), twice=-1)
    c = mono((-1, 0, 1)) + mono((0, -1, 0))
    left = torus_mul(torus_mul(a, b, PAIR3), c, PAIR3)
    right = torus_mul(a, torus_mul(b, c, PAIR3), PAIR3)
    assert left == right


def test_bar_negates_q_exponents_and_fixes_vectors():
    a = mono((1, 2, 3), twice=5, coeff=4)
    assert bar(a).sorted_terms() == [((1, 2, 3), QCoefficient({-5: 4}))]


def test_bar_is_an_involution():
    a = mono((1, 0, -2), twice=3) + mono((0, 1, 0), twice=-1, coeff=2)
    assert bar(bar(a)) == a


def test_bar_reverses_products():
    a = mono((1, 0, 1), twice=1) + mono((0, 2, 0))
    b = mono((1, 1, -1), twice=-2)
    assert bar(torus_mul(a, b, PAIR3)) == torus_mul(bar(b), bar(a), PAIR3)


def test_bar_normalize_centers_the_coefficient_window():
    raw = mono((1, 1, 0), twice=3)
    shift, norm = bar_normalize(raw)
    assert shift == HalfInteger(3)
    assert norm == mono((1, 1, 0))
    assert bar(norm) == norm


def test_bar_normalize_rejects_asymmetric_coefficients():
    lopsided = TorusElement(2, {(1, 0): QCoefficient({0: 1, 2: 2})})
    with pytest.raises(NotNormalizable):
        bar_normalize(lopsided)


def test_div_exact_right_recovers_the_left_factor():
    a = mono((1, 0, 0)) + mono((0, 1, 0), twice=2)
    c = mono((0, 0, 2), twice=-1) + mono((1, 0, 1))
    prod = torus_mul(a, c, PAIR3)
    assert div_exact_right(prod, c, PAIR3) == a


def test_div_exact_right_raises_when_quotient_would_not_be_laurent(monkeypatch):
    a = mono((2, 0))
    c = mono((1, 0)) + mono((0, 1))
    divisions = []
    real = QCoefficient.divide_exact
    monkeypatch.setattr(
        QCoefficient, "divide_exact", lambda self, other: divisions.append(1) or real(self, other)
    )
    # The first quotient exponent (1, 0) already leaves the box [2, 1] x [0, -1].
    with pytest.raises(NonExactDivision, match=r"coordinate 0 = 1 outside \[2, 1\]"):
        div_exact_right(a, c, KRON_PAIR)
    assert divisions == []


def test_divide_exact_rejects_a_non_integral_quotient():
    assert QCoefficient({0: 2, 4: 6}).divide_exact(QCoefficient({0: 2})) == QCoefficient({0: 1, 4: 3})
    assert QCoefficient({0: 1, 4: 3}).divide_exact(QCoefficient({0: 2})) is None
    assert QCoefficient({0: 1, 2: 1}).divide_exact(QCoefficient({0: 1, 4: 1})) is None


def test_torus_pow_matches_repeated_multiplication():
    a = mono((1, -1, 0), twice=1) + mono((0, 0, 1))
    acc = mono((0, 0, 0))
    for k in range(4):
        assert torus_pow(a, k, PAIR3) == acc
        acc = torus_mul(acc, a, PAIR3)


def test_cluster_monomial_is_bar_invariant():
    x1, x2 = mono((1, 0)), mono((0, 1))
    m = cluster_monomial((2, 3), (x1, x2), KRON_PAIR)
    assert m == mono((2, 3))
    assert bar(m) == m


def test_check_compatible_returns_the_diagonal():
    assert check_compatible(KRON_B, KRON_LAM) == (2, 2)


def test_check_compatible_on_tall_matrices():
    b_tilde = ((0, -2), (2, 0), (-1, 1), (-1, 1))
    lam = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    assert check_compatible(b_tilde, lam) == (2, 2)


def test_check_compatible_rejects_non_skew_lambda():
    with pytest.raises(NotSkew):
        check_compatible(KRON_B, ((0, 1), (1, 0)))


def test_check_compatible_rejects_negative_diagonal():
    with pytest.raises(NonPositiveD):
        check_compatible(KRON_B, ((0, -1), (1, 0)))


def test_check_compatible_rejects_nonzero_off_diagonal():
    with pytest.raises(NotCompatible):
        check_compatible(((1, 2), (-2, 0)), KRON_LAM)


def test_check_compatible_rejects_nonzero_boundary_rows():
    b_tilde = ((0, 2), (-2, 0), (1, 0))
    lam = ((0, 1, 1), (-1, 0, 0), (-1, 0, 0))
    with pytest.raises(NotCompatible):
        check_compatible(b_tilde, lam)


def test_half_integer_formatting_and_arithmetic():
    assert str(HalfInteger(6)) == "3"
    assert str(HalfInteger(-3)) == "-3/2"
    assert (-HalfInteger(3)).twice == -3
    assert HalfInteger(1) + HalfInteger(1) == HalfInteger(2)


def test_qcoefficient_specializes_and_mirrors():
    c = QCoefficient({-2: 1, 0: 3, 2: 1})
    assert c.at_q_one() == 5
    assert c.bar() == c
    assert c.is_nonnegative()
    assert QCoefficient({2: 1}).bar() == QCoefficient({-2: 1})


vectors = st.tuples(*([st.integers(min_value=-3, max_value=3)] * 3))
twists = st.integers(min_value=-4, max_value=4)


@given(vectors, vectors)
def test_q_commutation_holds_for_random_monomials(g, h):
    lhs = torus_mul(mono(g), mono(h), PAIR3)
    rhs = torus_mul(mono(h), mono(g), PAIR3).shifted(2 * lam_pairing(g, h))
    assert lhs == rhs


@given(vectors, vectors, vectors, twists, twists)
def test_associativity_holds_for_random_binomials(g, h, k, s, t):
    a = mono(g, twice=s) + mono(h)
    b = mono(h, twice=t) + mono(k)
    c = mono(k) + mono(g, twice=-s)
    assert torus_mul(torus_mul(a, b, PAIR3), c, PAIR3) == torus_mul(
        a, torus_mul(b, c, PAIR3), PAIR3
    )


@given(vectors, vectors, twists, twists)
def test_bar_is_an_anti_automorphism_on_random_terms(g, h, s, t):
    a = mono(g, twice=s)
    b = mono(h, twice=t) + mono(g)
    assert bar(torus_mul(a, b, PAIR3)) == torus_mul(bar(b), bar(a), PAIR3)
    assert bar(bar(b)) == b


# -- exact q-arithmetic against schoolbook references --------------------


def schoolbook(a, b):
    out = {}
    for t1, c1 in a.coeffs.items():
        for t2, c2 in b.coeffs.items():
            out[t1 + t2] = out.get(t1 + t2, 0) + c1 * c2
    return {t: c for t, c in out.items() if c}


def term_by_term(a, b, lam=LAM3):
    out = TorusElement.zero(a.rank)
    for g, cg in a.terms.items():
        for h, ch in b.terms.items():
            key = tuple(x + y for x, y in zip(g, h))
            twist = lam_pairing(g, h, lam)
            coeff = QCoefficient({t + twist: c for t, c in schoolbook(cg, ch).items()})
            out = out + TorusElement(a.rank, {key: coeff})
    return out


# Signed values, some far above 2^64; exponents of both parities.
values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=2**64, max_value=2**70).map(lambda x: x * (-1) ** (x % 3)),
)
sparse = st.dictionaries(st.integers(min_value=-30, max_value=30), values, max_size=8).map(QCoefficient)
# Exponents in one residue class mod k: the product reads every k-th digit.
strided = st.builds(
    lambda c, k, r: QCoefficient({k * t + r: v for t, v in c.coeffs.items()}),
    sparse,
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-3, max_value=3),
)
# Equal coefficients of one sign: the middle of a product of two of them
# reaches the bound that sizes the packed digits.
flat = st.builds(
    lambda n, j, sign: QCoefficient({2 * t: sign * 2**j for t in range(n)}),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=70),
    st.sampled_from((1, -1)),
)
coefficients = st.one_of(sparse, strided, flat)
nonzero_coefficients = coefficients.filter(lambda c: not c.is_zero())


@given(coefficients, coefficients)
def test_coefficient_product_matches_schoolbook(a, b):
    product = a * b
    assert product.coeffs == schoolbook(a, b)
    assert 0 not in product.coeffs.values()


@pytest.mark.parametrize("k", range(1, 10))
def test_coefficient_product_fills_its_digits_to_the_sign_bit(k):
    # 2 * x^2 = 2^(8k-1) sits exactly at the top of k-byte digits
    x = 2 ** (4 * k - 1)
    square = QCoefficient({0: x, 2: x}) * QCoefficient({0: x, 2: x})
    assert square == QCoefficient({0: x * x, 2: 2 * x * x, 4: x * x})


@given(coefficients, coefficients)
def test_coefficient_products_cancel_exactly(a, b):
    # the cross terms of (a + b)(a - b) cancel, and vanish entirely when a == b
    assert (a + b) * (a - b) == a * a - b * b
    assert ((a + b) * (a - b)).coeffs == schoolbook(a + b, a - b)
    assert ((a - a) * b).is_zero()


@given(coefficients, nonzero_coefficients)
def test_coefficient_division_inverts_the_product(a, b):
    assert (a * b).divide_exact(b) == a


term_coefficients = st.dictionaries(
    st.integers(min_value=-6, max_value=6), values, min_size=1, max_size=3
).map(QCoefficient).filter(lambda c: not c.is_zero())
elements = st.dictionaries(vectors, term_coefficients, min_size=1, max_size=3).map(
    lambda terms: TorusElement(3, terms)
)


@given(elements, elements)
def test_torus_product_matches_the_term_by_term_sum(a, b):
    assert torus_mul(a, b, PAIR3) == term_by_term(a, b)


@given(elements, elements)
def test_right_division_recovers_the_left_factor(a, c):
    assert div_exact_right(torus_mul(a, c, PAIR3), c, PAIR3) == a


@given(elements, elements, vectors, twists)
def test_right_division_rejects_a_perturbed_product(a, c, g, t):
    # a monomial is a right multiple only of a monomial, so c needs two terms
    assume(len(c.terms) > 1)
    perturbed = torus_mul(a, c, PAIR3) + mono(g, twice=t)
    with pytest.raises(NonExactDivision):
        div_exact_right(perturbed, c, PAIR3)
