"""Exact arithmetic in the based quantum torus."""
from __future__ import annotations

import fractions
import random
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcluster.errors import (
    AmbiguousSolution,
    DivisionByZero,
    NonExactDivision,
    NonPositiveD,
    NoSolution,
    NotCompatible,
    NotNormalizable,
    NotSkew,
    OutsideDomain,
    QClusterError,
    RankMismatch,
)
from qcluster.seeds import initial_seed, mutate_lambda, mutate_matrix
from qcluster import torus
from qcluster.skein_mult import count_extensions, multiply_and_certify
from qcluster.strings import enumerate_strings
from qcluster.surface import build_quiver, load_surface, pair_from_surface
from qcluster.torus import (
    CompatiblePair,
    QCoefficient,
    TorusElement,
    bar,
    bar_normalize,
    check_compatible,
    div_exact_right,
    torus_mul,
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
    assert shift == 3  # twice units: q^(3/2)
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


def _rank_of(mat):
    """Rank over Q by fraction-exact Gaussian elimination."""
    rows = [[fractions.Fraction(x) for x in row] for row in mat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def check_compatible_with_rank(b_tilde, lam):
    """The former check: full column rank by elimination, then the equation."""
    b = tuple(tuple(int(x) for x in row) for row in b_tilde)
    l = tuple(tuple(int(x) for x in row) for row in lam)
    m = len(l)
    if any(len(row) != m for row in l):
        raise NotSkew("lambda matrix is not square")
    for i in range(m):
        for j in range(m):
            if l[i][j] != -l[j][i]:
                raise NotSkew(f"lambda[{i}][{j}] != -lambda[{j}][{i}]")
    if len(b) != m:
        raise NotCompatible(f"b_tilde has {len(b)} rows, lambda is {m} x {m}")
    n = len(b[0]) if b else 0
    if any(len(row) != n for row in b):
        raise NotCompatible("ragged b_tilde")
    if n == 0 or _rank_of(b) != n:
        raise NotCompatible("b_tilde does not have full column rank")
    d = []
    for j in range(n):
        for i in range(m):
            entry = sum(l[i][k] * b[k][j] for k in range(m))
            if i == j:
                if entry >= 0:
                    raise NonPositiveD(f"diagonal entry {-entry} at column {j} is not positive")
                d.append(-entry)
            elif entry != 0:
                raise NotCompatible(f"(lambda b_tilde)[{i}][{j}] = {entry} != 0")
    return tuple(d)


def _outcome(check, b_tilde, lam):
    try:
        return check(b_tilde, lam)
    except QClusterError:
        return QClusterError


def _force_dependent_column(draw, b):
    """Overwrite one column with -1, 0 or 1 times another (0: a zero column)."""
    n = len(b[0])
    j = draw(st.integers(min_value=0, max_value=n - 1))
    k = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda k: k != j))
    c = draw(st.integers(min_value=-1, max_value=1))
    return [row[:j] + [c * row[k]] + row[j + 1 :] for row in b]


@st.composite
def integer_pairs(draw):
    """Small integer b_tilde (possibly wider than tall) and skew lambda."""
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=m + 1))
    entries = st.integers(min_value=-2, max_value=2)
    b = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if n > 1 and draw(st.booleans()):
        b = _force_dependent_column(draw, b)
    lam = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            lam[i][j] = draw(entries)
            lam[j][i] = -lam[i][j]
    return b, lam


SURFACE_PAIRS = [pair_from_surface(load_surface(name)) for name in ("square", "pentagon", "hexagon", "annulus")]


@st.composite
def surface_pairs(draw):
    """Mutated bundled pairs, kept compatible or spoiled in one place."""
    pair = draw(st.sampled_from(SURFACE_PAIRS))
    b, lam = [list(r) for r in pair.b_tilde], [list(r) for r in pair.lam]
    for k in draw(st.lists(st.integers(min_value=1, max_value=pair.n), max_size=3)):
        b, lam = mutate_matrix(b, k), mutate_lambda(lam, b, k)
    spoil = draw(st.sampled_from(("none", "dependent", "lambda")))
    if spoil == "dependent" and pair.n > 1:
        b = _force_dependent_column(draw, b)
    elif spoil == "lambda":
        i = draw(st.integers(min_value=0, max_value=pair.m - 2))
        j = draw(st.integers(min_value=i + 1, max_value=pair.m - 1))
        lam[i][j] += 1
        lam[j][i] -= 1
    return b, lam


@given(st.one_of(integer_pairs(), surface_pairs()))
def test_the_equation_accepts_exactly_the_pairs_the_rank_test_did(pair):
    b_tilde, lam = pair
    expected = _outcome(check_compatible_with_rank, b_tilde, lam)
    assert _outcome(check_compatible, b_tilde, lam) == expected


def dense_check_compatible(b_tilde, lam):
    """The former check: each entry of lambda b_tilde summed over all m rows."""
    b = tuple(tuple(int(x) for x in row) for row in b_tilde)
    l = tuple(tuple(int(x) for x in row) for row in lam)
    m = len(l)
    if any(len(row) != m for row in l):
        raise NotSkew("lambda matrix is not square")
    for i in range(m):
        for j in range(m):
            if l[i][j] != -l[j][i]:
                raise NotSkew(f"lambda[{i}][{j}] != -lambda[{j}][{i}]")
    if len(b) != m:
        raise NotCompatible(f"b_tilde has {len(b)} rows, lambda is {m} x {m}")
    n = len(b[0]) if b else 0
    if any(len(row) != n for row in b):
        raise NotCompatible("ragged b_tilde")
    if not 0 < n <= m:
        raise NotCompatible("b_tilde does not have full column rank")
    d = []
    for j in range(n):
        for i in range(m):
            entry = sum(l[i][k] * b[k][j] for k in range(m))
            if i == j:
                if entry >= 0:
                    raise NonPositiveD(f"diagonal entry {-entry} at column {j} is not positive")
                d.append(-entry)
            elif entry != 0:
                raise NotCompatible(f"(lambda b_tilde)[{i}][{j}] = {entry} != 0")
    return tuple(d)


def _outcome_with_message(check, b_tilde, lam):
    try:
        return check(b_tilde, lam)
    except QClusterError as exc:
        return type(exc), str(exc)


@given(st.one_of(integer_pairs(), surface_pairs()))
def test_the_sparse_check_matches_the_dense_loop(pair):
    b_tilde, lam = pair
    expected = _outcome_with_message(dense_check_compatible, b_tilde, lam)
    assert _outcome_with_message(check_compatible, b_tilde, lam) == expected


@pytest.mark.parametrize(
    "b_tilde, lam",
    [
        (((0, 0), (-2, 0)), KRON_LAM),  # a zero column
        (((0, 0), (-2, -2)), KRON_LAM),  # two equal columns
        (((0, 2, 0), (-2, 0, 0), (0, 0, 0)), ((0, 1, 0), (-1, 0, 0), (0, 0, 0))),
        # wider than tall: lambda b_tilde = [-I | 0] but has no n x n block
        (((0, 1, 0), (-1, 0, 0)), KRON_LAM),
    ],
)
def test_check_compatible_rejects_rank_deficient_b_tilde(b_tilde, lam):
    with pytest.raises(QClusterError):
        check_compatible_with_rank(b_tilde, lam)
    with pytest.raises(QClusterError):
        check_compatible(b_tilde, lam)


def fan_polygon(n):
    """The n-gon triangulated by the diagonals from vertex 0, as surface JSON."""
    diagonals = [(0, k) for k in range(2, n - 1)]
    sides = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    ids = {e: k + 1 for k, e in enumerate(diagonals + sides)}
    return {
        "name": f"fan{n}",
        "arcs": [{"id": ids[e], "kind": "internal"} for e in diagonals]
        + [{"id": ids[e], "kind": "boundary"} for e in sides],
        "triangles": [[ids[(0, k)], ids[(k, k + 1)], ids[(0, k + 1)]] for k in range(1, n - 1)],
    }


def test_check_compatible_builds_no_fraction(monkeypatch):
    pair = pair_from_surface(load_surface(fan_polygon(14)))

    def no_fraction(*args, **kwargs):
        raise AssertionError("check_compatible built a Fraction")

    monkeypatch.setattr(fractions.Fraction, "__new__", no_fraction)
    assert check_compatible(pair.b_tilde, pair.lam) == pair.d


CONTRACT_VIOLATIONS = {
    "vector of the wrong length": (RankMismatch, ValueError, lambda: TorusElement(2, {(1,): QCoefficient.one()})),
    "rank mismatch": (RankMismatch, ValueError, lambda: mono((1, 0)) + mono((1, 0, 0))),
    "leading term of zero": (OutsideDomain, ValueError, lambda: TorusElement.zero(2).leading_vector()),
    "coefficient division by zero": (
        DivisionByZero, ZeroDivisionError, lambda: QCoefficient.one().divide_exact(QCoefficient.zero())
    ),
    "element division by zero": (
        DivisionByZero, ZeroDivisionError, lambda: div_exact_right(mono((1, 0, 0)), TorusElement.zero(3), PAIR3)
    ),
}


@pytest.mark.parametrize("case", CONTRACT_VIOLATIONS)
def test_a_torus_contract_violation_is_typed_and_keeps_its_builtin_base(case):
    typed, builtin, call = CONTRACT_VIOLATIONS[case]
    with pytest.raises(typed) as caught:
        call()
    assert isinstance(caught.value, QClusterError) and isinstance(caught.value, builtin)


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


def long_division(num, den):
    """The quotient num/den by long division over the integers, or None when it is not integral."""
    if num.is_zero():
        return QCoefficient.zero()
    lo_n, hi_n, lo_d, hi_d = min(num.coeffs), max(num.coeffs), min(den.coeffs), max(den.coeffs)
    deg_q = (hi_n - lo_n) - (hi_d - lo_d)
    if deg_q < 0:
        return None
    rem = [num.coeffs.get(lo_n + i, 0) for i in range(hi_n - lo_n + 1)]
    dense = [den.coeffs.get(lo_d + i, 0) for i in range(hi_d - lo_d + 1)]
    quo = [0] * (deg_q + 1)
    for i in range(deg_q, -1, -1):
        c, r = divmod(rem[i + len(dense) - 1], dense[-1])
        if r:
            return None
        quo[i] = c
        for j, d in enumerate(dense):
            rem[i + j] -= c * d
    if any(rem):
        return None
    return QCoefficient({lo_n - lo_d + i: c for i, c in enumerate(quo)})


one_term_coefficients = st.builds(
    lambda t, c: QCoefficient({t: c}), st.integers(min_value=-30, max_value=30), values.filter(bool)
)


@given(coefficients, one_term_coefficients)
def test_one_term_division_equals_long_division(a, d):
    # a itself is often not a multiple of d; a * d always is
    for num in (a, a * d):
        assert num.divide_exact(d) == long_division(num, d)


@pytest.mark.parametrize(
    "num, den, quotient",
    [
        ({0: 6, 4: -9}, {2: -3}, {-2: -2, 2: 3}),  # negative divisor
        ({-1: -7}, {3: -7}, {-4: 1}),
        ({0: 6, 4: -8}, {2: -3}, None),  # -8 is not a multiple of -3
        ({0: 2**70, 1: 5}, {0: 2}, None),
        ({}, {5: -2}, {}),  # zero numerator
    ],
)
def test_one_term_division_cases(num, den, quotient):
    expected = None if quotient is None else QCoefficient(quotient)
    assert QCoefficient(num).divide_exact(QCoefficient(den)) == expected
    assert long_division(QCoefficient(num), QCoefficient(den)) == expected


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


def well_formed(x, rank):
    """What TorusElement.__init__ would enforce: rank-long tuple keys and no zero coefficient."""
    return x.rank == rank and all(
        type(g) is tuple and len(g) == rank and c.coeffs and 0 not in c.coeffs.values()
        for g, c in x.terms.items()
    )


@given(elements, elements, twists)
def test_adopted_kernel_results_are_well_formed(a, c, t):
    product = torus_mul(a, c, PAIR3)
    for x in (product, div_exact_right(product, c, PAIR3), product.shifted(t), a.shifted(t)):
        assert well_formed(x, 3)
    assert a.shifted(0) is a


# -- bar invariance ------------------------------------------------------

bar_symmetric = elements.map(lambda x: x + bar(x))


@given(st.one_of(elements, bar_symmetric, st.builds(lambda x, y: x + y, bar_symmetric, elements)))
def test_bar_invariance_read_in_place_equals_the_conjugate_comparison(x):
    assert torus.is_bar_invariant(x) == (bar(x) == x)


@pytest.mark.parametrize(
    "x, invariant",
    [
        (TorusElement.zero(3), True),
        (TorusElement(3, {(0, -1, 2): QCoefficient({-2: 2**70, 0: -1, 2: 2**70})}), True),
        # a q-term at t with none at -t
        (TorusElement(3, {(0, 0, 0): QCoefficient({0: 1, 2: 5})}), False),
        # values at t and -t that differ, on the second term only
        (
            TorusElement(3, {(1, 0, 0): QCoefficient({-1: 1, 1: 1}), (0, 1, 0): QCoefficient({-3: 2**70, 3: -2**70})}),
            False,
        ),
    ],
)
def test_bar_invariance_cases(x, invariant):
    assert torus.is_bar_invariant(x) is invariant
    assert (bar(x) == x) is invariant


# -- sums ------------------------------------------------------------------


def reference_sum(a, b):
    """a + b as the validating constructor builds it: every key of both, then
    the constructor drops the zero sums and checks each key's rank."""
    out = dict(a.terms)
    for g, c in b.terms.items():
        out[g] = out.get(g, QCoefficient.zero()) + c
    return TorusElement(a.rank, out)


def reference_neg(a):
    return TorusElement(a.rank, {g: -c for g, c in a.terms.items()})


def snapshot(x):
    return x.rank, {g: dict(c.coeffs) for g, c in x.terms.items()}


@st.composite
def overlapping_pairs(draw):
    """(a, b) where b holds some of a's keys: with a's coefficient negated
    (cancelled), with another coefficient, or not at all, plus keys of its own."""
    a = draw(elements)
    terms = draw(st.dictionaries(vectors, term_coefficients, max_size=3))
    for g, c in a.terms.items():
        choice = draw(st.sampled_from(("absent", "cancel", "other")))
        if choice == "absent":
            terms.pop(g, None)
        else:
            terms[g] = -c if choice == "cancel" else draw(term_coefficients)
    return a, TorusElement(3, terms)


@given(st.one_of(st.tuples(elements, elements), overlapping_pairs()))
def test_sums_equal_the_validating_reference_and_leave_the_operands(pair):
    a, b = pair
    before = snapshot(a), snapshot(b)
    sums = (
        (a + b, reference_sum(a, b)),
        (a - b, reference_sum(a, reference_neg(b))),
        (-a, reference_neg(a)),
    )
    for result, want in sums:
        assert result == want
        assert well_formed(result, 3)
    assert (snapshot(a), snapshot(b)) == before


@given(elements)
def test_an_element_minus_itself_is_zero_with_no_stored_term(a):
    for zero in (a + (-a), a - a, -a + a):
        assert zero.is_zero() and zero.terms == {} and zero.rank == 3


def test_a_partial_cancellation_drops_exactly_the_cancelled_keys():
    q = QCoefficient
    a = TorusElement(3, {(1, 0, 0): q({0: 1}), (0, 1, 0): q({0: 2, 2: 1}), (0, 0, 1): q({-2: 3})})
    b = TorusElement(3, {(1, 0, 0): q({0: -1}), (0, 1, 0): q({0: -2}), (1, 1, 1): q({4: 5})})
    total = a + b
    assert total.terms == {(0, 1, 0): q({2: 1}), (0, 0, 1): q({-2: 3}), (1, 1, 1): q({4: 5})}
    assert (b + a).terms == total.terms


@pytest.mark.parametrize("op", ("add", "sub"))
def test_a_sum_of_two_ranks_still_raises(op):
    unit, zero = TorusElement.unit, TorusElement.zero
    for left, right in ((unit(2), unit(3)), (zero(2), zero(3))):
        with pytest.raises(RankMismatch, match="rank mismatch: 2 vs 3"):
            left + right if op == "add" else left - right


def test_the_annulus_skein_residuals_equal_the_validating_reference(surfaces, monkeypatch):
    """Every difference skein-multiply takes on the annulus's single-extension
    products of strings of at most 7 vertices (the residuals it tries for M2),
    against the reference, as a difference and as a sum."""
    t = surfaces["annulus"]
    q, seed = build_quiver(t), initial_seed(pair_from_surface(t))
    seen = []
    sub = TorusElement.__sub__

    def recording_sub(a, b):
        seen.append((a, b, snapshot(a), snapshot(b)))
        return sub(a, b)

    monkeypatch.setattr(TorusElement, "__sub__", recording_sub)
    words, outcomes = enumerate_strings(q, 7), []
    for v in words:
        for w in words:
            if count_extensions(v, w, q) == 1:
                try:
                    outcomes.append(multiply_and_certify(v, w, t, seed).identity_verified)
                except (NoSolution, AmbiguousSolution) as error:
                    outcomes.append(type(error).__name__)
    monkeypatch.undo()
    assert (len(outcomes), outcomes.count(True), outcomes.count("NoSolution")) == (32, 30, 2)
    assert len(seen) == 32
    # some residuals cancel keys, so the sums drop terms
    assert any(len((a - b).terms) < len(a.terms.keys() | b.terms.keys()) for a, b, *_ in seen)
    for a, b, before_a, before_b in seen:
        assert (snapshot(a), snapshot(b)) == (before_a, before_b)
        assert a - b == reference_sum(a, reference_neg(b))
        assert a + b == reference_sum(a, b)


@given(elements, elements, vectors, twists)
def test_right_division_rejects_a_perturbed_product(a, c, g, t):
    # a monomial is a right multiple only of a monomial, so c needs two terms
    assume(len(c.terms) > 1)
    perturbed = torus_mul(a, c, PAIR3) + mono(g, twice=t)
    with pytest.raises(NonExactDivision):
        div_exact_right(perturbed, c, PAIR3)


# -- packed products and division against the per-pair forms they replace --


def reference_pack(coeffs, lo, stride, length, bits):
    """Evaluate sum c * x^((t - lo) / stride) at x = 2^bits; digits may be negative."""
    dense = [0] * length
    for t, c in coeffs.items():
        dense[(t - lo) // stride] = c
    packed = 0
    for c in reversed(dense):
        packed = (packed << bits) + c
    return packed


def reference_unpack(packed, lo, stride, length, bits):
    """Invert reference_pack by peeling signed digits off the bottom; every digit must lie in (-2^(bits-1), 2^(bits-1))."""
    half, coeffs = 1 << (bits - 1), {}
    for i in range(length):
        digit = (packed + half) % (1 << bits) - half
        packed = (packed - digit) >> bits
        if digit:
            coeffs[lo + stride * i] = digit
    assert packed == 0
    return coeffs


def reference_kronecker_product(a, b):
    """The product of two q-polynomials of at least two terms each, packed per call."""
    lo_a, lo_b = min(a), min(b)
    stride = gcd(*[t - lo_a for t in a], *[t - lo_b for t in b])
    len_a = (max(a) - lo_a) // stride + 1
    len_b = (max(b) - lo_b) // stride + 1
    n = len_a + len_b - 1
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    bits = 8 * width
    half = 1 << (bits - 1)
    product = reference_pack(a, lo_a, stride, len_a, bits) * reference_pack(b, lo_b, stride, len_b, bits)
    biased = product + int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = biased.to_bytes(n * width, "little")
    digits = [int.from_bytes(raw[i : i + width], "little") for i in range(0, n * width, width)]
    lo = lo_a + lo_b
    return {t: d - half for t, d in zip(range(lo, lo + stride * n, stride), digits) if d != half}


def reference_coefficient_product(a, b):
    """The q-coefficient product on dicts: shift and scale by a monomial, else pack this pair."""
    if not a or not b:
        return {}
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((t0, c0),) = b.items()
        return {t + t0: c * c0 for t, c in a.items()}
    return reference_kronecker_product(a, b)


def reference_add_shifted(acc, coeffs, twice):
    """Add q^(twice/2) * coeffs into acc in place, leaving no zero entry."""
    for t, c in coeffs.items():
        t += twice
        c += acc.get(t, 0)
        if c:
            acc[t] = c
        else:
            del acc[t]


def reference_torus_mul(a, b, pair):
    """The torus product with one coefficient product and one dict fold per term pair."""
    a._check_rank(b)
    out = {}
    for g, cg in a.terms.items():
        row = pair.twist_row(g)
        for h, ch in b.terms.items():
            acc = out.setdefault(tuple(x + y for x, y in zip(g, h)), {})
            reference_add_shifted(acc, reference_coefficient_product(cg.coeffs, ch.coeffs), sum(map(mul, row, h)))
    return TorusElement(a.rank, {key: QCoefficient(acc) for key, acc in out.items()})


def reference_div_exact_right(a, c, pair):
    """Right division with the remainder held as plain dicts, updated one q-term at a time."""
    if c.is_zero():
        raise ZeroDivisionError("division by the zero element")
    if a.is_zero():
        return TorusElement.zero(a.rank)
    a._check_rank(c)
    box = [
        (min(xs_a) - min(xs_c), max(xs_a) - max(xs_c))
        for xs_a, xs_c in zip(zip(*a.terms), zip(*c.terms))
    ]
    g_c = c.leading_vector()
    gamma_c = c.terms[g_c]
    remainder = {g: dict(coeff.coeffs) for g, coeff in a.terms.items()}
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
        row = pair.twist_row(g_b)
        gamma_b = QCoefficient(remainder[g_a]).shifted(-sum(map(mul, row, g_c)))
        gamma_b = gamma_b.divide_exact(gamma_c)
        if gamma_b is None:
            raise NonExactDivision(f"coefficient at {g_a} is not divisible")
        quotient[g_b] = gamma_b
        minus_b = {t: -x for t, x in gamma_b.coeffs.items()}
        for h, ch in c.terms.items():
            key = tuple(x + y for x, y in zip(g_b, h))
            acc = remainder.setdefault(key, {})
            reference_add_shifted(acc, reference_coefficient_product(minus_b, ch.coeffs), sum(map(mul, row, h)))
            if not acc:
                del remainder[key]
    return TorusElement(a.rank, quotient)


def _same(x, y):
    """Equal elements, with their terms in the same order."""
    return x == y and list(x.terms) == list(y.terms)


def _division_outcome(divide, a, c, pair):
    try:
        quotient = divide(a, c, pair)
    except QClusterError as exc:
        return type(exc), str(exc)
    return [(g, coeff.coeffs) for g, coeff in quotient.terms.items()]


ANNULUS_PAIR = SURFACE_PAIRS[3]  # rank 4, lambda of rank 2
PACKED_PAIRS = {"rank 3": (PAIR3, 3), "annulus": (ANNULUS_PAIR, 4)}
@st.composite
def packed_elements(draw, rank):
    """1 to 12 terms on a small box of vectors, so that many term pairs share a key.

    Hypothesis draws the shape: the number of terms, up to 8 q-terms per
    coefficient, whether residues mod 4 mix inside a coefficient, whether
    entries may lie far above 2^64, and whether the box is lopsided: its
    first coordinate spans -40..40 and its last is pinned to one value, so
    that a product's or a numerator's box has radix 1 there when both
    factors are lopsided.  A generator seeded by the draw fills in vectors,
    exponents and signed entries.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n_terms, q_terms = draw(st.integers(min_value=1, max_value=12)), draw(st.integers(min_value=1, max_value=8))
    mixed, big = draw(st.booleans()), draw(st.booleans())
    spans = [(-1, 1)] * rank
    if draw(st.booleans()):
        pinned = draw(st.integers(min_value=-2, max_value=2))
        spans = [(-40, 40)] + spans[1:-1] + [(pinned, pinned)]

    def entry():
        if big and rng.random() < 0.3:
            return rng.choice((1, -1)) * rng.randint(2**70, 2**72)
        return rng.choice((-3, -2, -1, 1, 2, 3))

    terms = {}
    for _ in range(n_terms):
        vector = tuple(rng.randint(lo, hi) for lo, hi in spans)
        residue = rng.randrange(4)
        slots = rng.sample(range(-4, 5), rng.randint(1, q_terms))
        terms[vector] = QCoefficient(
            {4 * s + (rng.randrange(4) if mixed and rng.random() < 0.3 else residue): entry() for s in slots}
        )
    return TorusElement(rank, terms)


@pytest.mark.parametrize("name", PACKED_PAIRS)
@settings(deadline=None)
@given(data=st.data())
def test_packed_product_equals_the_per_pair_product(name, data):
    pair, rank = PACKED_PAIRS[name]
    a, b = data.draw(packed_elements(rank)), data.draw(packed_elements(rank))
    assert _same(torus_mul(a, b, pair), reference_torus_mul(a, b, pair))


@pytest.mark.parametrize("name", PACKED_PAIRS)
@settings(deadline=None)
@given(data=st.data())
def test_packed_division_equals_the_per_pair_division(name, data):
    pair, rank = PACKED_PAIRS[name]
    a, c = data.draw(packed_elements(rank)), data.draw(packed_elements(rank))
    product = reference_torus_mul(a, c, pair)
    quotient = div_exact_right(product, c, pair)
    assert _same(quotient, reference_div_exact_right(product, c, pair))
    assert quotient == a


@pytest.mark.parametrize("name", PACKED_PAIRS)
@settings(deadline=None)
@given(data=st.data())
def test_packed_division_fails_like_the_per_pair_division(name, data):
    pair, rank = PACKED_PAIRS[name]
    a, c = data.draw(packed_elements(rank)), data.draw(packed_elements(rank))
    extra = data.draw(packed_elements(rank))
    perturbed = reference_torus_mul(a, c, pair) + extra
    assert _division_outcome(div_exact_right, perturbed, c, pair) == _division_outcome(
        reference_div_exact_right, perturbed, c, pair
    )


@pytest.mark.parametrize("name", PACKED_PAIRS)
@settings(deadline=None)
@given(data=st.data())
def test_adopted_packed_results_are_well_formed(name, data):
    # terms share keys, so some sums cancel to zero and must be dropped
    pair, rank = PACKED_PAIRS[name]
    a, c = data.draw(packed_elements(rank)), data.draw(packed_elements(rank))
    product = torus_mul(a, c, pair)
    assert well_formed(product, rank)
    assert well_formed(div_exact_right(product, c, pair), rank)
    assert well_formed(torus_mul(a - c, a + c, pair), rank)


FLAT2 = CompatiblePair(b_tilde=(), lam=((0, 0), (0, 0)), d=())


def flat(rows):
    return TorusElement(2, {g: QCoefficient(coeffs) for g, coeffs in rows.items()})


def _recording_relayout(monkeypatch):
    layouts = []
    real = torus._relayout

    def record(remainder, old, new):
        layouts.append((old, new))
        return real(remainder, old, new)

    monkeypatch.setattr(torus, "_relayout", record)
    return layouts


def test_division_refines_the_stride_when_a_residue_does_not_fit(monkeypatch):
    layouts = _recording_relayout(monkeypatch)
    # Every coefficient of a and c has gaps of 4, so the remainder starts at
    # stride 4.  At X^(1,1) the products by X^(1,1) and X^(1,0) cancel, but
    # the first of them lands on the residue 0 while a holds q^(1/2) + q^(5/2).
    b = flat({(1, 1): {0: 1}, (1, 0): {0: -1}, (0, 1): {1: 1}})
    c = flat({(0, 0): {0: 1}, (0, 1): {0: 1}, (1, 0): {0: 1, 4: 1}})
    a = torus_mul(b, c, FLAT2)
    assert a.terms[(1, 1)] == QCoefficient({1: 1, 5: 1})
    assert _same(div_exact_right(a, c, FLAT2), reference_div_exact_right(a, c, FLAT2))
    assert div_exact_right(a, c, FLAT2) == b
    assert layouts[0] == ((4, 8), (1, 8))


def test_division_widens_the_digits_when_the_bound_reaches_the_sign_bit(monkeypatch):
    layouts = _recording_relayout(monkeypatch)
    # max|a| = 2^70 gets 72-bit digits; the first step adds 2^68 * 4 to the
    # bound, which then reaches 2^71.
    b = flat({(1, 0): {0: 2**68}})
    c = flat({(1, 0): {0: 1}, (0, 0): {0: 4}})
    a = torus_mul(b, c, FLAT2)
    assert _same(div_exact_right(a, c, FLAT2), reference_div_exact_right(a, c, FLAT2))
    assert div_exact_right(a, c, FLAT2) == b
    assert layouts[0] == ((1, 72), (1, 144))


def test_each_coefficient_is_packed_once_per_product(monkeypatch):
    # Ten terms along a line: 100 term pairs land on 19 keys.
    a = TorusElement(3, {(i, 0, 0): QCoefficient({0: i + 1, 2: -1, 6: 2**66}) for i in range(10)})
    b = TorusElement(3, {(i, 1, 0): QCoefficient({-2: 3, 0: 1 - i, 4: 5}) for i in range(10)})
    packs, unpacks = [], []
    real_pack, real_unpack = torus._pack, torus._unpack
    monkeypatch.setattr(torus, "_pack", lambda *args: packs.append(args) or real_pack(*args))
    monkeypatch.setattr(torus, "_unpack", lambda *args: unpacks.append(args) or real_unpack(*args))
    product = torus_mul(a, b, PAIR3)
    # the per-pair form packed 2 * 10 * 10 = 200 times
    assert len(packs) <= len(a.terms) + len(b.terms)
    assert len(unpacks) <= len(product.terms) == 19
    assert _same(product, reference_torus_mul(a, b, PAIR3))
    # a square packs each coefficient once for both of its sides
    packs.clear()
    square = torus_mul(a, a, PAIR3)
    assert len(packs) <= len(a.terms)
    assert _same(square, reference_torus_mul(a, a, PAIR3))


@pytest.mark.parametrize(
    "bound, bits",
    [(0, 8), (127, 8), (128, 16), (2**15 - 1, 16), (2**15, 32), (2**31 - 1, 32), (2**31, 64),
     (2**63 - 1, 64), (2**63, 72), (2**71 - 1, 72), (2**71, 80)],
)
def test_digit_widths_are_machine_words_up_to_64_bits_then_whole_bytes(bound, bits):
    assert torus._digit_bits(bound) == bits


def _layout_cases():
    """Digits at the edge of each width: length 1, stride 3 and stride 1 with an empty digit."""
    for bits in (8, 16, 32, 64, 72, 144):
        top = (1 << (bits - 1)) - 1
        yield bits, 1, {0: top}
        yield bits, 1, {0: -top}
        yield bits, 3, {-3: top, 0: -top, 6: 1, 9: -1}
        yield bits, 1, {5: -top, 6: top, 7: -1, 9: top}


@pytest.mark.parametrize("little", (True, False), ids=("native", "byte path"))
@pytest.mark.parametrize("bits, stride, coeffs", list(_layout_cases()))
def test_pack_and_unpack_match_the_reference_layout(bits, stride, coeffs, little, monkeypatch):
    monkeypatch.setattr(torus, "_LITTLE", little)
    lo = min(coeffs)
    length = (max(coeffs) - lo) // stride + 1
    packed = torus._pack(coeffs, lo, stride, bits)
    assert packed == reference_pack(coeffs, lo, stride, length, bits)
    assert reference_unpack(packed, lo, stride, length, bits) == coeffs
    assert torus._unpack(packed, lo, stride, bits, length) == coeffs
    # division reads a remainder's length from its bit length, which may count one digit more
    assert torus._unpack(packed, lo, stride, bits, length + 1) == coeffs


@pytest.mark.parametrize("name", PACKED_PAIRS)
@pytest.mark.parametrize(
    "test",
    [test_packed_product_equals_the_per_pair_product, test_packed_division_equals_the_per_pair_division],
    ids=("product", "division"),
)
def test_the_byte_path_equals_the_per_pair_forms(test, name, monkeypatch):
    # as on a big-endian host: no digit goes through an array
    monkeypatch.setattr(torus, "_LITTLE", False)
    monkeypatch.setattr(torus, "array", None)
    test(name)
