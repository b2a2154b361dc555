"""Exact arithmetic in a based quantum torus.

The torus is the Laurent ring generated by ``X^g`` for lattice vectors
``g`` of a fixed rank, over integer Laurent polynomials in ``q^(1/2)``,
with multiplication twisted by a skew form::

    X^g * X^h = q^(L(g,h)/2) * X^(g+h)

where ``L`` is given by an integer skew-symmetric matrix.  All exponents
of ``q^(1/2)`` are stored doubled ("twice" units) so every quantity in
sight is a plain Python ``int`` and no floats ever appear.

A :class:`CompatiblePair` packages the skew matrix together with an
extended exchange matrix whose columns it must pair into ``-[D; 0]``.

Coefficient products use Kronecker substitution.  A factor with one term
is a shift and a scaling.  Otherwise q^(1/2) is mapped to ``2^bits``:
each factor becomes one Python int whose base-``2^bits`` digits are its
coefficients, read at the gcd of its exponent gaps (the stride), so the
product of the two ints carries every coefficient of the product.  No
product coefficient exceeds max|a| * max|b| * (fewer terms) in absolute
value, so ``bits`` is that bound's bit length plus a sign bit, rounded up
to whole bytes.  Adding ``2^(bits-1)`` to each digit of the product makes
all digits nonnegative; ``to_bytes`` then cuts them apart exactly.

Right division by an element ``c`` eliminates the leading term of the
remainder in lex order, updating the remainder in place.  Since the
torus is a domain, every exponent of an exact quotient lies in the box
``[min_i(a) - min_i(c), max_i(a) - max_i(c)]`` per coordinate; a step
outside it proves the division inexact, and the strictly decreasing
quotient exponents inside the finite box bound the number of steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import (
    NonExactDivision,
    NonPositiveD,
    NotCompatible,
    NotNormalizable,
    NotSkew,
)

__all__ = [
    "HalfInteger",
    "LatticeVector",
    "QCoefficient",
    "TorusElement",
    "CompatiblePair",
    "check_compatible",
    "torus_mul",
    "torus_pow",
    "div_exact_right",
    "bar",
    "bar_normalize",
    "cluster_monomial",
]

LatticeVector = tuple  # tuple[int, ...]; kept loose so literals stay light


def vec_add(g: Sequence[int], h: Sequence[int]) -> tuple:
    return tuple(a + b for a, b in zip(g, h, strict=True))


def vec_neg(g: Sequence[int]) -> tuple:
    return tuple(-a for a in g)


@dataclass(frozen=True, order=True)
class HalfInteger:
    """An element of (1/2)Z stored as twice its value."""

    twice: int

    def __add__(self, other: "HalfInteger") -> "HalfInteger":
        return HalfInteger(self.twice + other.twice)

    def __sub__(self, other: "HalfInteger") -> "HalfInteger":
        return HalfInteger(self.twice - other.twice)

    def __neg__(self) -> "HalfInteger":
        return HalfInteger(-self.twice)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _q_power_str(twice: int) -> str:
    """Render q^(twice/2); empty string for the trivial power."""
    if twice == 0:
        return ""
    if twice == 2:
        return "q"
    if twice % 2 == 0:
        return f"q^{twice // 2}"
    return f"q^{{{twice}/2}}"


def _pack(coeffs: Mapping[int, int], lo: int, stride: int, length: int, bits: int) -> int:
    """Evaluate sum c * x^((t - lo) / stride) at x = 2^bits; digits may be negative."""
    dense = [0] * length
    for t, c in coeffs.items():
        dense[(t - lo) // stride] = c
    packed = 0
    for c in reversed(dense):
        packed = (packed << bits) + c
    return packed


def _kronecker_product(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The product of two q-polynomials of at least two terms each.

    Both are packed into one integer each (see the module docstring), so
    a single big-int multiplication does the whole convolution.
    """
    lo_a, lo_b = min(a), min(b)
    # Exponents that share a residue class only need every stride-th digit.
    stride = gcd(*[t - lo_a for t in a], *[t - lo_b for t in b])
    len_a = (max(a) - lo_a) // stride + 1
    len_b = (max(b) - lo_b) // stride + 1
    n = len_a + len_b - 1
    # No product coefficient exceeds bound in absolute value; one more bit holds the sign.
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    bits = 8 * width
    half = 1 << (bits - 1)
    product = _pack(a, lo_a, stride, len_a, bits) * _pack(b, lo_b, stride, len_b, bits)
    # Adding half to every digit makes each one nonnegative, so digits never borrow.
    biased = product + int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = biased.to_bytes(n * width, "little")
    from_bytes = int.from_bytes
    digits = [from_bytes(raw[i : i + width], "little") for i in range(0, n * width, width)]
    lo = lo_a + lo_b
    return {t: d - half for t, d in zip(range(lo, lo + stride * n, stride), digits) if d != half}


class QCoefficient:
    """Integer Laurent polynomial in q^(1/2), exponents in twice units."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None) -> None:
        self.coeffs = {t: c for t, c in (coeffs or {}).items() if c != 0}

    @staticmethod
    def zero() -> "QCoefficient":
        return QCoefficient()

    @staticmethod
    def one() -> "QCoefficient":
        return QCoefficient({0: 1})

    @staticmethod
    def q_power(twice: int, coeff: int = 1) -> "QCoefficient":
        return QCoefficient({twice: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: 1}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QCoefficient):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "QCoefficient") -> "QCoefficient":
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, 0) + c
        return QCoefficient(out)

    def __neg__(self) -> "QCoefficient":
        return QCoefficient({t: -c for t, c in self.coeffs.items()})

    def __sub__(self, other: "QCoefficient") -> "QCoefficient":
        return self + (-other)

    def __mul__(self, other: "QCoefficient") -> "QCoefficient":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QCoefficient()
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            ((t0, c0),) = b.items()
            return QCoefficient._wrap({t + t0: c * c0 for t, c in a.items()})
        return QCoefficient._wrap(_kronecker_product(a, b))

    @staticmethod
    def _wrap(coeffs: dict) -> "QCoefficient":
        """Adopt a dict that already holds no zero coefficient, without copying."""
        out = object.__new__(QCoefficient)
        out.coeffs = coeffs
        return out

    def shifted(self, twice: int) -> "QCoefficient":
        """Multiply by q^(twice/2)."""
        return QCoefficient._wrap({t + twice: c for t, c in self.coeffs.items()})

    def bar(self) -> "QCoefficient":
        return QCoefficient({-t: c for t, c in self.coeffs.items()})

    def min_twice(self) -> int:
        return min(self.coeffs)

    def max_twice(self) -> int:
        return max(self.coeffs)

    def at_q_one(self) -> int:
        return sum(self.coeffs.values())

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def divide_exact(self, other: "QCoefficient") -> "QCoefficient | None":
        """Return self/other when the quotient is again integral, else None.

        Long division over the integers: the first quotient coefficient
        that the leading coefficient of ``other`` does not divide ends it.
        """
        if other.is_zero():
            raise ZeroDivisionError("division of q-coefficients by zero")
        if self.is_zero():
            return QCoefficient.zero()
        lo_n, hi_n = self.min_twice(), self.max_twice()
        lo_d, hi_d = other.min_twice(), other.max_twice()
        deg_q = (hi_n - lo_n) - (hi_d - lo_d)
        if deg_q < 0:
            return None
        num = [self.coeffs.get(lo_n + i, 0) for i in range(hi_n - lo_n + 1)]
        den = [other.coeffs.get(lo_d + i, 0) for i in range(hi_d - lo_d + 1)]
        quo = [0] * (deg_q + 1)
        lead = den[-1]
        for i in range(deg_q, -1, -1):
            c, r = divmod(num[i + len(den) - 1], lead)
            if r:
                return None
            quo[i] = c
            if c:
                for j, dcoef in enumerate(den):
                    num[i + j] -= c * dcoef
        if any(num):
            return None
        offset = lo_n - lo_d
        return QCoefficient({offset + i: c for i, c in enumerate(quo)})

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for t in sorted(self.coeffs):
            c = self.coeffs[t]
            qs = _q_power_str(t)
            if not qs:
                parts.append(str(c))
            elif c == 1:
                parts.append(qs)
            elif c == -1:
                parts.append(f"-{qs}")
            else:
                parts.append(f"{c}{qs}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"QCoefficient({self.coeffs!r})"


class TorusElement:
    """Finite sum of terms ``coeff * X^g`` with a fixed lattice rank."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[tuple, QCoefficient] | None = None) -> None:
        self.rank = rank
        self.terms: dict[tuple, QCoefficient] = {}
        for g, c in (terms or {}).items():
            if len(g) != rank:
                raise ValueError(f"vector {g} has length {len(g)}, expected {rank}")
            if not c.is_zero():
                self.terms[tuple(g)] = c

    @staticmethod
    def zero(rank: int) -> "TorusElement":
        return TorusElement(rank)

    @staticmethod
    def monomial(g: Sequence[int], q_twice: int = 0, coeff: int = 1) -> "TorusElement":
        g = tuple(g)
        return TorusElement(len(g), {g: QCoefficient.q_power(q_twice, coeff)})

    @staticmethod
    def unit(rank: int) -> "TorusElement":
        return TorusElement(rank, {(0,) * rank: QCoefficient.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.rank, frozenset((g, c) for g, c in self.terms.items())))

    def __add__(self, other: "TorusElement") -> "TorusElement":
        self._check_rank(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, QCoefficient.zero()) + c
        return TorusElement(self.rank, out)

    def __neg__(self) -> "TorusElement":
        return TorusElement(self.rank, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-other)

    def shifted(self, twice: int) -> "TorusElement":
        """Multiply by the central scalar q^(twice/2)."""
        return TorusElement(self.rank, {g: c.shifted(twice) for g, c in self.terms.items()})

    def scaled(self, k: int) -> "TorusElement":
        return TorusElement(self.rank, {g: c * QCoefficient({0: k}) for g, c in self.terms.items()})

    def _check_rank(self, other: "TorusElement") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def sorted_terms(self) -> list[tuple[tuple, QCoefficient]]:
        """Terms in the canonical display order: lex-descending vectors."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def leading_vector(self) -> tuple:
        if self.is_zero():
            raise ValueError("zero element has no leading term")
        return max(self.terms)

    def trailing_vector(self) -> tuple:
        if self.is_zero():
            raise ValueError("zero element has no trailing term")
        return min(self.terms)

    def coefficients_nonnegative(self) -> bool:
        return all(c.is_nonnegative() for c in self.terms.values())

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        zero_vec = (0,) * self.rank
        parts = []
        for g, c in self.sorted_terms():
            mono = "" if g == zero_vec else "X[(" + ",".join(str(a) for a in g) + ")]"
            cs = str(c)
            if not mono:
                parts.append(f"({cs})" if len(c.coeffs) > 1 else cs)
            elif c.is_one():
                parts.append(mono)
            elif len(c.coeffs) > 1:
                parts.append(f"({cs}) {mono}")
            else:
                parts.append(f"{cs} {mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<TorusElement {self}>"


def _as_rows(mat: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in mat)


def _rank_of(mat: Sequence[Sequence[int]]) -> int:
    """Rank over Q by fraction-exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in mat]
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


def check_compatible(b_tilde: Sequence[Sequence[int]], lam: Sequence[Sequence[int]]) -> tuple:
    """Verify the pair and return the positive diagonal ``d`` as a tuple.

    ``b_tilde`` is m x n (rows indexed by all arcs, columns by mutable
    arcs, which occupy the first ``n`` rows); ``lam`` is the m x m skew
    matrix.  The product ``lam @ b_tilde`` must equal ``-[diag(d); 0]``.
    """
    b = _as_rows(b_tilde)
    l = _as_rows(lam)
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


@dataclass(frozen=True)
class CompatiblePair:
    """A validated pair (b_tilde, lambda) with its diagonal d."""

    b_tilde: tuple
    lam: tuple
    d: tuple

    @staticmethod
    def create(b_tilde: Sequence[Sequence[int]], lam: Sequence[Sequence[int]]) -> "CompatiblePair":
        b = _as_rows(b_tilde)
        l = _as_rows(lam)
        d = check_compatible(b, l)
        return CompatiblePair(b, l, d)

    @property
    def m(self) -> int:
        return len(self.lam)

    @property
    def n(self) -> int:
        return len(self.b_tilde[0])

    def twist_row(self, g: Sequence[int]) -> list[int]:
        """The row vector g . lam; its dot product with h is the skew form L(g, h)."""
        row = [0] * len(self.lam)
        for gi, lam_row in zip(g, self.lam):
            if gi:
                row = [r + gi * x for r, x in zip(row, lam_row)]
        return row


def _add_shifted(acc: dict[int, int], coeffs: Mapping[int, int], twice: int) -> None:
    """Add q^(twice/2) * coeffs into acc in place, leaving no zero entry."""
    for t, c in coeffs.items():
        t += twice
        c += acc.get(t, 0)
        if c:
            acc[t] = c
        else:
            del acc[t]


def torus_mul(a: TorusElement, b: TorusElement, pair: CompatiblePair) -> TorusElement:
    """Product in the quantum torus twisted by ``pair.lam``."""
    a._check_rank(b)
    out: dict[tuple, dict[int, int]] = {}
    for g, cg in a.terms.items():
        row = pair.twist_row(g)
        for h, ch in b.terms.items():
            acc = out.setdefault(vec_add(g, h), {})
            _add_shifted(acc, (cg * ch).coeffs, sum(map(mul, row, h)))
    return TorusElement(a.rank, {key: QCoefficient._wrap(acc) for key, acc in out.items()})


def torus_pow(a: TorusElement, k: int, pair: CompatiblePair) -> TorusElement:
    if k < 0:
        raise ValueError("torus_pow only supports nonnegative powers")
    result = TorusElement.unit(a.rank)
    for _ in range(k):
        result = torus_mul(result, a, pair)
    return result


def div_exact_right(a: TorusElement, c: TorusElement, pair: CompatiblePair) -> TorusElement:
    """Solve ``b * c = a`` by leading-term elimination in lex order.

    Raises :class:`NonExactDivision` if no exact quotient exists.  The
    torus is a domain, so the coordinatewise extremes of a product are the
    sums of those of its factors: if ``a = b * c``, coordinate i of every
    exponent of ``b`` lies in ``[min_i(a) - min_i(c), max_i(a) - max_i(c)]``.
    A quotient exponent outside that box proves that no quotient exists.
    Each step removes the leading term of the remainder and adds only
    terms below it, so the quotient exponents strictly decrease in lex
    order.  The box holds finitely many vectors, so the loop ends.
    """
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
    quotient: dict[tuple, QCoefficient] = {}
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
        # (gamma_b X^g_b)(gamma_c X^g_c) must produce the current lead.
        gamma_b = QCoefficient._wrap(remainder[g_a]).shifted(-sum(map(mul, row, g_c)))
        gamma_b = gamma_b.divide_exact(gamma_c)
        if gamma_b is None:
            raise NonExactDivision(f"coefficient at {g_a} is not divisible")
        quotient[g_b] = gamma_b
        # remainder -= (gamma_b X^g_b) * c, term by term and in place.
        minus_b = -gamma_b
        for h, ch in c.terms.items():
            key = vec_add(g_b, h)
            acc = remainder.setdefault(key, {})
            _add_shifted(acc, (minus_b * ch).coeffs, sum(map(mul, row, h)))
            if not acc:
                del remainder[key]
    return TorusElement(a.rank, quotient)


def bar(a: TorusElement) -> TorusElement:
    """The involution fixing every X^g and sending q^(1/2) to its inverse.

    It reverses products: bar(ab) = bar(b) bar(a).
    """
    return TorusElement(a.rank, {g: c.bar() for g, c in a.terms.items()})


def bar_normalize(a: TorusElement) -> tuple[HalfInteger, TorusElement]:
    """Write ``a = q^lam * e`` with ``bar(e) = e``; return ``(lam, e)``.

    Every nonzero coefficient must be palindromic about one common
    center.  Raises :class:`NotNormalizable` otherwise (or on zero).
    """
    if a.is_zero():
        raise NotNormalizable("zero element has no bar normalization")
    center: int | None = None
    for g, coeff in a.terms.items():
        lo, hi = coeff.min_twice(), coeff.max_twice()
        if (lo + hi) % 2 != 0:
            raise NotNormalizable(f"support of coefficient at {g} has no half-integer center")
        c = (lo + hi) // 2
        if center is None:
            center = c
        elif center != c:
            raise NotNormalizable(f"coefficient centers disagree: {center} vs {c}")
        for t, value in coeff.coeffs.items():
            if coeff.coeffs.get(2 * c - t) != value:
                raise NotNormalizable(f"coefficient at {g} is not palindromic")
    assert center is not None
    return HalfInteger(center), a.shifted(-center)


def cluster_monomial(
    exponents: Sequence[int],
    variables: Sequence[TorusElement],
    pair: CompatiblePair,
    *,
    base_pair: CompatiblePair | None = None,
) -> TorusElement:
    """Bar-invariant monomial in quasi-commuting cluster variables.

    ``pair`` carries the skew form under which the given variables
    quasi-commute (the current seed's); ``base_pair`` is the ambient
    torus the variables are expanded in, defaulting to ``pair`` (they
    coincide at the initial seed).  The normalization prefactor is
    q^(-1/2 sum_{i<j} a_i a_j lam(e_i, e_j)); with it, the result is
    fixed by bar and independent of the chosen product order.
    """
    if base_pair is None:
        base_pair = pair
    a = [int(x) for x in exponents]
    if len(a) != len(variables):
        raise ValueError("exponent/variable length mismatch")
    if any(x < 0 for x in a):
        raise ValueError("cluster_monomial requires nonnegative exponents")
    twice = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            twice -= a[i] * a[j] * pair.lam[i][j]
    rank = variables[0].rank if variables else pair.m
    result = TorusElement.unit(rank).shifted(twice)
    for x, var in zip(a, variables):
        if x:
            result = torus_mul(result, torus_pow(var, x, base_pair), base_pair)
    return result
