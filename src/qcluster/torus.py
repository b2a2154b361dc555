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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
        out: dict[int, int] = {}
        for t1, c1 in self.coeffs.items():
            for t2, c2 in other.coeffs.items():
                t = t1 + t2
                out[t] = out.get(t, 0) + c1 * c2
        return QCoefficient(out)

    def shifted(self, twice: int) -> "QCoefficient":
        """Multiply by q^(twice/2)."""
        return QCoefficient({t + twice: c for t, c in self.coeffs.items()})

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
        """Return self/other when the quotient is again integral, else None."""
        if other.is_zero():
            raise ZeroDivisionError("division of q-coefficients by zero")
        if self.is_zero():
            return QCoefficient.zero()
        lo_n, hi_n = self.min_twice(), self.max_twice()
        lo_d, hi_d = other.min_twice(), other.max_twice()
        deg_q = (hi_n - lo_n) - (hi_d - lo_d)
        if deg_q < 0:
            return None
        num = [Fraction(self.coeffs.get(lo_n + i, 0)) for i in range(hi_n - lo_n + 1)]
        den = [Fraction(other.coeffs.get(lo_d + i, 0)) for i in range(hi_d - lo_d + 1)]
        quo = [Fraction(0)] * (deg_q + 1)
        lead = den[-1]
        for i in range(deg_q, -1, -1):
            c = num[i + len(den) - 1] / lead
            quo[i] = c
            if c:
                for j, dcoef in enumerate(den):
                    num[i + j] -= c * dcoef
        if any(num):
            return None
        if any(c.denominator != 1 for c in quo):
            return None
        offset = lo_n - lo_d
        return QCoefficient({offset + i: int(c) for i, c in enumerate(quo) if c})

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

    def lambda_of(self, g: Sequence[int], h: Sequence[int]) -> int:
        """The skew form L(g, h) = g . lam . h."""
        total = 0
        for i, gi in enumerate(g):
            if gi:
                row = self.lam[i]
                total += gi * sum(row[j] * hj for j, hj in enumerate(h) if hj)
        return total


def torus_mul(a: TorusElement, b: TorusElement, pair: CompatiblePair) -> TorusElement:
    """Product in the quantum torus twisted by ``pair.lam``."""
    a._check_rank(b)
    out: dict[tuple, QCoefficient] = {}
    for g, cg in a.terms.items():
        for h, ch in b.terms.items():
            key = vec_add(g, h)
            contrib = (cg * ch).shifted(pair.lambda_of(g, h))
            out[key] = out.get(key, QCoefficient.zero()) + contrib
    return TorusElement(a.rank, out)


def torus_pow(a: TorusElement, k: int, pair: CompatiblePair) -> TorusElement:
    if k < 0:
        raise ValueError("torus_pow only supports nonnegative powers")
    result = TorusElement.unit(a.rank)
    for _ in range(k):
        result = torus_mul(result, a, pair)
    return result


_DIV_ITERATION_CAP = 10000


def div_exact_right(a: TorusElement, c: TorusElement, pair: CompatiblePair) -> TorusElement:
    """Solve ``b * c = a`` by leading-term elimination in lex order.

    Raises :class:`NonExactDivision` if no exact quotient exists.  Lex
    order is translation invariant, so the product of leading (resp.
    trailing) terms is the leading (resp. trailing) term of the product;
    both ends give cheap impossibility checks.
    """
    if c.is_zero():
        raise ZeroDivisionError("division by the zero element")
    if a.is_zero():
        return TorusElement.zero(a.rank)
    a._check_rank(c)
    g_c = c.leading_vector()
    gamma_c = c.terms[g_c]
    floor = tuple(x - y for x, y in zip(a.trailing_vector(), c.trailing_vector()))
    remainder = a
    quotient: dict[tuple, QCoefficient] = {}
    for _ in range(_DIV_ITERATION_CAP):
        if remainder.is_zero():
            return TorusElement(a.rank, quotient)
        g_a = remainder.leading_vector()
        g_b = tuple(x - y for x, y in zip(g_a, g_c))
        if g_b < floor:
            raise NonExactDivision(f"no quotient term can reach {g_a}")
        # (gamma_b X^g_b)(gamma_c X^g_c) must produce the current lead.
        gamma_b = remainder.terms[g_a].shifted(-pair.lambda_of(g_b, g_c)).divide_exact(gamma_c)
        if gamma_b is None:
            raise NonExactDivision(f"coefficient at {g_a} is not divisible")
        quotient[g_b] = gamma_b
        piece = TorusElement(a.rank, {g_b: gamma_b})
        remainder = remainder - torus_mul(piece, c, pair)
    raise NonExactDivision("iteration cap exceeded")


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
