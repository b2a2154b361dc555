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
is a shift and a scaling.  Otherwise q^(1/2) is mapped to ``2^bits``: a
coefficient becomes one Python int whose base-``2^bits`` digits are its
coefficients, read at a common stride (a divisor of every exponent gap),
so the product of two such ints carries every coefficient of the product.
Digits are 8, 16, 32 or 64 bits wide while the bound below fits in a
machine word, and each is then one item of a stdlib ``array``.  Every
digit array is written by :func:`_lanes`, whose memory is read as an int
once, and read by :func:`_digits`.  Packing writes every digit biased by
``2^(bits-1)`` and subtracts that bias per digit; fewer than 32 q-terms
cost less as a sum of shifted digits.  Unpacking adds the same bias to
every digit, so no digit borrows, and reads the int's bytes back into an
array whose items are the biased digits exactly; that needs every digit
to lie strictly between -2^(bits-1) and 2^(bits-1).  Wider digits, in
whole bytes, and every digit on a host that is not little-endian, go
through one byte slice per digit instead.

A torus product packs each coefficient once per call, and a square packs
it once for both sides.  A first pass reads only exponents: the key
``g + h`` of each term pair, as the sum of two mixed-radix codes over a
cube that holds every key, its offset ``lo_g + lo_h + L(g,h)``, the
lowest offset on each key, each key's bound and one stride for the call,
the gcd of every gap inside a coefficient and of every difference between
the offsets that share a key.  A square visits each unordered pair {i, j}
once: (i, j) and (j, i) share the key and the packed product, and their
offsets differ by 2 L(g_i, g_j).  A key's bound sums max|x| * max|y| *
(fewer q-terms) over its pairs, both orders of a square counted; the
largest is the product's bound, and ``bits`` is its bit length plus a
sign bit, rounded up to a machine word or, above 64 bits, to whole bytes.

The first pass takes a row of offsets per term g of ``a``.  Once ``b``
has ``_LANE_TERMS`` terms the row is read from lanes: one int per
coordinate k holds, in lane j, coordinate k of the twist row of term j
of ``b``, so the sum of g_k times those ints holds the twists of g with
every term of ``b`` at once, read out through the same array or byte
path as a coefficient, and the lane width, like a digit's, comes from a
bound.  A shorter ``b`` gives each twist as a dot product.  A pair's key
is one addition of codes, and a code lives only inside the call.  The
second pass adds each pair's packed product, shifted to its offset, into
its key's int; a zero int drops the key, and a kept key is a vector
again.  That packed product, ``{g: (lo, int)}`` with its stride, bits
and bound, is what :func:`torus_mul` unpacks, each key once.  When one
factor has a single term, each pair is multiplied on its own instead.

The torus knows no cluster rule: seed mutation gives each exchange side
as factors and a q-power.  Their product, folded left to right, keeps a
last product of two multi-term factors packed, the q-power added to each
key's ``lo``; the two sides merge in one layout, and the division takes
that numerator as its remainder with no pack step.

Right division by an element ``c`` eliminates the leading term of the
remainder in lex order.  Since the torus is a domain, every exponent of
an exact quotient lies in the box ``[min_i(a) - min_i(c), max_i(a) -
max_i(c)]`` per coordinate; a step outside it proves the division
inexact, and the strictly decreasing quotient exponents inside the
finite box bound the number of steps.  The remainder stays packed, as
(base exponent, int) per key, and ``c`` is packed once per layout.
Inside the call a key is the mixed-radix code of its vector over ``a``'s
box, which holds every key the loop makes while the quotient stays in
its box: the leading key is the largest int, the vector is read back
from it only for the box test, and the key of g_b + h is one addition.
A step's offsets against the terms of ``c`` are one row, read as for a
product.  Each step unpacks only the leading coefficient and subtracts
the quotient coefficient's packed product with each term of ``c``, one
dictionary probe per term; a key whose lowest exponent drops is re-based
by a shift.  Quantum cluster variables are pointed (Berenstein-Zelevinsky
2005), and each divisor that mutation hands over on the bundled surfaces
leads in lex order with one q-power of coefficient 1.  Against a lead
+-q^t, decided once per call, the quotient coefficient is the
remainder's lead shifted and signed, so its packed int is the lead's own
int, negated for -1, read from a shifted ``lo``; nothing is divided or
packed.  Any other lead is divided and the quotient coefficient packed.
A running bound on the remainder's coefficients, max|a| (or a packed
numerator's bound) plus max|gamma| * max|c| * (fewer q-terms) per step,
keeps every digit in range, so ``int == 0`` is an exact zero test.  When
the bound reaches the sign bit, or a quotient coefficient leaves the
stride or a key's residue class, the remainder is laid out again with
wider digits or a finer stride.  Digits widened at the same stride, of
any width, are read as biased digits and written wider, each key keeping
its ``lo``; a changed stride unpacks and repacks each key.  A numerator
handed over packed keeps its layout unless the divisor needs a finer
stride or wider digits.

:func:`bar` builds the conjugate; :func:`is_bar_invariant` answers
``bar(a) == a`` without it, reading each coefficient against itself.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from math import gcd
from itertools import chain, repeat
from operator import add, mul, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DivisionByZero,
    NonExactDivision,
    NonPositiveD,
    NotCompatible,
    NotNormalizable,
    NotSkew,
    OutsideDomain,
    RankMismatch,
)

__all__ = [
    "QCoefficient",
    "TorusElement",
    "CompatiblePair",
    "check_compatible",
    "torus_mul",
    "div_exact_right",
    "bar",
    "is_bar_invariant",
    "bar_normalize",
]


# Machine-word digits go through an array of native unsigned items, whose
# bytes are the little-endian digits only on a little-endian host.
_LITTLE = sys.byteorder == "little"
_TYPECODES = {array(code).itemsize * 8: code for code in "QLIHB"}


def _q_power_str(twice: int) -> str:
    """Render q^(twice/2); empty string for the trivial power."""
    if twice == 0:
        return ""
    if twice == 2:
        return "q"
    if twice % 2 == 0:
        return f"q^{twice // 2}"
    return f"q^{{{twice}/2}}"


def _digit_bits(bound: int) -> int:
    """Digit width for digits of absolute value at most ``bound``.

    The bound's bits plus a sign bit, rounded up to 8, 16, 32 or 64 bits
    while that fits in a machine word, else to whole bytes.
    """
    bits = 8 * (bound.bit_length() // 8 + 1)
    return 1 << (bits - 1).bit_length() if bits <= 64 else bits


def _bias(bits: int, length: int) -> int:
    """The int whose ``length`` base-2^bits digits are each 2^(bits-1)."""
    return int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * length, "little")


def _common_stride(*polys: Mapping[int, int]) -> int:
    """The gcd of every exponent gap inside each polynomial; 0 when all are monomials."""
    stride = 0
    for p in polys:
        lo = min(p)
        stride = gcd(stride, *[t - lo for t in p])
    return stride


def _pack(coeffs: Mapping[int, int], lo: int, stride: int, bits: int) -> int:
    """Evaluate sum c * x^((t - lo) / stride) at x = 2^bits, in linear time.

    From 32 q-terms on, the biased digits c + 2^(bits-1) go through :func:`_lanes`;
    below it a sum of shifted digits costs less (measured 0.4-0.96 of the digit
    array at 8 to 64 bits) and is taken instead.
    """
    if len(coeffs) < 32:
        return sum([c << bits * ((t - lo) // stride) for t, c in coeffs.items()])
    half = 1 << (bits - 1)
    length = (max(coeffs) - lo) // stride + 1
    digits = [half] * length
    for t, c in coeffs.items():
        digits[(t - lo) // stride] = c + half
    return _lanes(digits, bits) - _bias(bits, length)


def _unpack(value: int, lo: int, stride: int, bits: int, length: int) -> dict[int, int]:
    """Invert :func:`_pack` without its zeros; every digit must lie in (-2^(bits-1), 2^(bits-1))."""
    half = 1 << (bits - 1)
    if -half < value < half:  # no digit above the lowest
        return {lo: value} if value else {}
    digits = _digits(value + _bias(bits, length), bits, length)
    return {t: d - half for t, d in zip(range(lo, lo + stride * length, stride), digits) if d != half}


def _digits(value: int, bits: int, length: int) -> Sequence[int]:
    """The ``length`` lowest base-2^bits digits of ``value`` >= 0, lowest first: one array on a
    little-endian host when ``bits`` is a machine word, else one byte slice per digit."""
    width = bits // 8
    raw = value.to_bytes(length * width, "little")
    code = _LITTLE and _TYPECODES.get(bits)
    if code:
        return array(code, raw)
    from_bytes = int.from_bytes
    return [from_bytes(raw[i : i + width], "little") for i in range(0, length * width, width)]


def _lanes(values: Iterable[int], bits: int) -> int:
    """The int whose base-2^bits digits are ``values``, each in [0, 2^bits), lowest first."""
    code = _LITTLE and _TYPECODES.get(bits)
    if code:
        return int.from_bytes(array(code, values), "little")
    return int.from_bytes(b"".join([v.to_bytes(bits // 8, "little") for v in values]), "little")


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
        lo_a, lo_b = min(a), min(b)
        # Exponents that share a residue class only need every stride-th digit.
        stride = _common_stride(a, b)
        bits = _digit_bits(max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b)))
        product = _pack(a, lo_a, stride, bits) * _pack(b, lo_b, stride, bits)
        length = (max(a) - lo_a + max(b) - lo_b) // stride + 1
        return QCoefficient._wrap(_unpack(product, lo_a + lo_b, stride, bits, length))

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
        A divisor with one q-term divides each coefficient on its own.
        """
        if other.is_zero():
            raise DivisionByZero("division of q-coefficients by zero")
        if self.is_zero():
            return QCoefficient.zero()
        if len(other.coeffs) == 1:
            # A single q-term: one shift and one exact quotient per coefficient.
            ((t0, c0),) = other.coeffs.items()
            out = {}
            for t, c in self.coeffs.items():
                c, r = divmod(c, c0)
                if r:
                    return None
                out[t - t0] = c
            return QCoefficient._wrap(out)
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
                raise RankMismatch(f"vector {g} has length {len(g)}, expected {rank}")
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.rank, frozenset((g, c) for g, c in self.terms.items())))

    def __add__(self, other: "TorusElement") -> "TorusElement":
        """Both operands are validated elements of one rank: only shared keys
        are added, and a key whose sum is zero is dropped."""
        self._check_rank(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            total = out[g] + c if g in out else c
            if total.is_zero():
                del out[g]
            else:
                out[g] = total
        return TorusElement._wrap(self.rank, out)

    def __neg__(self) -> "TorusElement":
        return TorusElement._wrap(self.rank, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-other)

    @staticmethod
    def _wrap(rank: int, terms: dict) -> "TorusElement":
        """Adopt a dict of nonzero coefficients keyed by rank-``rank`` tuples, without copying."""
        out = object.__new__(TorusElement)
        out.rank = rank
        out.terms = terms
        return out

    def shifted(self, twice: int) -> "TorusElement":
        """Multiply by the central scalar q^(twice/2)."""
        if not twice:
            return self
        return TorusElement._wrap(self.rank, {g: c.shifted(twice) for g, c in self.terms.items()})

    def _check_rank(self, other: "TorusElement") -> None:
        if self.rank != other.rank:
            raise RankMismatch(f"rank mismatch: {self.rank} vs {other.rank}")

    def sorted_terms(self) -> list[tuple[tuple, QCoefficient]]:
        """Terms in the canonical display order: lex-descending vectors."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def leading_vector(self) -> tuple:
        if self.is_zero():
            raise OutsideDomain("zero element has no leading term")
        return max(self.terms)

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


def check_compatible(b_tilde: Sequence[Sequence[int]], lam: Sequence[Sequence[int]]) -> tuple:
    """Verify the pair and return the positive diagonal ``d`` as a tuple.

    ``b_tilde`` is m x n (rows indexed by all arcs, columns by mutable
    arcs, which occupy the first ``n`` rows); ``lam`` is the m x m skew
    matrix.  The product ``lam @ b_tilde`` must equal ``-[diag(d); 0]``.

    The equation alone is the test (Berenstein-Zelevinsky, *Quantum
    cluster algebras*, 2005): for 0 < n <= m, rank(lam b_tilde) <=
    rank(b_tilde) <= n and ``-[diag(d); 0]`` has rank n, so a ``b_tilde``
    without full column rank fails the equation.
    """
    b, l = _as_rows(b_tilde), _as_rows(lam)
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
        column = [(k, b[k][j]) for k in range(m) if b[k][j]]  # a few nonzeros
        for i in range(m):
            entry = sum(l[i][k] * v for k, v in column)
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
        b, l = _as_rows(b_tilde), _as_rows(lam)
        return CompatiblePair(b, l, check_compatible(b, l))

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


class _Packed(NamedTuple):
    """A rank-``rank`` element with every coefficient packed in one layout: ``{g: (lo, int)}``.

    Each int holds its coefficient's digits from exponent ``lo`` up, every
    ``stride``-th exponent, in ``bits``-bit digits; ``lo`` is in the
    coefficient's residue class mod ``stride`` but need not be its lowest
    exponent.  ``bound`` bounds every coefficient in absolute value.  A
    stride of 0 means every coefficient has one q-term, so each int is a
    single digit and fits any stride.
    """

    rank: int
    terms: dict
    stride: int
    bits: int
    bound: int


def _packed(x: TorusElement, *others: TorusElement, twice: int = 0) -> _Packed:
    """Pack q^(twice/2) ``x`` at a stride and bound that also fit the coefficients of ``others``."""
    coeffs = [cx.coeffs for cx in x.terms.values()]
    more = [cy.coeffs for y in others for cy in y.terms.values()]
    stride = _common_stride(*coeffs, *more)
    bound = max(max(map(abs, p.values())) for p in coeffs + more)
    bits = _digit_bits(bound)
    terms = {g: ((lo := min(p)) + twice, _pack(p, lo, stride or 1, bits)) for g, p in zip(x.terms, coeffs)}
    return _Packed(x.rank, terms, stride, bits, bound)


def _unpacked(x: _Packed) -> TorusElement:
    """The element that ``x`` packs; each int is read back once."""
    stride, bits, terms = x.stride or 1, x.bits, {}
    for g, (lo, value) in x.terms.items():
        terms[g] = QCoefficient._wrap(_unpack(value, lo, stride, bits, value.bit_length() // bits + 1))
    return TorusElement._wrap(x.rank, terms)


def _packed_sum(x: _Packed, y: _Packed) -> _Packed:
    """``x + y`` in one layout, built in ``x.terms``; a key whose sum is zero is dropped.

    The stride also divides the gap between the two ``lo`` of a shared key,
    and the bound is the sum of the two when a key is shared.
    """
    shared = x.terms.keys() & y.terms.keys()
    stride = gcd(x.stride, y.stride, *[x.terms[g][0] - y.terms[g][0] for g in shared])
    bound = x.bound + y.bound if shared else max(x.bound, y.bound)
    bits = _digit_bits(bound)
    _fit(x, stride, bits)
    _fit(y, stride, bits)
    step, terms = stride or 1, x.terms
    for g, (lo, value) in y.terms.items():
        if g not in terms:
            terms[g] = (lo, value)
            continue
        lo_x, value_x = terms[g]
        if lo < lo_x:
            value_x, lo_x = value_x << bits * ((lo_x - lo) // step), lo
        value_x += value << bits * ((lo - lo_x) // step)
        if value_x:
            terms[g] = (lo_x, value_x)
        else:
            del terms[g]
    return _Packed(x.rank, terms, stride, bits, bound)


# Lanes cost a fixed setup per call and save work per term.  A factor with fewer
# terms gives each twist as a dot product.  Measured on one pass of the
# benchmark's recorded products and divisions, best of 25 rounds: lanes on every
# call slow the polygon divisions by 121-129% and the skein products by 14-15%,
# no lanes slow twelve annulus mutation steps by 24-25%, and every cut from 4 to
# 16 terms is within 4% of this one.
_LANE_TERMS = 8


def _places(box: Sequence[tuple[int, int]]) -> list[int]:
    """Place values of a mixed-radix code over ``box``, coordinate 0 the most significant.

    The code ``sum_k x_k * place_k`` is one-to-one on the box, its int order is lex order,
    and the code of ``g + h`` is the sum of the codes of ``g`` and ``h``.
    """
    places, place = [], 1
    for lo, hi in reversed(box):
        places.append(place)
        place *= hi - lo + 1
    places.reverse()
    return places


def _twists(terms: list, lows: list, pair: CompatiblePair, gs: Iterable[Sequence[int]], span: int = 0):
    """The offsets of a factor's terms h_j against a vector g, a row per call: ``(rows, shift)``.

    ``rows(g, base)`` lists base + lows[j] - g . row(h_j) + shift over j, for
    0 <= base <= span and each |g_k| at most the largest |g_k| over ``gs``.
    Below ``_LANE_TERMS`` terms each item is a dot product with row(h_j), and
    ``shift`` is 0.  From it on the row is read from lanes: an int per
    coordinate k holds row(h_j)_k in lane j, so sum_k g_k * lane_k holds every
    twist of g at once.  ``shift`` bounds every |g . row(h_j)|, so no lane is
    negative, and the lane width, as :func:`_digit_bits` gives it, holds the
    widest lane.
    """
    if len(terms) < _LANE_TERMS:
        twists = [pair.twist_row(h) for h in terms]

        def rows(g, base=0):
            return [base + lo - sum(map(mul, g, row)) for lo, row in zip(lows, twists)]

        return rows, 0
    # row(h)_k = sum_l h_l lam_lk, so |row(h)_k| <= sum_l max|h_l| |lam_lk|.
    cols, lam_cols, count, low = list(zip(*terms)), list(zip(*pair.lam)), len(terms), min(lows)
    reach = [max(map(abs, col)) for col in zip(*gs)]
    tops = [max(max(col), -min(col)) for col in cols]
    cross = sum(r * sum(map(mul, tops, map(abs, column))) for r, column in zip(reach, lam_cols))
    width = _digit_bits(max(span + max(lows) - low + 2 * cross, 2 * max(tops)))
    ones = _bias(width, count) >> (width - 1)
    coords = [_lanes(map(sub, col, repeat(min(col))), width) + min(col) * ones for col in cols]
    lanes = [(k, sum(map(mul, column, coords))) for k, (r, column) in enumerate(zip(reach, lam_cols)) if r]
    head = _lanes([lo - low + cross for lo in lows], width)

    def rows(g, base=0):
        return _digits(base * ones + head - sum(g[k] * lane for k, lane in lanes), width, count)

    return rows, cross - low


def _mul_packed(a: TorusElement, b: TorusElement, pair: CompatiblePair, twice: int = 0) -> _Packed:
    """q^(twice/2) times the product :func:`torus_mul` takes, each coefficient packed and none unpacked.

    A pass over the term pairs reads only exponents.  A pair's key is the sum of
    its terms' mixed-radix codes over the cube [-top, top]^rank, which holds every
    key, and its offset lo_i + lo_j - g_i . row(g_j) comes from :func:`_twists`, a
    row per term of ``a``.  For a square (``a is b``) the pairs (i, j) and (j, i)
    share the key and the packed product, and the offset of (j, i) mirrors that
    of (i, j) about lo_i + lo_j, so each unordered pair is visited once.  A key's
    bound sums max|x| * max|y| * (fewer q-terms) over its pairs, both orders of a
    square counted.  The packed product is keyed by vectors.
    """
    square = a is b
    terms_a, terms_b = list(a.terms), list(b.terms)
    coeffs_a = [cg.coeffs for cg in a.terms.values()]
    coeffs_b = coeffs_a if square else [ch.coeffs for ch in b.terms.values()]
    lows_a = [min(x) for x in coeffs_a]
    lows_b = lows_a if square else [min(x) for x in coeffs_b]
    tops_a = [max(map(abs, x.values())) for x in coeffs_a]
    tops_b = tops_a if square else [max(map(abs, x.values())) for x in coeffs_b]
    sizes_a = [len(x) for x in coeffs_a]
    sizes_b = sizes_a if square else [len(x) for x in coeffs_b]
    stride = _common_stride(*coeffs_a, *([] if square else coeffs_b))
    low = min(lows_a)
    rows, shift = _twists(terms_b, lows_b, pair, terms_a, max(lows_a) - low)
    top_a = max(map(abs, chain.from_iterable(terms_a)))
    top = top_a + (top_a if square else max(map(abs, chain.from_iterable(terms_b))))
    places = _places([(-top, top)] * a.rank)
    codes_a = [sum(map(mul, g, places)) for g in terms_a]
    side_b = list(zip(codes_a if square else [sum(map(mul, h, places)) for h in terms_b], lows_b, tops_b, sizes_b))
    # Pass 1, exponents only: per key its lowest offset, its bound and its pairs.
    keys: dict = {}
    for i, (g, code_g, lo_g, top_g, size_g) in enumerate(zip(terms_a, codes_a, lows_a, tops_a, sizes_a)):
        row = rows(g, lo_g - low)
        for j in range(i if square else 0, len(side_b)):
            code_h, lo_h, top_h, size_h = side_b[j]
            offset, weight = row[j], top_g * top_h * (size_g if size_g < size_h else size_h)
            if square and j > i:  # (j, i): 2 L(g, h) above (i, j), on the same key
                mirror, weight = 2 * (lo_g + lo_h - low + shift) - offset, 2 * weight
            else:
                mirror = offset
            entry = keys.get(code_g + code_h)
            if entry is None:
                entry = keys[code_g + code_h] = [offset, 0, []]
            lo = entry[0]
            stride = gcd(stride, offset - lo, mirror - lo)
            if offset < lo or mirror < lo:
                entry[0] = min(offset, mirror)
            entry[1] += weight
            entry[2].append((i, j, offset, mirror))
    bound = max(entry[1] for entry in keys.values())
    step = stride or 1
    bits = _digit_bits(bound)
    # Pass 2: pack each coefficient once, sum packed products per key.
    packed_a = [_pack(x, lo, step, bits) for x, lo in zip(coeffs_a, lows_a)]
    packed_b = packed_a if square else [_pack(x, lo, step, bits) for x, lo in zip(coeffs_b, lows_b)]
    origin, terms = low + twice - shift, {}
    for lo, _, pairs in keys.values():
        acc = 0
        for i, j, offset, mirror in pairs:
            product_ij = packed_a[i] * packed_b[j]
            acc += product_ij << bits * ((offset - lo) // step)
            if square and i != j:
                acc += product_ij << bits * ((mirror - lo) // step)
        if acc:  # the key's vector: that of its first pair
            terms[tuple(map(add, terms_a[pairs[0][0]], terms_b[pairs[0][1]]))] = (lo + origin, acc)
    return _Packed(a.rank, terms, stride, bits, bound)


def torus_mul(a: TorusElement, b: TorusElement, pair: CompatiblePair) -> TorusElement:
    """Product in the quantum torus twisted by ``pair.lam``.

    The twist of a term pair reads the right term's row, computed once per
    call: L(g, h) = -g . row(h), since lam is skew.
    """
    a._check_rank(b)
    if len(a.terms) <= 1 or len(b.terms) <= 1:
        # Every pair lands on its own key; a monomial factor shifts and scales.
        rows_b = [pair.twist_row(h) for h in b.terms]
        out = {}
        for g, cg in a.terms.items():
            for (h, ch), row in zip(b.terms.items(), rows_b):
                out[tuple(map(add, g, h))] = (cg * ch).shifted(-sum(map(mul, g, row)))
        return TorusElement._wrap(a.rank, out)
    return _unpacked(_mul_packed(a, b, pair))


def _packed_product(factors: Sequence[TorusElement], pair: CompatiblePair, twice: int) -> _Packed:
    """q^(twice/2) times the product of ``factors``, left to right, packed.

    Every product but the last is an element.  A last product of two
    multi-term factors stays packed; x^2 repeats one object, so it squares.
    """
    *first, last = factors
    if not first:
        return _packed(last, twice=twice)
    left = first[0]
    for x in first[1:]:
        left = torus_mul(left, x, pair)
    if len(left.terms) > 1 and len(last.terms) > 1:
        return _mul_packed(left, last, pair, twice)
    # A one-term side (x3 x4 on the annulus) takes torus_mul's per-pair branch, the
    # only caller of QCoefficient.__mul__ on annulus_mutate: the tracer's torus.qcoeff_mul.
    return _packed(torus_mul(left, last, pair), twice=twice)


def div_exact_right(a: TorusElement | _Packed, c: TorusElement, pair: CompatiblePair) -> TorusElement:
    """Solve ``b * c = a`` by leading-term elimination in lex order.

    Raises :class:`NonExactDivision` if no exact quotient exists.  The
    torus is a domain, so the coordinatewise extremes of a product are the
    sums of those of its factors: if ``a = b * c``, coordinate i of every
    exponent of ``b`` lies in ``[min_i(a) - min_i(c), max_i(a) - max_i(c)]``.
    A quotient exponent outside that box proves that no quotient exists.
    Each step removes the leading term of the remainder and adds only
    terms below it, so the quotient exponents strictly decrease in lex
    order.  The box holds finitely many vectors, so the loop ends.

    ``a`` may also be given packed, as mutation builds its exchange
    numerator; the remainder then starts from it without a pack step.
    """
    if c.is_zero():
        raise DivisionByZero("division by the zero element")
    if isinstance(a, TorusElement):
        if a.is_zero():
            return TorusElement.zero(a.rank)
        a = _packed(a, c)
    if a.rank != c.rank:
        raise RankMismatch(f"rank mismatch: {a.rank} vs {c.rank}")
    if not a.terms:
        return TorusElement.zero(a.rank)
    box_a = [(min(xs), max(xs)) for xs in zip(*a.terms)]
    box = [(lo - min(xs), hi - max(xs)) for (lo, hi), xs in zip(box_a, zip(*c.terms))]
    # Every key the loop makes lies in a's box while the quotient stays in its box.
    places = _places(box_a)
    origin = sum(lo * place for (lo, _), place in zip(box_a, places))
    lows_a = [lo for lo, _ in box_a]
    free = [(k, place) for k, ((lo, hi), place) in enumerate(zip(box_a, places)) if lo < hi]
    terms_c = list(c.terms)
    coeffs_c = [ch.coeffs for ch in c.terms.values()]
    lows_c = [min(x) for x in coeffs_c]
    codes_c = [sum(map(mul, h, places)) for h in terms_c]
    j_c = terms_c.index(c.leading_vector())
    g_c, code_c, low_c = terms_c[j_c], codes_c[j_c], lows_c[j_c]
    gamma_c = c.terms[g_c]
    # A pointed divisor leads with sign * q^(low_c/2), sign = +-1: each quotient
    # coefficient is then the remainder's lead, shifted and signed.
    sign = gamma_c.coeffs[low_c] if len(gamma_c.coeffs) == 1 else 0
    unit = sign in (1, -1)
    rows, shift = _twists(terms_c, lows_c, pair, list(zip(*box)))
    top_c = max(max(map(abs, x.values())) for x in coeffs_c)
    len_c = max(map(len, coeffs_c))
    stride = gcd(a.stride, _common_stride(*coeffs_c))
    # A running bound on every remainder coefficient keeps each packed digit exact.
    bound = max(top_c, a.bound)
    bits = _digit_bits(bound)
    _fit(a, stride, bits)
    stride = stride or 1
    packed_c = [_pack(x, lo, stride, bits) for x, lo in zip(coeffs_c, lows_c)]
    remainder = {sum(map(mul, g, places)): entry for g, entry in a.terms.items()}
    quotient: dict[tuple, QCoefficient] = {}
    while remainder:
        code_a = max(remainder)
        rest, g_a = code_a - origin, list(lows_a)
        for k, place in free:  # a coordinate that a's box pins reads 0
            digit, rest = divmod(rest, place)
            g_a[k] += digit
        g_a = tuple(g_a)
        g_b = tuple(map(sub, g_a, g_c))
        for i, (x, (lo, hi)) in enumerate(zip(g_b, box)):
            if not lo <= x <= hi:
                raise NonExactDivision(
                    f"quotient exponent {g_b} needed for {g_a} has coordinate {i} = {x} "
                    f"outside [{lo}, {hi}]"
                )
        lo, packed = remainder[code_a]
        lead = _unpack(packed, lo, stride, bits, packed.bit_length() // bits + 1)
        # offsets[j] = lo_j - g_b . row(h_j) + shift, h_j the j-th term of c
        offsets = rows(g_b)
        # (gamma_b X^g_b)(gamma_c X^g_c) must produce the current lead.
        twice = shift - offsets[j_c]
        if unit:  # gamma_b = sign * q^(twice/2) * lead: packed, sign times the lead's int from lo + twice
            coeffs = {t + twice: sign * x for t, x in lead.items()}
            lo_b, stride_b = lo + twice, stride
        else:
            gamma_b = QCoefficient._wrap(lead).shifted(low_c + twice).divide_exact(gamma_c)
            if gamma_b is None:
                raise NonExactDivision(f"coefficient at {g_a} is not divisible")
            coeffs = gamma_b.coeffs
            lo_b = min(coeffs)
            stride_b = gcd(stride, *[t - lo_b for t in coeffs])
        quotient[g_b] = QCoefficient._wrap(coeffs)
        # remainder -= (gamma_b X^g_b) * c, one packed product per term of c.
        base, keys = lo_b - shift, [code_a - code_c + code for code in codes_c]
        entries = [remainder.get(key) for key in keys]
        residues = [base + offset - entry[0] for offset, entry in zip(offsets, entries) if entry]
        new_stride = gcd(stride_b, *residues)
        bound += max(map(abs, coeffs.values())) * top_c * min(len(coeffs), len_c)
        new_bits = bits if bound < 1 << (bits - 1) else max(2 * bits, _digit_bits(bound))
        if (new_stride, new_bits) != (stride, bits):
            _relayout(remainder, (stride, bits), (new_stride, new_bits))
            stride, bits = new_stride, new_bits
            packed_c = [_pack(x, lo, stride, bits) for x, lo in zip(coeffs_c, lows_c)]
            entries = [remainder.get(key) for key in keys]
            packed_b = _pack(coeffs, lo_b, stride, bits)
        elif unit:
            packed_b = packed if sign == 1 else -packed
        else:
            packed_b = _pack(coeffs, lo_b, stride, bits)
        for key, entry, offset, pc in zip(keys, entries, offsets, packed_c):
            offset += base
            if entry is None:
                remainder[key] = (offset, -(packed_b * pc))
                continue
            lo, packed = entry
            if offset < lo:  # re-base the key at its new lowest exponent
                packed, lo = packed << bits * ((lo - offset) // stride), offset
            packed -= packed_b * pc << bits * ((offset - lo) // stride)
            if packed:
                remainder[key] = (lo, packed)
            else:
                del remainder[key]
    return TorusElement._wrap(a.rank, quotient)


def _fit(x: _Packed, stride: int, bits: int) -> None:
    """Lay ``x.terms`` out again at ``(stride, bits)``, in place, unless they already fit it."""
    if (x.stride and x.stride != stride) or x.bits != bits:
        _relayout(x.terms, (x.stride, x.bits), (stride, bits))


def _relayout(remainder: dict, old: tuple[int, int], new: tuple[int, int]) -> None:
    """Repack every packed coefficient from layout ``old`` to ``new`` (stride, bits), in place.

    Digits widened at an unchanged stride are converted, each key keeping its
    ``lo``: the biased digits d + 2^(bits-1) that :func:`_digits` reads go
    through :func:`_lanes` at the new width, and 2^(bits-1) less per digit is
    the coefficient.  Any other relayout unpacks and repacks each key.
    """
    (stride, bits), (new_stride, new_bits) = old, new
    if stride == new_stride and bits < new_bits:
        for key, (lo, packed) in remainder.items():
            length = packed.bit_length() // bits + 1
            digits = _digits(packed + _bias(bits, length), bits, length)
            remainder[key] = (lo, _lanes(digits, new_bits) - (_bias(new_bits, length) >> (new_bits - bits)))
        return
    for key, (lo, packed) in remainder.items():
        coeffs = _unpack(packed, lo, stride or 1, bits, packed.bit_length() // bits + 1)
        lo = min(coeffs)
        remainder[key] = (lo, _pack(coeffs, lo, new_stride or 1, new_bits))


def bar(a: TorusElement) -> TorusElement:
    """The involution fixing every X^g and sending q^(1/2) to its inverse.

    It reverses products: bar(ab) = bar(b) bar(a).
    """
    return TorusElement(a.rank, {g: c.bar() for g, c in a.terms.items()})


def is_bar_invariant(a: TorusElement) -> bool:
    """Whether ``bar(a) == a``, read in place: every coefficient has c[-t] == c[t]."""
    for coeff in a.terms.values():
        coeffs = coeff.coeffs
        get = coeffs.get
        for t, value in coeffs.items():
            if get(-t) != value:
                return False
    return True


def bar_normalize(a: TorusElement) -> tuple[int, TorusElement]:
    """Write ``a = q^(center_twice/2) * e`` with ``bar(e) = e``; return ``(center_twice, e)``.

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
    return center, a.shifted(-center)
