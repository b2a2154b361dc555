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
machine word, and each is then one item of a stdlib ``array``.  Packing
writes every digit, biased by ``2^(bits-1)``, into such an array, whose
memory is read as an int once.  Unpacking adds the same bias to every
digit, so no digit borrows, and reads the int's bytes back into an array
whose items are the biased digits exactly; that needs every digit to lie
strictly between -2^(bits-1) and 2^(bits-1).  Wider digits, in whole
bytes, and every digit on a host that is not little-endian, go through
one byte slice per digit instead.

A torus product packs each coefficient once per call, and a square packs
it once for both sides.  A first pass reads only exponents: the key
``g + h`` of each term pair, the lowest q-exponent landing on each key,
and one stride for the call, the gcd of every gap inside a coefficient and
of every difference between the offsets ``lo_g + lo_h + L(g,h)`` of the
pairs that share a key.  A square visits each unordered pair {i, j} once:
(i, j) and (j, i) share the key and the packed product, and their offsets
differ by 2 L(g_i, g_j).  At most min(|a|, |b|) pairs share a key, so no
output coefficient exceeds max|a| * max|b| * (fewer q-terms) * min(|a|, |b|)
in absolute value, and ``bits`` is that bound's bit length plus a sign
bit, rounded up to a machine word or, above 64 bits, to whole bytes.  The
second pass adds each pair's packed product, shifted to its offset, into
its key's int; a zero int drops the key.  That packed product, ``{g: (lo,
int)}`` with its stride, bits and bound, is what :func:`torus_mul` unpacks,
each key once.  When one factor has a single term, each pair is multiplied
on its own instead.

The torus knows no cluster rule: seed mutation gives each exchange side
as factors and a q-power.  Their product, folded left to right, keeps a
last product of two multi-term factors packed, the q-power added to each
key's ``lo``; the two sides merge in one layout, and the division takes
that numerator as its remainder with no pack step.

Right division by an element ``c`` eliminates the leading term of the
remainder in lex order.  Since the torus is a domain, every exponent of an
exact quotient lies in the box ``[min_i(a) - min_i(c), max_i(a) - max_i(c)]``
per coordinate; a step outside it proves the division inexact, and the
strictly decreasing quotient exponents inside the finite box bound the
number of steps.  The remainder stays packed, as (lowest exponent, int)
per key, and ``c`` is packed once per layout.  Each step unpacks only the
leading coefficient, divides it, packs the quotient coefficient and
subtracts its packed product with each term of ``c``; a key whose lowest
exponent drops is re-based by a shift.  A running bound on the remainder's
coefficients, max|a| (or a packed numerator's bound) plus max|gamma| *
max|c| * (fewer q-terms) per step, keeps every digit in range, so
``int == 0`` is an exact zero test.  When the bound reaches the sign bit,
or a quotient coefficient leaves the stride or a key's residue class, the
remainder is laid out again with wider digits or a finer stride.  A
numerator handed over packed keeps its layout unless the divisor needs a
finer stride or wider digits.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from math import gcd
from operator import add, mul
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
    """Evaluate sum c * x^((t - lo) / stride) at x = 2^bits from biased digits, in linear time."""
    half = 1 << (bits - 1)
    length = (max(coeffs) - lo) // stride + 1
    code = _LITTLE and _TYPECODES.get(bits)
    if code:
        digits = array(code, [half]) * length
        for t, c in coeffs.items():
            digits[(t - lo) // stride] = c + half
    else:
        width = bits // 8
        raw = [half.to_bytes(width, "little")] * length
        for t, c in coeffs.items():
            raw[(t - lo) // stride] = (c + half).to_bytes(width, "little")
        digits = b"".join(raw)
    return int.from_bytes(digits, "little") - _bias(bits, length)


def _unpack(value: int, lo: int, stride: int, bits: int, length: int) -> dict[int, int]:
    """Invert :func:`_pack` without its zeros; every digit must lie in (-2^(bits-1), 2^(bits-1))."""
    width = bits // 8
    half = 1 << (bits - 1)
    raw = (value + _bias(bits, length)).to_bytes(length * width, "little")
    code = _LITTLE and _TYPECODES.get(bits)
    if code:
        digits = array(code, raw)
    else:
        from_bytes = int.from_bytes
        digits = [from_bytes(raw[i : i + width], "little") for i in range(0, length * width, width)]
    return {t: d - half for t, d in zip(range(lo, lo + stride * length, stride), digits) if d != half}


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


def _mul_packed(a: TorusElement, b: TorusElement, pair: CompatiblePair, twice: int = 0) -> _Packed:
    """q^(twice/2) times the product :func:`torus_mul` takes, each coefficient packed and none unpacked.

    For a square (``a is b``) the pairs (i, j) and (j, i) share the key
    g_i + g_j and the packed product, and their offsets are
    lo_i + lo_j -/+ g_i . row(g_j), so each unordered pair is visited once.
    """
    rows_b = [pair.twist_row(h) for h in b.terms]
    terms_b = list(b.terms)
    coeffs_a = [cg.coeffs for cg in a.terms.values()]
    coeffs_b = [ch.coeffs for ch in b.terms.values()]
    lows_a, lows_b = [min(x) for x in coeffs_a], [min(x) for x in coeffs_b]
    square = a is b
    stride = _common_stride(*coeffs_a, *coeffs_b)
    # Pass 1, exponents only: each key's lowest offset and its pairs with their offsets.
    keys: dict[tuple, list] = {}
    for i, g in enumerate(a.terms):
        base = lows_a[i] + twice
        for j in range(i if square else 0, len(terms_b)):
            cross = sum(map(mul, g, rows_b[j]))
            offset = base + lows_b[j] - cross
            offsets = (offset, offset + 2 * cross) if square and j > i else (offset,)
            entry = keys.get(key := tuple(map(add, g, terms_b[j])))
            if entry is None:
                entry = keys[key] = [offset, []]
            for offset in offsets:
                stride = gcd(stride, offset - entry[0])
                if offset < entry[0]:
                    entry[0] = offset
            entry[1].append((i, j, offsets))
    step = stride or 1
    # At most min(|a|, |b|) pairs land on one key.
    bound = max(max(map(abs, x.values())) for x in coeffs_a) * max(max(map(abs, x.values())) for x in coeffs_b)
    bound *= min(max(map(len, coeffs_a)), max(map(len, coeffs_b))) * min(len(coeffs_a), len(coeffs_b))
    bits = _digit_bits(bound)
    # Pass 2: pack each coefficient once, sum packed products per key.
    packed_a = [_pack(x, lo, step, bits) for x, lo in zip(coeffs_a, lows_a)]
    packed_b = packed_a if square else [_pack(x, lo, step, bits) for x, lo in zip(coeffs_b, lows_b)]
    terms = {}
    for key, (lo, pairs) in keys.items():
        acc = 0
        for i, j, offsets in pairs:
            product = packed_a[i] * packed_b[j]
            for offset in offsets:
                acc += product << bits * ((offset - lo) // step)
        if acc:
            terms[key] = (lo, acc)
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
        a._check_rank(c)
        a = _packed(a, c)
    remainder = a.terms
    if not remainder:
        return TorusElement.zero(a.rank)
    box = [
        (min(xs_a) - min(xs_c), max(xs_a) - max(xs_c))
        for xs_a, xs_c in zip(zip(*remainder), zip(*c.terms))
    ]
    g_c = c.leading_vector()
    gamma_c = c.terms[g_c]
    # L(g, h) = -g . row(h): one twist row per term of c, for every step.
    row_gc = pair.twist_row(g_c)
    lows_c = [min(ch.coeffs) for ch in c.terms.values()]
    terms_c = list(zip(c.terms, lows_c, map(pair.twist_row, c.terms)))
    top_c = max(max(map(abs, ch.coeffs.values())) for ch in c.terms.values())
    len_c = max(len(ch.coeffs) for ch in c.terms.values())
    stride = gcd(a.stride, _common_stride(*[ch.coeffs for ch in c.terms.values()]))
    # A running bound on every remainder coefficient keeps each packed digit exact.
    bound = max(top_c, a.bound)
    bits = _digit_bits(bound)
    _fit(a, stride, bits)
    stride = stride or 1
    packed_c = [_pack(ch.coeffs, lo, stride, bits) for ch, lo in zip(c.terms.values(), lows_c)]
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
        lo, packed = remainder[g_a]
        lead = _unpack(packed, lo, stride, bits, packed.bit_length() // bits + 1)
        # (gamma_b X^g_b)(gamma_c X^g_c) must produce the current lead.
        gamma_b = QCoefficient._wrap(lead).shifted(sum(map(mul, g_b, row_gc)))
        gamma_b = gamma_b.divide_exact(gamma_c)
        if gamma_b is None:
            raise NonExactDivision(f"coefficient at {g_a} is not divisible")
        quotient[g_b] = gamma_b
        # remainder -= (gamma_b X^g_b) * c, one packed product per term of c.
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
            _relayout(remainder, (stride, bits), (new_stride, new_bits))
            stride, bits = new_stride, new_bits
            packed_c = [_pack(ch.coeffs, lo, stride, bits) for ch, lo in zip(c.terms.values(), lows_c)]
        packed_b = _pack(coeffs, lo_b, stride, bits)
        for (key, offset), pc in zip(offsets, packed_c):
            if key not in remainder:
                remainder[key] = (offset, -(packed_b * pc))
                continue
            lo, packed = remainder[key]
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
    """Repack every packed coefficient from layout ``old`` to ``new`` (stride, bits), in place."""
    (stride, bits), (new_stride, new_bits) = old, new
    for key, (lo, packed) in remainder.items():
        coeffs = _unpack(packed, lo, stride or 1, bits, packed.bit_length() // bits + 1)
        lo = min(coeffs)
        remainder[key] = (lo, _pack(coeffs, lo, new_stride or 1, new_bits))


def bar(a: TorusElement) -> TorusElement:
    """The involution fixing every X^g and sending q^(1/2) to its inverse.

    It reverses products: bar(ab) = bar(b) bar(a).
    """
    return TorusElement(a.rank, {g: c.bar() for g, c in a.terms.items()})


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
