"""Products of arc variables resolved into two smoothing terms.

For strings v, w whose extension space is one-dimensional, the product
of the two arc variables splits as

    X_v X_w = q^{s1/2} M1 + q^{s2/2} M2

with M1 the bar-normalized product determined by the middle term of the
extension and M2 the complementary product.  The solver derives s1 by
aligning M1 inside the product, demands that the residual be a single
bar-invariant term with nonnegative coefficients, and checks the
combinatorially predicted complementary factors when available.  When
X_v and X_w are both bar-invariant, X_w X_v is the bar conjugate of
X_v X_w, so the mirrored exponents solve the reversed product, and the
certificate records the order in which the M1 term carries the larger
shift.  Otherwise it certifies the given order with its own shifts.
Both shifts are in twice units.

The shift gap s1 - s2 depends on the chosen commutation form, so it is
recorded rather than imposed.  No bundled surface ships a form;
find_lambda supplies one.  With those forms the single-extension
products of annulus strings of at most 10 vertices that resolve (40 of
44) show gaps of 2 (30 products), 0 (6) and 4 (4) in twice-exponent
units, and every single-extension product on the pentagon and the
hexagon shows 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import AmbiguousSolution, NoSolution, NotNormalizable
from .expansion import quantum_expansion
from .seeds import QuantumSeed
from .strings import Extension, SmoothingFactor, StringWord, all_extensions
from .surface import QuiverWithRelations, Triangulation, build_quiver
from .torus import TorusElement, bar_normalize, is_bar_invariant, torus_mul

__all__ = [
    "MultiplicationCertificate",
    "count_extensions",
    "multiply_and_certify",
    "relative_exponent_check",
]


@dataclass(frozen=True)
class MultiplicationCertificate:
    """Exact resolution X_v X_w = q^{s1/2} M1 + q^{s2/2} M2.

    v, w give the factor order actually certified (reversed so that M1
    carries the larger shift when both factors are bar-invariant); the
    shifts are in twice units.
    """

    v: StringWord
    w: StringWord
    extension: Extension
    product: TorusElement
    m1: TorusElement
    m2: TorusElement
    s1_twice: int
    s2_twice: int
    m2_source: str  # "predicted" | "solved"
    identity_verified: bool

    @property
    def relative_twice(self) -> int:
        return self.s1_twice - self.s2_twice


def count_extensions(v: StringWord, w: StringWord, q: QuiverWithRelations) -> int:
    return len(all_extensions(v, w, q))


def _factor_element(
    factor: SmoothingFactor, t: Triangulation, expand: Callable[[StringWord], TorusElement]
) -> TorusElement | None:
    if factor.kind == "open":
        return None
    if factor.kind == "unit":
        return TorusElement.unit(t.m)
    if factor.kind == "arc":
        g = tuple(1 if i == factor.arc - 1 else 0 for i in range(t.m))
        return TorusElement.monomial(g)
    return expand(factor.word)


def _normalized_product(a: TorusElement, b: TorusElement, seed: QuantumSeed):
    try:
        _, norm = bar_normalize(torus_mul(a, b, seed.base_pair))
    except NotNormalizable:
        return None
    return norm


def multiply_and_certify(
    v: StringWord, w: StringWord, t: Triangulation, seed: QuantumSeed
) -> MultiplicationCertificate:
    """Resolve X_v X_w against the unique extension of the pair over t's quiver."""
    extensions = all_extensions(v, w, build_quiver(t))
    if not extensions:
        raise NoSolution(f"no extensions between {v} and {w}")
    if len(extensions) > 1:
        raise AmbiguousSolution(
            f"extension space between {v} and {w} has {len(extensions)} classes"
        )
    ext = extensions[0]

    # A word can recur among v, w and the smoothing factors: expand each once per call.
    expanded: dict[StringWord, TorusElement] = {}

    def expand(word: StringWord) -> TorusElement:
        if word not in expanded:
            expanded[word] = quantum_expansion(word, t, seed).element
        return expanded[word]

    xv, xw = expand(v), expand(w)
    product = torus_mul(xv, xw, seed.base_pair)
    x_u1 = expand(ext.u1)

    predicted_m2 = None
    e3 = _factor_element(ext.u3, t, expand)
    e4 = _factor_element(ext.u4, t, expand)
    if e3 is not None and e4 is not None:
        predicted_m2 = _normalized_product(e3, e4, seed)

    solutions = set()
    for option in ext.u2_options:
        elem = _factor_element(option, t, expand)
        if elem is None:
            continue
        m1 = _normalized_product(x_u1, elem, seed)
        if m1 is None or m1.is_zero() or not m1.coefficients_nonnegative():
            continue
        anchor = m1.leading_vector()
        coeff_f = product.terms.get(anchor)
        if coeff_f is None:
            continue
        coeff_m = m1.terms[anchor]
        lo = coeff_f.min_twice() - coeff_m.min_twice()
        hi = coeff_f.max_twice() - coeff_m.max_twice()
        for s1 in range(lo, hi + 1):
            residual = product - m1.shifted(s1)
            if residual.is_zero():
                continue
            if not residual.coefficients_nonnegative():
                continue
            try:
                center, m2 = bar_normalize(residual)
            except NotNormalizable:
                continue
            if predicted_m2 is not None and m2 != predicted_m2:
                continue
            solutions.add((s1, m1, center, m2))

    if not solutions:
        raise NoSolution(
            f"product of {v} and {w} admits no two-term resolution along {ext.detail}"
        )
    if len(solutions) > 1:
        raise AmbiguousSolution(
            f"product of {v} and {w} admits {len(solutions)} distinct resolutions"
        )
    s1_twice, m1, s2_twice, m2 = next(iter(solutions))
    left, right = v, w
    if s1_twice < s2_twice and is_bar_invariant(xv) and is_bar_invariant(xw):
        # The reversed product of bar-invariant factors is the bar conjugate,
        # so it resolves with the mirrored shifts; report the order that puts
        # M1 on top.
        left, right = w, v
        product = torus_mul(xw, xv, seed.base_pair)
        s1_twice, s2_twice = -s1_twice, -s2_twice
    identity = m1.shifted(s1_twice) + m2.shifted(s2_twice) == product
    return MultiplicationCertificate(
        v=left,
        w=right,
        extension=ext,
        product=product,
        m1=m1,
        m2=m2,
        s1_twice=s1_twice,
        s2_twice=s2_twice,
        m2_source="predicted" if predicted_m2 is not None else "solved",
        identity_verified=identity,
    )


def relative_exponent_check(cert: MultiplicationCertificate) -> bool:
    """Whether M1's shift is q^2 above M2's: the signed relative_twice ==
    4, so a certificate whose M2 sits q^2 above M1 (relative_twice == -4)
    gives False.  The module docstring gives the gaps measured on the
    bundled surfaces."""
    return cert.relative_twice == 4
