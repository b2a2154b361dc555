"""Quantum seeds and their mutations.

A seed is a compatible pair together with the current cluster, each
variable expressed in the ambient quantum torus of the initial seed.
Mutation in direction k follows the usual exchange pattern: the two
exchange products are formed from the columns of the exchange matrix,
bar-normalized against the current commutation matrix, and the old
variable is divided out on the right.  Matrix and commutation-matrix
mutations keep the pair compatible with an unchanged diagonal.

A commutative (q = 1) mutation oracle on plain Laurent-polynomial
dictionaries lives alongside, sharing no code with the quantum route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidMutation, NonExactDivision, NotCompatible
from .torus import (
    CompatiblePair,
    TorusElement,
    bar,
    div_exact_right,
    torus_mul,
    torus_pow,
)

__all__ = [
    "QuantumSeed",
    "initial_seed",
    "mutate_matrix",
    "mutate_lambda",
    "mutate_seed",
    "mutation_sequence",
    "ClassicalSeed",
    "classical_initial_seed",
    "classical_mutate",
    "classical_mutation_sequence",
]


def _pos(x: int) -> int:
    return x if x > 0 else 0


@dataclass(frozen=True)
class QuantumSeed:
    pair: CompatiblePair  # current exchange and commutation data
    cluster: tuple  # current variables, in the ambient torus
    base_pair: CompatiblePair  # the ambient torus of the initial seed

    @property
    def m(self) -> int:
        return self.pair.m

    @property
    def n(self) -> int:
        return self.pair.n


def initial_seed(pair: CompatiblePair) -> QuantumSeed:
    cluster = tuple(
        TorusElement.monomial(tuple(1 if i == j else 0 for j in range(pair.m)))
        for i in range(pair.m)
    )
    return QuantumSeed(pair=pair, cluster=cluster, base_pair=pair)


def mutate_matrix(b: list, k: int) -> list:
    """Exchange-matrix mutation in direction k (1-based, k <= n)."""
    m, n = len(b), len(b[0])
    kk = k - 1
    if not 0 <= kk < n:
        raise InvalidMutation(f"direction {k} outside 1..{n}")
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if i == kk or j == kk:
                out[i][j] = -b[i][j]
            else:
                out[i][j] = b[i][j] + _pos(b[i][kk]) * b[kk][j] + b[i][kk] * _pos(-b[kk][j])
    return out


def mutate_lambda(lam: list, b: list, k: int) -> list:
    """Commutation-matrix mutation matching mutate_matrix."""
    m = len(lam)
    kk = k - 1
    out = [list(row) for row in lam]
    for i in range(m):
        if i == kk:
            continue
        value = -lam[i][kk] + sum(_pos(b[l][kk]) * lam[i][l] for l in range(m))
        out[i][kk] = value
        out[kk][i] = -value
    return out


def _exchange_term(seed: QuantumSeed, k: int, exponents: list) -> TorusElement:
    """q^{beta/2} times the ordered cluster product for one exchange side.

    ``exponents`` has a zero in slot k; beta accounts for normalizing
    the monomial with the old variable's inverse appended, using the
    current commutation matrix.
    """
    lam = seed.pair.lam
    kk = k - 1
    beta_twice = 0
    for i in range(seed.m):
        for j in range(i + 1, seed.m):
            beta_twice -= exponents[i] * exponents[j] * lam[i][j]
    for i in range(seed.m):
        if i != kk:
            beta_twice += exponents[i] * lam[i][kk]
    product = TorusElement.unit(seed.m)
    for i in range(seed.m):
        if exponents[i]:
            product = torus_mul(
                product, torus_pow(seed.cluster[i], exponents[i], seed.base_pair), seed.base_pair
            )
    return product.shifted(beta_twice)


def mutate_seed(seed: QuantumSeed, k: int) -> QuantumSeed:
    """Mutate in direction k (1-based); involutive, diagonal-preserving."""
    if not 1 <= k <= seed.n:
        raise InvalidMutation(f"direction {k} outside 1..{seed.n}")
    b = [list(row) for row in seed.pair.b_tilde]
    kk = k - 1
    plus = [_pos(b[i][kk]) for i in range(seed.m)]
    minus = [_pos(-b[i][kk]) for i in range(seed.m)]
    plus[kk] = minus[kk] = 0
    numerator = _exchange_term(seed, k, plus) + _exchange_term(seed, k, minus)
    try:
        new_var = div_exact_right(numerator, seed.cluster[kk], seed.base_pair)
    except NonExactDivision as exc:
        raise NonExactDivision(
            f"exchange numerator not right-divisible by variable {k}: {exc}"
        ) from exc
    if bar(new_var) != new_var:
        raise NotCompatible(f"mutated variable {k} is not bar-invariant")

    new_b = mutate_matrix(b, k)
    new_lam = mutate_lambda([list(r) for r in seed.pair.lam], b, k)
    new_pair = CompatiblePair.create(new_b, new_lam)
    if new_pair.d != seed.pair.d:
        raise NotCompatible(
            f"mutation changed the diagonal from {seed.pair.d} to {new_pair.d}"
        )
    cluster = list(seed.cluster)
    cluster[kk] = new_var
    return replace(seed, pair=new_pair, cluster=tuple(cluster))


def mutation_sequence(seed: QuantumSeed, ks, *, limit: int = 12) -> QuantumSeed:
    """Mutate along ``ks`` in order; refuse sequences longer than ``limit``."""
    ks = list(ks)
    if len(ks) > limit:
        raise InvalidMutation(f"sequence of {len(ks)} mutations exceeds limit {limit}")
    for k in ks:
        seed = mutate_seed(seed, k)
    return seed


# -- commutative oracle ------------------------------------------------


@dataclass(frozen=True)
class ClassicalSeed:
    b: tuple  # rows as tuples
    cluster: tuple  # Laurent polynomials as {exponent tuple: int}


def classical_initial_seed(b: list) -> ClassicalSeed:
    m = len(b)
    cluster = tuple(
        {tuple(1 if i == j else 0 for j in range(m)): 1} for i in range(m)
    )
    return ClassicalSeed(
        b=tuple(tuple(row) for row in b),
        cluster=tuple(cluster),
    )


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for g, cg in p.items():
        for h, ch in q.items():
            key = tuple(a + b for a, b in zip(g, h))
            val = out.get(key, 0) + cg * ch
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def _poly_div_exact(p: dict, q: dict) -> dict:
    """Exact division of Laurent polynomial dictionaries, lex order."""
    out: dict = {}
    rem = dict(p)
    lead_q = max(q)
    rounds = 0
    while rem:
        rounds += 1
        if rounds > 10000:
            raise NonExactDivision("division did not terminate; not an exact quotient")
        lead_r = max(rem)
        key = tuple(a - b for a, b in zip(lead_r, lead_q))
        coeff, check = divmod(rem[lead_r], q[lead_q])
        if check:
            raise NonExactDivision(f"leading coefficient {rem[lead_r]} not divisible")
        out[key] = out.get(key, 0) + coeff
        for h, ch in q.items():
            kk = tuple(a + b for a, b in zip(key, h))
            val = rem.get(kk, 0) - coeff * ch
            if val:
                rem[kk] = val
            elif kk in rem:
                del rem[kk]
    return out


def classical_mutate(seed: ClassicalSeed, k: int) -> ClassicalSeed:
    m = len(seed.b)
    n = len(seed.b[0])
    kk = k - 1
    if not 0 <= kk < n:
        raise ValueError(f"direction {k} outside 1..{n}")
    term_plus: dict = {tuple(0 for _ in range(m)): 1}
    term_minus: dict = {tuple(0 for _ in range(m)): 1}
    for i in range(m):
        if i == kk:
            continue
        e = seed.b[i][kk]
        for _ in range(_pos(e)):
            term_plus = _poly_mul(term_plus, seed.cluster[i])
        for _ in range(_pos(-e)):
            term_minus = _poly_mul(term_minus, seed.cluster[i])
    numerator = dict(term_plus)
    for g, c in term_minus.items():
        val = numerator.get(g, 0) + c
        if val:
            numerator[g] = val
        else:
            del numerator[g]
    new_var = _poly_div_exact(numerator, seed.cluster[kk])
    new_b = mutate_matrix([list(r) for r in seed.b], k)
    cluster = list(seed.cluster)
    cluster[kk] = new_var
    return ClassicalSeed(
        b=tuple(tuple(row) for row in new_b),
        cluster=tuple(cluster),
    )


def classical_mutation_sequence(seed: ClassicalSeed, ks) -> ClassicalSeed:
    for k in ks:
        seed = classical_mutate(seed, k)
    return seed
