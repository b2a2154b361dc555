"""Quantum seeds and their mutations.

A seed is a compatible pair together with the current cluster, each
variable expressed in the ambient quantum torus of the initial seed.
Mutation in direction k follows the usual exchange pattern: the two
exchange sides are the bar-invariant cluster monomials of the positive and
negative parts of column k of the exchange matrix, and the old variable is
divided out on the right.  ``_exchange_term`` states that whole rule; the
torus only multiplies the factors it is given.

Compatibility is proved once per surface, by ``check_compatible`` inside
``pair_from_surface``.  Mutation then carries d forward: mutating a
compatible pair gives a compatible pair with the same d
(Berenstein-Zelevinsky, *Quantum cluster algebras*, 2005), so
``mutate_seed`` builds the next pair without re-checking it.
``test_mutation_keeps_the_pair_compatible_with_the_same_d`` in
tests/test_seeds.py holds that guarantee.

A commutative (q = 1) mutation oracle on plain Laurent-polynomial
dictionaries lives alongside.  Its polynomial arithmetic shares no code
with the quantum route, but ``classical_mutate`` calls ``mutate_matrix``,
so comparing the two routes at q = 1 cannot catch a bug in the matrix
rule.  ``test_support_mutation_equals_the_dense_loops`` in
tests/test_seeds.py checks ``mutate_matrix`` and ``mutate_lambda``
against dense entry-by-entry loops instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidMutation, NonExactDivision, NotCompatible
from .torus import CompatiblePair, TorusElement, _packed_product, _packed_sum, div_exact_right, is_bar_invariant

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

_MUTATION_LIMIT = 12  # longest sequence mutation_sequence accepts


def _pos(x: int) -> int:
    return x if x > 0 else 0


def _slot(k: int, n: int) -> int:
    """The 0-based slot of mutation direction ``k``; only 1..n are directions."""
    if not 1 <= k <= n:
        raise InvalidMutation(f"direction {k} outside 1..{n}")
    return k - 1


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
    """Exchange-matrix mutation in direction k (1-based, k <= n).

    Row k and column k change sign; b[i][j] gains b[i][k] b[k][j] where
    both factors have the same sign, so only the support of column k
    times the support of row k is read.
    """
    kk = _slot(k, len(b[0]))
    out = [list(row) for row in b]
    out[kk] = [-y for y in b[kk]]
    row_k = [(j, y) for j, y in enumerate(b[kk]) if y and j != kk]
    for i, row in enumerate(out):
        x = row[kk]
        if x and i != kk:
            row[kk] = -x
            for j, y in row_k:
                row[j] += _pos(x) * y + x * _pos(-y)
    return out


def mutate_lambda(lam: list, b: list, k: int) -> list:
    """Commutation-matrix mutation matching mutate_matrix.

    Only row and column k change: lam[i][k] becomes -lam[i][k] plus
    b[l][k] lam[i][l] over the positive entries of column k of b.
    """
    kk = _slot(k, len(b[0]))
    positive = [(l, x) for l, row in enumerate(b) if (x := row[kk]) > 0]
    out = [list(row) for row in lam]
    for i, row in enumerate(lam):
        if i != kk:
            value = -row[kk] + sum(x * row[l] for l, x in positive)
            out[i][kk] = value
            out[kk][i] = -value
    return out


def _exchange_term(seed: QuantumSeed, kk: int, exponents: list):
    """One exchange side: its bar-invariant cluster monomial, shifted for the old variable, packed.

    The factors are ``seed.cluster[i]`` repeated a_i times, in index order,
    with product M.  Under the current commutation matrix lam, x_i x_j =
    q^(lam_ij) x_j x_i; bar fixes each x_i and reverses products, so bar(M)
    = q^(-S) M for S = sum_{i<j} a_i a_j lam_ij, and the prefactor makes
    q^(-S/2) M bar-invariant (Berenstein-Zelevinsky 2005).  Slot ``kk`` of
    ``exponents`` is zero; the shift q^(lambda_k/2), lambda_k = sum_i a_i
    lam_ik, normalizes M with the old variable's inverse appended.
    """
    lam = seed.pair.lam
    twice = sum(a * row[kk] for a, row in zip(exponents, lam))
    support = [i for i, a in enumerate(exponents) if a]
    for s, i in enumerate(support):
        for j in support[s + 1 :]:
            twice -= exponents[i] * exponents[j] * lam[i][j]
    factors = [seed.cluster[i] for i in support for _ in range(exponents[i])]
    return _packed_product(factors or [TorusElement.unit(seed.m)], seed.base_pair, twice)


def mutate_seed(seed: QuantumSeed, k: int) -> QuantumSeed:
    """Mutate in direction k (1-based); involutive, diagonal-preserving.

    The two sides of the exchange numerator are summed packed, and
    ``div_exact_right`` starts its remainder from that sum with no pack step.

    The new pair keeps ``seed.pair.d`` unchecked: mutation preserves
    compatibility with the same d (Berenstein-Zelevinsky 2005), which
    ``test_mutation_keeps_the_pair_compatible_with_the_same_d`` tests.
    """
    kk = _slot(k, seed.n)
    b, lam = seed.pair.b_tilde, seed.pair.lam
    plus = [_pos(b[i][kk]) for i in range(seed.m)]
    minus = [_pos(-b[i][kk]) for i in range(seed.m)]
    plus[kk] = minus[kk] = 0
    numerator = _packed_sum(_exchange_term(seed, kk, plus), _exchange_term(seed, kk, minus))
    try:
        new_var = div_exact_right(numerator, seed.cluster[kk], seed.base_pair)
    except NonExactDivision as exc:
        raise NonExactDivision(
            f"exchange numerator not right-divisible by variable {k}: {exc}"
        ) from exc
    if not is_bar_invariant(new_var):
        raise NotCompatible(f"mutated variable {k} is not bar-invariant")

    new_b = tuple(map(tuple, mutate_matrix(b, k)))
    new_lam = tuple(map(tuple, mutate_lambda(lam, b, k)))
    cluster = list(seed.cluster)
    cluster[kk] = new_var
    pair = CompatiblePair(new_b, new_lam, seed.pair.d)
    return replace(seed, pair=pair, cluster=tuple(cluster))


def mutation_sequence(seed: QuantumSeed, ks) -> QuantumSeed:
    """Mutate along ``ks`` in order; refuse sequences longer than _MUTATION_LIMIT.

    Every direction is checked before the first step, so a bad one late in
    the sequence costs no mutation.
    """
    ks = list(ks)
    if len(ks) > _MUTATION_LIMIT:
        raise InvalidMutation(f"sequence of {len(ks)} mutations exceeds limit {_MUTATION_LIMIT}")
    for step, k in enumerate(ks, 1):
        try:
            _slot(k, seed.n)
        except InvalidMutation as exc:
            raise InvalidMutation(f"step {step} of {len(ks)}: {exc}") from None
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
    """Exact division of Laurent polynomial dictionaries, lex order.

    If ``p = r * q``, coordinate i of every exponent of ``r`` lies in
    ``[min_i(p) - min_i(q), max_i(p) - max_i(q)]``; a quotient exponent
    outside that box proves the division inexact.  Quotient exponents
    strictly decrease in lex order inside the finite box, so the loop ends.
    """
    out: dict = {}
    rem = dict(p)
    lead_q = max(q)
    box = [(min(xs_p) - min(xs_q), max(xs_p) - max(xs_q)) for xs_p, xs_q in zip(zip(*p), zip(*q))]
    while rem:
        lead_r = max(rem)
        key = tuple(a - b for a, b in zip(lead_r, lead_q))
        for i, (x, (lo, hi)) in enumerate(zip(key, box)):
            if not lo <= x <= hi:
                raise NonExactDivision(
                    f"quotient exponent {key} has coordinate {i} = {x} outside [{lo}, {hi}]"
                )
        coeff, check = divmod(rem[lead_r], q[lead_q])
        if check:
            raise NonExactDivision(f"leading coefficient {rem[lead_r]} not divisible")
        out[key] = coeff
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
    kk = k - 1
    new_b = mutate_matrix(seed.b, k)  # rejects a direction outside 1..n
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
