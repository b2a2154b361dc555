"""Quantum seed mutation and its commutative shadow."""
from __future__ import annotations

import pytest

from qcluster.errors import InvalidMutation, QClusterError
from qcluster.seeds import (
    classical_initial_seed,
    classical_mutation_sequence,
    initial_seed,
    mutate_lambda,
    mutate_matrix,
    mutate_seed,
    mutation_sequence,
)
from qcluster.expansion import classical_specialization
from qcluster.torus import (
    CompatiblePair,
    QCoefficient,
    TorusElement,
    bar,
    check_compatible,
)

KRON_PAIR = CompatiblePair(((0, 2), (-2, 0)), ((0, 1), (-1, 0)), (2, 2))


def element(rank, rows):
    return TorusElement(rank, {tuple(vec): QCoefficient(co) for vec, co in rows})


@pytest.fixture()
def kron_seed():
    return initial_seed(KRON_PAIR)


def test_initial_seed_holds_basis_monomials(kron_seed):
    assert kron_seed.cluster[0] == element(2, [((1, 0), {0: 1})])
    assert kron_seed.cluster[1] == element(2, [((0, 1), {0: 1})])
    assert kron_seed.base_pair == KRON_PAIR


def test_one_step_mutation_is_frozen(kron_seed):
    s1 = mutate_seed(kron_seed, 1)
    assert s1.cluster[0] == element(2, [((-1, 2), {0: 1}), ((-1, 0), {0: 1})])
    assert s1.cluster[1] == kron_seed.cluster[1]
    assert s1.pair.b_tilde == ((0, -2), (2, 0))
    assert s1.pair.lam == ((0, -1), (1, 0))
    assert s1.pair.d == (2, 2)


def test_two_step_mutation_is_frozen(kron_seed):
    s12 = mutation_sequence(kron_seed, [1, 2])
    assert s12.cluster[1] == element(
        2,
        [
            ((0, -1), {0: 1}),
            ((-2, 3), {0: 1}),
            ((-2, 1), {-2: 1, 2: 1}),
            ((-2, -1), {0: 1}),
        ],
    )
    assert s12.pair.b_tilde == KRON_PAIR.b_tilde
    assert s12.pair.lam == KRON_PAIR.lam


def test_three_step_mutation_is_frozen(kron_seed):
    s121 = mutation_sequence(kron_seed, [1, 2, 1])
    assert s121.cluster[0] == element(
        2,
        [
            ((1, -2), {0: 1}),
            ((-1, 0), {-2: 1, 2: 1}),
            ((-1, -2), {-2: 1, 2: 1}),
            ((-3, 4), {0: 1}),
            ((-3, 2), {-4: 1, 0: 1, 4: 1}),
            ((-3, 0), {-4: 1, 0: 1, 4: 1}),
            ((-3, -2), {0: 1}),
        ],
    )
    assert s121.pair.lam == ((0, -1), (1, 0))
    assert s121.pair.b_tilde == ((0, -2), (2, 0))


def test_mutation_is_an_involution(kron_seed, seeds):
    for seed in (kron_seed, seeds["pentagon"], seeds["hexagon"], seeds["annulus"]):
        for k in range(1, seed.n + 1):
            assert mutate_seed(mutate_seed(seed, k), k) == seed


def test_mutation_preserves_the_diagonal(kron_seed):
    seed = kron_seed
    for k in (1, 2, 1, 2, 1):
        seed = mutate_seed(seed, k)
        assert check_compatible(seed.pair.b_tilde, seed.pair.lam) == (2, 2)


def test_mutated_variables_stay_bar_invariant_and_nonnegative(kron_seed):
    seed = kron_seed
    for k in (1, 2, 1, 2):
        seed = mutate_seed(seed, k)
        for x in seed.cluster:
            assert bar(x) == x
            assert x.coefficients_nonnegative()


def test_matrix_mutation_is_frozen():
    b_tilde = ((0, -2), (2, 0), (-1, 1), (-1, 1))
    lam = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    assert mutate_matrix(b_tilde, 1) == [[0, 2], [-2, 0], [1, -1], [1, -1]]
    assert mutate_lambda(lam, b_tilde, 1) == [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]


def test_matrix_mutation_is_involutive():
    b_tilde = ((0, -2), (2, 0), (-1, 1), (-1, 1))
    lam = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    for k in (1, 2):
        twice_b = mutate_matrix(mutate_matrix(b_tilde, k), k)
        assert tuple(map(tuple, twice_b)) == b_tilde
        once_b = mutate_matrix(b_tilde, k)
        twice_lam = mutate_lambda(mutate_lambda(lam, b_tilde, k), once_b, k)
        assert tuple(map(tuple, twice_lam)) == lam


def test_classical_shadow_agrees_with_the_quantum_mutation(kron_seed):
    classical = classical_mutation_sequence(
        classical_initial_seed([[0, 2], [-2, 0]]), [1, 2]
    )
    quantum = mutation_sequence(kron_seed, [1, 2])
    assert classical.cluster[1] == classical_specialization(quantum.cluster[1], n=2)
    assert classical.cluster[1] == {(0, -1): 1, (-2, 3): 1, (-2, 1): 2, (-2, -1): 1}


def test_annulus_mutation_matches_its_own_arc_variable(seeds):
    s1 = mutate_seed(seeds["annulus"], 1)
    assert s1.cluster[0] == element(
        4, [((-1, 2, 0, 0), {0: 1}), ((-1, 0, 1, 1), {0: 1})]
    )


def test_invalid_mutations_raise_a_typed_error(kron_seed):
    with pytest.raises(InvalidMutation, match=r"^direction 3 outside 1\.\.2$"):
        mutate_seed(kron_seed, 3)
    with pytest.raises(InvalidMutation, match=r"^direction 0 outside 1\.\.2$"):
        mutate_matrix([[0, 2], [-2, 0]], 0)
    with pytest.raises(InvalidMutation, match=r"^sequence of 13 mutations exceeds limit 12$") as info:
        mutation_sequence(kron_seed, [1, 2] * 6 + [1])
    # still a ValueError for callers that caught the untyped error
    assert isinstance(info.value, QClusterError) and isinstance(info.value, ValueError)
