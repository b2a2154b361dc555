"""Quantum seed mutation and its commutative shadow."""
from __future__ import annotations

import json
import random
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import torus
from qcluster.cli import main
from qcluster.errors import InvalidMutation, NonExactDivision, NotCompatible, QClusterError
from qcluster.seeds import (
    _exchange_term,
    _poly_div_exact,
    _poly_mul,
    classical_initial_seed,
    classical_mutate,
    classical_mutation_sequence,
    initial_seed,
    mutate_lambda,
    mutate_matrix,
    mutate_seed,
    mutation_sequence,
)
from qcluster.expansion import classical_specialization
from qcluster.surface import load_surface, pair_from_surface
from qcluster.torus import (
    CompatiblePair,
    QCoefficient,
    TorusElement,
    bar,
    check_compatible,
)

from conftest import ANNULUS_21, SURFACES, WHEEL3
from test_surface import random_polygon

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


surface_pairs = st.one_of(
    st.sampled_from([*SURFACES, ANNULUS_21, WHEEL3]),
    st.builds(random_polygon, st.integers(min_value=6, max_value=14), st.randoms(use_true_random=False)),
).map(lambda data: pair_from_surface(load_surface(data)))


@settings(max_examples=60, deadline=None)
@given(surface_pairs, st.data())
def test_mutation_keeps_the_pair_compatible_with_the_same_d(pair, data):
    """Matrix and lambda mutation alone keep lambda b_tilde = -[diag(d); 0].

    mutate_seed relies on this and does not re-check the pair it builds.
    """
    ks = data.draw(st.lists(st.integers(min_value=1, max_value=pair.n), max_size=10))
    b, lam = pair.b_tilde, pair.lam
    for k in ks:
        b, lam = mutate_matrix(b, k), mutate_lambda(lam, b, k)
        assert check_compatible(b, lam) == pair.d


def test_mutate_seed_builds_the_pair_that_create_validates(kron_seed, seeds):
    def validated(seed, k):
        b, lam = seed.pair.b_tilde, seed.pair.lam
        return CompatiblePair.create(mutate_matrix(b, k), mutate_lambda(lam, b, k))

    for start in (kron_seed, *seeds.values()):
        for first in range(1, start.n + 1):
            once = mutate_seed(start, first)
            assert once.pair == validated(start, first)
            for k in range(1, start.n + 1):
                assert mutate_seed(once, k).pair == validated(once, k)


def check_compatible_callers(monkeypatch):
    """Record, for each check_compatible call, whether pair_from_surface is on the stack."""
    calls, check = [], torus.check_compatible

    def counted(*args):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        calls.append("pair_from_surface" in names)
        return check(*args)

    # every qcluster module that imported the function holds its own binding
    for name, module in list(sys.modules.items()):
        if name.startswith("qcluster") and getattr(module, "check_compatible", None) is check:
            monkeypatch.setattr(module, "check_compatible", counted)
    return calls


def test_mutate_seed_does_not_check_compatibility(kron_seed, monkeypatch):
    calls = check_compatible_callers(monkeypatch)
    mutation_sequence(kron_seed, [1, 2, 1, 2])
    assert calls == []


def test_verify_checks_compatibility_only_while_loading_the_surface(tmp_path, monkeypatch):
    path = tmp_path / "polygon14.json"
    path.write_text(json.dumps(random_polygon(14, random.Random(1))))
    calls = check_compatible_callers(monkeypatch)
    res = CliRunner().invoke(main, ["verify", "-s", str(path), "--max-length", "2", "--jobs", "1"])
    assert res.exit_code == 0, res.output
    assert calls and all(calls)


def test_pair_from_surface_checks_the_pair_once(annulus, monkeypatch):
    found = pair_from_surface(annulus)
    from_file = load_surface(
        {
            "arcs": [{"id": a.id, "kind": a.kind} for a in annulus.arcs],
            "triangles": [list(tri) for tri in annulus.triangles],
            "lambda": [list(row) for row in found.lam],
        }
    )
    calls = check_compatible_callers(monkeypatch)
    assert pair_from_surface(annulus) == found
    assert calls == [True]
    assert pair_from_surface(from_file) == found
    assert calls == [True, True]


def test_mutated_variables_stay_bar_invariant_and_nonnegative(kron_seed):
    seed = kron_seed
    for k in (1, 2, 1, 2):
        seed = mutate_seed(seed, k)
        for x in seed.cluster:
            assert bar(x) == x
            assert x.coefficients_nonnegative()


def test_a_mutated_variable_that_is_not_bar_invariant_is_refused(kron_seed, monkeypatch):
    lopsided = element(2, [((1, -1), {0: 1, 2: 1})])
    monkeypatch.setattr("qcluster.seeds.div_exact_right", lambda numerator, c, pair: lopsided)
    with pytest.raises(NotCompatible, match=r"^mutated variable 2 is not bar-invariant$"):
        mutate_seed(kron_seed, 2)


def exchange_sides(seed):
    """Both exchange sides of every direction, unpacked, each without its shift q^(lambda_k/2)."""
    for kk in range(seed.n):
        column = [row[kk] for row in seed.pair.b_tilde]
        for sign in (1, -1):
            exponents = [max(sign * x, 0) if i != kk else 0 for i, x in enumerate(column)]
            lam_k = sum(a * row[kk] for a, row in zip(exponents, seed.pair.lam))
            yield torus._unpacked(_exchange_term(seed, kk, exponents)).shifted(-lam_k)


def test_each_exchange_side_is_bar_invariant_without_its_shift(seeds):
    # The prefactor alone makes each side's cluster monomial bar-invariant.
    # It is 1 on every side of the annulus sequences and the pentagon; one
    # step from the hexagon's initial seed, a side x_i x_j has lam_ij != 0.
    visited = [seeds["annulus"]]
    for name in ("pentagon", "hexagon"):
        visited += [seeds[name]] + [mutate_seed(seeds[name], k) for k in range(1, seeds[name].n + 1)]
    for start in (1, 2):
        seed = seeds["annulus"]
        for step in range(6):
            seed = mutate_seed(seed, start if step % 2 == 0 else 3 - start)
            visited.append(seed)
    sides = [side for seed in visited for side in exchange_sides(seed)]
    assert len(sides) == 3 * 2 * 2 + 4 * 3 * 2 + 13 * 2 * 2
    assert all(bar(side) == side for side in sides)


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


def _pos(x):
    return max(x, 0)


def dense_mutate_matrix(b, k):
    """Exchange-matrix mutation entry by entry over the whole m x n matrix."""
    m, n = len(b), len(b[0])
    kk = k - 1
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if i == kk or j == kk:
                out[i][j] = -b[i][j]
            else:
                out[i][j] = b[i][j] + _pos(b[i][kk]) * b[kk][j] + b[i][kk] * _pos(-b[kk][j])
    return out


def dense_mutate_lambda(lam, b, k):
    """Commutation-matrix mutation summing over every row of column k."""
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


@settings(max_examples=60, deadline=None)
@given(surface_pairs, st.data())
def test_support_mutation_equals_the_dense_loops(pair, data):
    """Every direction, at the start and along a drawn path, on sparse polygons and the annulus' +-2 entries."""
    ks = data.draw(st.lists(st.integers(min_value=1, max_value=pair.n), max_size=6))
    b, lam = pair.b_tilde, pair.lam
    for step in [*ks, None]:
        for k in range(1, pair.n + 1):
            assert mutate_matrix(b, k) == dense_mutate_matrix(b, k)
            assert mutate_lambda(lam, b, k) == dense_mutate_lambda(lam, b, k)
        if step is not None:
            b, lam = mutate_matrix(b, step), mutate_lambda(lam, b, step)


def test_support_mutation_reads_frozen_rows_and_double_arrows(seeds):
    pair = seeds["annulus"].pair
    assert {abs(x) for row in pair.b_tilde for x in row} >= {1, 2}
    assert any(pair.b_tilde[i][j] for i in range(pair.n, pair.m) for j in range(pair.n))
    for k in (1, 2):
        assert mutate_matrix(pair.b_tilde, k) == dense_mutate_matrix(pair.b_tilde, k)
        assert mutate_lambda(pair.lam, pair.b_tilde, k) == dense_mutate_lambda(pair.lam, pair.b_tilde, k)


@pytest.mark.parametrize("k", (0, -1, 3))
def test_lambda_mutation_rejects_a_direction_outside_the_mutable_arcs(seeds, k):
    pair = seeds["annulus"].pair  # n = 2, m = 4
    with pytest.raises(InvalidMutation, match=rf"^direction {k} outside 1\.\.2$"):
        mutate_lambda(pair.lam, pair.b_tilde, k)
    with pytest.raises(InvalidMutation, match=rf"^direction {k} outside 1\.\.2$"):
        mutate_matrix(pair.b_tilde, k)


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


@pytest.mark.parametrize("start", (1, 2))
def test_mutation_past_the_cli_cap_equals_the_classical_oracle(seeds, start, monkeypatch):
    # mutation_sequence stops at 12 steps; mutate_seed itself has no cap.  By
    # step 16 the exchange products need 64-bit digits, which no 12-step run does.
    ks = [start if i % 2 == 0 else 3 - start for i in range(16)]
    seed = seeds["annulus"]
    initial = classical = classical_initial_seed([list(row) for row in seed.pair.b_tilde])
    widths, real = [], torus._mul_packed
    monkeypatch.setattr(torus, "_mul_packed", lambda *args: widths.append((packed := real(*args)).bits) or packed)
    for step, k in enumerate(ks, 1):
        seed = mutate_seed(seed, k)
        classical = classical_mutate(classical, k)
        assert bar(seed.cluster[k - 1]) == seed.cluster[k - 1]
        assert [classical_specialization(x) for x in seed.cluster] == list(classical.cluster)
        if step == 12:
            assert max(widths) < 64
    assert widths[-1] == 64
    assert list(classical_mutation_sequence(initial, ks).cluster) == list(classical.cluster)


def test_invalid_mutations_raise_a_typed_error(kron_seed):
    with pytest.raises(InvalidMutation, match=r"^direction 3 outside 1\.\.2$"):
        mutate_seed(kron_seed, 3)
    with pytest.raises(InvalidMutation, match=r"^direction 0 outside 1\.\.2$"):
        mutate_matrix([[0, 2], [-2, 0]], 0)
    with pytest.raises(InvalidMutation, match=r"^sequence of 13 mutations exceeds limit 12$") as info:
        mutation_sequence(kron_seed, [1, 2] * 6 + [1])
    # still a ValueError for callers that caught the untyped error
    assert isinstance(info.value, QClusterError) and isinstance(info.value, ValueError)
    with pytest.raises(InvalidMutation, match=r"^direction 3 outside 1\.\.2$"):
        classical_mutate(classical_initial_seed([[0, 2], [-2, 0]]), 3)


def test_a_bad_direction_is_rejected_before_the_first_step(seeds, monkeypatch):
    steps = []
    monkeypatch.setattr("qcluster.seeds.mutate_seed", lambda seed, k: steps.append(k))
    with pytest.raises(InvalidMutation, match=r"^step 12 of 12: direction 9 outside 1\.\.2$"):
        mutation_sequence(seeds["annulus"], [1, 2] * 5 + [1, 9])
    with pytest.raises(InvalidMutation, match=r"^step 1 of 1: direction 0 outside 1\.\.2$"):
        mutation_sequence(seeds["annulus"], [0])
    assert steps == []


class CountingDict(dict):
    """A divisor that counts the elimination rounds (one items() call each)."""

    rounds = 0

    def items(self):
        self.rounds += 1
        return super().items()


@pytest.mark.parametrize(
    "p, q",
    [
        ({(1,): 1}, {(1,): 1, (0,): 1}),  # x / (x + 1)
        ({(3, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}),  # (x^3 + y) / (x + y)
        ({(2, 0): 1, (0, 0): 2}, {(1, 0): 1, (0, 0): 1}),  # (x^2 + 2) / (x + 1)
    ],
)
def test_inexact_classical_division_stops_at_the_exponent_box(p, q):
    q = CountingDict(q)
    with pytest.raises(NonExactDivision, match=r"has coordinate \d+ = -?\d+ outside \["):
        _poly_div_exact(p, q)
    assert q.rounds < 10


laurent = st.dictionaries(
    st.tuples(*[st.integers(min_value=-2, max_value=2)] * 2),
    st.integers(min_value=-3, max_value=3).filter(bool),
    min_size=1,
    max_size=4,
)


@given(laurent, laurent)
def test_classical_division_recovers_the_left_factor(r, q):
    assert _poly_div_exact(_poly_mul(r, q), q) == r
