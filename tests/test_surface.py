"""Triangulated surfaces, their quivers, and compatible commutation matrices."""
from __future__ import annotations

import json
import random
import sys
from math import gcd
from pathlib import Path

import pytest

from qcluster import surface
from qcluster.errors import InvalidSurface, NoCompatibleLambda, QClusterError
from qcluster.surface import (
    b_matrix,
    build_quiver,
    bundled_surface_names,
    check_gentle,
    find_lambda,
    load_surface,
    pair_from_surface,
)
from qcluster.torus import check_compatible

from conftest import ANNULUS_21, HEPTAGON_WITH_A_CYCLE, SURFACES, WHEEL3, write_malformed

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bundled_names_cover_the_corpus():
    names = bundled_surface_names()
    for name in ("annulus", "pentagon", "hexagon", "square"):
        assert name in names


def test_annulus_counts(annulus):
    assert annulus.n == 2
    assert annulus.m == 4
    assert annulus.is_internal(1) and annulus.is_internal(2)
    assert not annulus.is_internal(3)


def test_b_matrix_annulus(annulus):
    assert b_matrix(annulus) == [[0, -2], [2, 0], [-1, 1], [-1, 1]]


def test_b_matrix_pentagon(pentagon):
    assert b_matrix(pentagon) == [
        [0, 1],
        [-1, 0],
        [1, 0],
        [-1, 0],
        [1, -1],
        [0, 1],
        [0, -1],
    ]


def test_b_matrix_hexagon(hexagon):
    assert b_matrix(hexagon) == [
        [0, -1, 0],
        [1, 0, 1],
        [0, -1, 0],
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, -1],
        [0, 0, 1],
        [0, 0, -1],
        [-1, 1, 0],
    ]


def test_b_matrix_square(square):
    assert b_matrix(square) == [[0], [1], [-1], [1], [-1]]


def test_annulus_quiver_has_a_double_arrow_and_no_relations(quivers):
    q = quivers["annulus"]
    assert [(a.name, a.source, a.target) for a in q.arrows] == [
        ("a", 1, 2),
        ("b", 1, 2),
    ]
    assert q.relations == frozenset()


def test_pentagon_quiver_is_a_single_arrow(quivers):
    q = quivers["pentagon"]
    assert [(a.name, a.source, a.target) for a in q.arrows] == [("a", 2, 1)]


def test_hexagon_quiver_arrows(quivers):
    q = quivers["hexagon"]
    assert [(a.name, a.source, a.target) for a in q.arrows] == [
        ("a", 1, 2),
        ("b", 3, 2),
    ]
    assert q.relations == frozenset()


def test_internal_triangle_produces_relations():
    q = build_quiver(load_surface(WHEEL3))
    assert [(a.name, a.source, a.target) for a in q.arrows] == [
        ("a", 1, 2),
        ("b", 2, 3),
        ("c", 3, 1),
    ]
    assert q.relations == frozenset({("a", "b"), ("b", "c"), ("c", "a")})


def test_corpus_quivers_are_gentle(quivers):
    for q in quivers.values():
        check_gentle(q)
    check_gentle(build_quiver(load_surface(WHEEL3)))


def test_arrow_named_raises_on_unknown_name(quivers):
    with pytest.raises(KeyError):
        quivers["annulus"].arrow_named("z")
    with pytest.raises(QClusterError, match="no arrow named 'z'"):
        quivers["annulus"].arrow_named("z")


def test_flanks_read_the_cyclic_order(pentagon):
    # triangle (3, 4, 1): walking counterclockwise from 1 meets 3 first
    assert pentagon.ccw_flank(0, 1) == 3
    assert pentagon.cw_flank(0, 1) == 4


def test_find_lambda_on_the_double_arrow_matrix():
    assert find_lambda([[0, 2], [-2, 0]]) == [[0, 1], [-1, 0]]


def test_find_lambda_pads_a_single_column():
    assert find_lambda([[0], [1]]) == [[0, -1], [1, 0]]


def test_find_lambda_reports_unreachable_case():
    with pytest.raises(NoCompatibleLambda) as info:
        find_lambda([[0]])
    assert str(info.value) == "no integer skew lambda solves the system for any uniform d"


def test_find_lambda_solves_a_uniform_d_above_eight():
    lam = find_lambda([[0, 20], [-20, 0]])
    assert lam == [[0, 1], [-1, 0]]
    assert check_compatible([[0, 20], [-20, 0]], lam) == (20, 20)


def test_find_lambda_results_are_certified():
    for b in ([[0, 2], [-2, 0]], [[0], [1]], [[0, -2], [2, 0], [-1, 1], [-1, 1]]):
        lam = find_lambda(b)
        check_compatible(b, lam)


def test_pair_from_surface_annulus_is_frozen(annulus):
    pair = pair_from_surface(annulus)
    assert pair.b_tilde == ((0, -2), (2, 0), (-1, 1), (-1, 1))
    assert pair.lam == ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    assert pair.d == (2, 2)


def test_pair_from_surface_diagonals(surfaces):
    assert pair_from_surface(surfaces["pentagon"]).d == (1, 1)
    assert pair_from_surface(surfaces["hexagon"]).d == (1, 1, 1)
    assert pair_from_surface(surfaces["square"]).d == (1,)


def test_pentagon_lambda_couples_the_two_internal_arcs(surfaces):
    pair = pair_from_surface(surfaces["pentagon"])
    assert pair.lam[0][1] == 1
    assert pair.lam[1][0] == -1


def test_the_surface_context_equals_a_scan_of_the_triangles(surfaces):
    """n and each arc's triangles are fixed at construction; triangles_at
    still hands out a fresh list in file order."""
    corpus = list(surfaces.values()) + [load_surface(d) for d in (ANNULUS_21, WHEEL3, HEPTAGON_WITH_A_CYCLE)]
    for t in corpus:
        assert t.n == sum(1 for a in t.arcs if a.kind == "internal")
        for arc in range(-1, t.m + 2):
            scan = [i for i, tri in enumerate(t.triangles) if arc in tri]
            got = t.triangles_at(arc)
            assert got == scan, (t.name, arc)
            got.append(99)
            assert t.triangles_at(arc) == scan
            for tri in scan:
                if t.is_internal(arc):
                    assert t.other_triangle_at(arc, tri) == next(i for i in scan if i != tri)
                else:
                    message = f"^arc {arc} does not flank exactly one triangle besides {tri}$"
                    with pytest.raises(InvalidSurface, match=message):
                        t.other_triangle_at(arc, tri)


def test_load_surface_accepts_a_dict():
    t = load_surface(WHEEL3)
    assert t.n == 3
    assert t.m == 9


def test_load_surface_rejects_unknown_arcs_in_triangles():
    with pytest.raises(InvalidSurface):
        load_surface(
            {
                "name": "x",
                "arcs": [{"id": 1, "kind": "internal"}],
                "triangles": [[1, 2, 3]],
            }
        )


def test_load_surface_rejects_repeated_arcs_in_a_triangle():
    with pytest.raises(InvalidSurface):
        load_surface(
            {
                "name": "x",
                "arcs": [
                    {"id": 1, "kind": "internal"},
                    {"id": 2, "kind": "boundary"},
                    {"id": 3, "kind": "boundary"},
                ],
                "triangles": [[1, 1, 2], [1, 3, 2]],
            }
        )


def test_load_surface_rejects_internal_arc_on_one_triangle():
    with pytest.raises(InvalidSurface):
        load_surface(
            {
                "name": "x",
                "arcs": [
                    {"id": 1, "kind": "internal"},
                    {"id": 2, "kind": "boundary"},
                    {"id": 3, "kind": "boundary"},
                ],
                "triangles": [[1, 2, 3]],
            }
        )


@pytest.mark.parametrize(
    "text, message",
    [
        ("{bad", "not JSON in {path}: Expecting property name"),
        ("[1, 2]", "no JSON object in {path}"),
        ('{"arcs": [{"id": "x", "kind": "internal"}], "triangles": []}', "malformed surface data in {path}: "),
        ('{"arcs": [{"id": 1, "kind": "internal"}], "triangles": [[1, "y", 3]]}', "malformed surface data in {path}: "),
        ('{"arcs": [], "triangles": [], "lambda": [["z"]]}', "malformed surface data in {path}: "),
        ('{"triangles": []}', "malformed surface data in {path}: 'arcs'"),
        (b"\xff\xfe{}", "cannot read surface data in {path}: 'utf-8' codec can't decode byte 0xff"),
        (None, "cannot read surface data in {path}: Is a directory"),
    ],
)
def test_load_surface_names_the_file_of_malformed_data(tmp_path, text, message):
    path = tmp_path / "bad.json"
    write_malformed(path, text)
    with pytest.raises(InvalidSurface) as info:
        load_surface(str(path))
    assert str(info.value).startswith(message.format(path=path))


def test_load_surface_reports_a_name_too_long_for_a_file(tmp_path):
    with pytest.raises(InvalidSurface, match="^no such surface file or bundled name: 'aaa"):
        load_surface("a" * 300)
    path = tmp_path / ("a" * 300 + ".json")
    with pytest.raises(InvalidSurface) as info:
        load_surface(str(path))
    assert str(info.value) == f"cannot read surface data in {path}: File name too long"


def test_load_surface_reports_a_name_holding_a_nul():
    with pytest.raises(InvalidSurface, match=r"^no such surface file or bundled name: 'a\\x00b' \(bundled: "):
        load_surface("a\x00b")
    with pytest.raises(InvalidSurface) as info:
        load_surface("a\x00b.json")
    assert str(info.value) == "cannot read surface data in a\x00b.json: embedded null byte"


def _square_with(spoil):
    data = {
        "arcs": [{"id": 1, "kind": "internal"}] + [{"id": i, "kind": "boundary"} for i in (2, 3, 4, 5)],
        "triangles": [[2, 3, 1], [1, 4, 5]],
        "lambda": [[0, 1, 0, 0, 0], [-1, 0, 0, 0, 0], [0] * 5, [0] * 5, [0] * 5],
    }
    spoil(data)
    return data


# int() would read each of these as a different, valid square.
NON_INTEGRAL = {
    "fractional arc id": (lambda d: d["arcs"][0].update(id=1.7), "1.7 is not an integer"),
    "fractional triangle side": (lambda d: d["triangles"].__setitem__(0, [2.4, 3.4, 1.4]), "2.4 is not an integer"),
    "boolean arc id": (lambda d: d["arcs"][0].update(id=True), "True is not an integer"),
    "float lambda entry": (lambda d: d["lambda"][0].__setitem__(1, 1.0), "1.0 is not an integer"),
}


@pytest.mark.parametrize("label", NON_INTEGRAL)
def test_load_surface_rejects_numbers_that_are_not_integers(tmp_path, label):
    spoil, reason = NON_INTEGRAL[label]
    assert load_surface(_square_with(lambda d: None)).m == 5
    with pytest.raises(InvalidSurface) as info:
        load_surface(_square_with(spoil))
    assert str(info.value) == f"malformed surface data: {reason}"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_square_with(spoil)))
    with pytest.raises(InvalidSurface) as info:
        load_surface(str(path))
    assert str(info.value) == f"malformed surface data in {path}: {reason}"


def test_every_bundled_and_drawn_surface_still_loads():
    for source in (*SURFACES, ANNULUS_21, WHEEL3, *POLYGON_DRAWS):
        assert load_surface(source).m > 0


# -- find_lambda against the dense column reduction it replaced ---------


def dense_solve_integer_system(a_cols, rhs):
    """The former solver: dense columns, one full reduction per right-hand side."""
    ncols = len(a_cols)
    nrows = len(rhs)
    work = [list(col) for col in a_cols]
    transform = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_sub(dst, src, factor):
        if factor:
            work[dst] = [a - factor * b for a, b in zip(work[dst], work[src])]
            transform[dst] = [a - factor * b for a, b in zip(transform[dst], transform[src])]

    lead = 0
    pivots = []
    for row in range(nrows):
        live = [j for j in range(lead, ncols) if work[j][row] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: (abs(work[j][row]), j))
            piv = live[0]
            for j in live[1:]:
                col_sub(j, piv, work[j][row] // work[piv][row])
            live = [j for j in live if work[j][row] != 0]
        piv = live[0]
        if piv != lead:
            work[piv], work[lead] = work[lead], work[piv]
            transform[piv], transform[lead] = transform[lead], transform[piv]
        pivots.append((row, lead))
        lead += 1
        if lead == ncols:
            break

    y = [0] * ncols
    for row, col in pivots:
        residual = rhs[row] - sum(work[j][row] * y[j] for j in range(col))
        pivot_val = work[col][row]
        if residual % pivot_val != 0:
            return None
        y[col] = residual // pivot_val
    x = [sum(transform[j][i] * y[j] for j in range(ncols)) for i in range(ncols)]
    for row in range(nrows):
        if sum(a_cols[j][row] * x[j] for j in range(ncols)) != rhs[row]:
            return None
    kernel = [list(transform[j]) for j in range(lead, ncols)]
    return x, kernel


def dense_size_reduce(x, kernel):
    x = list(x)
    for _ in range(200):
        changed = False
        for v in kernel:
            vv = sum(a * a for a in v)
            if vv == 0:
                continue
            num = sum(a * b for a, b in zip(x, v))
            t = (2 * num + vv) // (2 * vv)
            if t:
                x = [a - t * b for a, b in zip(x, v)]
                changed = True
        if not changed:
            break
    return x


# the former search's caps: uniform d and |entries| at most 8
DENSE_D_MAX = 8
DENSE_BOUND = 8


def dense_find_lambda(b_tilde):
    """The former find_lambda, reducing the dense system again for each d."""
    m = len(b_tilde)
    n = len(b_tilde[0]) if m else 0
    if n == 0:
        raise NoCompatibleLambda("empty exchange matrix")
    positions = [(i, j) for i in range(m) for j in range(i + 1, m)]
    index = {p: k for k, p in enumerate(positions)}
    a_cols = [[0] * (m * n) for _ in positions]
    for i in range(m):
        for col_j in range(n):
            row = i * n + col_j
            for l in range(m):
                if l == i:
                    continue
                coeff = b_tilde[l][col_j]
                if coeff == 0:
                    continue
                if i < l:
                    a_cols[index[(i, l)]][row] += coeff
                else:
                    a_cols[index[(l, i)]][row] -= coeff
    for d in range(1, DENSE_D_MAX + 1):
        rhs = [0] * (m * n)
        for j in range(n):
            rhs[j * n + j] = -d
        solved = dense_solve_integer_system(a_cols, rhs)
        if solved is None:
            continue
        x = dense_size_reduce(*solved)
        if max((abs(v) for v in x), default=0) > DENSE_BOUND:
            continue
        lam = [[0] * m for _ in range(m)]
        for (i, j), k in index.items():
            lam[i][j] = x[k]
            lam[j][i] = -x[k]
        check_compatible(b_tilde, lam)
        return lam
    raise NoCompatibleLambda("no lambda")


def random_polygon(n, rng):
    """A triangulated n-gon cut ear by ear at random vertices, as surface JSON.

    Vertices 0..n-1 run counterclockwise; the diagonals are the internal
    arcs, in sorted vertex order, and the sides follow.
    """
    cycle, triangles = list(range(n)), []
    while len(cycle) > 3:
        k = rng.randrange(len(cycle))
        triangles.append(sorted((cycle[k - 1], cycle[k], cycle[(k + 1) % len(cycle)])))
        del cycle[k]
    triangles.append(cycle)
    sides = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    diagonals = sorted({e for a, b, c in triangles for e in ((a, b), (b, c), (a, c))} - set(sides))
    ids = {e: k + 1 for k, e in enumerate(diagonals + sides)}
    return {
        "arcs": [{"id": ids[e], "kind": "internal"} for e in diagonals]
        + [{"id": ids[e], "kind": "boundary"} for e in sides],
        # a < b < c run counterclockwise: sides ab, bc, then ca
        "triangles": [[ids[(a, b)], ids[(b, c)], ids[(a, c)]] for a, b, c in triangles],
    }


_RNG = random.Random(10)
POLYGON_DRAWS = [random_polygon(_RNG.randint(5, 12), _RNG) for _ in range(60)]
POLYGON_DRAWS += [random_polygon(14, random.Random(seed)) for seed in (1, 2)]


@pytest.mark.parametrize("data", [*SURFACES, ANNULUS_21, WHEEL3])
def test_find_lambda_equals_the_dense_reduction_on_fixed_surfaces(data):
    b = b_matrix(load_surface(data))
    assert find_lambda(b) == dense_find_lambda(b)


def test_find_lambda_equals_the_dense_reduction_on_random_polygons():
    for data in POLYGON_DRAWS:
        b = b_matrix(load_surface(data))
        assert find_lambda(b) == dense_find_lambda(b), json.dumps(data)


def test_find_lambda_equals_the_dense_reduction_on_polygon_verify_draws():
    """The 10-, 12- and 14-gons the bench's polygon_verify draws for seeds 1..5."""
    sys.path.insert(0, str(BENCH))
    try:
        from polygons import polygon
        from workloads import POLYGONS
    finally:
        sys.path.remove(str(BENCH))
    for seed in range(1, 6):
        rng = random.Random(f"polygon_verify:{seed}")
        for n, internal in POLYGONS.items():
            data = polygon(n, internal, rng)
            b = b_matrix(load_surface(data))
            assert find_lambda(b) == dense_find_lambda(b), json.dumps(data)


def test_find_lambda_reduces_once_and_derives_d(annulus, monkeypatch):
    calls = []
    reduce = surface._reduce_columns
    monkeypatch.setattr(surface, "_reduce_columns", lambda *args: calls.append(args) or reduce(*args))
    assert pair_from_surface(annulus).d == (2, 2)
    assert len(calls) == 1


# -- the logged reduction against the transform it no longer builds -----


def reference_reduce_columns(a_cols, nrows):
    """The former reduction: every column operation also updates a sparse unimodular transform."""
    ncols = len(a_cols)
    work = [dict(col) for col in a_cols]
    transform = [{j: 1} for j in range(ncols)]

    def col_sub(dst, src, factor):
        for cols in (work, transform):
            target = cols[dst]
            for k, v in cols[src].items():
                target[k] = target.get(k, 0) - factor * v
                if not target[k]:
                    del target[k]

    lead = 0
    pivots = []
    for row in range(nrows):
        live = [j for j in range(lead, ncols) if row in work[j]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: (abs(work[j][row]), j))
            piv = live[0]
            for j in live[1:]:
                col_sub(j, piv, work[j][row] // work[piv][row])
            live = [j for j in live if row in work[j]]
        piv = live[0]
        if piv != lead:
            work[piv], work[lead] = work[lead], work[piv]
            transform[piv], transform[lead] = transform[lead], transform[piv]
        pivots.append((row, lead))
        lead += 1
        if lead == ncols:
            break
    return work, transform, pivots


def reference_back_substitute(a_cols, nrows, n):
    """The former back-substitution into x through the transform: (x, d, kernel columns)."""
    work, transform, pivots = reference_reduce_columns(a_cols, nrows)
    rhs = [0] * nrows
    for j in range(n):
        rhs[j * n + j] = -1
    d, residual, x = 1, list(rhs), [0] * len(a_cols)
    for row, col in pivots:
        pivot = work[col][row]
        scale = abs(pivot) // gcd(pivot, residual[row])
        if scale > 1:
            d *= scale
            residual = [scale * r for r in residual]
            x = [scale * v for v in x]
        quotient = residual[row] // pivot
        for r, v in work[col].items():
            residual[r] -= quotient * v
        for i, v in transform[col].items():
            x[i] += v * quotient
    return x, d, transform[len(pivots):]


def _polygon_verify_draws(seeds):
    sys.path.insert(0, str(BENCH))
    try:
        from polygons import polygon
        from workloads import POLYGONS
    finally:
        sys.path.remove(str(BENCH))
    for seed in seeds:
        rng = random.Random(f"polygon_verify:{seed}")
        for n, internal in POLYGONS.items():
            yield polygon(n, internal, rng)


def test_the_replayed_log_equals_the_tracked_transform(monkeypatch):
    """x before size reduction, d and the kernel columns, in order, equal
    those the transform-tracking reduction gives, on the fixed surfaces,
    POLYGON_DRAWS, the polygon_verify draws of seeds 1..5 and random
    5- to 20-gons."""
    seen = {}
    reduce, size_reduce = surface._reduce_columns, surface._size_reduce
    monkeypatch.setattr(surface, "_reduce_columns", lambda *args: seen.update(args=args) or reduce(*args))
    monkeypatch.setattr(
        surface, "_size_reduce", lambda x, kernel: seen.update(x=x, kernel=kernel) or size_reduce(x, kernel)
    )
    rng = random.Random(25)
    corpus = [*SURFACES, ANNULUS_21, WHEEL3, HEPTAGON_WITH_A_CYCLE, *POLYGON_DRAWS]
    corpus += [*_polygon_verify_draws(range(1, 6)), *(random_polygon(n, rng) for n in range(5, 21))]
    for data in corpus:
        b = b_matrix(load_surface(data))
        lam = find_lambda(b)
        x, d, kernel = reference_back_substitute(*seen["args"], len(b[0]))
        assert seen["x"] == x, json.dumps(data)
        assert seen["kernel"] == kernel, json.dumps(data)
        assert check_compatible(b, lam) == (d,) * len(b[0]), json.dumps(data)
