"""The module route's per-letter rules against the case tables they replaced.

reference_n_module is n_module as it was written before its signed
counts became two comparisons: six cases on the directions of the
letters around position j, and the end-tile flank rule once per end.
reference_is_canonical_submodule is the submodule test as it was before
it became "no arrow leaves the set": the set is split into maximal runs
by reference_interval_decomposition and each run's two ends are tested.
"""
from __future__ import annotations

import random

from qcluster.errors import UnmatchedCase
from qcluster.snake import label_snake
from qcluster.strings import enumerate_strings, is_canonical_submodule
from qcluster.surface import build_quiver, load_surface
from qcluster.valuation import _windows, n_module

from conftest import ANNULUS_21, SURFACES, WHEEL3, mask_of, positions_of
from test_surface import random_polygon

# -- the case-table forms --------------------------------------------------


def reference_n_module(g, k, j, indices):
    w, t = g.word, g.triangulation
    indices = frozenset(indices)
    arcs, letters, d = w.vertices, w.letters, w.d
    if not 1 <= j <= d:
        raise UnmatchedCase(f"position {j} outside 1..{d}")
    n_plus = n_minus = 0
    plain = 0
    inside = lambda i: i in indices

    if arcs[j - 1] == k:
        if 2 <= j <= d - 1:
            prev_direct, next_direct = letters[j - 2].direct, letters[j - 1].direct
            if not prev_direct and not next_direct:
                n_plus = 1 if inside(j + 1) else 0
                n_minus = 0 if inside(j - 1) else 1
            elif prev_direct and next_direct:
                n_plus = 0 if inside(j + 1) else 1
                n_minus = 1 if inside(j - 1) else 0
            elif not prev_direct and next_direct:
                n_plus = 0 if inside(j + 1) else 1
                n_minus = 0 if inside(j - 1) else 1
            else:
                n_plus = 1 if inside(j + 1) else 0
                n_minus = 1 if inside(j - 1) else 0
        elif j == 1 and d >= 2:
            if letters[0].direct:
                n_plus = 0 if inside(2) else 1
            else:
                n_plus = 1 if inside(2) else 0
        elif j == d and d >= 2:
            if letters[d - 2].direct:
                n_minus = 1 if inside(d - 1) else 0
            else:
                n_minus = 0 if inside(d - 1) else 1

    if j <= d - 1 and g.tile(j).labels[g.tile(j).out_glue_side] == k:  # the tiles, not the glue list
        if inside(j) != inside(j + 1):
            plain += 1
    if j == 1:
        tri = t.triangles[g.tile(1).tri_in]
        diag = arcs[0]
        if k in tri and k != diag:
            if t.ccw_flank(g.tile(1).tri_in, diag) == k:
                plain += 1 if inside(1) else 0
            else:
                plain += 0 if inside(1) else 1
    if j == d:
        tri = t.triangles[g.tile(d).tri_out]
        diag = arcs[d - 1]
        if k in tri and k != diag:
            if t.ccw_flank(g.tile(d).tri_out, diag) == k:
                plain += 1 if inside(d) else 0
            else:
                plain += 0 if inside(d) else 1

    return n_plus + n_minus + plain, n_plus, n_minus


def reference_interval_decomposition(indices, d):
    """Maximal runs of an index set as (start, stop) pairs, 1-based."""
    out = []
    run_start = None
    for i in range(1, d + 2):
        inside = i <= d and i in indices
        if inside and run_start is None:
            run_start = i
        elif not inside and run_start is not None:
            out.append((run_start, i - 1))
            run_start = None
    return out


def reference_is_canonical_submodule(w, indices):
    indices = frozenset(indices)
    if not indices <= set(range(1, w.d + 1)):
        return False
    for start, stop in reference_interval_decomposition(indices, w.d):
        if start > 1 and not w.letters[start - 2].direct:
            return False
        if stop < w.d and w.letters[stop - 1].direct:
            return False
    return True


# -- the corpora -------------------------------------------------------------

# One ear-cut polygon per size, 6 to 14 sides.
POLYGONS = [random_polygon(n, random.Random(n)) for n in range(6, 15)]


def strings_on(sources, max_vertices):
    """(triangulation, word) for every string of at most max_vertices vertices."""
    out = []
    for source in sources:
        t = load_surface(source)
        out += [(t, w) for w in enumerate_strings(build_quiver(t), max_vertices)]
    return out


def test_interval_decomposition_splits_runs():
    assert reference_interval_decomposition({1, 2, 5}, 6) == [(1, 2), (5, 5)]
    assert reference_interval_decomposition(set(), 4) == []


def window_cells(corpus):
    """Compare n_module with the case table on every window cell; count the cells.

    A cell is an arc of the triangulation, boundary arcs included, a
    position j and one of the 8 patterns of j-1, j, j+1 in the index set.
    A pattern's positions outside 1..d are left out of its window.
    """
    cells = 0
    for t, w in corpus:
        g = label_snake(w, t)
        for arc in t.arcs:
            for j in range(1, w.d + 1):
                for pattern in range(8):
                    window = _windows(j, w.d)[pattern]
                    inside = [j - 1 + b for b in range(3) if pattern >> b & 1 and 1 <= j - 1 + b <= w.d]
                    assert window == mask_of(inside)
                    got = n_module(g, arc.id, j, window)
                    assert got == reference_n_module(g, arc.id, j, positions_of(window)), (
                        str(w), arc.id, j, positions_of(window)
                    )
                    assert all(type(n) is int for n in got)
                    cells += 1
    return cells


def test_n_module_equals_the_case_table_on_every_window_cell():
    assert window_cells(strings_on([*SURFACES, ANNULUS_21], 9)) == 5112
    assert window_cells(strings_on(POLYGONS, 14)) == 81552


def subsets_checked(corpus):
    """Compare the submodule test with the run form on every subset of
    positions 0..d+1; count the subsets and the submodules among them."""
    subsets = submodules = 0
    for _, w in corpus:
        for mask in range(1 << (w.d + 2)):
            N = frozenset(p for p in range(w.d + 2) if mask >> p & 1)
            got = is_canonical_submodule(w, mask_of(N))
            assert got == reference_is_canonical_submodule(w, N), (str(w), sorted(N))
            subsets += 1
            submodules += got
    return subsets, submodules


def test_the_submodule_test_equals_the_run_conditions_on_every_subset():
    subsets, submodules = subsets_checked(strings_on([*SURFACES, ANNULUS_21, WHEEL3], 10))
    assert subsets == 16672 and submodules > 0
    subsets, submodules = subsets_checked(strings_on(POLYGONS, 14))
    assert subsets == 6376 and submodules > 0
