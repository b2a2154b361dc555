"""The valuation kernels against the forms they replaced.

reference_omega, reference_valuation_v, reference_valuation_v_gamma,
reference_is_canonical_submodule, reference_omega_prime_row and
reference_n_module are the code that ran before each tile got one twist
row, the word-side walk was keyed by masks, the submodule test read the
word's arrow masks, the omega_prime rows of all index sets were filled at
once and the window table called n_module only where a row can be
nonzero.  The per-tile
tables the old omega read (opposite pairs, the masks of the diagonal's
edges before and after a tile, and (m_minus, m_plus)) are rebuilt here
from the graph's public geometry, as the graph used to build them.
"""
from __future__ import annotations

import random
from collections import deque
from itertools import accumulate
from operator import getitem, itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import valuation
from qcluster.errors import CannotTwist, InconsistentValuation, UnmatchedCase, UnreachableSubmodule
from qcluster.kronecker import family_word
from qcluster.snake import (
    canonical_submodules,
    enumerate_matchings,
    label_snake,
    maximal_matching,
    minimal_matching,
)
from qcluster.strings import (
    Letter,
    StringWord,
    dimension_vector,
    enumerate_canonical_submodules,
    enumerate_strings,
    is_canonical_submodule,
)
from qcluster.strings import _is_valid_string as is_valid_string
from qcluster.strings import _trivial_word as trivial_word
from qcluster.surface import build_quiver, load_surface
from qcluster.valuation import omega, omega_prime, valuation_v, valuation_v_gamma

from conftest import ANNULUS_21, SURFACES, WHEEL3, m_pm, mask_of, positions_of
from test_strings import ANNULUS_31
from test_surface import random_polygon


# -- the replaced forms ----------------------------------------------------


def reference_tables(g):
    """Per tile: (ccw, cw) opposite-pair masks, (before, after) masks of the
    edges carrying its diagonal, and (m_minus, m_plus)."""
    edges = g.all_edges()
    bit = {e: 1 << i for i, e in enumerate(edges)}
    labels, named = {}, [0] * g.d
    for e in edges:
        labels[g.edge_label(e)] = labels.get(g.edge_label(e), 0) | bit[e]
        named[e[0] - 1] |= bit[e]
    opposite = [
        tuple(
            sum(bit[e] for e, side in g.tile_edges(j) if g.tile(j).flank_class[side] == cls)
            for cls in ("ccw", "cw")
        )
        for j in range(1, g.d + 1)
    ]
    tau_masks, earlier = [], 0
    for tile, own in zip(g.tiles, named):
        tau = labels.get(tile.diagonal, 0)
        tau_masks.append((tau & earlier, tau & ~earlier))
        earlier |= own
    tile_m = [m_pm(g, s, g.tile(s).diagonal) for s in range(1, g.d + 1)]
    return opposite, tau_masks, tile_m


def reference_twist_pairs(tables, g, P, j):
    ccw, cw = tables[0][g._slot(j)]
    held = P & (ccw | cw)
    if held == ccw:
        return ccw, cw
    if held == cw:
        return cw, ccw
    return None


def reference_omega(tables, g, s, P):
    opposite, tau_masks, tile_m = tables
    pairs = reference_twist_pairs(tables, g, P, s)
    if pairs is None:
        raise CannotTwist(f"matching does not cover tile {s} by an opposite pair")
    before, after = tau_masks[s - 1]
    m_minus, m_plus = tile_m[s - 1]
    drop = (P & after).bit_count() - m_plus - (P & before).bit_count() + m_minus
    return drop if pairs[0] == opposite[s - 1][0] else -drop


def reference_valuation_v(g, tables=None):
    tables = reference_tables(g) if tables is None else tables
    flips = [(s, ccw, cw, ccw | cw) for s, (ccw, cw) in enumerate(tables[0], start=1)]
    base = minimal_matching(g)
    values = {base: 0}
    queue = deque([base])
    while queue:
        P = queue.popleft()
        here = values[P]
        for s, ccw, cw, both in flips:
            held = P & both
            if held != ccw and held != cw:
                continue
            Q = P ^ both
            val = here - reference_omega(tables, g, s, P)
            stored = values.get(Q)
            if stored is None:
                values[Q] = val
                queue.append(Q)
            elif stored != val:
                raise InconsistentValuation(f"twist at tile {s} gives {val}, stored {stored}")
    all_matchings = enumerate_matchings(g)
    if set(values) != set(all_matchings):
        raise InconsistentValuation(f"twists reach {len(values)} of {len(all_matchings)} matchings")
    if values[maximal_matching(g)] != 0:
        raise InconsistentValuation(
            f"maximal matching has valuation {values[maximal_matching(g)]}, want 0"
        )
    return values


def reference_valuation_v_gamma(g):
    """The walk over position sets; its table is keyed by their masks."""
    values = {}
    for N in (frozenset(positions_of(mask)) for mask in canonical_submodules(g)):
        found = None if N else 0
        for j in sorted(N):
            smaller = N - {j}
            below = values.get(smaller)
            if below is None:
                continue
            step = omega_prime(g, j, mask_of(smaller))
            back = omega_prime(g, j, mask_of(N))
            if step != -back:
                raise InconsistentValuation(f"asymmetric step at position {j}: {step} vs -({back})")
            here = below - step
            if found is None:
                found = here
            elif found != here:
                raise InconsistentValuation(f"index step at {j} gives {here}, stored {found}")
        if found is None:
            raise UnreachableSubmodule(f"no canonical index set one position smaller than {sorted(N)}")
        values[N] = found
    full = frozenset(range(1, g.d + 1))
    if full not in values:
        raise UnreachableSubmodule(f"the full index set {sorted(full)} was not generated")
    if values[full] != 0:
        raise InconsistentValuation(f"full index set has valuation {values[full]}, want 0")
    return {mask_of(N): value for N, value in values.items()}


def reference_is_canonical_submodule(w, indices):
    indices = frozenset(indices)
    if indices and (min(indices) < 1 or max(indices) > w.d):
        return False
    for p, letter in enumerate(w.letters, start=1):
        source, target = (p, p + 1) if letter.direct else (p + 1, p)
        if source in indices and target not in indices:
            return False
    return True


def reference_omega_prime_row(g, mask):
    """omega_prime at every position for one index set's mask (the per-set
    row builder, returning the row instead of storing it)."""
    patterns = [mask >> p & 7 for p in range(g.d)]
    values = [0] * g.d
    table, crossings = valuation._window_counts(g)
    for k, rows in table.items():
        cells = list(map(getitem, rows, patterns))
        before = list(accumulate(map(itemgetter(0), cells), initial=0))
        total = before[-1]
        for p, m_minus_plus in crossings[k]:
            n, n_plus, n_minus = cells[p]
            big_plus = n_plus + total - before[p] - n
            big_minus = n_minus + before[p]
            value = big_plus - big_minus + m_minus_plus
            values[p] = value if mask >> p + 1 & 1 else -value
    return tuple(values)


def reference_n_module(g, k, j, indices):
    """n_module as it was, scanning the end tiles' outer triangles on every
    call; the index set comes as a mask and is read as its positions."""
    w, t = g.word, g.triangulation
    indices = frozenset(positions_of(indices))
    arcs, letters, d = w.vertices, w.letters, w.d
    n_plus = n_minus = plain = 0
    if arcs[j - 1] == k:
        if j < d:
            n_plus = int((j + 1 in indices) != letters[j - 1].direct)
        if j > 1:
            n_minus = int((j - 1 in indices) == letters[j - 2].direct)
    glued = j < d and g.tile(j).labels[g.tile(j).out_glue_side] == k  # the tiles, not the glue list
    if glued and (j in indices) != (j + 1 in indices):
        plain += 1
    for end, tri in ((1, g.tile(1).tri_in), (d, g.tile(d).tri_out)):
        diag = arcs[end - 1]
        if j == end and k != diag and k in t.triangles[tri]:
            plain += (end in indices) == (t.ccw_flank(tri, diag) == k)
    return n_plus + n_minus + plain, n_plus, n_minus


# -- the corpus ------------------------------------------------------------


@pytest.fixture(scope="module")
def kernel_corpus(surfaces, quivers, annulus):
    """Every string of at most 7 vertices on the bundled surfaces and on
    ANNULUS_21, and the annulus families G_0..G_8 and H_1..H_8."""
    out = [(surfaces[name], w) for name in SURFACES for w in enumerate_strings(quivers[name], 7)]
    t = load_surface(ANNULUS_21)
    out += [(t, w) for w in enumerate_strings(build_quiver(t), 7)]
    out += [(annulus, family_word(annulus, s, "G")) for s in range(9)]
    out += [(annulus, family_word(annulus, s, "H")) for s in range(1, 9)]
    return out


def test_twist_rows_hold_the_replaced_tables(kernel_corpus):
    for t, w in kernel_corpus:
        g = label_snake(w, t)
        opposite, tau_masks, tile_m = reference_tables(g)
        rows = [
            ((ccw, cw, ccw | cw), tau, m_minus - m_plus)
            for (ccw, cw), tau, (m_minus, m_plus) in zip(opposite, tau_masks, tile_m)
        ]
        assert [(row[:3], row[3:5], row[5]) for row in g._twist_rows] == rows, str(w)
        assert g.d == len(g.tiles) == w.d


def test_omega_and_valuation_v_equal_the_replaced_forms(kernel_corpus):
    twists = refused = 0
    for t, w in kernel_corpus:
        g = label_snake(w, t)
        tables = reference_tables(g)
        assert valuation_v(g) == reference_valuation_v(g, tables), str(w)
        for P in enumerate_matchings(g):
            for s in range(1, g.d + 1):
                try:
                    want = reference_omega(tables, g, s, P)
                except CannotTwist:
                    with pytest.raises(CannotTwist):
                        omega(g, s, P)
                    refused += 1
                    continue
                assert omega(g, s, P) == want
                twists += 1
    assert (len(kernel_corpus), twists, refused) == (48, 97026, 72352)


def test_valuation_v_gamma_equals_the_replaced_walk(kernel_corpus):
    sets = 0
    for t, w in kernel_corpus:
        got = valuation_v_gamma(label_snake(w, t))
        want = reference_valuation_v_gamma(label_snake(w, t))
        assert list(got.items()) == list(want.items()), str(w)
        sets += len(got)
    assert sets == 11153


def test_the_mask_submodule_test_equals_the_letter_scan(kernel_corpus):
    """Every canonical set, and each with one position from -1..d+1 toggled,
    given to mask_of as a frozenset, a tuple, a list with a repeat and an
    iterator.  No bit stands for position -1, so mask_of refuses it."""
    checked = 0
    for _, w in kernel_corpus:
        for N in map(frozenset, map(positions_of, enumerate_canonical_submodules(w))):
            for toggled in [N] + [N ^ {j} for j in range(-1, w.d + 2)]:
                if -1 in toggled:
                    with pytest.raises(ValueError):
                        mask_of(toggled)
                    continue
                want = reference_is_canonical_submodule(w, toggled)
                forms = (toggled, tuple(sorted(toggled)), sorted(toggled) * 2, iter(sorted(toggled)))
                assert [is_canonical_submodule(w, mask_of(form)) for form in forms] == [want] * 4
                checked += 1
    assert checked > 100000


@given(data=st.data())
def test_the_mask_submodule_test_equals_the_letter_scan_on_drawn_sets(kernel_corpus, data):
    _, w = data.draw(st.sampled_from(kernel_corpus))
    N = data.draw(st.sets(st.integers(-1, w.d + 1)) | st.sets(st.sampled_from([-1, 0, w.d + 1])))
    if -1 in N:  # no bit stands for position -1
        with pytest.raises(ValueError):
            mask_of(N)
        return
    assert is_canonical_submodule(w, mask_of(N)) == reference_is_canonical_submodule(w, N)


@pytest.mark.parametrize("positions", [{0}, {2, 0}, {4}, {2, 4}, {0, 9}, {1, 2, 3, 9}])
@pytest.mark.parametrize("function", ["is_canonical_submodule", "omega_prime", "n_module", "dimension_vector"])
def test_a_mask_with_bit_0_or_a_bit_past_d_is_outside_the_contract(annulus, g1_word, function, positions):
    """is_canonical_submodule refuses such a mask; omega_prime, n_module and
    dimension_vector raise, naming position 0 or else the highest position."""
    g, mask = label_snake(g1_word, annulus), mask_of(positions)
    named = 0 if 0 in positions else max(positions)
    if function == "is_canonical_submodule":
        assert is_canonical_submodule(g1_word, mask) is False
        return
    calls = {
        "omega_prime": lambda: omega_prime(g, 1, mask),
        "n_module": lambda: valuation.n_module(g, 1, 1, mask),
        "dimension_vector": lambda: dimension_vector(g1_word, mask, n=2),
    }
    with pytest.raises(UnmatchedCase, match=f"^position {named} outside 1..3$"):
        calls[function]()
    assert mask not in g._omega_prime_rows


# -- a corrupted twist row is caught as before -------------------------------


def corrupted(g, tables, slot, field, change):
    """Apply change to one field of tile slot's twist row and to the same
    entry of the replaced tables; field is "m", "before" or "after"."""
    row = list(g._twist_rows[slot])
    opposite, tau_masks, tile_m = tables
    if field == "m":
        row[5] += change
        m_minus, m_plus = tile_m[slot]
        tile_m[slot] = (m_minus + change, m_plus)
    else:
        at = 3 if field == "before" else 4
        row[at] ^= change
        masks = list(tau_masks[slot])
        masks[at - 3] ^= change
        tau_masks[slot] = tuple(masks)
    g._twist_rows[slot] = tuple(row)


def outcome(walk, *args):
    try:
        return walk(*args)
    except InconsistentValuation as caught:
        return str(caught)


def test_a_corrupted_twist_row_is_caught_as_before(annulus):
    """Each tile's m raised by 1, and each of its two masks with one edge bit
    flipped, on three family words: valuation_v gives the same table or the
    same InconsistentValuation as the replaced omega with the same tables
    corrupted.  A τ mask that miscounts one twist breaks a twist relation
    ("twist at tile ...").  Raising m shifts every value by 1 on the
    matchings whose enclosed tiles hold the tile, which every twist relation
    still satisfies, so the maximal matching's normalization catches it.
    A flipped bit that no twist at the tile reads changes nothing."""
    seen = {"twist at tile": 0, "maximal matching": 0, "unchanged": 0, "other": 0}
    for family, s in (("G", 2), ("H", 2), ("G", 3)):
        w = family_word(annulus, s, family)
        true = valuation_v(label_snake(w, annulus))
        edges = len(label_snake(w, annulus).all_edges())
        cases = [("m", 1)] + [(f, 1 << i) for f in ("before", "after") for i in range(edges)]
        for slot in range(w.d):
            for field, change in cases:
                g = label_snake(w, annulus)
                tables = reference_tables(g)
                corrupted(g, tables, slot, field, change)
                got = outcome(valuation_v, g)
                assert got == outcome(reference_valuation_v, g, tables), (str(w), slot, field, change)
                if field == "m":
                    assert got == "maximal matching has valuation 1, want 0"
                if isinstance(got, dict):
                    seen["unchanged" if got == true else "other"] += 1
                else:
                    seen[next(key for key in seen if got.startswith(key))] += 1
    # a corruption valuation_v misses leaves the table as it was
    assert seen == {"twist at tile": 456, "maximal matching": 28, "unchanged": 104, "other": 0}


def test_a_corrupted_tau_mask_raises_a_twist_inconsistency(annulus):
    g = label_snake(family_word(annulus, 2, "G"), annulus)
    ccw, cw, both, before, after, m = g._twist_rows[4]
    g._twist_rows[4] = (ccw, cw, both, before & before - 1, after, m)
    with pytest.raises(InconsistentValuation, match="twist at tile 2 gives 3, stored 2"):
        valuation_v(g)


# -- the omega_prime rows of all sets at once --------------------------------


def every_string(q, max_vertices):
    """One representative of each inversion class of valid strings with at
    most max_vertices vertices: a search over oriented words that does not
    stop at a class it has seen."""
    found = {}

    def extend(word):
        found.setdefault(str(word.canonical()), word.canonical())
        if word.d == max_vertices:
            return
        last = word.vertices[-1]
        steps = [Letter(a, True) for a in q.arrows_from(last)]
        steps += [Letter(a, False) for a in q.arrows_to(last)]
        for letter in steps:
            candidate = StringWord(word.vertices + (letter.endpoints()[1],), word.letters + (letter,))
            if is_valid_string(candidate, q):
                extend(candidate)

    for v in sorted(q.vertices):
        extend(trivial_word(v))
    return [found[key] for key in sorted(found)]


def assert_rows_match(g, sets):
    """The batch rows of index-set masks equal the per-set rows."""
    valuation._omega_prime_rows(g, sets)
    for N in sets:
        assert g._omega_prime_rows[N] == reference_omega_prime_row(g, N), positions_of(N)


def test_the_batch_rows_equal_the_per_set_rows_on_every_short_string(surfaces):
    """Every canonical set of every string of at most 7 vertices on the
    bundled surfaces, ANNULUS_21, ANNULUS_31 and WHEEL3."""
    corpus = [surfaces[name] for name in SURFACES]
    corpus += [load_surface(data) for data in (ANNULUS_21, ANNULUS_31, WHEEL3)]
    words = sets = 0
    for t in corpus:
        for w in every_string(build_quiver(t), 7):
            g = label_snake(w, t)
            assert_rows_match(g, canonical_submodules(g))
            words += 1
            sets += len(canonical_submodules(g))
    # annulus 14, pentagon 3, hexagon 6, square 1, ANNULUS_21 21, ANNULUS_31 46, WHEEL3 6
    assert (words, sets) == (97, 976)


@pytest.mark.parametrize("family, s", [("G", s) for s in range(9)] + [("H", s) for s in range(1, 9)])
def test_the_batch_rows_equal_the_per_set_rows_on_the_families(annulus, family, s):
    g = label_snake(family_word(annulus, s, family), annulus)
    assert_rows_match(g, canonical_submodules(g))


@pytest.fixture(scope="module")
def g40(annulus):
    return label_snake(family_word(annulus, 40, "G"), annulus)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_the_batch_rows_equal_the_per_set_rows_on_drawn_sets_of_g40(g40, data):
    """Arbitrary index sets of G_40 (d = 81), with the empty and the full
    set: its bound (82 * 3) needs two-byte lanes."""
    positions = st.integers(1, g40.d)
    drawn = data.draw(st.lists(st.frozensets(positions) | st.frozensets(positions, min_size=70), max_size=30))
    assert valuation._window_bytes(g40)[0] == 2
    assert_rows_match(g40, [mask_of(N) for N in [frozenset(), frozenset(range(1, g40.d + 1))] + drawn])


def test_a_set_passed_alone_gets_the_row_of_the_batch(annulus):
    w = family_word(annulus, 4, "H")
    batch = label_snake(w, annulus)
    valuation._omega_prime_rows(batch, canonical_submodules(batch))
    for N in canonical_submodules(batch):
        alone = label_snake(w, annulus)
        valuation._omega_prime_rows(alone, [N])
        assert alone._omega_prime_rows == {N: batch._omega_prime_rows[N]}
        fresh = label_snake(w, annulus)
        assert [omega_prime(fresh, j, N) for j in range(1, w.d + 1)] == list(alone._omega_prime_rows[N])


# -- the window table, called only where a row can be nonzero ----------------


def full_window_table(g, counts):
    """counts(g, k, j, window) for every word arc, position and pattern."""
    return {
        k: [
            tuple(counts(g, k, j, valuation._windows(j, g.d)[p]) for p in range(8))
            for j in range(1, g.d + 1)
        ]
        for k in dict.fromkeys(g.word.vertices)
    }


def reference_crossing_positions(w):
    """Per word arc, its positions (0-based) with how many more crossings of
    it come before than after."""
    out = {}
    for k in dict.fromkeys(w.vertices):
        ps = [p for p, arc in enumerate(w.vertices) if arc == k]
        out[k] = [(p, seen - (len(ps) - 1 - seen)) for seen, p in enumerate(ps)]
    return out


def test_the_sparse_window_table_equals_the_full_one(surfaces):
    """Every string of at most 7 vertices on the bundled surfaces,
    ANNULUS_21, ANNULUS_31, WHEEL3 and seeded 10- to 16-gons, the
    one-vertex words (both end triangles at one position) among them; and
    n_module of every arc, word arc or not, against the scanning form."""
    corpus = [surfaces[name] for name in SURFACES]
    corpus += [load_surface(data) for data in (ANNULUS_21, ANNULUS_31, WHEEL3)]
    corpus += [load_surface(random_polygon(n, random.Random(n))) for n in range(10, 17)]
    graphs = single = 0
    for t in corpus:
        for w in every_string(build_quiver(t), 7):
            g = label_snake(w, t)
            sparse, crossings = valuation._window_counts(g)
            assert sparse == full_window_table(g, valuation.n_module), str(w)
            assert sparse == full_window_table(g, reference_n_module), str(w)
            assert crossings == reference_crossing_positions(w), str(w)
            # every arc, not only the word's: a free side of an end triangle
            for k in range(1, t.m + 1):
                for j in range(1, w.d + 1):
                    for p in range(8):
                        N = valuation._windows(j, g.d)[p]
                        want = reference_n_module(g, k, j, N)
                        assert valuation.n_module(g, k, j, N) == want, (str(w), k, j, p)
            graphs += 1
            single += w.d == 1
    assert (graphs, single) == (490, 88)
