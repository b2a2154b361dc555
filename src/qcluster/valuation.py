"""Power-of-q valuations of matchings and of submodule index sets.

Every function here takes the word's snake graph, the one per-word
context: it carries the word and the triangulation, and the tables
below live on it as long as it does.  Two routes to the same integer:

* On the snake graph, twisting a tile changes the valuation by a count
  of matched edges carrying the tile's arc on either side of the tile,
  corrected by how often the arc reappears as a diagonal.  Breadth-first
  propagation from the minimal matching (valuation 0) assigns every
  matching a value; every twist relation is re-checked.  Matchings are
  int masks over the graph's sorted edge ids, and omega reads one twist
  row per tile, built with the graph: the tile's opposite-pair masks and
  their union, the masks of the edges carrying its arc before and after
  it, and m_minus - m_plus.  So omega is a range check, a row read and
  two popcounts.

* On the module side the same quantities are computed from the word
  alone, and adding or removing one index changes the valuation by the
  resulting signed count.  At a position j crossing arc k, with index
  set N: n_plus = [j+1 in N] != (letter j is direct) for j < d, and
  n_minus = [j-1 in N] == (letter j-1 is direct) for j > 1.  Each arc
  also counts the glued edges that N splits and the free sides of the
  two end tiles, each end by whether its position is in N.
  n_module reads an index set only at positions j-1, j and j+1, so each
  graph tabulates it once per word arc, position and window pattern
  (8 patterns), and keeps the positions crossing each arc.  For one
  index set, omega_prime reads each arc's cells at the set's patterns,
  takes prefix sums of their totals, and evaluates only the positions
  crossing that arc, where the diagonal counts are the crossings
  before and after; it keeps the row of values for every position.
  valuation_v_gamma takes the canonical index sets in the generator's
  order, smallest first, and values each from its canonical subsets
  one position smaller.  Index sets are frozensets wherever they are
  taken, returned or used as keys of a kept table; the walk's int masks
  (bit j for position j) only find subsets and fill omega_prime rows
  inside one call.  This route reads the word, the triangulation and
  the tiles' labels and triangles, never a matching or a table the
  matching route built.

compare_valuations matches the two routes through the bijection and
keeps the agreed table on the graph, where the expansion reads it.
m_pm and n_module are the per-position counts the tables hold: the
window table is built from n_module, and the tests check the twist
rows' m_minus - m_plus against m_pm, the rows against an edge scan and
the window table against a sum over positions of n_module.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate
from operator import getitem, itemgetter

from .errors import (
    BijectionViolation,
    CannotTwist,
    InconsistentValuation,
    UnmatchedCase,
    UnreachableSubmodule,
)
from .snake import (
    SnakeGraph,
    canonical_submodules,
    enumerate_matchings,
    matching_to_submodule,
    maximal_matching,
    minimal_matching,
)

__all__ = [
    "m_pm",
    "omega",
    "valuation_v",
    "n_module",
    "omega_prime",
    "valuation_v_gamma",
    "compare_valuations",
]


# -- matching side -----------------------------------------------------


def m_pm(g: SnakeGraph, s: int, tau: int) -> tuple:
    """Occurrences of tau as a diagonal before and after tile s."""
    diagonals, slot = [tile.diagonal for tile in g.tiles], g._slot(s)
    return diagonals[:slot].count(tau), diagonals[slot + 1 :].count(tau)


def omega(g: SnakeGraph, s: int, P: int) -> int:
    """Valuation drop across the twist at tile s: one read of the tile's
    twist row and two popcounts, signed by whether P holds its ccw pair."""
    if not 1 <= s <= g.d:
        raise UnmatchedCase(f"tile {s} outside 1..{g.d}")
    ccw, cw, both, before, after, m = g._twist_rows[s - 1]
    held = P & both
    if held != ccw and held != cw:
        raise CannotTwist(f"matching does not cover tile {s} by an opposite pair")
    drop = (P & after).bit_count() - (P & before).bit_count() + m
    return drop if held == ccw else -drop


def valuation_v(g: SnakeGraph) -> dict:
    """Valuation of every matching, keyed by the matching.

    Propagates v(twist_s(P)) = v(P) - omega(s, P) from the minimal
    matching and cross-checks every twist relation, from both of its
    matchings, and both endpoint normalizations v(minimal) = v(maximal) = 0.
    """
    flips = [(s, ccw, cw, both) for s, (ccw, cw, both, *_) in enumerate(g._twist_rows, start=1)]
    base = minimal_matching(g)
    values = {base: 0}
    queue = deque([base])
    while queue:
        P = queue.popleft()
        here = values[P]
        for s, ccw, cw, both in flips:
            held = P & both  # omega's test, inline: one whole pair
            if held != ccw and held != cw:
                continue
            Q = P ^ both
            val = here - omega(g, s, P)
            stored = values.get(Q)
            if stored is None:
                values[Q] = val
                queue.append(Q)
            elif stored != val:
                raise InconsistentValuation(f"twist at tile {s} gives {val}, stored {stored}")
    all_matchings = enumerate_matchings(g)
    if set(values) != set(all_matchings):
        raise InconsistentValuation(
            f"twists reach {len(values)} of {len(all_matchings)} matchings"
        )
    if values[maximal_matching(g)] != 0:
        raise InconsistentValuation(
            f"maximal matching has valuation {values[maximal_matching(g)]}, want 0"
        )
    return values


# -- module side -------------------------------------------------------


def n_module(g: SnakeGraph, k: int, j: int, indices) -> tuple:
    """Counts (n, n_plus, n_minus) of arc k at position j for an index set N.

    The signed parts appear only when position j crosses arc k itself:
    n_plus = [j+1 in N] != (letter j is direct) when j < d, and
    n_minus = [j-1 in N] == (letter j-1 is direct) when j > 1.  The
    plain part counts the glued edge after tile j when it carries k and
    N splits j from j+1, and, at the end positions 1 and d, a free side
    k of the end tile's outer triangle: [end in N] == (k is the ccw
    flank of the end diagonal).  All contributions accumulate.
    """
    w, t = g.word, g.triangulation
    indices = frozenset(indices)
    arcs, letters, d = w.vertices, w.letters, w.d
    if not 1 <= j <= d:
        raise UnmatchedCase(f"position {j} outside 1..{d}")
    n_plus = n_minus = plain = 0
    if arcs[j - 1] == k:
        # The paper's cases by the directions of letters j-1 and j:
        # inverse-inverse gives n_plus = [j+1 in N], n_minus = [j-1 not in N];
        # direct-direct [j+1 not in N], [j-1 in N]; inverse-direct
        # [j+1 not in N], [j-1 not in N]; direct-inverse [j+1 in N],
        # [j-1 in N]; the word ends keep only the side that has a letter.
        if j < d:
            n_plus = int((j + 1 in indices) != letters[j - 1].direct)
        if j > 1:
            n_minus = int((j - 1 in indices) == letters[j - 2].direct)
    if j < d and g.glue_label(j) == k and (j in indices) != (j + 1 in indices):
        plain += 1
    for end, tri in ((1, g.tile(1).tri_in), (d, g.tile(d).tri_out)):
        diag = arcs[end - 1]
        if j == end and k != diag and k in t.triangles[tri]:
            plain += (end in indices) == (t.ccw_flank(tri, diag) == k)
    return n_plus + n_minus + plain, n_plus, n_minus


def _window(j: int, pattern: int) -> frozenset:
    """The positions among j-1, j, j+1 that the bits of pattern select."""
    return frozenset(j - 1 + b for b in range(3) if pattern >> b & 1)


def _window_counts(g: SnakeGraph) -> dict:
    """n_module per word arc, position and window pattern, built once per graph,
    with each arc's crossings as (index, M_minus - M_plus) in word order."""
    if g._window_counts is None:
        positions: dict = {}
        for p, k in enumerate(g.word.vertices):
            positions.setdefault(k, []).append(p)
        g._crossing_positions = {
            k: [(p, 2 * seen - len(ps) + 1) for seen, p in enumerate(ps)]
            for k, ps in positions.items()
        }
        g._window_counts = {
            k: [
                tuple(n_module(g, k, j, _window(j, pattern)) for pattern in range(8))
                for j in range(1, g.d + 1)
            ]
            for k in positions
        }
    return g._window_counts


def _index_mask(g: SnakeGraph, indices: frozenset) -> int:
    """The index set as an int with bit j set for each position j; a
    position outside 1..d is an UnmatchedCase."""
    mask, d = 0, g.d
    for j in indices:
        if not 1 <= j <= d:
            raise UnmatchedCase(f"index set {sorted(indices)} has a position outside 1..{d}")
        mask |= 1 << j
    return mask


def _omega_prime_row(g: SnakeGraph, indices: frozenset, mask: int) -> tuple:
    """omega_prime at every position for one index set and its mask, stored
    on the graph."""
    # Index p (position j = p + 1) reads its window j-1, j, j+1 from bits
    # p, p+1, p+2 of the mask.
    patterns = [mask >> p & 7 for p in range(g.d)]
    values = [0] * g.d
    for k, table in _window_counts(g).items():
        cells = list(map(getitem, table, patterns))
        # plain totals of the positions before each index, and of all
        before = list(accumulate(map(itemgetter(0), cells), initial=0))
        total = before[-1]
        for p, m_minus_plus in g._crossing_positions[k]:
            n, n_plus, n_minus = cells[p]
            big_plus = n_plus + total - before[p] - n
            big_minus = n_minus + before[p]
            value = big_plus - big_minus + m_minus_plus
            values[p] = value if mask >> p + 1 & 1 else -value
    row = g._omega_prime_rows[indices] = tuple(values)
    return row


def omega_prime(g: SnakeGraph, j: int, indices) -> int:
    """Word-side form of the twist increment at position j.

    Equals sign * (N_plus - M_plus - N_minus + M_minus) for the arc k
    crossed at j: M_minus and M_plus count the other positions crossing k
    before and after j, and N_minus and N_plus add the signed parts that
    n_module anchors at j to its plain totals at the positions on each side.
    """
    if not 1 <= j <= g.d:
        raise UnmatchedCase(f"position {j} outside 1..{g.d}")
    indices = frozenset(indices)
    row = g._omega_prime_rows.get(indices)
    if row is None:
        row = _omega_prime_row(g, indices, _index_mask(g, indices))
    return row[j - 1]


def valuation_v_gamma(g: SnakeGraph) -> dict:
    """Valuation of every submodule index set, from the word alone.

    One pass over the canonical index sets in the generator's order,
    smallest first, starting from the empty set at 0: each set N takes
    values[N - {j}] - omega_prime(j, N - {j}) from every canonical set
    one position smaller, each step checked from both of its ends and
    all of N's steps checked to agree.  The table keeps that order.
    The pass keys the sets it has valued by their masks, so N's subsets
    are found by clearing one bit, and fills N's omega_prime row from
    its mask before reading it.

    Every nonempty canonical set has such a subset, so the smaller sets
    are all in the table when N is reached.  A run of one position can
    go.  A longer run [a, b] of N can drop a when letter a is direct (a
    run then opens at a + 1), or b when letter b - 1 is inverse (one
    closes at b - 1).  Otherwise letter a is inverse and letter b - 1
    direct, so the run holds an inverse letter i followed by a direct
    letter i + 1, and the position i + 1 between them can go: the run
    closes at i and reopens at i + 2.
    """
    values, by_mask, rows = {}, {}, g._omega_prime_rows
    for N in canonical_submodules(g):
        mask = _index_mask(g, N)
        if N not in rows:
            _omega_prime_row(g, N, mask)
        found = None if mask else 0
        rest = mask
        while rest:
            bit = rest & -rest  # the positions of N in increasing order
            rest ^= bit
            smaller = by_mask.get(mask ^ bit)
            if smaller is None:
                continue
            j = bit.bit_length() - 1
            step = omega_prime(g, j, smaller)
            back = omega_prime(g, j, N)
            if step != -back:
                raise InconsistentValuation(
                    f"asymmetric step at position {j}: {step} vs -({back})"
                )
            here = values[smaller] - step
            if found is None:
                found = here
            elif found != here:
                raise InconsistentValuation(f"index step at {j} gives {here}, stored {found}")
        if found is None:
            raise UnreachableSubmodule(
                f"no canonical index set one position smaller than {sorted(N)}"
            )
        values[N] = found
        by_mask[mask] = N
    full = frozenset(range(1, g.d + 1))
    if full not in values:
        raise UnreachableSubmodule(f"the full index set {sorted(full)} was not generated")
    if values[full] != 0:
        raise InconsistentValuation(f"full index set has valuation {values[full]}, want 0")
    return values


def compare_valuations(g: SnakeGraph) -> dict:
    """v on matchings vs the word-side valuation, matched through the bijection.

    The agreed table (index set -> valuation) is kept on the graph; a
    disagreement raises and keeps nothing.  The two tables must also
    hold the same index sets: a matching's set with no word-side value,
    or a word-side set no matching reaches, is a BijectionViolation.
    """
    if g._compared is None:
        v_match = valuation_v(g)
        v_word = valuation_v_gamma(g)
        table = {}
        for P, val in v_match.items():
            indices = matching_to_submodule(g, P)
            word_val = v_word.get(indices)
            if word_val is None:
                raise BijectionViolation(
                    f"matched index set {sorted(indices)} has no word-side valuation"
                )
            if word_val != val:
                raise InconsistentValuation(
                    f"valuations disagree on {sorted(indices)}: {val} vs {word_val}"
                )
            table[indices] = val
        if len(table) != len(v_word):
            raise BijectionViolation(
                f"matchings reach {len(table)} of the {len(v_word)} word-side index sets"
            )
        g._compared = table
    return g._compared
