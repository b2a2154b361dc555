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
  n_module reads an index set only at positions j-1, j and j+1, so it is
  tabulated per word arc, position and window pattern (8 patterns),
  called only where a row can be nonzero: at a position crossing the
  row's arc when d > 1 (a one-vertex word has no letter, so that row is
  zero), at a glue edge the arc labels, or at an end triangle's free
  side.  The glue labels and each position's end sides are lists built
  once per graph, and each position's eight windows are built once.
  The table and each arc's crossings are read into translate tables
  once per graph, the one cached build of the window table.  The rows
  of omega_prime (its value at every position) are filled for many
  index sets at once: each set is one fixed-width lane of a Python
  int.  The low byte of each lane of the packed masks shifted by an
  index holds that set's window pattern there, and bytes.translate
  through the window table's rows turns the patterns of all sets into
  packed counts.  Each arc's prefix sums over the positions are then
  one big-int addition per position, and each position crossing the
  arc gets its value in every lane from the totals before and after
  it, M_minus - M_plus and the sign that the set's bit at j selects.
  The lane width comes from a bound on |omega_prime| that the window
  table and d give.  valuation_v_gamma fills the rows of all canonical
  index sets in one call, then takes the sets in the generator's
  order, smallest first, and values each from its canonical subsets
  one position smaller.  An index set is an int mask (bit j for
  position j) wherever it is taken, returned or used as a key, so a
  subset is one cleared bit and a window one shift.  This route reads
  the word, the triangulation and the tiles' labels (the glue labels as
  the graph lists them) and triangles, never a matching or a table the
  matching route built.

compare_valuations matches the two routes through the bijection and
keeps the agreed table on the graph, where the expansion reads it.
n_module is the per-position count the window table holds; the tests
check the twist rows against an edge scan and a count of the word's
diagonals, and the window table against a sum over positions of n_module.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from functools import lru_cache
from itertools import accumulate

from .errors import (
    BijectionViolation,
    CannotTwist,
    InconsistentValuation,
    UnmatchedCase,
    UnreachableSubmodule,
)
from .snake import (
    SnakeGraph,
    bijection_image,
    canonical_submodules,
    enumerate_matchings,
    maximal_matching,
    minimal_matching,
)
from .strings import check_positions, positions

__all__ = [
    "omega",
    "valuation_v",
    "n_module",
    "omega_prime",
    "valuation_v_gamma",
    "compare_valuations",
]


# -- matching side -----------------------------------------------------


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

# The signed array typecode of each item size in bytes, and the bit of
# position j in the window j-1, j, j+1 as a translate table, which reads a
# byte by its low three bits.
_SIGNED = {array(code).itemsize: code for code in "qlihb"}
_BIG_ENDIAN = sys.byteorder == "big"
_SIGN = bytes(pattern >> 1 & 1 for pattern in range(8)) * 32


def _end_sides(g: SnakeGraph) -> list:
    """Per position, (k, ccw) for each free side k of an end tile's outer
    triangle there, once per graph: ccw whether k is the ccw flank of the end
    diagonal.  Only positions 1 and d have any.  A triangle's sides are
    distinct; when d = 1 both end triangles count at position 1."""
    if g._end_sides is None:
        t, arcs, d = g.triangulation, g.word.vertices, g.d
        sides = [()] * d
        for end, tri in ((1, g.tiles[0].tri_in), (d, g.tiles[-1].tri_out)):
            diag = arcs[end - 1]
            sides[end - 1] += tuple((k, t.ccw_flank(tri, diag) == k) for k in t.triangles[tri] if k != diag)
        g._end_sides = sides
    return g._end_sides


def n_module(g: SnakeGraph, k: int, j: int, indices: int) -> tuple:
    """Counts (n, n_plus, n_minus) of arc k at position j for an index set mask N.

    The signed parts appear only when position j crosses arc k itself:
    n_plus = [j+1 in N] != (letter j is direct) when j < d, and
    n_minus = [j-1 in N] == (letter j-1 is direct) when j > 1.  The
    plain part counts the glued edge after tile j when it carries k and
    N splits j from j+1 (the graph's glue labels), and, at the end
    positions 1 and d, a free side k of the end tile's outer triangle
    (from _end_sides, stored once per graph): [j in N] == (k is the ccw
    flank of the end diagonal).  All contributions accumulate.  A
    position of N outside 1..d is an UnmatchedCase.
    """
    w = g.word
    arcs, letters, d = w.vertices, w.letters, g.d
    if not 1 <= j <= d:
        raise UnmatchedCase(f"position {j} outside 1..{d}")
    if indices & 1 or indices >> d + 1:
        check_positions(indices, d)
    n_plus = n_minus = plain = 0
    if arcs[j - 1] == k:
        # The paper's cases by the directions of letters j-1 and j:
        # inverse-inverse gives n_plus = [j+1 in N], n_minus = [j-1 not in N];
        # direct-direct [j+1 not in N], [j-1 in N]; inverse-direct
        # [j+1 not in N], [j-1 not in N]; direct-inverse [j+1 in N],
        # [j-1 in N]; the word ends keep only the side that has a letter.
        if j < d:
            n_plus = int(indices >> j + 1 & 1 != letters[j - 1].direct)
        if j > 1:
            n_minus = int(indices >> j - 1 & 1 == letters[j - 2].direct)
    if j < d and g._glue_labels[j - 1] == k and (indices >> j ^ indices >> j + 1) & 1:
        plain += 1
    for side, ccw in (g._end_sides or _end_sides(g))[j - 1]:
        if side == k:
            plain += indices >> j & 1 == ccw
    return n_plus + n_minus + plain, n_plus, n_minus


def _windows(j: int, d: int) -> tuple:
    """The eight index sets among j-1, j, j+1 inside 1..d: pattern bit b
    selects j-1+b.  n_module never reads position 0 or d + 1, so a pattern
    naming one of them counts as the same pattern without it."""
    inside = (2 << d) - 2
    return tuple([pattern << j - 1 & inside for pattern in range(8)])


def _window_counts(g: SnakeGraph) -> tuple:
    """(table, crossings): n_module per word arc, position and window pattern,
    and each arc's crossings as (index, M_minus - M_plus) in word order.  Only
    rows that can be nonzero call n_module: arc k at a position crossing it
    when d > 1, at a glue edge it labels or as an end triangle's free side;
    others share a zero row.  Each position with such a row builds its
    windows once.  _window_bytes reads the table once per graph.
    """
    arcs, d = g.word.vertices, g.d
    positions: dict = {}
    for p, k in enumerate(arcs):
        positions.setdefault(k, []).append(p)
    crossings = {
        k: [(p, 2 * seen - len(ps) + 1) for seen, p in enumerate(ps)] for k, ps in positions.items()
    }
    table = {k: [((0, 0, 0),) * 8] * d for k in positions}
    for p, sides in enumerate(_end_sides(g)):
        # the arcs whose row can be nonzero at position p + 1
        live = {k for k, _ in sides}.union(g._glue_labels[p : p + 1], arcs[p : p + 1] if d > 1 else ())
        windows = _windows(p + 1, d)
        for k in live & table.keys():
            table[k][p] = tuple([n_module(g, k, p + 1, N) for N in windows])
    return table, crossings


@lru_cache(maxsize=256)
def _row_tables(row: tuple) -> tuple:
    """One row of the window table as bytes.translate tables: n, and
    n_plus - n_minus - n + bias, read at a position crossing the row's arc;
    then the bias, the least that keeps that table nonnegative, and the
    row's largest count.  Each table repeats its 8 patterns 32 times, so a
    byte is read by its low three bits.

    The tables depend on the row's counts alone, and rows repeat across
    positions, words and surfaces (the annulus families, the bundled
    surfaces' strings and seeded polygons show 12 distinct rows), so they
    are kept by row; a word of one to three vertices then pays lookups, not
    table builds."""
    signed = [n_plus - n_minus - n for n, n_plus, n_minus in row]
    bias = -min(signed)
    plain = bytes(n for n, _, _ in row) * 32
    return plain, bytes(x + bias for x in signed) * 32, bias, max(map(max, row))


def _window_bytes(g: SnakeGraph) -> tuple:
    """The window table as translate tables, built once per graph.

    Per word arc: the table of n at each index, and per crossing (index,
    its signed table, M_minus - M_plus - bias).  Also the width in bytes of
    one omega_prime lane, a power of two: with c the largest count in the
    table, |omega_prime| < (d + 1)(c + 1), as the signed parts add at most
    2c, the plain totals of the other d - 1 positions at most (d - 1)c, and
    |M_minus - M_plus| < d.
    """
    if g._window_bytes is None:
        (table, crossings), c, arcs = _window_counts(g), 0, []
        for k, rows in table.items():
            tables = [_row_tables(row) for row in rows]
            c = max(c, *[largest for *_, largest in tables])
            arcs.append(
                (
                    [plain for plain, *_ in tables],
                    [(p, tables[p][1], m - tables[p][2]) for p, m in crossings[k]],
                )
            )
        g._window_bytes = 1 << (((g.d + 1) * (c + 1)).bit_length() // 8).bit_length(), arcs
    return g._window_bytes


def _omega_prime_rows(g: SnakeGraph, masks: list) -> None:
    """omega_prime at every position for every given index set at once,
    stored on the graph by mask.

    Each set is one fixed-width lane of a Python int.  The window patterns
    of all sets at an index are the low bytes of the packed masks shifted by
    that index; translated through the window tables and spread one value
    lane apart, they give each arc's packed counts, whose prefix sums are
    big-int additions.  Lane values are signed: sums of packed ints are
    exact, and half a lane added to every lane makes each one nonnegative
    for the sign selection and the decode.
    """
    width, arcs = _window_bytes(g)
    d, count = g.d, len(masks)
    # Mask lanes hold bits 0..d+1, so each index's window j-1, j, j+1 (bits
    # p, p+1, p+2 for index p) lies in its own set's lane.
    step = (d + 9) // 8
    big = int.from_bytes(b"".join([m.to_bytes(step, "little") for m in masks]), "little")
    patterns = [(big >> p).to_bytes(count * step, "little")[::step] for p in range(d)]
    lanes = bytearray(count * width)

    def spread(table: bytes, p: int) -> int:
        lanes[::width] = patterns[p].translate(table)
        return int.from_bytes(lanes, "little")

    one = int.from_bytes(b"\x01".ljust(width, b"\0") * count, "little")
    half, full = one << 8 * width - 1, (1 << 8 * width) - 1
    columns = [()] * d
    for plain, crossings in arcs:
        before = list(accumulate(map(spread, plain, range(d)), initial=0))
        for p, signed, shift in crossings:
            # half + value and half - value in every lane; the set's bit at
            # position j = p + 1 keeps the first, and xor with half turns the
            # kept lane into two's complement
            value = spread(signed, p) + before[-1] - 2 * before[p] + shift * one + half
            negated = (half << 1) - value
            kept = negated ^ (value ^ negated) & spread(_SIGN, p) * full
            column = array(_SIGNED[width], (kept ^ half).to_bytes(count * width, "little"))
            if _BIG_ENDIAN:
                column.byteswap()
            columns[p] = column
    g._omega_prime_rows.update(zip(masks, zip(*columns)))


def omega_prime(g: SnakeGraph, j: int, indices: int) -> int:
    """Word-side form of the twist increment at position j.

    Equals sign * (N_plus - M_plus - N_minus + M_minus) for the arc k
    crossed at j: M_minus and M_plus count the other positions crossing k
    before and after j, and N_minus and N_plus add the signed parts that
    n_module anchors at j to its plain totals at the positions on each side.
    """
    if not 1 <= j <= g.d:
        raise UnmatchedCase(f"position {j} outside 1..{g.d}")
    row = g._omega_prime_rows.get(indices)
    if row is None:
        check_positions(indices, g.d)
        _omega_prime_rows(g, [indices])
        row = g._omega_prime_rows[indices]
    return row[j - 1]


def valuation_v_gamma(g: SnakeGraph) -> dict:
    """Valuation of every submodule index set, from the word alone.

    One pass over the canonical index sets in the generator's order,
    smallest first, starting from the empty set at 0: each set N takes
    values[N - {j}] - omega_prime(j, N - {j}) from every canonical set
    one position smaller, each step checked from both of its ends and
    all of N's steps checked to agree.  The table is keyed by mask and
    keeps that order.  The omega_prime rows of all the sets are filled
    before the pass, and N's subsets are found by clearing one bit.

    Every nonempty canonical set has such a subset, so the smaller sets
    are all in the table when N is reached.  A run of one position can
    go.  A longer run [a, b] of N can drop a when letter a is direct (a
    run then opens at a + 1), or b when letter b - 1 is inverse (one
    closes at b - 1).  Otherwise letter a is inverse and letter b - 1
    direct, so the run holds an inverse letter i followed by a direct
    letter i + 1, and the position i + 1 between them can go: the run
    closes at i and reopens at i + 2.
    """
    values = {}
    sets = canonical_submodules(g)
    _omega_prime_rows(g, sets)
    for N in sets:
        found = None if N else 0
        rest = N
        while rest:
            bit = rest & -rest  # the positions of N in increasing order
            rest ^= bit
            smaller = N ^ bit
            if smaller not in values:
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
                f"no canonical index set one position smaller than {positions(N)}"
            )
        values[N] = found
    full = (2 << g.d) - 2
    if full not in values:
        raise UnreachableSubmodule(f"the full index set {positions(full)} was not generated")
    if values[full] != 0:
        raise InconsistentValuation(f"full index set has valuation {values[full]}, want 0")
    return values


def compare_valuations(g: SnakeGraph) -> dict:
    """v on matchings vs the word-side valuation, matched through the bijection.

    The agreed table (index set mask -> valuation) is kept on the graph; a
    disagreement raises and keeps nothing.  The two tables must also
    hold the same index sets: a matching's set with no word-side value,
    or a word-side set no matching reaches, is a BijectionViolation.
    """
    if g._compared is None:
        v_match = valuation_v(g)
        v_word = valuation_v_gamma(g)
        table, image = {}, bijection_image(g)
        for P, val in v_match.items():
            indices = image.get(P)
            if indices is None:
                raise BijectionViolation(
                    f"{sorted(g.edges(P))} is not a perfect matching of the graph"
                )
            word_val = v_word.get(indices)
            if word_val is None:
                raise BijectionViolation(
                    f"matched index set {positions(indices)} has no word-side valuation"
                )
            if word_val != val:
                raise InconsistentValuation(
                    f"valuations disagree on {positions(indices)}: {val} vs {word_val}"
                )
            table[indices] = val
        if len(table) != len(v_word):
            raise BijectionViolation(
                f"matchings reach {len(table)} of the {len(v_word)} word-side index sets"
            )
        g._compared = table
    return g._compared
