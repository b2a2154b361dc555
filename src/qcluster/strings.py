"""Strings over a gentle quiver and their canonical submodules.

A string word is a sequence of vertices v_1 .. v_d joined by letters;
the letter at position p is a quiver arrow traversed forwards (a
"direct" letter, arrow v_p -> v_{p+1}) or backwards (an "inverse"
letter, arrow v_{p+1} -> v_p).  Words are valid when consecutive
letters compose, nothing cancels, and no forbidden composition appears
in the word or its reverse.

The string module M(w) has one basis vector per position, and letter p
carries an arrow between positions p and p+1: p -> p+1 when the letter
is direct, p+1 -> p when it is inverse.  An index set N spans a
submodule exactly when N lies in 1..d and no arrow of the word leaves
N.  In runs: every maximal run [i, j] of N has a direct letter entering
it on the left (or i = 1) and an inverse letter on the right (or
j = d), the form the generator of canonical sets builds from.  An index
set is an int mask throughout, bit p set for each position p (bit 0 is
never set); `positions` lists a mask's positions where text is printed.
An extension's smoothing factors are SmoothingFactor values of kind
string, arc, unit or open.

An overlap extension is a common substring crossed in opposite fashion.
Three facts of _overlap_extensions trim its search: one length per start
pair, two orientations of four, no relation check at a single vertex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    AmbiguousConnector,
    InvalidString,
    NonCanonicalSubmodule,
    NotComposable,
    NotReduced,
    RelationViolated,
    UnmatchedCase,
)
from .surface import Arrow, QuiverWithRelations

__all__ = [
    "Letter",
    "StringWord",
    "SmoothingFactor",
    "Extension",
    "validate_string",
    "parse_string",
    "positions",
    "sort_masks",
    "check_positions",
    "is_canonical_submodule",
    "enumerate_canonical_submodules",
    "dimension_vector",
    "all_extensions",
    "enumerate_strings",
]


@dataclass(frozen=True)
class Letter:
    arrow: Arrow
    direct: bool

    def inverse(self) -> "Letter":
        return Letter(self.arrow, not self.direct)

    def endpoints(self) -> tuple:
        """(from, to) as traversed in the word."""
        if self.direct:
            return (self.arrow.source, self.arrow.target)
        return (self.arrow.target, self.arrow.source)

    def __str__(self) -> str:
        return f">{self.arrow.name}>" if self.direct else f"<{self.arrow.name}<"


@dataclass(frozen=True)
class StringWord:
    vertices: tuple
    letters: tuple = ()

    def __post_init__(self):
        if len(self.vertices) == 0:
            raise InvalidString("a string word needs at least one vertex")
        if len(self.letters) != len(self.vertices) - 1:
            raise InvalidString("letter count must be vertex count minus one")

    @property
    def d(self) -> int:
        return len(self.vertices)

    @property
    def is_trivial(self) -> bool:
        return len(self.letters) == 0

    @cached_property
    def _arrow_masks(self) -> tuple:
        """(direct, inverse): bit p set when letter p is direct, or inverse."""
        direct = sum(1 << p for p, letter in enumerate(self.letters, start=1) if letter.direct)
        return direct, sum(1 << p for p in range(1, self.d)) ^ direct

    def inverse(self) -> "StringWord":
        return StringWord(
            tuple(reversed(self.vertices)),
            tuple(l.inverse() for l in reversed(self.letters)),
        )

    def canonical(self) -> "StringWord":
        """Representative among {w, w^{-1}}: the lexicographically smaller."""
        other = self.inverse()
        return min(self, other, key=_word_sort_key)

    def sub(self, start: int, stop: int) -> "StringWord":
        """Subword on vertex positions start..stop inclusive, 1-based."""
        if not 1 <= start <= stop <= self.d:
            raise InvalidString(f"bad subword range {start}..{stop} of {self.d}")
        return StringWord(
            self.vertices[start - 1 : stop],
            self.letters[start - 1 : stop - 1],
        )

    def __str__(self) -> str:
        parts = [str(self.vertices[0])]
        for letter, v in zip(self.letters, self.vertices[1:]):
            parts.append(str(letter))
            parts.append(str(v))
        return " ".join(parts)


def _word_sort_key(w: StringWord):
    return (
        w.vertices,
        tuple((l.arrow.name, not l.direct) for l in w.letters),
    )


def _trivial_word(vertex: int) -> StringWord:
    return StringWord((vertex,), ())


def concat(left: StringWord, letter: Letter, right: StringWord) -> StringWord:
    return StringWord(
        left.vertices + right.vertices,
        left.letters + (letter,) + right.letters,
    )


def validate_string(w: StringWord, q: QuiverWithRelations) -> None:
    """Raise unless w is a valid string for (Q, I)."""
    for v in w.vertices:
        if v not in q.vertices:
            raise NotComposable(f"vertex {v} is not a quiver vertex")
    for p, letter in enumerate(w.letters, start=1):
        frm, to = letter.endpoints()
        if (frm, to) != (w.vertices[p - 1], w.vertices[p]):
            raise NotComposable(
                f"letter {p} ({letter}) joins {frm}->{to}, "
                f"word has {w.vertices[p - 1]}->{w.vertices[p]}"
            )
    for p in range(len(w.letters) - 1):
        a, b = w.letters[p], w.letters[p + 1]
        if a.arrow.name == b.arrow.name and a.direct != b.direct:
            raise NotReduced(f"letters {p + 1},{p + 2} cancel ({a} then {b})")
        if a.direct and b.direct and (a.arrow.name, b.arrow.name) in q.relations:
            raise RelationViolated(
                f"letters {p + 1},{p + 2} compose to a forbidden path {a.arrow.name}{b.arrow.name}"
            )
        if (not a.direct) and (not b.direct) and (b.arrow.name, a.arrow.name) in q.relations:
            raise RelationViolated(
                f"letters {p + 1},{p + 2} reverse to a forbidden path {b.arrow.name}{a.arrow.name}"
            )


def _is_valid_string(w: StringWord, q: QuiverWithRelations) -> bool:
    try:
        validate_string(w, q)
    except InvalidString:
        return False
    return True


_TOKEN = re.compile(r"([<>])\s*([A-Za-z0-9_]*)\s*\1|\d+")


def parse_string(text: str, quiver: QuiverWithRelations) -> StringWord:
    """Parse "1 >a> 2 <b< 1"; omitted arrow names take the least fit.
    Malformed text raises InvalidString, a letter no arrow fits NotComposable."""
    tokens = []
    pos = 0
    for match in _TOKEN.finditer(text):
        if text[pos : match.start()].strip():
            raise InvalidString(f"cannot parse string near {text[pos:]!r}")
        pos = match.end()
        if match.group(1):
            tokens.append(("letter", match.group(1) == ">", match.group(2)))
        else:
            tokens.append(("vertex", int(match.group(0)), None))
    if text[pos:].strip():
        raise InvalidString(f"cannot parse string near {text[pos:]!r}")
    if not tokens or tokens[0][0] != "vertex" or tokens[-1][0] != "vertex":
        raise InvalidString("a string starts and ends with an arc id")
    vertices = []
    letters = []
    expect_vertex = True
    for kind, a, b in tokens:
        if (kind == "vertex") != expect_vertex:
            raise InvalidString("arc ids and letters must alternate")
        if kind == "vertex":
            vertices.append(a)
        else:
            letters.append((a, b))
        expect_vertex = not expect_vertex
    built = []
    for p, (direct, name) in enumerate(letters):
        src, tgt = vertices[p], vertices[p + 1]
        if not direct:
            src, tgt = tgt, src
        candidates = sorted(
            (arrow for arrow in quiver.arrows_between(src, tgt) if not name or arrow.name == name),
            key=lambda arrow: arrow.name,
        )
        if not candidates:
            raise NotComposable(
                f"no arrow {'named ' + name + ' ' if name else ''}from {src} to {tgt}"
            )
        built.append(Letter(candidates[0], direct))
    word = StringWord(tuple(vertices), tuple(built))
    validate_string(word, quiver)
    return word


def positions(mask: int) -> list:
    """The positions of an index set, ascending: the bits set in its mask."""
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


# Each byte with its bits in reverse order: a mask's little-endian bytes
# translated through it compare as the mask's bits read from bit 0 up.
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def sort_masks(masks: list, width: int) -> list:
    """Sort masks of at most width bits in place and return them; masks of one
    popcount take the order of the sorted lists of their set bits.  Those
    compare at the lowest bit where two masks differ (its holder first), as
    bit-reversed bytes do."""
    size = (width + 7) // 8
    masks.sort(key=lambda m: m.to_bytes(size, "little").translate(_BIT_REVERSED), reverse=True)
    return masks


def check_positions(mask: int, d: int) -> None:
    """Raise UnmatchedCase naming position 0, or else the highest past d, unless N lies in 1..d."""
    if mask & 1 or mask >> d + 1:
        raise UnmatchedCase(f"position {0 if mask & 1 else mask.bit_length() - 1} outside 1..{d}")


def is_canonical_submodule(w: StringWord, mask: int) -> bool:
    """Whether the index set spans a submodule of M(w): a set of positions
    1..d that no arrow of the word leaves.

    With bit p of the mask for position p, a direct letter p leaves N when
    p is in N and p + 1 is not, an inverse one when p + 1 is in N and p is
    not: two mask tests against the word's arrow masks.
    """
    if mask & 1 or mask >> w.d + 1:
        return False
    above = mask >> 1  # bit p: position p + 1
    direct, inverse = w._arrow_masks
    return not (mask & ~above & direct or above & ~mask & inverse)


def enumerate_canonical_submodules(w: StringWord) -> list:
    """All submodule index sets as masks, ordered by (size, sorted positions).

    The sets come straight from the run conditions, so the work grows with
    the output, not with 2^d.  A run may open at p when p = 1 or letter
    p-1 is direct, and close at p when p = d or letter p is inverse; the
    next run opens two or more positions after the close, which is two
    past the set's highest bit.  Sorted as sort_masks sorts, then stably
    by size, they take the order of a scan over itertools.combinations.
    Each set is checked by is_canonical_submodule.
    """
    d = w.d
    direct, inverse = w._arrow_masks
    opens, closes = direct << 1 | 2, inverse | 1 << d  # bit p: a run may open, close at p
    later = [[]] * (d + 3)  # later[a]: every run opening at a or after
    for a in range(d, 0, -1):
        later[a] = later[a + 1] + [(2 << b) - (1 << a) for b in range(a, d + 1) if opens >> a & closes >> b & 1]
    found, stack = [], [0]
    while stack:
        mask = stack.pop()
        found.append(mask)
        stack += map(mask.__or__, later[mask.bit_length() + 1])
    sort_masks(found, d + 1).sort(key=int.bit_count)
    for mask in found:
        if not is_canonical_submodule(w, mask):
            raise NonCanonicalSubmodule(
                f"generated index set {positions(mask)} breaks the run conditions of {w}"
            )
    return found


def dimension_vector(w: StringWord, indices: int | None = None, *, n: int) -> tuple:
    """Counts of each quiver vertex among the selected positions.

    Entry k-1 counts positions p in the index set with v_p = k, for
    k = 1..n.  With indices=None the whole module is measured.  A
    position outside 1..d is an UnmatchedCase.
    """
    if indices is None:
        indices = (2 << w.d) - 2
    check_positions(indices, w.d)
    dim = [0] * n
    for p in positions(indices):
        dim[w.vertices[p - 1] - 1] += 1
    return tuple(dim)


# -- truncations ------------------------------------------------------


# Each truncation as (which end moves, direction of the letter cut at).
_CUTS = {
    "head_after_direct": ("head", True),
    "head_after_inverse": ("head", False),
    "tail_before_inverse": ("tail", False),
    "tail_before_direct": ("tail", True),
}


def _truncate(w: StringWord, which: str) -> StringWord:
    """Drop the head through the first letter of a direction, or keep the
    word up to the last such letter; with none, keep the vertex at the
    end that stays."""
    end, direct = _CUTS[which]
    cuts = [p for p, letter in enumerate(w.letters, start=1) if letter.direct == direct]
    if end == "head":
        return w.sub(cuts[0] + 1, w.d) if cuts else _trivial_word(w.vertices[-1])
    return w.sub(1, cuts[-1]) if cuts else _trivial_word(w.vertices[0])


# -- extensions and smoothing factors ---------------------------------


@dataclass(frozen=True)
class SmoothingFactor:
    """One factor of a smoothing term.

    kind "string": the module X_{word};
    kind "arc":    the initial-arc generator with exponent vector e_arc;
    kind "unit":   the identity;
    kind "open":   not determined combinatorially, solved numerically.
    """

    kind: str
    word: StringWord | None = None
    arc: int | None = None


@dataclass(frozen=True)
class Extension:
    """One middle-term datum of a short exact sequence between strings.

    ``u1`` (a string) and ``u2_options`` describe the first smoothing
    product; ``u3``/``u4`` the second.  Arrow extensions leave several
    candidate partners for u1 (resolved against the quantum identity);
    overlap extensions pin u2 to a string.
    """

    kind: str  # "arrow" | "overlap"
    u1: StringWord
    u2_options: tuple
    u3: SmoothingFactor
    u4: SmoothingFactor
    detail: str = ""

    def dedup_key(self) -> tuple:
        """(kind, sorted word keys): u1 for an arrow, {u1, u2} for an overlap."""
        k1 = _word_sort_key(self.u1.canonical())
        if self.kind == "overlap":
            k2 = _word_sort_key(self.u2_options[0].word.canonical())
            return (self.kind, tuple(sorted({k1, k2})))
        return (self.kind, (k1,))


def _arrow_extensions(v: StringWord, w: StringWord, q: QuiverWithRelations) -> list:
    """Extensions of M(v) by M(w) glued along one arrow.

    The arrow a runs from the first vertex of v to the last vertex of
    w; the middle term is the string w a^{-1} v.  The complementary
    product comes from end-truncations of v when v carries letters, and
    from the triangle geometry when both inputs are trivial; with a
    trivial v against a longer w the second factor is left open.
    """
    out = []
    t = q.triangulation
    for a in q.arrows_between(v.vertices[0], w.vertices[-1]):
        u1 = concat(w, Letter(a, False), v)
        if not _is_valid_string(u1, q):
            continue
        third = t.third_side(a.triangle, a.source, a.target)
        u2_options = (
            SmoothingFactor("arc", arc=third),
            SmoothingFactor("string", word=_trivial_word(a.source)),
            SmoothingFactor("string", word=_trivial_word(a.target)),
            SmoothingFactor("unit"),
        )
        if not v.is_trivial:
            u3 = _truncation_factor(v, "head_after_inverse")
            u4 = _truncation_factor(v, "tail_before_inverse")
        elif w.is_trivial:  # flanks of a's ends in their other triangles
            u3 = SmoothingFactor("arc", arc=t.ccw_flank(t.other_triangle_at(a.source, a.triangle), a.source))
            u4 = SmoothingFactor("arc", arc=t.cw_flank(t.other_triangle_at(a.target, a.triangle), a.target))
        else:
            u3 = u4 = SmoothingFactor("open")
        out.append(
            Extension(
                kind="arrow",
                u1=u1,
                u2_options=u2_options,
                u3=u3,
                u4=u4,
                detail=f"arrow {a.name}: {a.source}->{a.target}",
            )
        )
    return out


def _connector_factor(q: QuiverWithRelations, left: StringWord, right: StringWord) -> SmoothingFactor:
    """left f^{-1} right for the unique arrow f making a valid string.

    Two arrows can qualify only when left and right are both one vertex
    and two parallel arrows run from right to left: a letter at either end
    leaves at most one of two parallel arrows, since the string must stay
    reduced (a vertex has at most two arrows in and two out) and avoid the
    relations (an arrow composes nonzero with at most one arrow).  The
    overlap search does pass such ends, as u3 of 1 >b> 3 and 2 <c< 3 >e> 4
    on an annulus with 3 + 1 marked points, where the arcs 1 and 2 bound an
    internal triangle and the triangle on the inner boundary.  The recipe
    names no choice there, so this raises :class:`AmbiguousConnector`.
    """
    candidates = []
    for f in q.arrows_between(right.vertices[0], left.vertices[-1]):
        joined = concat(left, Letter(f, False), right)
        if _is_valid_string(joined, q):
            candidates.append(joined)
    if len(candidates) > 1:
        raise AmbiguousConnector(
            f"{len(candidates)} arrows join {left} to {right} as valid strings"
        )
    if not candidates:
        return SmoothingFactor("open")
    return SmoothingFactor("string", word=candidates[0])


def _truncation_factor(piece: StringWord, which: str) -> SmoothingFactor:
    """The string left by truncating piece, open when the truncation
    collapses to one vertex: there the combinatorial recipe no longer
    names the factor, and the multiplication solver pins it down from the
    residual instead."""
    cut = _truncate(piece, which)
    if cut.is_trivial:
        return SmoothingFactor("open")
    return SmoothingFactor("string", word=cut)


def _overlap_extensions(v: StringWord, w: StringWord, q: QuiverWithRelations) -> list:
    """Extensions from a shared subword crossed in opposite fashion.

    Writing v = v_L b m a^{-1} v_R and w = w_L d^{-1} m c w_R (with b
    direct, a/d traversed inversely, c direct; any of the four outer
    parts may be absent), the diagonal terms are u1 = v_L b m c w_R and
    u2 = w_L d^{-1} m a^{-1} v_R, and the off-diagonal product joins the
    leftover ends with uniquely determined inverse connectors.  They are
    listed by the length of m, then sv, then sw.  For valid v and w over
    a quiver of build_quiver, three facts trim the search:

    1. One length per start pair: m is never followed by one letter in
       both words (a^{-1} is inverse, c direct), so from (sv, sw) only the
       longest common run can pass.
    2. Inverting both words turns an overlap of (v, w) into one of
       (v^{-1}, w^{-1}) with u1 and u2 swapped and inverted, so the same
       dedup_key: all_extensions searches (v, w) and (v, w^{-1}) only.
    3. A one-vertex m = x needs no relation check.  Each internal arc lies
       in two distinct triangles, and arrows compose to zero exactly when
       they share one, so at most one arrow into x composes with c to a
       nonzero path.  If a c is not in I, then b c is in I (b != a, as v
       is reduced) and u1 is invalid, or b is missing, d exists, a d is
       in I and u2 is invalid; likewise for b d.
    """
    starts = []
    for sv in range(1, v.d + 1):
        for sw in range(1, w.d + 1):
            if v.vertices[sv - 1] != w.vertices[sw - 1]:
                continue
            ev, ew = sv, sw  # m is v[sv..ev] = w[sw..ew]
            while ev < v.d and ew < w.d and v.letters[ev - 1] == w.letters[ew - 1]:
                ev, ew = ev + 1, ew + 1
            b = v.letters[sv - 2] if sv > 1 else None
            a = v.letters[ev - 1] if ev < v.d else None
            d = w.letters[sw - 2] if sw > 1 else None
            c = w.letters[ew - 1] if ew < w.d else None
            if (b and not b.direct) or (a and a.direct) or (d and d.direct) or (c and not c.direct):
                continue  # b and c are direct, a and d inverse
            if not (a or c) or not (b or d):
                continue  # on each side, m stops short of the end of v or of w
            starts.append((ev - sv, sv, sw, ev, ew, a, b, c, d))

    out = []
    for _, sv, sw, ev, ew, a, b, c, d in sorted(starts, key=lambda start: start[:3]):
        # u1 is v through m, then w after it; u2 is w through m, then v after it
        u1 = StringWord(v.vertices[:ev] + w.vertices[ew:], v.letters[: ev - 1] + w.letters[ew - 1 :])
        u2 = StringWord(w.vertices[:ew] + v.vertices[ev:], w.letters[: ew - 1] + v.letters[ev - 1 :])
        if not (_is_valid_string(u1, q) and _is_valid_string(u2, q)):
            continue
        if b is not None and d is not None:
            u3 = _connector_factor(q, v.sub(1, sv - 1), w.sub(1, sw - 1))
        elif b is None:
            u3 = _truncation_factor(w.sub(1, sw - 1), "tail_before_inverse")
        else:
            u3 = _truncation_factor(v.sub(1, sv - 1), "tail_before_direct")
        if a is not None and c is not None:
            u4 = _connector_factor(q, v.sub(ev + 1, v.d), w.sub(ew + 1, w.d))
        elif a is None:
            u4 = _truncation_factor(w.sub(ew + 1, w.d), "head_after_direct")
        else:
            u4 = _truncation_factor(v.sub(ev + 1, v.d), "head_after_inverse")
        out.append(
            Extension(
                kind="overlap",
                u1=u1,
                u2_options=(SmoothingFactor("string", word=u2),),
                u3=u3,
                u4=u4,
                detail=f"overlap v[{sv}..{ev}] = w[{sw}..{ew}]",
            )
        )
    return out


def all_extensions(v: StringWord, w: StringWord, q: QuiverWithRelations) -> list:
    """Deduplicated extensions over both argument orders and orientations,
    the first found per dedup_key.  Arrows glue all four pairs of ends;
    overlaps need two orientations (fact 2 of _overlap_extensions)."""
    v_both, w_both = (v, v.inverse()), (w, w.inverse())
    seen = {}
    for firsts, seconds in ((v_both, w_both), (w_both, v_both)):
        for fo in firsts:
            for so in seconds:
                found = _arrow_extensions(fo, so, q)
                if fo is firsts[0]:
                    found += _overlap_extensions(fo, so, q)
                for ext in found:
                    seen.setdefault(ext.dedup_key(), ext)
    return [seen[k] for k in sorted(seen)]


# -- enumeration ------------------------------------------------------


def enumerate_strings(q: QuiverWithRelations, max_vertices: int) -> list:
    """All valid strings with at most the given number of vertices.

    One representative per inversion class, in a deterministic order.
    """
    found = {}

    def extend(word: StringWord):
        key = _word_sort_key(word.canonical())
        if key in found:
            return
        found[key] = word.canonical()
        if word.d >= max_vertices:
            return
        last = word.vertices[-1]
        steps = [Letter(a, True) for a in q.arrows_from(last)]
        steps += [Letter(a, False) for a in q.arrows_to(last)]
        for letter in steps:
            nxt = letter.endpoints()[1]
            candidate = StringWord(word.vertices + (nxt,), word.letters + (letter,))
            if _is_valid_string(candidate, q):
                extend(candidate)

    for v in sorted(q.vertices):
        extend(_trivial_word(v))
    return [found[k] for k in sorted(found)]
