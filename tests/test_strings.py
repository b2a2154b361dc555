"""String words, canonical index sets, truncations and extensions."""
from __future__ import annotations

import itertools
import re

import pytest

from qcluster import strings
from qcluster.errors import (
    AmbiguousConnector,
    NonCanonicalSubmodule,
    NotComposable,
    NotReduced,
    RelationViolated,
    UnmatchedCase,
)
from qcluster.strings import (
    Letter,
    StringWord,
    all_extensions,
    dimension_vector,
    enumerate_canonical_submodules,
    enumerate_strings,
    is_canonical_submodule,
    validate_string,
)
from qcluster.strings import _is_valid_string as is_valid_string
from qcluster.strings import _trivial_word as trivial_word
from qcluster.kronecker import family_word
from qcluster.surface import build_quiver, load_surface

from conftest import ANNULUS_21, HEPTAGON_WITH_A_CYCLE, SURFACES, WHEEL3, make_word, mask_of, positions_of


def position_sets(masks) -> set:
    """Index-set masks as frozensets of their positions."""
    return {frozenset(positions_of(N)) for N in masks}


def test_trivial_word_is_a_lone_vertex():
    w = trivial_word(3)
    assert w.vertices == (3,)
    assert w.letters == ()
    assert w.d == 1
    assert w.is_trivial


def test_inverse_reverses_vertices_and_letters(quivers, g1_word):
    inv = g1_word.inverse()
    assert inv.vertices == (1, 2, 1)
    assert [(l.arrow.name, l.direct) for l in inv.letters] == [
        ("b", True),
        ("a", False),
    ]
    assert inv.inverse() == g1_word


def test_canonical_form_is_shared_with_the_inverse(g1_word):
    assert g1_word.canonical() == g1_word.inverse().canonical()


def test_validate_accepts_the_corpus_words(quivers, g1_word):
    validate_string(g1_word, quivers["annulus"])
    assert is_valid_string(g1_word, quivers["annulus"])


def test_validate_rejects_mismatched_endpoints(quivers):
    q = quivers["annulus"]
    w = StringWord((2, 2), (Letter(q.arrow_named("a"), True),))
    with pytest.raises(NotComposable):
        validate_string(w, q)
    assert not is_valid_string(w, q)


def test_validate_rejects_a_letter_followed_by_its_inverse(quivers):
    q = quivers["annulus"]
    a = q.arrow_named("a")
    w = StringWord((1, 2, 1), (Letter(a, True), Letter(a, False)))
    with pytest.raises(NotReduced):
        validate_string(w, q)


def test_validate_rejects_paths_through_a_relation():
    q = build_quiver(load_surface(WHEEL3))
    w = StringWord(
        (1, 2, 3), (Letter(q.arrow_named("a"), True), Letter(q.arrow_named("b"), True))
    )
    with pytest.raises(RelationViolated):
        validate_string(w, q)


def test_canonical_submodules_of_the_double_crossing(g1_word):
    got = position_sets(enumerate_canonical_submodules(g1_word))
    assert got == {
        frozenset(),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({1, 2, 3}),
    }


def test_canonical_submodules_of_the_longer_family_word(quivers):
    w = make_word(
        quivers["annulus"], (1, 2, 1, 2), [("a", True), ("b", False), ("a", True)]
    )
    got = position_sets(enumerate_canonical_submodules(w))
    assert got == {
        frozenset(),
        frozenset({2}),
        frozenset({4}),
        frozenset({2, 4}),
        frozenset({1, 2}),
        frozenset({1, 2, 4}),
        frozenset({2, 3, 4}),
        frozenset({1, 2, 3, 4}),
    }


def closure_oracle(w):
    """Index sets closed under following every arrow of the word."""
    out = set()
    for r in range(1 << w.d):
        s = {i + 1 for i in range(w.d) if r >> i & 1}
        ok = True
        for p, letter in enumerate(w.letters, start=1):
            if letter.direct and p in s and p + 1 not in s:
                ok = False
            if not letter.direct and p + 1 in s and p not in s:
                ok = False
        if ok:
            out.add(frozenset(s))
    return out


def test_canonical_sets_agree_with_the_closure_oracle(quivers):
    for name in ("annulus", "pentagon", "hexagon"):
        for w in enumerate_strings(quivers[name], 6):
            got = position_sets(enumerate_canonical_submodules(w))
            assert got == closure_oracle(w), w.vertices


def scan_canonical_submodules(w):
    """The 2^d scan over itertools.combinations that the generator replaced."""
    found = []
    for r in range(w.d + 1):
        for combo in itertools.combinations(range(1, w.d + 1), r):
            if is_canonical_submodule(w, mask_of(combo)):
                found.append(mask_of(combo))
    return found


def test_generated_submodules_equal_the_subset_scan_in_order(surfaces, quivers):
    words = [w for name in SURFACES for w in enumerate_strings(quivers[name], 7)]
    annulus = surfaces["annulus"]
    words += [family_word(annulus, s, "G") for s in range(0, 8)]
    words += [family_word(annulus, s, "H") for s in range(1, 8)]
    for w in words:
        assert enumerate_canonical_submodules(w) == scan_canonical_submodules(w), str(w)


def test_a_generated_set_that_breaks_the_run_conditions_is_an_error(monkeypatch, g1_word):
    # a check that refuses the generated set {2, 3} names it
    real = strings.is_canonical_submodule
    monkeypatch.setattr(strings, "is_canonical_submodule", lambda w, N: N != mask_of({2, 3}) and real(w, N))
    with pytest.raises(NonCanonicalSubmodule, match=r"^generated index set \[2, 3\] breaks"):
        enumerate_canonical_submodules(g1_word)


def test_each_generated_set_is_checked_once(monkeypatch, surfaces):
    calls = []
    real = strings.is_canonical_submodule
    monkeypatch.setattr(
        strings, "is_canonical_submodule", lambda w, s: calls.append(s) or real(w, s)
    )
    for s in range(1, 8):
        calls.clear()
        found = enumerate_canonical_submodules(family_word(surfaces["annulus"], s, "G"))
        assert len(calls) == len(found)


def test_is_canonical_submodule_matches_the_enumeration(g1_word):
    members = set(enumerate_canonical_submodules(g1_word))
    for r in range(1 << g1_word.d):
        s = mask_of(i + 1 for i in range(g1_word.d) if r >> i & 1)
        assert is_canonical_submodule(g1_word, s) == (s in members)


@pytest.mark.parametrize("position", [0, -1, 4])
def test_a_position_outside_the_word_is_not_canonical(g1_word, position):
    if position < 0:  # no bit stands for a negative position, so no mask holds one
        with pytest.raises(ValueError):
            mask_of({position})
        return
    assert not is_canonical_submodule(g1_word, mask_of({position}))
    assert not is_canonical_submodule(g1_word, mask_of({1, 2, 3, position}))


def truncations(w: StringWord) -> dict:
    """The four end-truncations of a string, keyed by which end moves.

    ``head_after_direct``   drop through the first direct letter
    ``head_after_inverse``  drop through the first inverse letter
    ``tail_before_inverse`` keep up to the last inverse letter
    ``tail_before_direct``  keep up to the last direct letter
    """
    return {which: strings._truncate(w, which) for which in strings._CUTS}


def test_truncations_of_the_double_crossing(g1_word):
    cuts = truncations(g1_word)
    assert cuts["head_after_direct"].vertices == (2, 1)
    assert [(l.arrow.name, l.direct) for l in cuts["head_after_direct"].letters] == [
        ("b", False)
    ]
    assert cuts["head_after_inverse"] == trivial_word(1)
    assert cuts["tail_before_inverse"].vertices == (1, 2)
    assert [(l.arrow.name, l.direct) for l in cuts["tail_before_inverse"].letters] == [
        ("a", True)
    ]
    assert cuts["tail_before_direct"] == trivial_word(1)


# The four drop functions the truncations were before the one cut rule:
# the reference.


def _first(w, direct):
    for p, letter in enumerate(w.letters, start=1):
        if letter.direct == direct:
            return p
    return None


def _last(w, direct):
    for p in range(len(w.letters), 0, -1):
        if w.letters[p - 1].direct == direct:
            return p
    return None


def drop_head_through_first_direct(w):
    p = _first(w, True)
    return trivial_word(w.vertices[-1]) if p is None else w.sub(p + 1, w.d)


def drop_head_through_first_inverse(w):
    p = _first(w, False)
    return trivial_word(w.vertices[-1]) if p is None else w.sub(p + 1, w.d)


def drop_tail_from_last_inverse(w):
    p = _last(w, False)
    return trivial_word(w.vertices[0]) if p is None else w.sub(1, p)


def drop_tail_from_last_direct(w):
    p = _last(w, True)
    return trivial_word(w.vertices[0]) if p is None else w.sub(1, p)


def test_the_cut_rule_gives_the_four_drop_functions(corpus_words):
    for _, w in corpus_words:
        for word in (w, w.inverse()):
            assert truncations(word) == {
                "head_after_direct": drop_head_through_first_direct(word),
                "head_after_inverse": drop_head_through_first_inverse(word),
                "tail_before_inverse": drop_tail_from_last_inverse(word),
                "tail_before_direct": drop_tail_from_last_direct(word),
            }


def test_dimension_vector_counts_vertex_visits(g1_word):
    assert dimension_vector(g1_word, n=2) == (2, 1)
    assert dimension_vector(g1_word, mask_of({2}), n=2) == (0, 1)
    assert dimension_vector(g1_word, None, n=4) == (2, 1, 0, 0)
    # the length is the caller's quiver size, never guessed from the word
    assert dimension_vector(trivial_word(1), n=2) == (1, 0)
    with pytest.raises(TypeError):
        dimension_vector(g1_word)


@pytest.mark.parametrize("position", [0, -1, 4])
def test_dimension_vector_rejects_a_position_outside_the_word(g1_word, position):
    # G_1 has d = 3; 0 and -1 once wrapped round to the last vertices
    for indices in ({position}, {1, position}):
        if position < 0:  # no bit stands for a negative position, so no mask holds one
            with pytest.raises(ValueError):
                mask_of(indices)
            continue
        with pytest.raises(UnmatchedCase, match=f"position {position} outside 1..3"):
            dimension_vector(g1_word, mask_of(indices), n=2)


@pytest.mark.parametrize("indices", [None, {1}, {2}, {1, 2, 3}])
def test_dimension_vector_rejects_a_vertex_outside_the_quiver(g1_word, indices):
    # G_1 visits vertex 2, so n = 1 leaves no entry for it, even when no chosen position is at 2
    with pytest.raises(UnmatchedCase, match=r"^vertex 2 outside 1\.\.1$"):
        dimension_vector(g1_word, None if indices is None else mask_of(indices), n=1)


def test_enumerate_strings_counts_are_frozen(quivers):
    assert len(enumerate_strings(quivers["annulus"], 7)) == 9
    assert len(enumerate_strings(quivers["pentagon"], 7)) == 3
    assert len(enumerate_strings(quivers["hexagon"], 7)) == 6
    assert len(enumerate_strings(quivers["square"], 7)) == 1


def test_enumerated_strings_are_valid_and_deduplicated(quivers):
    for name, q in quivers.items():
        words = enumerate_strings(q, 6)
        seen = set()
        for w in words:
            assert is_valid_string(w, q)
            key = w.canonical()
            assert key not in seen
            seen.add(key)


def test_simple_pair_extension_on_the_pentagon(quivers):
    exts = all_extensions(trivial_word(2), trivial_word(1), quivers["pentagon"])
    assert len(exts) == 1
    ext = exts[0]
    assert ext.kind == "arrow"
    assert ext.u1.vertices == (1, 2)
    assert [(l.arrow.name, l.direct) for l in ext.u1.letters] == [("a", False)]
    assert [f.kind for f in ext.u2_options] == ["arc", "string", "string", "unit"]
    assert ext.u2_options[0].arc == 5
    assert {f.word.vertices for f in ext.u2_options if f.kind == "string"} == {
        (1,),
        (2,),
    }
    assert (ext.u3.kind, ext.u3.arc) == ("arc", 6)
    assert (ext.u4.kind, ext.u4.arc) == ("arc", 4)


def test_nontrivial_factor_leaves_open_slots(quivers):
    q = quivers["hexagon"]
    exts = all_extensions(trivial_word(3), make_word(q, (1, 2), [("a", True)]), q)
    assert len(exts) == 1
    assert exts[0].u3.kind == "open"
    assert exts[0].u4.kind == "open"


def test_double_arrow_gives_two_extension_classes(quivers):
    exts = all_extensions(trivial_word(1), trivial_word(2), quivers["annulus"])
    assert len(exts) == 2
    assert {e.kind for e in exts} == {"arrow"}


def test_overlap_extension_appears_on_the_hexagon(quivers):
    q = quivers["hexagon"]
    w123 = make_word(q, (1, 2, 3), [("a", True), ("b", False)])
    exts = all_extensions(w123, trivial_word(2), q)
    assert any(e.kind == "overlap" for e in exts)


def test_extension_keys_do_not_depend_on_the_order_or_orientation_of_the_pair(quivers):
    """all_extensions dedups and sorts by dedup_key, so the keys it lists
    for a pair must be those of the swapped and inverted pairs, and a key
    must not depend on the order that found its extension: 103 classes,
    as before the key became a sorted tuple."""
    pairs = with_extension = classes = 0
    for name in SURFACES:
        q = quivers[name]
        words = enumerate_strings(q, 6)
        for v in words:
            for w in words:
                keys = [
                    [ext.dedup_key() for ext in all_extensions(a, b, q)]
                    for a, b in ((v, w), (w, v), (v.inverse(), w), (v, w.inverse()), (w.inverse(), v.inverse()))
                ]
                assert all(k == keys[0] for k in keys), (name, str(v), str(w))
                pairs += 1
                with_extension += bool(keys[0])
                classes += len(keys[0])
    assert (pairs, with_extension, classes) == (110, 62, 103)


# The overlap search and all_extensions as they were before the search
# took one length per start pair and half the orientations: the reference.


def reference_overlap_extensions(v, w, q):
    out = []
    dv, dw = v.d, w.d
    for length in range(1, min(dv, dw) + 1):
        for sv in range(1, dv - length + 2):
            for sw in range(1, dw - length + 2):
                mid_v = v.sub(sv, sv + length - 1)
                mid_w = w.sub(sw, sw + length - 1)
                if mid_v != mid_w:
                    continue
                b = v.letters[sv - 2] if sv > 1 else None
                a = v.letters[sv + length - 2] if sv + length - 1 < dv else None
                d = w.letters[sw - 2] if sw > 1 else None
                c = w.letters[sw + length - 2] if sw + length - 1 < dw else None
                if b is not None and not b.direct:
                    continue
                if a is not None and a.direct:
                    continue
                if d is not None and d.direct:
                    continue
                if c is not None and not c.direct:
                    continue
                if a is None and c is None:
                    continue
                if b is None and d is None:
                    continue
                if length == 1:
                    if a is not None and c is not None and (a.arrow.name, c.arrow.name) not in q.relations:
                        continue
                    if b is not None and d is not None and (b.arrow.name, d.arrow.name) not in q.relations:
                        continue
                v_left = v.sub(1, sv - 1) if sv > 1 else None
                v_right = v.sub(sv + length, dv) if sv + length - 1 < dv else None
                w_left = w.sub(1, sw - 1) if sw > 1 else None
                w_right = w.sub(sw + length, dw) if sw + length - 1 < dw else None

                u1 = mid_v
                if b is not None:
                    u1 = strings.concat(v_left, b, u1)
                if c is not None:
                    u1 = strings.concat(u1, c, w_right)
                u2 = mid_v
                if d is not None:
                    u2 = strings.concat(w_left, d, u2)
                if a is not None:
                    u2 = strings.concat(u2, a, v_right)
                if not (is_valid_string(u1, q) and is_valid_string(u2, q)):
                    continue

                if b is not None and d is not None:
                    u3 = strings._connector_factor(q, v_left, w_left)
                elif b is None:
                    u3 = strings._truncation_factor(w_left, "tail_before_inverse")
                else:
                    u3 = strings._truncation_factor(v_left, "tail_before_direct")
                if a is not None and c is not None:
                    u4 = strings._connector_factor(q, v_right, w_right)
                elif a is None:
                    u4 = strings._truncation_factor(w_right, "head_after_direct")
                else:
                    u4 = strings._truncation_factor(v_right, "head_after_inverse")

                out.append(
                    strings.Extension(
                        kind="overlap",
                        u1=u1,
                        u2_options=(strings.SmoothingFactor("string", word=u2),),
                        u3=u3,
                        u4=u4,
                        detail=f"overlap v[{sv}..{sv + length - 1}] = w[{sw}..{sw + length - 1}]",
                    )
                )
    return out


def reference_all_extensions(v, w, q):
    seen = {}
    for first, second in ((v, w), (w, v)):
        for fo in (first, first.inverse()):
            for so in (second, second.inverse()):
                for ext in strings._arrow_extensions(fo, so, q) + reference_overlap_extensions(fo, so, q):
                    key = ext.dedup_key()
                    if key not in seen:
                        seen[key] = ext
    return [seen[k] for k in sorted(seen)]


# polygon(8, 1, random.Random(3)) of bench/polygons.py, with the internal
# triangle (2, 5, 3): its overlaps are closed by connectors on both sides,
# some found and some left open.
OCTAGON_WITH_A_CYCLE = {
    "name": "octagon",
    "arcs": [{"id": i, "kind": "internal"} for i in range(1, 6)]
    + [{"id": i, "kind": "boundary"} for i in range(6, 14)],
    "triangles": [[6, 7, 1], [1, 3, 13], [8, 9, 2], [2, 5, 3], [10, 11, 4], [4, 12, 5]],
}


def test_all_extensions_equals_the_full_search(surfaces, quivers):
    """Every ordered pair of short strings on the bundled surfaces,
    WHEEL3, ANNULUS_21, the heptagon and the octagon, and G_s/H_s
    (s = 1..8) against the annulus strings of up to 6 vertices: the same
    list, in order, down to each extension's detail and smoothing factors.
    The 1,106 extensions include 358 overlaps along a single vertex, where
    the reference still checks the relations."""
    groups = [(quivers[name], enumerate_strings(quivers[name], 7)) for name in SURFACES]
    for data, size in ((WHEEL3, 8), (ANNULUS_21, 8), (HEPTAGON_WITH_A_CYCLE, 7), (OCTAGON_WITH_A_CYCLE, 5)):
        q = build_quiver(load_surface(data))
        groups.append((q, enumerate_strings(q, size)))
    pairs = [(q, v, w) for q, words in groups for v in words for w in words]
    q = quivers["annulus"]
    families = [family_word(surfaces["annulus"], s, f) for s in range(1, 9) for f in "GH"]
    pairs += [(q, *pair) for g in families for w in enumerate_strings(q, 6) for pair in ((g, w), (w, g))]
    kinds = {"arrow": 0, "overlap": 0, "one-vertex overlap": 0}
    for q, v, w in pairs:
        exts = all_extensions(v, w, q)
        assert exts == reference_all_extensions(v, w, q), (str(v), str(w))
        for ext in exts:
            kinds[ext.kind] += 1
            kinds["one-vertex overlap"] += bool(re.fullmatch(r"overlap v\[(\d+)\.\.\1\] .*", ext.detail))
    assert len(pairs) == 913
    assert kinds == {"arrow": 443, "overlap": 663, "one-vertex overlap": 358}


def test_a_connector_between_two_lone_vertices_of_a_double_arrow_is_ambiguous(quivers):
    q = quivers["annulus"]
    with pytest.raises(AmbiguousConnector, match="^2 arrows join 2 to 1 as valid strings$"):
        strings._connector_factor(q, trivial_word(2), trivial_word(1))


# The annulus with 3 + 1 marked points, triangulated so that the two arcs
# 1 and 2 bound both an internal triangle (2, 1, 3) and the triangle on the
# inner boundary 5: two parallel arrows a, d: 2 -> 1, and a, b, c a 3-cycle
# with all three relations.
ANNULUS_31 = {
    "name": "annulus31",
    "arcs": [{"id": i, "kind": "internal"} for i in range(1, 5)]
    + [{"id": i, "kind": "boundary"} for i in range(5, 9)],
    "triangles": [[2, 1, 3], [2, 1, 5], [3, 4, 8], [6, 7, 4]],
}


def test_all_extensions_reports_an_ambiguous_connector():
    """1 >b> 3 and 2 <c< 3 >e> 4 overlap along the vertex 3 with b and c^-1
    before it, so u3 joins the lone vertices 1 and 2, and both arrows
    2 -> 1 join them.  No other pair of strings of up to 4 vertices raises."""
    q = build_quiver(load_surface(ANNULUS_31))
    v = make_word(q, (1, 3), [("b", True)])
    w = make_word(q, (2, 3, 4), [("c", False), ("e", True)])
    for pair in ((v, w), (w, v), (v.inverse(), w)):
        with pytest.raises(AmbiguousConnector, match="^2 arrows join 1 to 2 as valid strings$"):
            all_extensions(*pair, q)
    words = enumerate_strings(q, 4)
    raised = []
    for x, y in itertools.product(words, repeat=2):
        try:
            all_extensions(x, y, q)
        except AmbiguousConnector:
            raised.append((str(x), str(y)))
    assert raised == [(str(v), str(w)), (str(w), str(v))]
