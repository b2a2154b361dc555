from __future__ import annotations

import pytest

from qcluster import (
    Letter,
    StringWord,
    build_quiver,
    enumerate_strings,
    initial_seed,
    load_surface,
    pair_from_surface,
)
from qcluster.kronecker import family_word

SURFACES = ("annulus", "pentagon", "hexagon", "square")

# A triangulation with an internal triangle: its quiver carries relations.
WHEEL3 = {
    "name": "wheel3",
    "arcs": [{"id": i, "kind": "internal"} for i in (1, 2, 3)]
    + [{"id": i, "kind": "boundary"} for i in range(4, 10)],
    "triangles": [[1, 2, 3], [4, 5, 1], [6, 7, 2], [8, 9, 3]],
}


# POLYGON_DRAWS[11] of test_surface.py: a 7-gon with an internal triangle
# (2, 4, 3), so its quiver is the 3-cycle b, c, d with all three
# relations, plus a: 3 -> 1.
HEPTAGON_WITH_A_CYCLE = {
    "name": "heptagon",
    "arcs": [{"id": i, "kind": "internal"} for i in range(1, 5)]
    + [{"id": i, "kind": "boundary"} for i in range(5, 12)],
    "triangles": [[5, 1, 11], [6, 3, 1], [9, 10, 4], [7, 8, 2], [2, 4, 3]],
}


@pytest.fixture(scope="session")
def surfaces():
    return {name: load_surface(name) for name in SURFACES}


@pytest.fixture(scope="session")
def quivers(surfaces):
    return {name: build_quiver(t) for name, t in surfaces.items()}


@pytest.fixture(scope="session")
def seeds(surfaces):
    return {name: initial_seed(pair_from_surface(t)) for name, t in surfaces.items()}


@pytest.fixture(scope="session")
def annulus(surfaces):
    return surfaces["annulus"]


@pytest.fixture(scope="session")
def pentagon(surfaces):
    return surfaces["pentagon"]


@pytest.fixture(scope="session")
def hexagon(surfaces):
    return surfaces["hexagon"]


@pytest.fixture(scope="session")
def square(surfaces):
    return surfaces["square"]


def m_pm(g, s, tau):
    """Occurrences of tau as a diagonal before and after tile s: the
    reference the twist rows' m_minus - m_plus is checked against."""
    diagonals, slot = [tile.diagonal for tile in g.tiles], g._slot(s)
    return diagonals[:slot].count(tau), diagonals[slot + 1 :].count(tau)


def mask_of(positions) -> int:
    """An index set as qcluster holds it: bit j set for each position j.
    A negative position has no bit, so it raises ValueError."""
    mask = 0
    for j in positions:
        mask |= 1 << j
    return mask


def positions_of(mask: int) -> list:
    """The sorted positions of an index-set mask."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def write_malformed(path, content):
    """Put ``content`` at ``path``: text, raw bytes, or (None) a directory."""
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


def make_word(quiver, vertices, letter_pairs):
    """Build a StringWord from (arrow_name, direct) pairs."""
    letters = tuple(
        Letter(quiver.arrow_named(name), direct) for name, direct in letter_pairs
    )
    return StringWord(tuple(vertices), letters)


@pytest.fixture(scope="session")
def g1_word(quivers):
    # the annulus arc crossing 1, 2, 1
    return make_word(quivers["annulus"], (1, 2, 1), [("a", True), ("b", False)])


# The annulus with 2 + 1 marked points: its arcs cross one another in
# more ways than those of the bundled annulus.
ANNULUS_21 = {
    "name": "annulus21",
    "arcs": [{"id": i, "kind": "internal"} for i in (1, 2, 3)]
    + [{"id": i, "kind": "boundary"} for i in (4, 5, 6)],
    "triangles": [[4, 2, 1], [5, 1, 3], [3, 6, 2]],
}


@pytest.fixture(scope="session")
def corpus_words(surfaces, quivers):
    """(triangulation, word) pairs of the cross-check corpus.

    Every string of at most 7 vertices on the bundled surfaces, the
    annulus families G_0..G_8 and H_1..H_8, and every string of at
    most 9 vertices on ANNULUS_21.
    """
    annulus = surfaces["annulus"]
    out = [(surfaces[name], w) for name in SURFACES for w in enumerate_strings(quivers[name], 7)]
    out += [(annulus, family_word(annulus, s, "G")) for s in range(9)]
    out += [(annulus, family_word(annulus, s, "H")) for s in range(1, 9)]
    t = load_surface(ANNULUS_21)
    out += [(t, w) for w in enumerate_strings(build_quiver(t), 9)]
    return out
