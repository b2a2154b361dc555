"""The cross-checks behind `qcluster verify`, as records.

`verify_surface` checks the surface once (a gentle quiver, a compatible
pair, mutation at each internal arc an involution), then runs
`check_word` on every string that `enumerate_strings` lists.
`check_word` builds the word's snake graph once and runs four checks on
it, in this order: ``counts`` (as many perfect matchings as canonical
submodules), ``bijection`` (`check_bijection`), ``valuations``
(`compare_valuations`) and ``expansion`` (the graph expansion is
bar-invariant and has no negative coefficient).

Each check gives one record ``(name, ok, message)``; a passing check's
message is empty.  A failing check's message is its exception's type
name and text, as in ``"AssertionError: expansion is not bar-invariant"``,
and the other checks and words still run.  The results keep the order
of `enumerate_strings` for any number of worker processes.
"""

from __future__ import annotations

from functools import partial

from .errors import InvalidMutation
from .expansion import graph_expansion
from .seeds import initial_seed, mutate_seed
from .snake import canonical_submodules, check_bijection, enumerate_matchings, label_snake
from .strings import enumerate_strings
from .surface import build_quiver, check_gentle, pair_from_surface
from .torus import is_bar_invariant
from .valuation import compare_valuations

__all__ = ["check_word", "verify_surface"]


def check_word(t, seed, word):
    """(str(word), [(name, ok, message), ...]) for the four checks."""
    checks = []

    def run(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # report, do not abort the batch
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    g = label_snake(word, t)
    run(
        "counts",
        lambda: _expect(
            len(enumerate_matchings(g)) == len(canonical_submodules(g)),
            "matching and submodule counts differ",
        ),
    )
    run("bijection", lambda: check_bijection(g))
    run("valuations", lambda: compare_valuations(g))
    run("expansion", lambda: _check_expansion(g, seed))
    return (str(word), checks)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def _check_expansion(g, seed):
    result = graph_expansion(g, seed)
    _expect(is_bar_invariant(result.element), "expansion is not bar-invariant")
    _expect(
        result.element.coefficients_nonnegative(),
        "expansion has a negative coefficient",
    )


def verify_surface(t, max_length: int, jobs: int = 1):
    """(pair, words, results): the surface's pair, the strings of at most
    max_length vertices and one `check_word` result per string; jobs > 1
    checks the strings in that many worker processes."""
    quiver = build_quiver(t)
    check_gentle(quiver)
    pair = pair_from_surface(t)
    seed = initial_seed(pair)
    for k in range(1, t.n + 1):
        twice = mutate_seed(mutate_seed(seed, k), k)
        if twice.cluster != seed.cluster or twice.pair != seed.pair:
            raise InvalidMutation(f"mutation at {k} is not an involution")
    words = enumerate_strings(quiver, max_length)
    check = partial(check_word, t, seed)
    if jobs > 1:
        # Imported here: a serial run need not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(check, words))
    else:
        results = [check(word) for word in words]
    return pair, words, results
