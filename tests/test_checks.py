"""The check records of qcluster.checks, read without the command line."""
from __future__ import annotations

import pytest
from click.testing import CliRunner

from qcluster import checks, load_surface
from qcluster.checks import check_word, verify_surface
from qcluster.cli import main
from qcluster.errors import InvalidMutation
from qcluster.strings import parse_string

from conftest import ANNULUS_21
from test_strings import ANNULUS_31


def failing(results) -> list:
    return [(word, name, message) for word, records in results for name, ok, message in records if not ok]


def test_a_word_gets_one_record_per_check_in_order(annulus, quivers, seeds):
    word = parse_string("1 >a> 2 <b< 1", quivers["annulus"])
    assert check_word(annulus, seeds["annulus"], word) == (
        "1 >a> 2 <b< 1",
        [("counts", True, ""), ("bijection", True, ""), ("valuations", True, ""), ("expansion", True, "")],
    )


def test_the_results_do_not_depend_on_the_worker_count(annulus):
    serial = verify_surface(annulus, 4)
    assert verify_surface(annulus, 4, jobs=2) == serial
    pair, words, results = serial
    assert [text for text, _ in results] == [str(word) for word in words]
    assert list(pair.d) == [2, 2] and failing(results) == []


def test_the_k_delta_strings_of_annulus_21_fail_their_expansion_record():
    pair, words, results = verify_surface(load_surface(ANNULUS_21), 3)
    assert len(words) == 8 and list(pair.d) == [2, 2, 2]
    assert failing(results) == [
        (word, "expansion", "AssertionError: expansion is not bar-invariant")
        for word in ("1 <a< 2 >c> 3", "1 >b> 3 <c< 2")
    ]


@pytest.mark.parametrize("max_length, strings", [(4, 16), (7, 22)])
def test_annulus_31_fails_the_valuations_of_two_self_crossing_strings(max_length, strings):
    # Pinned as they are: each of the two curves crosses itself in an end
    # triangle, and ROADMAP item 9 (arcs by curve geometry) classifies them.
    _, words, results = verify_surface(load_surface(ANNULUS_31), max_length)
    assert len(words) == strings
    message = "InconsistentValuation: maximal matching has valuation -1, want 0"
    assert failing(results) == [
        (word, name, message)
        for word in ("1 <d< 2 <c< 3", "1 <d< 2 <c< 3 >e> 4")
        for name in ("valuations", "expansion")
    ]


def test_a_mutation_that_is_not_an_involution_is_reported(annulus, monkeypatch):
    real = checks.mutate_seed
    calls = []

    def forgetful(seed, k):
        calls.append(k)
        return real(seed, k) if len(calls) % 2 else seed  # loses every second mutation

    monkeypatch.setattr(checks, "mutate_seed", forgetful)
    with pytest.raises(InvalidMutation, match="^mutation at 1 is not an involution$"):
        verify_surface(annulus, 4)
    res = CliRunner().invoke(main, ["verify", "-s", "annulus", "--max-length", "4"])
    assert res.exit_code == 1
    assert res.output == "Error: mutation at 1 is not an involution\n"
