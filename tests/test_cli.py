"""Command line entry points."""
from __future__ import annotations

import gc
import io
import weakref
from contextlib import redirect_stdout

import pytest
from click.testing import CliRunner

from qcluster import cli
from qcluster.cli import main, parse_string
from qcluster.strings import trivial_word


@pytest.fixture()
def runner():
    return CliRunner()


def test_parse_string_reads_named_letters(quivers):
    w = parse_string("1 >a> 2 <b< 1", quivers["annulus"])
    assert w.vertices == (1, 2, 1)
    assert [(l.arrow.name, l.direct) for l in w.letters] == [("a", True), ("b", False)]


def test_parse_string_accepts_a_lone_vertex(quivers):
    assert parse_string("2", quivers["annulus"]) == trivial_word(2)


def test_parse_string_completes_omitted_names(quivers):
    # the alphabetically first arrow that fits is chosen
    w = parse_string("1 >> 2 <b< 1", quivers["annulus"])
    assert [(l.arrow.name, l.direct) for l in w.letters] == [("a", True), ("b", False)]


def test_parse_string_rejects_unknown_arrows(quivers):
    with pytest.raises(Exception):
        parse_string("1 >z> 2", quivers["annulus"])


def test_validate_command(runner):
    res = runner.invoke(main, ["validate", "-s", "annulus"])
    assert res.exit_code == 0
    assert "arrows: a: 1->2, b: 1->2" in res.output
    assert "diagonal: [2, 2]" in res.output
    assert "ok" in res.output


def test_expand_command_prints_the_element(runner):
    res = runner.invoke(main, ["expand", "-s", "annulus", "--string", "1 >a> 2 <b< 1"])
    assert res.exit_code == 0
    assert (
        "X[(0,-1,1,1)] + X[(-2,3,0,0)] + (q^-1 + q) X[(-2,1,1,1)] + X[(-2,-1,2,2)]"
        in res.output
    )


def test_expand_command_specializes_at_q_one(runner):
    res = runner.invoke(
        main, ["expand", "-s", "annulus", "--string", "1 >a> 2 <b< 1", "--q1"]
    )
    assert res.exit_code == 0
    assert "q=1" in res.output


def test_expand_command_rejects_bad_words(runner):
    res = runner.invoke(main, ["expand", "-s", "annulus", "--string", "1 >a> 1"])
    assert res.exit_code == 1
    assert "Error:" in res.output


def test_matchings_command(runner):
    res = runner.invoke(main, ["matchings", "-s", "square", "--string", "1"])
    assert res.exit_code == 0
    assert res.output.count("v=0") == 2


def test_submodules_command(runner):
    res = runner.invoke(
        main, ["submodules", "-s", "annulus", "--string", "1 >a> 2 <b< 1"]
    )
    assert res.exit_code == 0


def test_mutate_command(runner):
    res = runner.invoke(main, ["mutate", "-s", "annulus", "--seq", "1,2"])
    assert res.exit_code == 0
    assert "X[1] = X[(-1,2,0,0)] + X[(-1,0,1,1)]" in res.output


def test_kronecker_command(runner):
    res = runner.invoke(
        main, ["kronecker", "-s", "annulus", "--s", "2", "--family", "H", "--check"]
    )
    assert res.exit_code == 0
    assert "per-dimension alpha/valuation agreement: ok" in res.output
    assert "recursions: ok" in res.output


def test_skein_multiply_command(runner):
    res = runner.invoke(
        main, ["skein-multiply", "-s", "pentagon", "--v", "2", "--w", "1"]
    )
    assert res.exit_code == 0
    assert "identity verified: True" in res.output
    assert "lambda (half-units) = 1/2" in res.output


def test_verify_command_reports_all_checks(runner, monkeypatch):
    calls = []
    real = cli.pair_from_surface
    monkeypatch.setattr(cli, "pair_from_surface", lambda t: calls.append(t) or real(t))
    res = runner.invoke(main, ["verify", "-s", "pentagon", "--max-length", "4"])
    assert res.exit_code == 0
    assert "3 strings, 12 checks, 0 failures" in res.output
    # the surface context is built once and shared by every word
    assert len(calls) == 1


def test_verify_output_is_reproducible(runner):
    first = runner.invoke(main, ["verify", "-s", "annulus", "--max-length", "4"])
    second = runner.invoke(main, ["verify", "-s", "annulus", "--max-length", "4"])
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_verify_parallel_output_matches_serial(runner):
    args = ["verify", "-s", "annulus", "--max-length", "4"]
    serial = runner.invoke(main, args)
    parallel = runner.invoke(main, args + ["--jobs", "2"])
    assert serial.output == parallel.output
    # --jobs 0 runs serially; $QCLUSTER_JOBS sets the default
    assert runner.invoke(main, args + ["--jobs", "0"]).output == serial.output
    assert runner.invoke(main, args, env={"QCLUSTER_JOBS": "2"}).output == serial.output


def test_verify_rejects_a_malformed_worker_count_as_a_usage_error(runner):
    res = runner.invoke(
        main, ["verify", "-s", "pentagon"], env={"QCLUSTER_JOBS": "x"}
    )
    assert res.exit_code == 2
    assert "Invalid value for '--jobs'" in res.output


def test_a_command_keeps_no_reference_to_its_output_stream():
    buf = io.StringIO()
    with redirect_stdout(buf):
        main.main(args=["validate", "-s", "square"], standalone_mode=False)
    assert buf.getvalue().endswith("ok\n")
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None
