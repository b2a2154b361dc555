"""Command line entry points."""
from __future__ import annotations

import gc
import hashlib
import io
import json
import sys
import weakref
from collections import Counter
from contextlib import redirect_stdout

import pytest
from click.testing import CliRunner

from qcluster import cli, snake, valuation
from qcluster.cli import main, parse_string
from qcluster.snake import enumerate_matchings, label_snake
from qcluster.strings import enumerate_strings, trivial_word


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


# sha256 of the output of `mutate -s annulus --seq 1,2,1,2,1,2,1,2`, frozen
# before the quantum-torus arithmetic was rewritten.
FROZEN_MUTATE_SHA256 = {
    "text": "2df6a9e846f534bdccc4f8390ae80b06dfa1f2727d345d0a9534b993c1bb527d",
    "structured": "18c59725e7a9256ec9fd5d778d8252d3bc38ac5cd9ef7fc2a34b2b32ee944f96",
}


@pytest.mark.parametrize("fmt", sorted(FROZEN_MUTATE_SHA256))
def test_eight_step_mutation_output_is_frozen(runner, fmt):
    res = runner.invoke(
        main, ["mutate", "-s", "annulus", "--seq", "1,2,1,2,1,2,1,2", "--format", fmt]
    )
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == FROZEN_MUTATE_SHA256[fmt]


# A triangulated octagon: vertices 0..7 counterclockwise, diagonals 02, 27,
# 26, 36, 35 as arcs 1-5, each triangle's sides counterclockwise.  Its
# string "1 >a> 3 >c> 2 <b< 5 >d> 4" has five vertices; no string on the
# bundled hexagon has more than three.
OCTAGON = {
    "name": "octagon",
    "arcs": [{"id": i, "kind": "internal"} for i in range(1, 6)]
    + [{"id": i, "kind": "boundary"} for i in range(6, 14)],
    "triangles": [[6, 7, 1], [1, 3, 13], [8, 5, 2], [2, 12, 3], [9, 10, 4], [4, 11, 5]],
}

G5 = " ".join(["1 >a> 2 <b<"] * 5) + " 1"
H5 = " ".join(["1 >a> 2 <b<"] * 4) + " 1 >a> 2"

# sha256 of the output of `<command> -s <surface> --string <word> --format
# <format>`, frozen before the valuations were read from tabulated windows.
FROZEN_WORD_SHA256 = {
    ("annulus", G5): {
        ("expand", "text"): "9de5f4812dffae8ffb0a24fadd1b831d3d5846bba05beb66d96a1e7ef897c840",
        ("expand", "structured"): "d46e2dcddc7198aa8bf4d0bb235ed27dc16fdb82db3c24405d49035aaaa4fd5e",
        ("matchings", "text"): "d4cf1462a951395a5ed5d92ddfcbb5da9950e02519469a1438893245922b1850",
        ("matchings", "structured"): "971410755d396e00eee987b3f978af2fc668072e50193d4b675e47dc9e11af15",
        ("submodules", "text"): "46b43ad7d0c05ee37ed088428ecb86b7cf7786e50a1468b0b5527cacf6b00ef3",
        ("submodules", "structured"): "1fd4912c56c5b4c1c8b2a91512bfafd6359f249697a26d642bc2c92be5621591",
    },
    ("annulus", H5): {
        ("expand", "text"): "ec8592e538b3e25732ec968cc526572f5acbae845f5976a85edf071c8fff5ff0",
        ("expand", "structured"): "1f6747eb8af7bf2000296f30855af2a658145dd22e2b52d973e97e669378cf68",
        ("matchings", "text"): "724658796785f14e35c06e108b73a4028948738d5a96658a819804c268a9056e",
        ("matchings", "structured"): "240903464e39ced59015db846b37d7f71bead8797895bebec0467fcb1dc87d32",
        ("submodules", "text"): "87c1e2f6977a26fd7540b938d29d71b8d67863ea965fd595986f5462f898128b",
        ("submodules", "structured"): "43aa24250c636be65716fbe50fe633938ae71fce8df403b58a5d69499768416b",
    },
    ("hexagon", "1 >a> 2 <b< 3"): {
        ("expand", "text"): "5a18d6665f5a46cbf8b6ab8165042a7c4cd201ecd1e81945453d02e05f5ac9b9",
        ("expand", "structured"): "0b98cc26a45d9816c92729edf52d183520a6bfca2fdee18f2ab88581f9f102de",
        ("matchings", "text"): "d4e9529820d2c349d297b2cf19d7ec4e1b0a288b64c59036155e9e4e32abae15",
        ("matchings", "structured"): "fd60aa33c5e77dc6b08658949ec8bc408b9dc0d0e67a50e71270d40194b243da",
        ("submodules", "text"): "689a0e84d690ef2023eb62c4aebe17430fd71a5c43ce2a1a09a446095c5055f6",
        ("submodules", "structured"): "1d348c72e83e06e427db73d20476ef0e5364118324b8776451a877daccb38881",
    },
    ("octagon", "1 >a> 3 >c> 2 <b< 5 >d> 4"): {
        ("expand", "text"): "266a536c5e0249dba88325680787c6ce92abb8838971de448fdcd59b7638ab93",
        ("expand", "structured"): "9b7dc08ad3a681f4e3d612ebf3eddbbd302b839d10852eb5155425febbbf6603",
        ("matchings", "text"): "0651e6e924cbcdcdfc38fa44d238584783d2aa56e58f69087bcc0ed12b8c700c",
        ("matchings", "structured"): "dde537dd2d7188041a5c92bff60f12cd860838182352f698daf685fc15927c93",
        ("submodules", "text"): "7c74ffedeced4ff14f1ecd1c208d5c89e8aa9131347d2efd89085814b3bddb68",
        ("submodules", "structured"): "c5d1039b7f7a07c48d9f6caf6dd122ae4d372a9419dfd2882f36599cf5aa309b",
    },
}


@pytest.mark.parametrize(
    "surface, word, command, fmt",
    [key + case for key, cases in FROZEN_WORD_SHA256.items() for case in cases],
)
def test_word_command_output_is_frozen(runner, tmp_path, surface, word, command, fmt):
    expected = FROZEN_WORD_SHA256[(surface, word)][(command, fmt)]
    if surface == "octagon":
        surface = tmp_path / "octagon.json"
        surface.write_text(json.dumps(OCTAGON))
    res = runner.invoke(main, [command, "-s", str(surface), "--string", word, "--format", fmt])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.output.encode()).hexdigest() == expected


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


def test_verify_builds_one_graph_and_one_table_pair_per_word(runner, monkeypatch, annulus, quivers):
    words = enumerate_strings(quivers["annulus"], 8)
    matchings = sum(len(enumerate_matchings(label_snake(w, annulus))) for w in words)
    calls = Counter()
    for module, name in (
        (snake, "label_snake"),
        (snake, "enclosed_tiles"),
        (valuation, "valuation_v"),
        (valuation, "valuation_v_gamma"),
    ):
        real = getattr(module, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        # every qcluster module that imported the function holds its own binding
        for key, namespace in list(sys.modules.items()):
            if key.startswith("qcluster") and getattr(namespace, name, None) is real:
                monkeypatch.setattr(namespace, name, counted)
    res = runner.invoke(main, ["verify", "-s", "annulus", "--max-length", "8"])
    assert res.exit_code == 0
    assert f"{len(words)} strings, {4 * len(words)} checks, 0 failures" in res.output
    assert calls == {
        "label_snake": len(words),
        "valuation_v": len(words),
        "valuation_v_gamma": len(words),
        "enclosed_tiles": matchings,
    }


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
