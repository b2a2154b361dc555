"""Command line entry points."""
from __future__ import annotations

import gc
import hashlib
import io
import json
import random
import sys
import weakref
from collections import Counter
from contextlib import redirect_stdout

import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

from qcluster import cli, snake, strings, valuation
from qcluster import surface as surface_module
from qcluster.cli import main
from qcluster.errors import InvalidString, NotComposable, UnreachableSubmodule
from qcluster.expansion import ExpansionTerm
from qcluster.snake import enumerate_matchings, label_snake
from qcluster.strings import _trivial_word as trivial_word
from qcluster.strings import enumerate_strings, parse_string
from qcluster.torus import QCoefficient, TorusElement

from conftest import ANNULUS_21, mask_of, positions_of, write_malformed
from test_surface import random_polygon


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
    with pytest.raises(NotComposable, match="^no arrow named z from 1 to 2$"):
        parse_string("1 >z> 2", quivers["annulus"])


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 x >a> 2", "cannot parse string near ' x >a> 2'"),
        ("1 >a> 2 junk", "cannot parse string near ' junk'"),
        (">a> 2", "a string starts and ends with an arc id"),
        ("1 2", "arc ids and letters must alternate"),
    ],
)
def test_parse_string_raises_invalid_string_on_malformed_text(quivers, text, message):
    with pytest.raises(InvalidString) as info:
        parse_string(text, quivers["annulus"])
    assert info.type is InvalidString and str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 x >a> 2", "cannot parse string near ' x >a> 2'"),
        ("1 >a> 2 junk", "cannot parse string near ' junk'"),
        (">a> 2", "a string starts and ends with an arc id"),
        ("1 2", "arc ids and letters must alternate"),
    ],
)
def test_a_malformed_string_exits_with_its_parse_error(runner, text, message):
    res = runner.invoke(main, ["expand", "-s", "annulus", "--string", text])
    assert res.exit_code == 1
    assert res.output == f"Error: {message}\n"


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


# sha256 of the output of `mutate -s <surface> --seq <seq> --format <format>`,
# frozen before the mutation-step kernels were trimmed: the two 12-step
# annulus sequences (the structured digests are bench/baseline.json's), the
# hexagon along 1..3 and the seeded 14-gon `random_polygon(14, Random(1))`
# along 1..11, whose B-tilde columns are sparse.
FROZEN_DEEP_MUTATE_SHA256 = {
    ("annulus", "1,2,1,2,1,2,1,2,1,2,1,2"): {
        "text": "12d89ecd9f9c90fd5e5d8c039d252fecfa5b7a9ce3c7727a4fd05b133ce2dc81",
        "structured": "65f35577dddc671bd9c7e4e6600f00e99775d3f4ae806efd118435699d8e3de9",
    },
    ("annulus", "2,1,2,1,2,1,2,1,2,1,2,1"): {
        "text": "024190516f923b33a4ad744de0ce199a1a7b978512af8209cae6a63e0de4067f",
        "structured": "31ec0f2f29b6e0ca6aad948ae9421d2acd09db0deaea8894dfca54cdf863706b",
    },
    ("hexagon", "1,2,3"): {
        "text": "bbf05ae63e3edc3107090a4e1297c448e3589f2c13ddc719cfca3c5853d9f99f",
        "structured": "fc5bcee77ecc76102d8e03c0cab1ab71029f2d65b958ce1fcce44d5c13d18df2",
    },
    ("polygon14", "1,2,3,4,5,6,7,8,9,10,11"): {
        "text": "5f2ab326e40e4247a493524109552140bb148de1ea109b674c6788a541c140a3",
        "structured": "cae1fb74b5f6865d59e4d2b9d6369cc5102d809a3f5036f997956042c877400f",
    },
}


@pytest.mark.parametrize(
    "surface, seq, fmt",
    [key + (fmt,) for key, digests in FROZEN_DEEP_MUTATE_SHA256.items() for fmt in digests],
)
def test_deep_and_polygon_mutation_output_is_frozen(runner, tmp_path, surface, seq, fmt):
    name = surface
    if surface == "polygon14":
        name = str(tmp_path / "polygon14.json")
        (tmp_path / "polygon14.json").write_text(json.dumps(random_polygon(14, random.Random(1))))
    res = runner.invoke(main, ["mutate", "-s", name, "--seq", seq, "--format", fmt])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.output.encode()).hexdigest() == FROZEN_DEEP_MUTATE_SHA256[(surface, seq)][fmt]


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


G7 = " ".join(["1 >a> 2 <b<"] * 7) + " 1"
H7 = " ".join(["1 >a> 2 <b<"] * 6) + " 1 >a> 2"

# sha256 of the output of `expand -s annulus --string <word> [--q1] --format
# <format>`, frozen before the expansion was summed once per monomial.
FROZEN_FAMILY_EXPAND_SHA256 = {
    G7: {
        (False, "text"): "813314d48818c669e5378f4ace34acf854bfef75c9ae00e58773077c4cc5519a",
        (True, "text"): "5b37a890e6bb34d9e872ec74eb018ff68445f23ca2c359d797b10325f31e516c",
        (False, "structured"): "5eef02eca8ae7d0b779e26b3f9ecddbf5d560682894597ab79faf6986ce04c90",
        (True, "structured"): "3191741688ecf295dd65e8673b3ab232d19b3363977e3f057ed84077f4a2bf0a",
    },
    H7: {
        (False, "text"): "1b3a5b77215730012e67a0945df98825593ec55b416c637b3eee1d31c30f0509",
        (True, "text"): "868a4ddfcf4f69dcfc9603e0ebe58908e9988aa19ab5422ba9c12edcd9d36b36",
        (False, "structured"): "3ee7bb07179e3c9d6d438b7736dfdb6db2ed69f531414b96d7318cd48fb4a661",
        (True, "structured"): "21eed379019d9f684b7d431d9b899cee6d88f802da1a0f959b16778d20b91789",
    },
}


@pytest.mark.parametrize(
    "word, q1, fmt",
    [(word,) + case for word, cases in FROZEN_FAMILY_EXPAND_SHA256.items() for case in cases],
)
def test_family_expand_output_is_frozen(runner, word, q1, fmt):
    args = ["expand", "-s", "annulus", "--string", word, "--format", fmt]
    res = runner.invoke(main, args + ["--q1"] * q1)
    assert res.exit_code == 0, res.output
    expected = FROZEN_FAMILY_EXPAND_SHA256[word][(q1, fmt)]
    assert hashlib.sha256(res.output.encode()).hexdigest() == expected


# sha256 of the output of `kronecker -s annulus --s <s> --family <family>
# [--check] --format <format>`, frozen before each family graph was built
# once per call.  The structured digests without --check were pinned again
# when those outputs stopped printing an empty "recursion_failures".
FROZEN_KRONECKER_SHA256 = {
    ("G", 1): {
        (False, "text"): "f063ad0e4d06e98dad60ab3aecb6c07fc7f0fa313d316ab569b894267b1495a9",
        (False, "structured"): "71468cbadea566a6bf73b7825f98ff388d1dcab77ac5ef8c831cccc1ca7f2198",
        (True, "text"): "3db77282c39fe0cc0dad8f67e6b9f889e94ab432d568d19bf94b9696a7188578",
        (True, "structured"): "f55b626389e821750c84c8958e102e7f5d7c87eec102175d578b24520544bf63",
    },
    ("G", 2): {
        (False, "text"): "888efdc5568674b018a015fddede76c2820999d42825d371ab45ef86f290d3f3",
        (False, "structured"): "80e03226f61c5ae4ee3b9550aae3e3e215c7ce4866b7566f3297a76c6ac5e98c",
        (True, "text"): "f2ee836cc34326df5b4a5299ccaa2a97fcd4dcc6aa550753de7a2424b600965f",
        (True, "structured"): "60dd94f4a36f42b466ecdf3a3db3478915838062a6db53cab65ec2ace0aa3fc8",
    },
    ("G", 3): {
        (False, "text"): "dec8ede2dcde95fef525b6e7032df46bcec202b4c4edb961b2b72bc9d24e60e0",
        (False, "structured"): "385a6f4b210265718f2597a39fb15f78c466a7d2506ad1683bf56b823f2bec9e",
        (True, "text"): "a1a9c23697ec21c6af56f3223349560222b787f2e71e6727ca6f8074862eff8c",
        (True, "structured"): "08dfa55c336c6af15398707af0ef8b966b00f17ba07fdc3aee7d702295ce3a9a",
    },
    ("G", 4): {
        (False, "text"): "b3e3e8b61cd7d70d8a59316639740022575daa1edab7786325e7ae752e942e5e",
        (False, "structured"): "30a4a6ccdbfd42692cf7d144f80b69d9940f24ba8e5dba1c42380b0132a3da2b",
        (True, "text"): "80b3493d43b2e938f1e0b50fe882b6c8ace9a6bb8cd599abe2b602a80c169d0c",
        (True, "structured"): "ff11a82766cf059f2596a03cf19f188b810075bca1d62b3b9c163115954a04aa",
    },
    ("G", 5): {
        (False, "text"): "cca1be1b287599dbcd42d242bed3b76f0db095152e5a5adbac775dcf1c5d81c4",
        (False, "structured"): "b9db328bd0bae1d07dbebd9924a9313affe75bdbb3e50d45e2d45763df446c3c",
        (True, "text"): "64d3e1d9a4474895ef016880e40b20b3968d17db408d4371c4ee4c5244a4cb8a",
        (True, "structured"): "98e94edb40c9901c563bd10ddd17295e520a6ce4f450191f1ed0ce3278d737a3",
    },
    ("H", 1): {
        (False, "text"): "d9cc53b8e043e16e5db6268bb30bf1e2ff6c021265d39be99f2ceedc7696363c",
        (False, "structured"): "e05bddf3a1b2844610e0817339e8c2d09bee8e18cb3b963f41e0949c56f31a1d",
        (True, "text"): "ec7e2d81126aeed494bd4208e58128e8b410d54b14e42037ee57763696cddfb6",
        (True, "structured"): "dd39d452ee0e759e1ba82f6ba122a366e26b50cbab5a3c21a63bd77afcabdc5c",
    },
    ("H", 2): {
        (False, "text"): "a5fa68759134fee28710faa2ca6fb03e452975dcf81522302dfc1d07d72b944f",
        (False, "structured"): "66df5beaaf62a1b3651b1acb9b9b912b1028810f0c47893a60d89b7dae411ef3",
        (True, "text"): "e4e94e4c110968a9983cbfd6540c2e67e0b93f2a1f138d36d7148da983d4246b",
        (True, "structured"): "8ee3b43dc06280f95b1e3f6804f0325a0ce03389ceccac407013bca817cfbc6a",
    },
    ("H", 3): {
        (False, "text"): "f028a138425e5c7ca2e9da43edf8c3f21d1a17e35242d6989a5f640c63df6441",
        (False, "structured"): "a6c421ea404efe2a72dbfc5e0f6474bcafda1965ae5746fe52cc80fbc8157f5a",
        (True, "text"): "756e6553132567be1b39ef2ce4a29053c07203b94b70f67b56187396d44bac2b",
        (True, "structured"): "9da61265480886660e9e8398fee6d9e0a6e698dafa4b057e6fb92b1d0094e6d1",
    },
    ("H", 4): {
        (False, "text"): "0898778555769ed32e10d66a18e7355f5e17e66584c200c719d61b2b68ba8096",
        (False, "structured"): "26deecf4ce317b928b9a43778682abce43a60eaa08bc0672c0cf8e12e7f95d4f",
        (True, "text"): "d78118f09929b4f5310aca58a619b2bc9ba7056fb597a6b4ec0dab83973ed710",
        (True, "structured"): "349a46bbb9ac4a7ed0c7d30210c1731e826374fb02c6c64ba2186a9fcdf5e270",
    },
    ("H", 5): {
        (False, "text"): "696244edd452d917da03bfbaf95b9ddf9889ae2da922c73bb26478c0a988a84e",
        (False, "structured"): "4af9e83593b48f41f4599d87bfe10cd9f1a6c846a2ef6b7fc962b8c0b67b4465",
        (True, "text"): "5ead47ad97c87eecbdf2addc35e6988f228a0ab6d41f92bed9b66dad4c8f94e8",
        (True, "structured"): "e43cc897976e4b1bd4b440f578d00b58e273589594fc1193447c3766fa0d574d",
    },
}


@pytest.mark.parametrize(
    "family, level, check, fmt",
    [key + case for key, cases in FROZEN_KRONECKER_SHA256.items() for case in cases],
)
def test_kronecker_output_is_frozen(runner, family, level, check, fmt):
    args = ["kronecker", "-s", "annulus", "--s", str(level), "--family", family, "--format", fmt]
    res = runner.invoke(main, args + ["--check"] * check)
    assert res.exit_code == 0, res.output
    expected = FROZEN_KRONECKER_SHA256[(family, level)][(check, fmt)]
    assert hashlib.sha256(res.output.encode()).hexdigest() == expected


def test_kronecker_builds_each_family_graph_once(runner, monkeypatch):
    built = []
    real = snake.label_snake

    def counted(w, t):
        built.append(str(w))
        return real(w, t)

    for key, namespace in list(sys.modules.items()):
        if key.startswith("qcluster") and getattr(namespace, "label_snake", None) is real:
            monkeypatch.setattr(namespace, "label_snake", counted)
    # --check adds the three other levels of the recursions: H_5 or G_5, G_4, H_4
    for family, check, graphs in (("G", True, 4), ("H", True, 4), ("G", False, 1), ("H", False, 1)):
        built.clear()
        args = ["kronecker", "-s", "annulus", "--s", "5", "--family", family]
        res = runner.invoke(main, args + ["--check"] * check)
        assert res.exit_code == 0, res.output
        assert len(built) == len(set(built)) == graphs


def test_verify_enumerates_each_words_canonical_sets_once(runner, monkeypatch):
    listed = []
    real = strings.enumerate_canonical_submodules

    def counted(w):
        listed.append(str(w))
        return real(w)

    for key, namespace in list(sys.modules.items()):
        if key.startswith("qcluster") and getattr(namespace, "enumerate_canonical_submodules", None) is real:
            monkeypatch.setattr(namespace, "enumerate_canonical_submodules", counted)
    res = runner.invoke(main, ["verify", "-s", "annulus", "--max-length", "8", "--jobs", "1"])
    assert res.exit_code == 0, res.output
    assert res.output.endswith("10 strings, 40 checks, 0 failures\n")
    assert len(listed) == len(set(listed)) == 10


def test_kronecker_level_zero_runs_no_recursion(runner):
    args = ["kronecker", "-s", "annulus", "--s", "0"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert res.output == (
        "G_0: 1\n"
        "alpha weights: [0]\n"
        "series: X[(-1,2,0,0)] + X[(-1,0,1,1)]\n"
        "per-dimension alpha/valuation agreement: ok\n"
    )
    res = runner.invoke(main, args + ["--check"])
    assert res.exit_code == 1
    assert res.output == "Error: recursions start at s = 1\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["-s", "pentagon", "--s", "1"], "surface does not have the double arrow 1 -> 2"),
        (["-s", "annulus", "--s", "-1"], "family G needs s >= 0"),
        (["-s", "annulus", "--family", "H", "--s", "0"], "family H needs s >= 1"),
    ],
)
def test_kronecker_reports_a_family_word_it_cannot_build(runner, args, message):
    res = runner.invoke(main, ["kronecker"] + args)
    assert res.exit_code == 1
    assert res.output == f"Error: {message}\n"


def test_kronecker_structured_output_names_recursion_failures_only_under_check(runner):
    args = ["kronecker", "-s", "annulus", "--s", "2", "--format", "structured"]
    assert "recursion_failures" not in json.loads(runner.invoke(main, args).output)
    assert json.loads(runner.invoke(main, args + ["--check"]).output)["recursion_failures"] == []


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


def test_half_units_print_whole_or_as_halves():
    assert cli._halves(6) == "3"
    assert cli._halves(-3) == "-3/2"
    assert cli._halves(1) == "1/2"
    assert cli._halves(0) == "0"


# sha256 of the output of `skein-multiply -s <surface> --v <v> --w <w>
# --format <format>` and its exit code, frozen before the certificate kept
# only its two shifts.  The cases: an arrow extension whose M2 is solved, an
# overlap extension, an arrow extension whose M2 is predicted (odd lambda), an
# overlap extension with odd lambda, and a product with no resolution.
FROZEN_SKEIN_SHA256 = {
    ("annulus", "1", "1 >a> 2"): (0, {
        "text": "798abd357f0621058cf6a972fb6ecd6a78b952c3d755f5bece3e7101ad14531b",
        "structured": "e395172cdfc0b9d23a7c9d6c41633e53523e014cbf6a9ccd243c4bae9b880b28",
    }),
    ("annulus", "1", "1 >a> 2 <b< 1 >a> 2 <b< 1"): (0, {
        "text": "aac76ab64870a78340c42f3a358a0dda0a1a461f0faf4d806ebefd0b5bfa20ec",
        "structured": "10e7da768855b96fb1320ce29739d7a1afc1f797906c4f9ab44f9bf88d0e9a33",
    }),
    ("hexagon", "1", "2"): (0, {
        "text": "68f20ba451e0e26e95fbea7310286e4fef68bcb44e78ac552562ebcb64d6f353",
        "structured": "7ea363b4a1aa8d2b2d82fd041228f60b705092d0c0aa2f0379cf1cd5edfc07db",
    }),
    ("hexagon", "1 >a> 2 <b< 3", "2"): (0, {
        "text": "cba7ca6ca92ae4c7bda208b87e7e579dc76f48ff806518ebf0e3f1245c0178a7",
        "structured": "abeaff26f167a9bb5bafd05ccf89ba2eb6456e338e57a2e24929a3f4a2ee7894",
    }),
    ("annulus", "1 >a> 2 <b< 1 >a> 2", "1 >a> 2"): (1, {
        "text": "b97e09162897744c815a3a7713e52d9bbc86558d30887324f54f2c72919ece69",
        "structured": "b97e09162897744c815a3a7713e52d9bbc86558d30887324f54f2c72919ece69",
    }),
}


@pytest.mark.parametrize(
    "surface, v, w, fmt",
    [key + (fmt,) for key, (_, digests) in FROZEN_SKEIN_SHA256.items() for fmt in digests],
)
def test_skein_multiply_output_is_frozen(runner, surface, v, w, fmt):
    exit_code, digests = FROZEN_SKEIN_SHA256[(surface, v, w)]
    res = runner.invoke(main, ["skein-multiply", "-s", surface, "--v", v, "--w", w, "--format", fmt])
    assert res.exit_code == exit_code, res.output
    assert hashlib.sha256(res.output.encode()).hexdigest() == digests[fmt]


# sha256 of the output of `validate -s <surface> --format <format>` and of
# `verify -s <surface> --max-length 6 --format <format>` on every bundled
# surface, frozen before the index sets became plain frozensets.
FROZEN_SURFACE_SHA256 = {
    "annulus": {
        ("validate", "text"): "56a0b0e6407d9f079e37df0791b042a9eb639041af2d417215c12c15a0e0a545",
        ("validate", "structured"): "777028d35b2a87ff6a9d8186c1a9afb302b31253c2f617cb802709c626adff4f",
        ("verify", "text"): "753d02d6876faa1edab644a7cc7393b720058c61f58261f9f3086913d669e454",
        ("verify", "structured"): "7ed33253ee442fe836fc66ad7add1132e219366b61d69b4603e1b79f8aa09efd",
    },
    "hexagon": {
        ("validate", "text"): "7d0e91cdca267d5cebe0b4a256e89169e0caf1a84ce8dfc9b4f069fba7581517",
        ("validate", "structured"): "ed08c2d0b811d6cf99d62323083c96ab7e333a791122ad93fcb96a08a14e4b94",
        ("verify", "text"): "5f67e1319c5f2dce0ff2d15e080d4c71790b1e3807bdda523723c5b9e05ead6e",
        ("verify", "structured"): "64133e7b42b91602e0b8fb6fc78789f1c2251bf607721bf02ac42e6ef8da01fb",
    },
    "pentagon": {
        ("validate", "text"): "6282f04e0997a3ec04e494dd167aed6218adf22f55be6194501244369adf5832",
        ("validate", "structured"): "a47770fe40476fce27dadb66c552b8af71b3713dff8acf7377e72988be2000d9",
        ("verify", "text"): "0e51cdb612369171f97e7a0f0129b13729a112180b080a63c73207607161c0f8",
        ("verify", "structured"): "c9076c07a80a75853694a13e80588fc07b3941dc8e416076bcdaa4b28ff84c3e",
    },
    "square": {
        ("validate", "text"): "f18cf93da1ed7b5cee2dbe044c2e10817ff766d2ccf3bb1b0ed2fbf9ed7e14cb",
        ("validate", "structured"): "d54dc9484856adfd6cb5bafb58bca80737904462039e8328d9a9129dba8af8d1",
        ("verify", "text"): "3ef5128e0bdcf1e05917ba3a5f89eab9f91e8d99ae09106e0a243f13c4131ade",
        ("verify", "structured"): "c91d16c0e5f570b05f99c275938c2c3c6c203b44a7eaa9b9108f9a880ee38278",
    },
}


@pytest.mark.parametrize(
    "surface, command, fmt",
    [(surface,) + case for surface, cases in FROZEN_SURFACE_SHA256.items() for case in cases],
)
def test_surface_command_output_is_frozen(runner, surface, command, fmt):
    args = [command, "-s", surface, "--format", fmt] + (["--max-length", "6"] if command == "verify" else [])
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.output.encode()).hexdigest() == FROZEN_SURFACE_SHA256[surface][(command, fmt)]


def test_verify_command_reports_all_checks(runner, monkeypatch):
    calls = []
    real = surface_module.pair_from_surface
    for key, namespace in list(sys.modules.items()):
        if key.startswith("qcluster") and getattr(namespace, "pair_from_surface", None) is real:
            monkeypatch.setattr(namespace, "pair_from_surface", lambda t: calls.append(t) or real(t))
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


def test_verify_reports_the_k_delta_strings_of_annulus_21_as_failures(runner, tmp_path):
    """On A(2, 1) the two strings of dimension vector (1, 1, 1) have an
    expansion that is not bar-invariant; verify lists both and exits 1."""
    path = tmp_path / "annulus21.json"
    path.write_text(json.dumps(ANNULUS_21))
    args = ["verify", "-s", str(path), "--max-length", "3"]
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert lines[0] == "seed: compatible, d=[2, 2, 2]; mutations involutive"
    assert [line for line in lines[1:-1] if not line.startswith("ok   ")] == [
        "FAIL 1 <a< 2 >c> 3 [expansion]: AssertionError: expansion is not bar-invariant",
        "FAIL 1 >b> 3 <c< 2 [expansion]: AssertionError: expansion is not bar-invariant",
    ]
    assert len(lines) == 34
    assert lines[-1] == "8 strings, 32 checks, 2 failures"
    res = runner.invoke(main, args + ["--format", "structured"])
    assert res.exit_code == 1
    data = json.loads(res.output)
    assert data["failures"] == 2 and len(data["checks"]) == 32
    assert [row for row in data["checks"] if not row["ok"]] == [
        {"string": word, "check": "expansion", "ok": False, "message": "AssertionError: expansion is not bar-invariant"}
        for word in ("1 <a< 2 >c> 3", "1 >b> 3 <c< 2")
    ]


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


@pytest.mark.parametrize("length", ["0", "-3"])
def test_verify_rejects_a_max_length_below_one_as_a_usage_error(runner, length):
    res = runner.invoke(main, ["verify", "-s", "annulus", "--max-length", length])
    assert res.exit_code == 2
    assert "Invalid value for '--max-length'" in res.output


def test_verify_rejects_a_malformed_worker_count_as_a_usage_error(runner):
    res = runner.invoke(
        main, ["verify", "-s", "pentagon"], env={"QCLUSTER_JOBS": "x"}
    )
    assert res.exit_code == 2
    assert "Invalid value for '--jobs'" in res.output


@pytest.mark.parametrize("jobs", ["-3", "-1"])
def test_verify_rejects_a_negative_worker_count_as_a_usage_error(runner, jobs):
    args = ["verify", "-s", "pentagon", "--max-length", "2"]
    for res in (
        runner.invoke(main, args + ["--jobs", jobs]),
        runner.invoke(main, args, env={"QCLUSTER_JOBS": jobs}),
    ):
        assert res.exit_code == 2
        assert "Invalid value for '--jobs'" in res.output


EVERY_COMMAND = [
    ["validate"],
    ["expand", "--string", "1"],
    ["matchings", "--string", "1"],
    ["submodules", "--string", "1"],
    ["mutate", "--seq", "1"],
    ["kronecker", "--s", "1"],
    ["skein-multiply", "--v", "1", "--w", "2"],
    ["verify"],
]


@pytest.mark.parametrize("args", EVERY_COMMAND)
def test_every_command_reports_a_package_error_as_one_line(runner, args):
    res = runner.invoke(main, args + ["-s", "no-such-surface"])
    assert res.exit_code == 1
    assert res.output == (
        "Error: no such surface file or bundled name: 'no-such-surface' "
        "(bundled: annulus, hexagon, pentagon, square)\n"
    )


MALFORMED_SURFACE_FILES = {
    "not JSON": "{bad",
    "not an object": "[1, 2]",
    "non-integer arc id": '{"arcs": [{"id": "x", "kind": "internal"}], "triangles": [[1, 2, 3]]}',
    "fractional arc id": json.dumps(
        {"arcs": [{"id": 1.7, "kind": "internal"}] + [{"id": i, "kind": "boundary"} for i in (2, 3, 4, 5)],
         "triangles": [[2, 3, 1], [1, 4, 5]]}
    ),
    "fractional triangle side": json.dumps(
        {"arcs": [{"id": 1, "kind": "internal"}] + [{"id": i, "kind": "boundary"} for i in (2, 3, 4, 5)],
         "triangles": [[2.4, 3.4, 1.4], [1, 4, 5]]}
    ),
    "boolean arc id": json.dumps(
        {"arcs": [{"id": True, "kind": "internal"}] + [{"id": i, "kind": "boundary"} for i in (2, 3, 4, 5)],
         "triangles": [[2, 3, 1], [1, 4, 5]]}
    ),
    "non-integer lambda entry": json.dumps(
        {
            "arcs": [{"id": 1, "kind": "internal"}] + [{"id": i, "kind": "boundary"} for i in (2, 3, 4, 5)],
            "triangles": [[1, 2, 3], [1, 4, 5]],
            "lambda": [["z"]],
        }
    ),
    "not UTF-8": b'\xff\xfe{"arcs": [], "triangles": []}',
    "a directory": None,
}


@pytest.mark.parametrize("args", EVERY_COMMAND)
@pytest.mark.parametrize("label", MALFORMED_SURFACE_FILES)
def test_every_command_reports_a_malformed_surface_file_as_one_line(runner, tmp_path, label, args):
    path = tmp_path / "bad.json"
    write_malformed(path, MALFORMED_SURFACE_FILES[label])
    res = runner.invoke(main, args + ["-s", str(path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: ") and res.output.count("\n") == 1
    assert str(path) in res.output


def test_a_package_error_after_parsing_exits_with_its_message(runner, monkeypatch):
    def broken(word):
        raise UnreachableSubmodule("no canonical submodules")

    monkeypatch.setattr(snake, "enumerate_canonical_submodules", broken)
    res = runner.invoke(main, ["submodules", "-s", "annulus", "--string", "1"])
    assert res.exit_code == 1
    assert res.output == "Error: no canonical submodules\n"


def test_mutate_reports_a_non_integer_direction(runner):
    res = runner.invoke(main, ["mutate", "-s", "annulus", "--seq", "1,x"])
    assert res.exit_code == 1
    assert res.output == "Error: invalid literal for int() with base 10: 'x'\n"


@pytest.mark.parametrize("seq", ["1,,2", "1,2,", ""])
def test_mutate_reports_an_empty_direction(runner, seq):
    res = runner.invoke(main, ["mutate", "-s", "annulus", "--seq", seq])
    assert res.exit_code == 1
    assert res.output == "Error: invalid literal for int() with base 10: ''\n"


def test_mutate_reports_a_bad_direction_with_its_step(runner):
    res = runner.invoke(main, ["mutate", "-s", "annulus", "--seq", "1,2,1,2,1,2,1,2,1,2,1,9"])
    assert res.exit_code == 1
    assert res.output == "Error: step 12 of 12: direction 9 outside 1..2\n"


def test_a_command_keeps_no_reference_to_its_output_stream():
    buf = io.StringIO()
    with redirect_stdout(buf):
        main.main(args=["validate", "-s", "square"], standalone_mode=False)
    assert buf.getvalue().endswith("ok\n")
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


# -- structured output --------------------------------------------------

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.text()
    | st.sampled_from(["é", "ü☃", '"quoted"', "back\\slash", "tab\tnew\nline", "\x00\x1f", "\U0001f600"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner)
    | st.lists(st.integers() | st.integers(min_value=2**64))
    | st.lists(st.booleans() | st.integers(-3, 3))
    | st.dictionaries(st.text(), inner)
    | st.dictionaries(st.integers(), inner),
    max_leaves=40,
)


@given(JSON_VALUES)
def test_the_structured_writer_equals_the_stdlib_encoder(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_the_structured_writer_on_empty_and_boolean_containers():
    for value in ([], {}, [[]], {"a": {}}, [True, 1, False], [1, -1, 2**70], {"b": [], "a": [True]}):
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


def term_dict(term) -> dict:
    """The dict a term row encodes: its fields, the index set as sorted positions."""
    return dict(term._asdict(), indices=positions_of(term.indices))


BIG_INTS = st.integers() | st.integers(min_value=2**64).flatmap(lambda n: st.sampled_from([n, -n]))
INT_TUPLES = st.lists(BIG_INTS, max_size=3).map(tuple)
TERMS = st.lists(
    st.builds(
        ExpansionTerm,
        indices=st.lists(st.integers(1, 40), max_size=3, unique=True).map(mask_of),
        dim=INT_TUPLES,
        valuation=BIG_INTS,
        exponent=INT_TUPLES,
    ),
    max_size=4,
).map(tuple)


@given(TERMS)
@example((ExpansionTerm(mask_of(()), (), 0, ()), ExpansionTerm(mask_of((3,)), (-1,), -2**70, (2**64, -5, 0))))
def test_the_term_rows_equal_the_stdlib_encoding_of_their_dicts(terms):
    nested = {"string": "1", "element": [], "terms": terms}
    as_dicts = dict(nested, terms=[term_dict(term) for term in terms])
    assert cli._json(nested) == json.dumps(as_dicts, indent=2, sort_keys=True)


# A few tuples for every dim and exponent, so rows share them, and a dim
# of one row is often the exponent of another.
SHARED_TUPLES = st.lists(INT_TUPLES, min_size=1, max_size=3, unique=True).flatmap(
    lambda pool: st.lists(
        st.builds(ExpansionTerm, indices=st.just(mask_of((1,))), dim=st.sampled_from(pool), valuation=BIG_INTS, exponent=st.sampled_from(pool)),
        max_size=6,
    ).map(tuple)
)


@given(SHARED_TUPLES)
@example(
    (
        ExpansionTerm(mask_of((1,)), (1, 0), 2, (0, 1)),
        ExpansionTerm(mask_of((2,)), (1, 0), 1, (1, 0)),
        ExpansionTerm(mask_of((1, 2)), (0, 1), 0, (2**64, -1)),
        ExpansionTerm(mask_of((1, 3)), (), -1, (0, 1)),
    )
)
def test_term_rows_that_share_a_list_equal_the_stdlib_encoding(terms):
    nested = {"string": "1", "terms": terms}
    as_dicts = dict(nested, terms=[term_dict(term) for term in terms])
    assert cli._json(nested) == json.dumps(as_dicts, indent=2, sort_keys=True)


def element_json(element) -> list:
    """The dict form an element's rows encode: terms in descending exponent
    order, each term's [t, c] pairs in ascending t."""
    out = []
    for g, coeff in sorted(element.terms.items(), reverse=True):
        out.append(
            {
                "exponent": list(g),
                "coefficient": [[t, c] for t, c in sorted(coeff.coeffs.items())],
            }
        )
    return out


def torus_elements(rank):
    """Elements of one rank: negative exponents, coefficients far beyond
    2^64 of both signs, one-term elements and the zero element."""
    coefficient = st.dictionaries(st.integers(-9, 9), BIG_INTS.filter(bool), min_size=1, max_size=4)
    vector = st.tuples(*[st.integers(-4, 4)] * rank)
    return st.dictionaries(vector, coefficient.map(QCoefficient), max_size=4).map(
        lambda terms: TorusElement(rank, terms)
    )


ELEMENT_GROUPS = st.integers(1, 5).flatmap(lambda rank: st.lists(torus_elements(rank), min_size=5, max_size=5))


@given(ELEMENT_GROUPS)
@example(
    [
        TorusElement(2),
        TorusElement.monomial((-3, 0), -5, -2**70),
        TorusElement(2, {(0, -1): QCoefficient({-2: 2**64, 0: 1, 4: -2**65})}),
        TorusElement.unit(2),
        TorusElement(2, {(1, 0): QCoefficient({1: 1}), (-1, 2): QCoefficient({-1: 1, 1: 1})}),
    ]
)
def test_element_rows_equal_the_stdlib_encoding_of_their_dicts(elements):
    # Nested as expand, mutate, kronecker and skein-multiply nest them.
    first, second, third, fourth, fifth = elements
    nested = {
        "element": first,
        "terms": (),
        "cluster": {"1": second, "2": third, "10": first},
        "series": fourth,
        "m1": fifth,
        "m2": first,
    }
    as_dicts = dict(nested, terms=[], cluster={k: element_json(v) for k, v in nested["cluster"].items()})
    as_dicts.update({key: element_json(nested[key]) for key in ("element", "series", "m1", "m2")})
    assert cli._json(nested) == json.dumps(as_dicts, indent=2, sort_keys=True)


def structured_commands(tmp_path) -> list:
    """Every structured invocation the frozen-output tests above run with exit 0."""
    octagon = tmp_path / "octagon.json"
    octagon.write_text(json.dumps(OCTAGON))
    commands = [["mutate", "-s", "annulus", "--seq", "1,2,1,2,1,2,1,2"]]
    for (surface, word), cases in FROZEN_WORD_SHA256.items():
        surface = str(octagon) if surface == "octagon" else surface
        commands += [[command, "-s", surface, "--string", word] for command, fmt in cases if fmt == "structured"]
    for word in FROZEN_FAMILY_EXPAND_SHA256:
        commands += [["expand", "-s", "annulus", "--string", word] + ["--q1"] * q1 for q1 in (False, True)]
    for family, level in FROZEN_KRONECKER_SHA256:
        args = ["kronecker", "-s", "annulus", "--s", str(level), "--family", family]
        commands += [args, args + ["--check"]]
    for (surface, v, w), (exit_code, _) in FROZEN_SKEIN_SHA256.items():
        if exit_code == 0:
            commands.append(["skein-multiply", "-s", surface, "--v", v, "--w", w])
    for surface in FROZEN_SURFACE_SHA256:
        commands += [["validate", "-s", surface], ["verify", "-s", surface, "--max-length", "6"]]
    return commands


def test_structured_output_is_the_stdlib_encoding_of_itself(runner, tmp_path):
    commands = structured_commands(tmp_path)
    assert len(commands) == 49
    for args in commands:
        res = runner.invoke(main, args + ["--format", "structured"])
        assert res.exit_code == 0, (args, res.output)
        assert json.dumps(json.loads(res.output), indent=2, sort_keys=True) + "\n" == res.output, args


@pytest.mark.parametrize(
    "args",
    [
        ["expand", "-s", "annulus", "--string", "1 >a> 2 <b< 1"],
        ["matchings", "-s", "annulus", "--string", "1 >a> 2 <b< 1"],
        ["verify", "-s", "annulus", "--max-length", "4"],
    ],
)
def test_text_output_is_one_write(runner, monkeypatch, args):
    real = cli.click.echo
    messages = []

    def counted(message=None, **kwargs):
        messages.append(message)
        return real(message, **kwargs)

    monkeypatch.setattr(cli.click, "echo", counted)
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert len(messages) == 1 and res.output == messages[0] + "\n"
    assert res.output.count("\n") > 3


# build_quiver calls per command; mutate reads no quiver at all.
# kronecker --check builds one per level it reads (four at s = 3) and
# skein-multiply one to parse and one for the product.  A build takes
# about 12 us on the annulus (Python 3.11, 2-core x86-64 host).
QUIVER_BUILDS = [
    (["validate", "-s", "annulus"], 1),
    (["expand", "-s", "annulus", "--string", "1 >a> 2 <b< 1"], 1),
    (["matchings", "-s", "annulus", "--string", "1 >a> 2 <b< 1"], 1),
    (["submodules", "-s", "annulus", "--string", "1 >a> 2 <b< 1"], 1),
    (["mutate", "-s", "annulus", "--seq", "1,2"], 0),
    (["kronecker", "-s", "annulus", "--s", "3"], 1),
    (["kronecker", "-s", "annulus", "--s", "3", "--family", "H", "--check"], 4),
    (["skein-multiply", "-s", "annulus", "--v", "1", "--w", "1 >a> 2"], 2),
    (["verify", "-s", "annulus", "--max-length", "4"], 1),
]


@pytest.mark.parametrize("args, builds", QUIVER_BUILDS)
def test_each_command_builds_the_quiver_a_pinned_number_of_times(runner, monkeypatch, args, builds):
    real = surface_module.build_quiver
    calls = []

    def counted(t):
        calls.append(t)
        return real(t)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qcluster" and getattr(module, "build_quiver", None) is real:
            monkeypatch.setattr(module, "build_quiver", counted)
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert len(calls) == builds
