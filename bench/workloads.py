"""The benchmark's workloads: CLI invocations, their inputs and their checks.

Every item is one `qcluster` command with `--format structured`.  The
inputs come from the seed; the expected results come from oracles that
share no code path with the command they check (commutative mutation,
the alpha-weighted series) and are computed before any timing starts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from polygons import internal_triangles, polygon

# annulus_expand: G_s and H_s for s = 1..EXPAND_TOP.  G_7 has 1597 matchings.
EXPAND_TOP = 7
# annulus_mutate: the CLI refuses sequences longer than 12.
MUTATE_STEPS = 12
# polygon_verify: n-gon -> number of internal triangles drawn for it.
POLYGONS = {10: 1, 12: 2, 14: 3}
VERIFY_MAX_LENGTH = 2
# annulus_identities: strings of at most this many vertices, and the
# kronecker --check ladder.
SKEIN_MAX_VERTICES = 10
KRONECKER_TOP = 5


@dataclass
class Item:
    """One CLI invocation and how to judge its output."""

    label: str
    args: list
    check: Callable  # parsed JSON output -> error message or None


@dataclass
class Workload:
    name: str
    surfaces: list  # the --surface arguments the items use
    items: list
    facts: dict = field(default_factory=dict)  # input properties, for the report
    rungs: list = field(default_factory=list)  # item labels of a size ladder, smallest first


def _structured(*args) -> list:
    return [str(a) for a in args] + ["--format", "structured"]


def _element(qc, rank: int, rows: list):
    return qc.TorusElement(
        rank,
        {tuple(row["exponent"]): qc.QCoefficient(dict(row["coefficient"])) for row in rows},
    )


def _alternating(start: int, length: int) -> list:
    return [start if i % 2 == 0 else 3 - start for i in range(length)]


def _annulus(qc):
    t = qc.load_surface("annulus")
    return t, qc.initial_seed(qc.pair_from_surface(t))


def annulus_expand(qc, rng: random.Random, workdir: Path) -> Workload:
    t, seed = _annulus(qc)
    b = qc.b_matrix(t)
    items = []
    for s in range(1, EXPAND_TOP + 1):
        # G_s is the variable reached by s + 1 alternating mutations from 1.
        sequence = _alternating(1, s + 1)
        classical = qc.classical_mutation_sequence(qc.classical_initial_seed(b), sequence)
        want_g = classical.cluster[sequence[-1] - 1]
        want_h = qc.r_s(t, s, seed, "H")

        def check_g(out, want=want_g):
            got = qc.classical_specialization(_element(qc, t.m, out["element"]))
            return None if got == want else "q=1 expansion differs from classical mutation"

        def check_h(out, want=want_h):
            got = _element(qc, t.m, out["element"])
            return None if got == want else "expansion differs from the alpha-weighted series r_s"

        for family, check in (("G", check_g), ("H", check_h)):
            word = qc.family_word(t, s, family)
            items.append(
                Item(f"expand {family}_{s}", _structured("expand", "-s", "annulus", "--string", word), check)
            )
    rng.shuffle(items)
    rungs = [f"expand G_{s}" for s in range(1, EXPAND_TOP + 1)]
    return Workload("annulus_expand", ["annulus"], items, rungs=rungs)


def annulus_mutate(qc, rng: random.Random, workdir: Path) -> Workload:
    t, _ = _annulus(qc)
    b = qc.b_matrix(t)
    items = []
    for start in (1, 2):
        sequence = _alternating(start, MUTATE_STEPS)
        classical = qc.classical_mutation_sequence(qc.classical_initial_seed(b), sequence)

        def check(out, want=classical.cluster):
            for key, rows in out["cluster"].items():
                got = qc.classical_specialization(_element(qc, t.m, rows))
                if got != want[int(key) - 1]:
                    return f"X[{key}] at q=1 differs from the commutative oracle"
            return None

        text = ",".join(map(str, sequence))
        items.append(Item(f"mutate {text}", _structured("mutate", "-s", "annulus", "--seq", text), check))
    rng.shuffle(items)
    return Workload("annulus_mutate", ["annulus"], items)


def polygon_verify(qc, rng: random.Random, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    items, paths, facts = [], [], {}
    for n, internal in POLYGONS.items():
        data = polygon(n, internal, rng)
        t = qc.load_surface(data)
        quiver = qc.build_quiver(t)
        qc.check_gentle(quiver)
        path = workdir / f"polygon{n}.json"
        path.write_text(json.dumps(data, indent=1) + "\n")
        strings = len(qc.enumerate_strings(quiver, VERIFY_MAX_LENGTH))
        facts[f"polygon{n}"] = {
            "n": n,
            "m": t.m,
            "internal_arcs": t.n,
            "internal_triangles": internal_triangles(data),
            "strings": strings,
        }

        def check(out, strings=strings):
            bad = [row for row in out["checks"] if not row["ok"]]
            if out["failures"] or bad:
                return f"verify reports {out['failures']} failures"
            seen = len({row["string"] for row in out["checks"]})
            if seen != strings:
                return f"verify checked {seen} strings, expected {strings}"
            return None

        paths.append(str(path))
        items.append(
            Item(
                f"verify polygon{n}",
                _structured("verify", "-s", path, "--max-length", VERIFY_MAX_LENGTH, "--jobs", 1),
                check,
            )
        )
    rng.shuffle(items)
    return Workload("polygon_verify", paths, items, facts)


def annulus_identities(qc, rng: random.Random, workdir: Path) -> Workload:
    t, _ = _annulus(qc)
    quiver = qc.build_quiver(t)
    words = qc.enumerate_strings(quiver, SKEIN_MAX_VERTICES)
    items = []

    def check_skein(out):
        return None if out["identity_verified"] else "skein identity not verified"

    for v in words:
        for w in words:
            if qc.count_extensions(v, w, quiver) != 1:
                continue
            items.append(
                Item(
                    f"skein {v} * {w}",
                    _structured("skein-multiply", "-s", "annulus", "--v", v, "--w", w),
                    check_skein,
                )
            )

    def check_kronecker(out):
        if not out["equality"] or out["recursion_failures"]:
            return "kronecker check failed: " + "; ".join(out["recursion_failures"])
        return None

    for s in range(1, KRONECKER_TOP + 1):
        for family in ("G", "H"):
            items.append(
                Item(
                    f"kronecker {family}_{s} --check",
                    _structured("kronecker", "-s", "annulus", "--s", s, "--family", family, "--check"),
                    check_kronecker,
                )
            )
    rng.shuffle(items)
    return Workload("annulus_identities", ["annulus"], items)


BUILDERS = {
    "annulus_expand": annulus_expand,
    "annulus_mutate": annulus_mutate,
    "polygon_verify": polygon_verify,
    "annulus_identities": annulus_identities,
}
WORKLOADS = tuple(BUILDERS)


def build(name: str, qc, seed: int, workdir: Path) -> Workload:
    """The workload's items for this seed; polygon files go under workdir."""
    return BUILDERS[name](qc, random.Random(f"{name}:{seed}"), workdir)
