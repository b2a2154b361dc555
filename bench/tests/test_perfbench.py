"""Tests of the benchmark harness itself: inputs, metric names, tracer."""

from __future__ import annotations

import importlib
import json
import random
import re
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import qcluster  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from polygons import internal_triangles, polygon  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("n,internal", sorted(workloads.POLYGONS.items()))
def test_polygon_generator_is_deterministic_and_valid(n, internal):
    first = polygon(n, internal, random.Random(7))
    assert polygon(n, internal, random.Random(7)) == first
    assert internal_triangles(first) == internal
    t = qcluster.load_surface(first)
    qcluster.check_gentle(qcluster.build_quiver(t))
    assert (t.m, t.n, len(t.triangles)) == (2 * n - 3, n - 3, n - 2)
    others = {json.dumps(polygon(n, internal, random.Random(seed))) for seed in range(8)}
    assert len(others) > 1


def test_polygon_workload_is_the_same_for_the_same_seed(tmp_path):
    a = workloads.build("polygon_verify", qcluster, 3, tmp_path / "a")
    b = workloads.build("polygon_verify", qcluster, 3, tmp_path / "b")
    assert [i.label for i in a.items] == [i.label for i in b.items]
    assert a.facts == b.facts
    for name in a.facts:
        assert (tmp_path / "a" / f"{name}.json").read_text() == (tmp_path / "b" / f"{name}.json").read_text()


def test_metric_names_are_valid_and_match_what_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    traced = set(tracing.pass_metrics(tracing.Tracer(), 0)) | {"expansion.growth_x", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == traced


def _bindings():
    """Every qcluster namespace attribute and class method the tracer touches."""
    out = {}
    for name, module in sys.modules.items():
        if name == "qcluster" or name.startswith("qcluster."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (qcluster.QCoefficient, qcluster.TorusElement):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def test_traced_run_counts_calls_and_restores_every_wrapper():
    cli = importlib.import_module("qcluster.cli")
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.label_snake is not before[("qcluster.cli", "label_snake")]
        for args in (
            ["expand", "-s", "annulus", "--string", "1 >a> 2 <b< 1", "--format", "structured"],
            ["mutate", "-s", "annulus", "--seq", "1,2", "--format", "structured"],
        ):
            output, error = run.invoke(cli.main, args, tracer)
            assert error is None and json.loads(output)
    finally:
        tracer.restore()
    assert _bindings() == before
    assert not tracer.stack
    assert tracer.calls["expansion.quantum_expansion"] == 1
    assert tracer.calls["seeds.mutate_seed"] == 2
    assert tracer.calls["valuation.n_module"] > 0 and tracer.calls["torus.qcoeff_mul"] > 0
    self_s, total_s = tracing.span_times(tracer.spans, 0)
    assert total_s[tracing.CLI] >= total_s["expansion.quantum_expansion"] > 0
    assert sum(self_s.values()) == pytest.approx(total_s[tracing.CLI])


def test_timed_takes_the_probe_out_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    result, seconds, scaled = speed.timed(lambda: sum(i * i for i in range(300_000)))
    assert result == sum(i * i for i in range(300_000))
    assert 0 < seconds and 0 < scaled
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
