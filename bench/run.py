"""Benchmark of the qcluster command line, end to end and per layer.

    python3 bench/run.py --workload annulus_expand --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One run is one fresh process.  It builds the workload's inputs
and oracles from the seed, times set-up (import and surface loading)
several times, then drives `qcluster.cli.main` in-process on the
workload's items, pass after pass, for `--seconds` seconds.  Times are
reported at a reference speed (see speed.py).  With
`--trace 1` it spends half the time untraced and half with the layer
tracer installed, and reports per-layer metrics instead of end-to-end
ones.  The human-readable report goes to stderr, a JSON report to
`bench/out/`, and the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts CLI invocations; `failed` counts those that failed
in a way not recorded as known at the seed commit (see baseline.json).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import click

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import timed  # noqa: E402

SETUP_REPEATS = 9
PACKAGE = "qcluster"

@dataclass
class PassResult:
    times: dict  # item label -> seconds at the reference speed
    raw: dict  # item label -> measured seconds
    wall_s: float
    top_item_s: float
    layers: dict = field(default_factory=dict)  # traced passes: per-layer metrics
    calls: dict = field(default_factory=dict)  # traced passes: calls per target


@dataclass
class Tally:
    ops: int = 0
    failed: list = field(default_factory=list)  # (label, reason), unexpected
    known: list = field(default_factory=list)  # (label, reason), recorded at the seed commit
    digests: dict = field(default_factory=dict)  # label -> sha256 of the first output


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def setup_once(surfaces: list) -> tuple:
    """Import the package afresh and load every surface the workload uses.

    Returns (measured seconds, seconds at the reference speed).
    """
    _purge_package()
    gc.collect()

    def body():
        importlib.import_module(PACKAGE + ".cli")
        qc = importlib.import_module(PACKAGE)
        for surface in surfaces:
            t = qc.load_surface(surface)
            qc.build_quiver(t)
            qc.initial_seed(qc.pair_from_surface(t))

    _, seconds, scaled = timed(body)
    return seconds, scaled


def invoke(main, args: list, tracer=None) -> tuple:
    """Run one CLI command in-process; return (stdout, error or None)."""
    buf = io.StringIO()
    error = None
    with redirect_stdout(buf):
        try:
            call = partial(main.main, args=args, prog_name="qcluster", standalone_mode=False)
            if tracer is None:
                call()
            else:
                tracer.region(tracing.CLI, call)
        except SystemExit as exc:
            if exc.code:
                error = f"exit status {exc.code}"
        except click.ClickException as exc:
            cause = exc.__context__
            kind = type(cause).__name__ if cause is not None else type(exc).__name__
            error = f"{kind}: {exc.format_message()}"
        except Exception as exc:  # the program broke; record it and go on
            error = f"{type(exc).__name__}: {exc}"
    return buf.getvalue(), error


def judge(item, output: str, error, tally: Tally, baseline: dict) -> None:
    """Check one output against its oracle, its first run and the baseline."""
    tally.ops += 1
    if error is not None:
        known = error.split(":")[0] == baseline["known"].get(item.label)
        (tally.known if known else tally.failed).append((item.label, error))
        return
    digest = hashlib.sha256(output.encode()).hexdigest()
    first = tally.digests.get(item.label)
    if first is not None:
        if digest != first:
            tally.failed.append((item.label, "output differs from the first pass"))
        return
    tally.digests[item.label] = digest
    if baseline["digests"].get(item.label, digest) != digest:
        tally.failed.append((item.label, "output differs from the seed-commit digest"))
        return
    problem = item.check(json.loads(output))
    if problem:
        tally.failed.append((item.label, problem))


def run_pass(main, wl, tally: Tally, baseline: dict, tracer=None) -> PassResult:
    times, raw = {}, {}
    for item in wl.items:
        gc.collect()  # no item pays for the garbage of the one before
        (output, error), raw[item.label], times[item.label] = timed(
            partial(invoke, main, item.args, tracer)
        )
        judge(item, output, error, tally, baseline)
    return PassResult(times, raw, sum(times.values()), max(times.values()))


def run_passes(main, wl, tally, baseline, seconds: float, tracer=None) -> list:
    """Whole passes until the next one would overrun ``seconds``."""
    deadline = perf_counter() + seconds
    passes = []
    while True:
        if tracer:
            tracer.reset_counts()
            first_span = len(tracer.spans)
        result = run_pass(main, wl, tally, baseline, tracer)
        if tracer:
            result.layers = tracing.pass_metrics(tracer, first_span)
            result.calls = dict(tracer.calls)
        passes.append(result)
        typical = statistics.median(p.wall_s for p in passes)
        if perf_counter() + typical > deadline:
            return passes


def summary(values: list) -> dict:
    """Median, quartiles and sample count."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def item_medians(passes: list) -> dict:
    labels = passes[0].times
    return {label: statistics.median(p.times[label] for p in passes) for label in labels}


def growth(medians: dict, rungs: list) -> float:
    if len(rungs) < 2:
        return 0.0
    return medians[rungs[-1]] / medians[rungs[-2]]


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_one(args) -> int:
    if not (ROOT / "src" / PACKAGE / "cli.py").is_file():
        return _fail(f"no {PACKAGE} sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    recorded = json.loads((BENCH / "baseline.json").read_text())
    baseline = {
        "known": {row["item"]: row["error"] for row in recorded["known_failures"]},
        "digests": recorded["digests"].get(args.workload, {}),
    }

    qc = importlib.import_module(PACKAGE)
    workdir = Path("bench/out") / f"{args.workload}-seed{args.seed}"
    wl = workloads.build(args.workload, qc, args.seed, workdir)
    setup = [setup_once(wl.surfaces) for _ in range(SETUP_REPEATS)]
    main = sys.modules[PACKAGE + ".cli"].main

    tally = Tally()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "facts": wl.facts}
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(main, wl, tally, baseline, budget)
    medians = item_medians(passes)
    report["items"] = medians

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(PACKAGE)
        try:
            traced = run_passes(main, wl, tally, baseline, args.seconds - budget, tracer)
        finally:
            tracer.restore()
        silent = tracing.silent_targets([p.calls for p in traced], args.workload)
        if silent:
            return _fail(f"traced functions got no call on {args.workload}: {', '.join(silent)}")
        untraced_wall = statistics.median(p.wall_s for p in passes)
        traced_wall = statistics.median(p.wall_s for p in traced)
        layers = {key: statistics.median(p.layers[key] for p in traced) for key in traced[0].layers}
        layers["expansion.growth_x"] = growth(medians, wl.rungs)
        layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        report["layer_split"] = tracing.layer_split(tracer.spans)
        report["per_layer"] = layers
        report["mutate_steps"] = tracing.step_times(tracer.spans)
        metrics = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in declared("per_layer")
        }
        write_spans(tracer, args)
    else:
        values = {
            "setup_s": summary([scaled for _, scaled in setup]),
            "wall_s": summary([p.wall_s for p in passes]),
            "top_item_s": summary([p.top_item_s for p in passes]),
            "peak_rss_mb": summary([peak_rss_mb()]),
        }
        report["summary"] = values
        report["measured"] = {
            "setup_s": summary([seconds for seconds, _ in setup]),
            "wall_s": summary([sum(p.raw.values()) for p in passes]),
            "top_item_s": summary([max(p.raw.values()) for p in passes]),
        }
        metrics = {
            m["name"]: {"value": values[m["name"]]["median"], "unit": m["unit"]}
            for m in declared("end_to_end")
        }

    report.update(
        ops=tally.ops,
        ops_failed=len(tally.failed) + len(tally.known),
        known_failures=sorted(set(tally.known)),
        failures=tally.failed[:20],
        digests=tally.digests,
        metrics=metrics,
    )
    write_report(report, args)
    print_report(report)
    result = {
        "correct": not tally.failed,
        "attempted": tally.ops,
        "failed": len(tally.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def declared(kind: str) -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def report_path(kind: str, workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{kind}-{workload}-seed{seed}-trace{trace}.json"


def write_spans(tracer, args) -> None:
    OUT.mkdir(exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[key, start - origin, end - origin, parent] for key, start, end, parent in tracer.spans]
    report_path("spans", args.workload, args.seed, args.trace).write_text(json.dumps({"spans": rows}) + "\n")


def write_report(report: dict, args) -> None:
    OUT.mkdir(exist_ok=True)
    report_path("report", args.workload, args.seed, args.trace).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


PREDICTIONS = {
    # workload -> (what should be most of the traced wall time, where to read it)
    "annulus_expand": ("valuation", "layers"),
    "annulus_mutate": ("torus", "layers"),
    "polygon_verify": ("surface.pair_from_surface", "calls"),
    "annulus_identities": ("expansion.quantum_expansion", "calls"),
}


def print_report(report: dict) -> None:
    def say(line=""):
        print(line, file=sys.stderr)

    say(f"== {report['workload']} seed={report['seed']} trace={report['trace']}")
    for name, facts in report["facts"].items():
        say(f"   {name}: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for name, m in report.get("summary", {}).items():
        unit = report["metrics"][name]["unit"]
        line = f"   {name:<12} {m['median']:.4f} {unit}  (q1 {m['q1']:.4f}, q3 {m['q3']:.4f}, n={m['n']})"
        if name in report["measured"]:
            line += f"  measured {report['measured'][name]['median']:.4f} {unit}"
        say(line)
    say(f"   ops {report['ops']}  ops_failed {report['ops_failed']}  (known at the seed commit: {len(report['known_failures'])} distinct)")
    for label, reason in report["known_failures"]:
        say(f"   known   {label}: {reason[:100]}")
    for label, reason in report["failures"]:
        say(f"   FAILED  {label}: {reason[:160]}")
    if "per_layer" in report:
        for name, value in report["per_layer"].items():
            say(f"   {name:<42} {value:.6g}")
        split = report["layer_split"]
        say("   layer share of traced wall (self time): "
            + ", ".join(f"{k} {v:.1%}" for k, v in sorted(split["layers"].items(), key=lambda kv: -kv[1])))
        name, where = PREDICTIONS[report["workload"]]
        share = split[where].get(name, 0.0)
        say(f"   prediction: {name} is most of {report['workload']}: {share:.1%} -> "
            + ("holds" if share > 0.5 else "does not hold"))


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            print(f"bench: {name} exited with status {done.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        report = json.loads(report_path("report", name, args.seed, args.trace).read_text())
        print(f"{name}: correct={result['correct']} ops={report['ops']} ops_failed={report['ops_failed']}"
              f" (known at the seed commit: {report['ops_failed'] - result['failed']})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<42} {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
