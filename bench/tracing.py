"""Spans and counters around the calls into each qcluster layer.

The tracer records from outside the package.  `install` replaces each
target function by a wrapper in every `qcluster.*` namespace that holds
it (a name bound by `from .x import f` is a separate binding, so all of
them are rebound), and class methods on their class; `restore` puts the
originals back.  A span is (name, start, end, parent) and lives in
memory until the run writes the spans out.  Self time is a span's
duration minus that of its direct children.  Functions called hundreds
of thousands of times (omega, n_module, QCoefficient.__mul__) get a
counting wrapper without a span, so their time stays in the caller's
self time.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    key: str  # "<layer>.<name>", the metric prefix
    module: str  # qcluster submodule that defines it
    attr: str  # function name, or "Class.method"
    span: bool  # False: count calls only
    exercised_by: str  # the workload on which zero calls is an error
    hook: Callable | None = None  # (tracer, args, result) -> None


def _word(tr, key, args):
    word, surface = args[0], args[1]
    tr.words[key].add((surface.name, str(word)))


def _on_label_snake(tr, args, result):
    _word(tr, "snake.label_snake", args)


def _on_enumerate_matchings(tr, args, result):
    graph = args[0]
    if id(graph) not in tr.graphs:
        tr.graphs[id(graph)] = graph  # held so the id stays unique
        tr.extra["snake.matchings"] += len(result)


def _on_enumerate_canonical(tr, args, result):
    tr.extra["strings.canonical_sets"] += len(result)


def _on_is_canonical(tr, args, result):
    if tr.active["strings.enumerate_canonical_submodules"]:
        tr.extra["strings.canonical_tests"] += 1


def _on_quantum_expansion(tr, args, result):
    _word(tr, "expansion.quantum_expansion", args)
    tr.extra["expansion.monomials"] += len(result.element.terms)
    tr.extra["expansion.matchings"] += len(result.terms)
    if tr.active["skein_mult.multiply_and_certify"]:
        tr.extra["skein_mult.expansions"] += 1


def _on_valuation_v(tr, args, result):
    if tr.active["kronecker.recursion_checks"]:
        tr.extra["kronecker.valuation_v"] += 1


def _on_torus_mul(tr, args, result):
    tr.extra["torus.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _on_qcoeff_mul(tr, args, result):
    tr.extra["torus.qcoeff_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _on_div_exact_right(tr, args, result):
    tr.extra["torus.div_quotient_terms"] += len(result.terms)


def _on_pair_from_surface(tr, args, result):
    t = args[0]
    tr.surfaces.add((t.name, tuple(t.triangles)))


TARGETS = (
    Target("surface.load_surface", "surface", "load_surface", True, "polygon_verify"),
    Target("surface.pair_from_surface", "surface", "pair_from_surface", True, "polygon_verify", _on_pair_from_surface),
    Target("surface.find_lambda", "surface", "find_lambda", True, "polygon_verify"),
    Target("strings.enumerate_strings", "strings", "enumerate_strings", True, "polygon_verify"),
    Target("strings.enumerate_canonical_submodules", "strings", "enumerate_canonical_submodules", True,
           "annulus_expand", _on_enumerate_canonical),
    Target("strings.is_canonical_submodule", "strings", "is_canonical_submodule", False, "annulus_expand",
           _on_is_canonical),
    Target("snake.label_snake", "snake", "label_snake", True, "annulus_expand", _on_label_snake),
    Target("snake.enumerate_matchings", "snake", "enumerate_matchings", True, "annulus_expand",
           _on_enumerate_matchings),
    Target("snake.check_bijection", "snake", "check_bijection", True, "polygon_verify"),
    Target("valuation.valuation_v", "valuation", "valuation_v", True, "annulus_expand", _on_valuation_v),
    Target("valuation.valuation_v_gamma", "valuation", "valuation_v_gamma", True, "annulus_expand"),
    Target("valuation.omega", "valuation", "omega", False, "annulus_expand"),
    Target("valuation.omega_prime", "valuation", "omega_prime", False, "annulus_expand"),
    Target("valuation.n_module", "valuation", "n_module", False, "annulus_expand"),
    Target("expansion.quantum_expansion", "expansion", "quantum_expansion", True, "annulus_expand",
           _on_quantum_expansion),
    Target("torus.torus_mul", "torus", "torus_mul", True, "annulus_mutate", _on_torus_mul),
    Target("torus.qcoeff_mul", "torus", "QCoefficient.__mul__", False, "annulus_mutate", _on_qcoeff_mul),
    Target("torus.div_exact_right", "torus", "div_exact_right", True, "annulus_mutate", _on_div_exact_right),
    Target("torus.element_add", "torus", "TorusElement.__add__", True, "annulus_expand"),
    Target("torus.bar_normalize", "torus", "bar_normalize", True, "annulus_identities"),
    Target("seeds.mutate_seed", "seeds", "mutate_seed", True, "annulus_mutate"),
    Target("skein_mult.multiply_and_certify", "skein_mult", "multiply_and_certify", True, "annulus_identities"),
    Target("kronecker.recursion_checks", "kronecker", "recursion_checks", True, "annulus_identities"),
)

CLI = "cli"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (key, start, end, parent index or -1)
        self.stack: list = []
        self.active: Counter = Counter()  # key -> open spans of that key
        self.patches: list = []  # (owner, attribute, original)
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()
        self.words: defaultdict = defaultdict(set)  # key -> distinct (surface, word) seen
        self.surfaces: set = set()  # surfaces given to pair_from_surface
        self.graphs: dict = {}  # snake graphs whose matchings were counted

    def reset_counts(self) -> None:
        """Start the counters of a new pass; spans are kept."""
        for table in (self.calls, self.extra, self.words, self.surfaces, self.graphs):
            table.clear()

    # -- recording ------------------------------------------------------

    def _open(self, key: str) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self.active[key] += 1
        self.calls[key] += 1
        return index

    def _close(self, key: str, index: int, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        self.active[key] -= 1
        parent = self.stack[-1] if self.stack else -1
        self.spans[index] = (key, start, end, parent)

    def region(self, key: str, fn: Callable):
        """Call fn() inside a span named key."""
        index = self._open(key)
        start = perf_counter()
        try:
            return fn()
        finally:
            self._close(key, index, start)

    def _span_wrapper(self, target: Target, fn: Callable) -> Callable:
        key, hook = target.key, target.hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(key)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(key, index, start)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, target: Target, fn: Callable) -> Callable:
        key, hook, calls = target.key, target.hook, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    # -- installing -----------------------------------------------------

    def install(self, package: str = "qcluster") -> None:
        if self.patches:
            raise RuntimeError("tracer is already installed")
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        try:
            for target in TARGETS:
                self._install_one(target, package, namespaces)
        except BaseException:
            self.restore()
            raise

    def _install_one(self, target: Target, package: str, namespaces: list) -> None:
        module = sys.modules[f"{package}.{target.module}"]
        make = self._span_wrapper if target.span else self._count_wrapper
        if "." in target.attr:
            cls_name, method = target.attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            self.patches.append((cls, method, original))
            setattr(cls, method, make(target, original))
            return
        original = getattr(module, target.attr)
        wrapper = make(target, original)
        for namespace in namespaces:
            if getattr(namespace, target.attr, None) is original:
                self.patches.append((namespace, target.attr, original))
                setattr(namespace, target.attr, wrapper)

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


# -- derived metrics -----------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_times(spans: list, first: int) -> tuple:
    """Per key: summed self time, and summed time of outermost spans."""
    child = defaultdict(float)
    for key, start, end, parent in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    self_s, total_s = defaultdict(float), defaultdict(float)
    for index in range(first, len(spans)):
        key, start, end, parent = spans[index]
        self_s[key] += end - start - child[index]
        outer = parent
        while outer >= first and spans[outer][0] != key:
            outer = spans[outer][3]
        if outer < first:
            total_s[key] += end - start
    return self_s, total_s


def _mutation_steps(spans: list, first: int) -> list:
    """Durations of the mutate_seed spans of each CLI call, in order."""
    steps = defaultdict(list)
    for key, start, end, parent in spans[first:]:
        if key == "seeds.mutate_seed":
            steps[parent].append(end - start)
    return list(steps.values())


def step_growth(spans: list, first: int) -> float:
    """Median over CLI calls of the last step's time over the step before it."""
    ratios = [s[-1] / s[-2] for s in _mutation_steps(spans, first) if len(s) >= 2]
    return statistics.median(ratios) if ratios else 0.0


def pass_metrics(tr: Tracer, first: int) -> dict:
    """Per-layer metrics of one traced pass whose spans start at ``first``."""
    self_s, total_s = span_times(tr.spans, first)
    calls, extra = tr.calls, tr.extra
    return {
        "valuation.valuation_v.self_s": self_s["valuation.valuation_v"],
        "valuation.valuation_v_gamma.self_s": self_s["valuation.valuation_v_gamma"],
        "valuation.omega.calls": calls["valuation.omega"],
        "valuation.omega_prime.calls": calls["valuation.omega_prime"],
        "valuation.n_module.calls": calls["valuation.n_module"],
        "strings.enumerate_canonical_submodules.s": total_s["strings.enumerate_canonical_submodules"],
        "strings.canonical_yield": _ratio(extra["strings.canonical_sets"], extra["strings.canonical_tests"]),
        "strings.enumerate_strings.s": total_s["strings.enumerate_strings"],
        "snake.label_snake.calls": calls["snake.label_snake"],
        "snake.graphs_per_word": _ratio(calls["snake.label_snake"], len(tr.words["snake.label_snake"])),
        "snake.enumerate_matchings.s": total_s["snake.enumerate_matchings"],
        "snake.matchings": extra["snake.matchings"],
        "snake.check_bijection.s": total_s["snake.check_bijection"],
        "expansion.quantum_expansion.self_s": self_s["expansion.quantum_expansion"],
        "expansion.expansions_per_word": _ratio(
            calls["expansion.quantum_expansion"], len(tr.words["expansion.quantum_expansion"])
        ),
        "expansion.monomials_per_matching": _ratio(extra["expansion.monomials"], extra["expansion.matchings"]),
        "torus.torus_mul.s": total_s["torus.torus_mul"],
        "torus.term_pairs": extra["torus.term_pairs"],
        "torus.qcoeff_mul.calls": calls["torus.qcoeff_mul"],
        "torus.qcoeff_pairs": extra["torus.qcoeff_pairs"],
        "torus.div_exact_right.s": total_s["torus.div_exact_right"],
        "torus.div_quotient_terms": extra["torus.div_quotient_terms"],
        "torus.element_add.s": total_s["torus.element_add"],
        "torus.bar_normalize.s": total_s["torus.bar_normalize"],
        "seeds.mutate_seed.self_s": self_s["seeds.mutate_seed"],
        "seeds.step_growth_x": step_growth(tr.spans, first),
        "surface.load_surface.calls": calls["surface.load_surface"],
        "surface.pair_from_surface.calls": calls["surface.pair_from_surface"],
        "surface.pairs_per_surface": _ratio(calls["surface.pair_from_surface"], len(tr.surfaces)),
        "surface.find_lambda.s": total_s["surface.find_lambda"],
        "skein_mult.multiply_and_certify.self_s": self_s["skein_mult.multiply_and_certify"],
        "skein_mult.expansions_per_product": _ratio(
            extra["skein_mult.expansions"], calls["skein_mult.multiply_and_certify"]
        ),
        "kronecker.recursion_checks.s": total_s["kronecker.recursion_checks"],
        "kronecker.valuation_v_per_check": _ratio(
            extra["kronecker.valuation_v"], calls["kronecker.recursion_checks"]
        ),
        "cli.self_s": self_s[CLI],
    }


def layer_split(spans: list) -> dict:
    """Share of the traced wall time per layer (self time) and per outer call."""
    self_s, total_s = span_times(spans, 0)
    wall = total_s[CLI]
    layers = defaultdict(float)
    for key, value in self_s.items():
        layers[key.split(".")[0]] += value
    return {
        "layers": {name: _ratio(value, wall) for name, value in sorted(layers.items())},
        "calls": {key: _ratio(value, wall) for key, value in sorted(total_s.items()) if key != CLI},
    }


def silent_targets(calls_by_pass: list, workload: str) -> list:
    """Targets this workload must exercise that got no call in any pass."""
    return [
        t.key
        for t in TARGETS
        if t.exercised_by == workload and not any(calls.get(t.key) for calls in calls_by_pass)
    ]


def step_times(spans: list) -> list:
    """Median duration of the k-th mutation step of each CLI call, k = 1, 2, ..."""
    by_step = defaultdict(list)
    for durations in _mutation_steps(spans, 0):
        for k, seconds in enumerate(durations):
            by_step[k].append(seconds)
    return [statistics.median(by_step[k]) for k in sorted(by_step)]
