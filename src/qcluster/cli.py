"""Command-line front end.

Every command takes --surface (a bundled name or a JSON path) and
prints either human-readable text or structured JSON (--format).  This
module only parses options and formats results: words are read by
`strings.parse_string`, and verify formats the check records of
`qcluster.checks`, whose order does not depend on the worker count.
Text is printed in one write; structured output is written by `_json`.
The commands hand it their results as they are: `TorusElement`s and
expand's `ExpansionTerm` tuples, each printed one row per term from one
template; a dimension vector or exponent that recurs among the terms is
joined once per call.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii

import click

from .checks import verify_surface
from .errors import QClusterError
from .expansion import ExpansionTerm, classical_specialization, quantum_expansion
from .kronecker import build_weighted, equality_check, recursion_checks, weighted_series
from .seeds import initial_seed, mutation_sequence
from .skein_mult import multiply_and_certify, relative_exponent_check
from .snake import enumerate_matchings, label_snake, matching_to_submodule
from .strings import parse_string, positions
from .surface import build_quiver, check_gentle, load_surface, pair_from_surface
from .torus import TorusElement
from .valuation import valuation_v, valuation_v_gamma

def _json(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), written directly for the
    ints, bools, strings, lists and string-keyed dicts the commands build;
    any other value goes to the stdlib.  A `TorusElement` is written as
    json.dumps writes the list of its term dicts, and a tuple of
    `ExpansionTerm`s as it writes the list of their `_asdict()` dicts,
    each index set mask as its sorted positions."""
    pieces = []
    _write_json(value, "\n", pieces.append)
    return "".join(pieces)


def _write_json(value, indent: str, emit) -> None:
    """Emit value's pieces; indent is the newline and indentation of the
    line value starts on.  Elements and term tuples go to their row
    writers, which emit one piece per term.  Small pieces keep the peak
    memory of a long output at the stdlib's."""
    inner = indent + "  "
    kind = type(value)
    if kind is list and value:
        if {*map(type, value)} == {int}:  # no bools: their repr is not JSON's
            emit(_ints(value, indent))
            return
        opening = "[" + inner
        for x in value:
            emit(opening)
            _write_json(x, inner, emit)
            opening = "," + inner
        emit(indent + "]")
    elif kind is dict and value and {*map(type, value)} == {str}:
        opening = "{" + inner
        for k, v in sorted(value.items()):
            emit(opening + encode_basestring_ascii(k) + ": ")
            _write_json(v, inner, emit)
            opening = "," + inner
        emit(indent + "}")
    elif kind is TorusElement:
        _write_element(value, indent, emit)
    elif kind is tuple and {*map(type, value)} == {ExpansionTerm}:
        _write_terms(value, indent, emit)
    elif kind is str:
        emit(encode_basestring_ascii(value))
    elif kind is int:
        emit(repr(value))
    elif kind is bool:
        emit("true" if value else "false")
    else:
        emit(json.dumps(value, indent=2, sort_keys=True).replace("\n", indent))


def _ints(xs, indent: str) -> str:
    """A sequence of ints as json.dumps writes it on a line indented by indent."""
    if not xs:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(map(str, xs)) + indent + "]"


def _write_terms(terms, indent: str, emit) -> None:
    """Emit a tuple of ExpansionTerms as _write_json would the list of their
    field dicts: one row per term from one template, keys in sorted order.
    Dimension vectors and exponents sit at one indentation, so one cache
    joins each distinct tuple of either once per call."""
    inner = indent + "  "
    row = inner + "  "
    template = (
        "{" + row + '"dim": %s,' + row + '"exponent": %s,'
        + row + '"indices": %s,' + row + '"valuation": %d' + inner + "}"
    )
    joined = {}

    def shared(xs) -> str:
        text = joined.get(xs)
        if text is None:
            text = joined[xs] = _ints(xs, row)
        return text

    opening = "[" + inner
    for indices, dim, valuation, exponent in terms:
        emit(opening + template % (shared(dim), shared(exponent), _ints(positions(indices), row), valuation))
        opening = "," + inner
    emit(indent + "]")


def _write_element(element: TorusElement, indent: str, emit) -> None:
    """Emit a TorusElement as _write_json would the list of its term dicts
    {"coefficient": [[t, c], ...], "exponent": g}: one row per term from
    one template, terms in descending exponent order and each term's q-terms
    in ascending t."""
    if not element.terms:
        emit("[]")
        return
    inner = indent + "  "
    row = inner + "  "
    item = row + "  "
    cell = item + "  "
    pair = "[" + cell + "%d," + cell + "%d" + item + "]"
    template = "{" + row + '"coefficient": [' + item + "%s" + row + "]," + row + '"exponent": %s' + inner + "}"
    terms = element.terms
    opening = "[" + inner
    for g in sorted(terms, reverse=True):
        pairs = ("," + item).join([pair % tc for tc in sorted(terms[g].coeffs.items())])
        emit(opening + template % (pairs, _ints(g, row)))
        opening = "," + inner
    emit(indent + "]")


def _emit(fmt: str, data, text_lines) -> None:
    """Print data() as JSON or text_lines() in one write; only the chosen
    form is built, and no lines print nothing."""
    # Pass the stream: click.echo's default-stream cache would keep every
    # stream that replaced sys.stdout, and its contents, alive for good.
    if fmt == "structured":
        click.echo(_json(data()), file=sys.stdout)
    else:
        lines = text_lines()
        if lines:
            click.echo("\n".join(lines), file=sys.stdout)


surface_option = click.option(
    "--surface", "-s", "surface", required=True, help="bundled surface name or JSON path"
)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "structured"]), default="text"
)


class _Main(click.Group):
    """The one error boundary: a QClusterError exits 1 with its message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except QClusterError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main() -> None:
    """Quantum expansions of arc variables on triangulated surfaces."""


@main.command()
@surface_option
@format_option
def validate(surface, fmt):
    """Validate a surface file and its derived quiver and pair."""
    t = load_surface(surface)
    quiver = build_quiver(t)
    check_gentle(quiver)
    pair = pair_from_surface(t)
    arrows = [f"{a.name}: {a.source}->{a.target}" for a in quiver.arrows]
    relations = sorted("".join(r) for r in quiver.relations)
    _emit(
        fmt,
        lambda: {
            "surface": t.name,
            "arcs": t.m,
            "internal": t.n,
            "triangles": len(t.triangles),
            "arrows": arrows,
            "relations": relations,
            "b_tilde": [list(r) for r in pair.b_tilde],
            "lambda": [list(r) for r in pair.lam],
            "d": list(pair.d),
        },
        lambda: [
            f"surface {t.name}: {t.m} arcs ({t.n} internal), {len(t.triangles)} triangles",
            "arrows: " + ", ".join(arrows),
            "relations: " + (", ".join(relations) or "none"),
            f"diagonal: {list(pair.d)}",
            "ok",
        ],
    )


@main.command()
@surface_option
@click.option("--string", "text", required=True, help='string word, e.g. "1 >a> 2"')
@click.option("--q1", is_flag=True, help="print the commutative specialization")
@format_option
def expand(surface, text, q1, fmt):
    """Quantum expansion of the arc variable of a string."""
    t = load_surface(surface)
    quiver = build_quiver(t)
    word = parse_string(text, quiver)
    seed = initial_seed(pair_from_surface(t))
    result = quantum_expansion(word, t, seed)
    classical = classical_specialization(result.element, n=t.n) if q1 else None

    def data():
        out = {"string": str(word), "element": result.element, "terms": result.terms}
        if q1:
            out["classical"] = {str(list(k)): v for k, v in sorted(classical.items())}
        return out

    def text_lines():
        lines = [f"string: {word}", f"element: {result.element}"]
        if q1:
            lines.append("q=1, boundary=1: " + _classical_str(classical))
        return lines + [
            f"  term {positions(term.indices)}: dim={list(term.dim)} v={term.valuation} exp={list(term.exponent)}"
            for term in result.terms
        ]

    _emit(fmt, data, text_lines)


def _classical_str(classical: dict) -> str:
    parts = []
    for g in sorted(classical, reverse=True):
        coeff = classical[g]
        mono = "*".join(
            f"x{i + 1}^{e}" if e != 1 else f"x{i + 1}" for i, e in enumerate(g) if e
        )
        parts.append(f"{coeff if coeff != 1 or not mono else ''}{mono or coeff}")
    return " + ".join(parts)


@main.command()
@surface_option
@click.option("--string", "text", required=True)
@format_option
def matchings(surface, text, fmt):
    """Perfect matchings of the string's snake graph."""
    t = load_surface(surface)
    quiver = build_quiver(t)
    word = parse_string(text, quiver)
    g = label_snake(word, t)
    vals = valuation_v(g)
    rows = []
    for P in enumerate_matchings(g):
        rows.append(
            {
                "edges": sorted([list(e) for e in g.edges(P)]),
                "enclosed": positions(matching_to_submodule(g, P)),
                "valuation": vals[P],
            }
        )
    _emit(
        fmt,
        lambda: {"string": str(word), "shape": list(g.shape), "matchings": rows},
        lambda: [f"string: {word}", f"shape: {''.join(g.shape) or '-'}"]
        + [
            f"  {row['edges']} enclosed={row['enclosed']} v={row['valuation']}"
            for row in rows
        ],
    )


@main.command()
@surface_option
@click.option("--string", "text", required=True)
@format_option
def submodules(surface, text, fmt):
    """Canonical index sets of the string module, with valuations."""
    t = load_surface(surface)
    quiver = build_quiver(t)
    word = parse_string(text, quiver)
    # the walk's table lists the canonical sets in the generator's order
    vals = valuation_v_gamma(label_snake(word, t))
    rows = [{"indices": positions(N), "valuation": v} for N, v in vals.items()]
    _emit(
        fmt,
        lambda: {"string": str(word), "submodules": rows},
        lambda: [f"string: {word}"]
        + [f"  {row['indices']} v={row['valuation']}" for row in rows],
    )


@main.command()
@surface_option
@click.option("--seq", required=True, help="comma-separated directions, e.g. 1,2,1")
@format_option
def mutate(surface, seq, fmt):
    """Mutate the initial seed along a sequence of directions."""
    seed = initial_seed(pair_from_surface(load_surface(surface)))
    try:
        directions = [int(x) for x in seq.split(",")]
    except ValueError as exc:
        raise click.ClickException(str(exc))
    seed = mutation_sequence(seed, directions)
    _emit(
        fmt,
        lambda: {
            "sequence": directions,
            "cluster": {str(i + 1): seed.cluster[i] for i in range(seed.n)},
            "b_tilde": [list(r) for r in seed.pair.b_tilde],
            "lambda": [list(r) for r in seed.pair.lam],
        },
        lambda: [f"after {directions}:"]
        + [f"  X[{i + 1}] = {seed.cluster[i]}" for i in range(seed.n)],
    )


@main.command()
@surface_option
@click.option("--s", "level", type=int, required=True)
@click.option("--family", type=click.Choice(["G", "H"]), default="G")
@click.option("--check", is_flag=True, help="also run the recursion checks")
@format_option
def kronecker(surface, level, family, check, fmt):
    """Alpha-weighted matching sums of the annulus families."""
    t = load_surface(surface)
    seed = initial_seed(pair_from_surface(t))
    ws = build_weighted(t, level, family)
    series = weighted_series(ws, seed)
    equal = equality_check(ws)
    failures = recursion_checks(ws) if check else []

    def data():
        out = {
            "family": family,
            "s": level,
            "word": str(ws.graph.word),
            "alphas": list(ws.alphas),
            "series": series,
            "equality": equal,
        }
        if check:
            out["recursion_failures"] = failures
        return out

    def text_lines():
        lines = [
            f"{family}_{level}: {ws.graph.word}",
            f"alpha weights: {list(ws.alphas)}",
            f"series: {series}",
            f"per-dimension alpha/valuation agreement: {'ok' if equal else 'FAIL'}",
        ]
        if check:
            lines.append(
                "recursions: ok" if not failures else "recursions: " + "; ".join(failures)
            )
        return lines

    _emit(fmt, data, text_lines)
    if not equal or failures:
        raise SystemExit(1)


@main.command("skein-multiply")
@surface_option
@click.option("--v", "v_text", required=True)
@click.option("--w", "w_text", required=True)
@format_option
def skein_multiply(surface, v_text, w_text, fmt):
    """Resolve a product of two arc variables into two terms."""
    t = load_surface(surface)
    quiver = build_quiver(t)
    v = parse_string(v_text, quiver)
    w = parse_string(w_text, quiver)
    seed = initial_seed(pair_from_surface(t))
    cert = multiply_and_certify(v, w, t, seed)
    gap_ok = relative_exponent_check(cert)
    _emit(
        fmt,
        lambda: {
            "kind": cert.extension.kind,
            "u1": str(cert.extension.u1),
            "s1_twice": cert.s1_twice,
            "s2_twice": cert.s2_twice,
            "lambda_twice": cert.s1_twice + cert.s2_twice,
            "m1": cert.m1,
            "m2": cert.m2,
            "m2_source": cert.m2_source,
            "identity_verified": cert.identity_verified,
            "gap_twice": cert.relative_twice,
            "gap_is_geometric": gap_ok,
        },
        lambda: [
            f"extension: {cert.extension.kind} ({cert.extension.detail})",
            f"u1 = {cert.extension.u1}",
            f"order: X[{cert.v}] * X[{cert.w}]",
            f"sum: q^({cert.s1_twice}/2) M1 + q^({cert.s2_twice}/2) M2",
            f"lambda (half-units) = {_halves(cert.s1_twice + cert.s2_twice)}",
            f"M1 = {cert.m1}",
            f"M2 = {cert.m2} ({cert.m2_source})",
            f"identity verified: {cert.identity_verified}",
            f"shift gap (twice units) = {cert.relative_twice}; geometric q^2 gap: {gap_ok}",
        ],
    )
    if not cert.identity_verified:
        raise SystemExit(1)


def _halves(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


@main.command()
@surface_option
@click.option("--max-length", type=click.IntRange(min=1), default=6, show_default=True)
@click.option(
    "--jobs",
    type=click.IntRange(min=0),
    envvar="QCLUSTER_JOBS",
    default=1,
    help="worker processes (default $QCLUSTER_JOBS or 1)",
)
@format_option
def verify(surface, max_length, jobs, fmt):
    """Cross-check matchings, submodules, valuations and expansions."""
    pair, words, results = verify_surface(load_surface(surface), max_length, jobs)
    rows = [
        {"string": word_text, "check": name, "ok": ok, "message": message}
        for word_text, checks in results
        for name, ok, message in checks
    ]
    failures = sum(not row["ok"] for row in rows)
    _emit(
        fmt,
        lambda: {"surface": surface, "checks": rows, "failures": failures},
        lambda: [f"seed: compatible, d={list(pair.d)}; mutations involutive"]
        + [
            f"ok   {row['string']} [{row['check']}]"
            if row["ok"]
            else f"FAIL {row['string']} [{row['check']}]: {row['message']}"
            for row in rows
        ]
        + [f"{len(words)} strings, {len(rows)} checks, {failures} failures"],
    )
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
