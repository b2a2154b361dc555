"""Triangulated unpunctured surfaces and their gentle quivers.

A surface file lists arcs (internal arcs first, then boundary arcs,
ids 1..m) and oriented triangles as counterclockwise triples of arc
ids.  From the triangulation we read off:

* the adjacency quiver (one arrow per pair of internal arcs sharing a
  triangle, pointing from a side to its counterclockwise neighbor),
* the forbidden length-2 compositions (two consecutive sides of one
  fully internal triangle),
* the extended exchange matrix, rows indexed by all arcs,
* an integer skew matrix completing it to a compatible pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from .errors import InvalidSurface, NoCompatibleLambda, UnknownArrow
from .torus import CompatiblePair

__all__ = [
    "Arc",
    "Arrow",
    "Triangulation",
    "QuiverWithRelations",
    "load_surface",
    "bundled_surface_names",
    "build_quiver",
    "check_gentle",
    "b_matrix",
    "find_lambda",
    "pair_from_surface",
]

_ARROW_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Arc:
    id: int
    kind: str  # "internal" | "boundary"


@dataclass(frozen=True)
class Arrow:
    """Quiver arrow source -> target living in one triangle."""

    name: str
    source: int
    target: int
    triangle: int  # index into Triangulation.triangles
    position: int  # 0, 1, 2: which ccw step of the triangle


class Triangulation:
    def __init__(self, arcs: list[Arc], triangles: list[tuple[int, int, int]],
                 lam: list[list[int]] | None = None, name: str = "") -> None:
        self.arcs = arcs
        self.triangles = [tuple(t) for t in triangles]
        self.lam = lam
        self.name = name
        # The surface context, fixed once: the internal-arc count here, and
        # each arc's triangles in file order once the triangles are checked.
        self.n = sum(1 for a in arcs if a.kind == "internal")
        self._validate()

    # -- basic queries ------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.arcs)

    def is_internal(self, arc: int) -> bool:
        return 1 <= arc <= self.n

    def triangles_at(self, arc: int) -> list[int]:
        """Indices of triangles having ``arc`` as a side, in file order."""
        return list(self._triangles_at.get(arc, ()))

    def other_triangle_at(self, arc: int, not_this: int) -> int:
        others = [i for i in self._triangles_at.get(arc, ()) if i != not_this]
        if len(others) != 1:
            raise InvalidSurface(f"arc {arc} does not flank exactly one triangle besides {not_this}")
        return others[0]

    def ccw_flank(self, tri: int, arc: int) -> int:
        """The side following ``arc`` counterclockwise in triangle ``tri``."""
        t = self.triangles[tri]
        return t[(t.index(arc) + 1) % 3]

    def cw_flank(self, tri: int, arc: int) -> int:
        """The side preceding ``arc`` counterclockwise in triangle ``tri``."""
        t = self.triangles[tri]
        return t[(t.index(arc) + 2) % 3]

    def third_side(self, tri: int, x: int, y: int) -> int:
        t = self.triangles[tri]
        rest = [s for s in t if s not in (x, y)]
        if len(rest) != 1:
            raise InvalidSurface(f"triangle {tri} does not have distinct sides {x}, {y} plus one more")
        return rest[0]

    # -- validation ---------------------------------------------------

    def _validate(self) -> None:
        ids = [a.id for a in self.arcs]
        if ids != list(range(1, len(ids) + 1)):
            raise InvalidSurface("arc ids must be 1..m in order")
        kinds = [a.kind for a in self.arcs]
        if any(k not in ("internal", "boundary") for k in kinds):
            raise InvalidSurface("arc kind must be 'internal' or 'boundary'")
        if kinds != sorted(kinds, key=lambda k: 0 if k == "internal" else 1):
            raise InvalidSurface("internal arcs must precede boundary arcs")
        if self.n == 0:
            raise InvalidSurface("no internal arcs")
        for i, t in enumerate(self.triangles):
            if len(t) != 3 or len(set(t)) != 3:
                raise InvalidSurface(f"triangle {i} must have three distinct sides, got {t}")
            for s in t:
                if not 1 <= s <= self.m:
                    raise InvalidSurface(f"triangle {i} uses unknown arc {s}")
        self._triangles_at = {a.id: [i for i, t in enumerate(self.triangles) if a.id in t] for a in self.arcs}
        for a in self.arcs:
            count = len(self._triangles_at[a.id])
            want = 2 if a.kind == "internal" else 1
            if count != want:
                raise InvalidSurface(
                    f"arc {a.id} ({a.kind}) lies in {count} triangles, expected {want}"
                )


@dataclass(frozen=True)
class QuiverWithRelations:
    vertices: tuple  # internal arc ids
    arrows: tuple  # Arrow, only internal->internal
    relations: frozenset  # pairs (first arrow name, second arrow name)
    triangulation: Triangulation

    def arrows_from(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.source == v]

    def arrows_to(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.target == v]

    def arrows_between(self, src: int, tgt: int) -> list[Arrow]:
        return [a for a in self.arrows if a.source == src and a.target == tgt]

    def arrow_named(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise UnknownArrow(f"no arrow named {name!r}")


def bundled_surface_names() -> list[str]:
    from importlib import resources

    names = []
    for entry in resources.files(__package__).joinpath("surfaces").iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[:-5])
    return sorted(names)


def _integer(x) -> int:
    """A JSON integer; a bool, a float or a string is malformed surface data."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def load_surface(source: str | Path | dict) -> Triangulation:
    """Load a surface from a JSON file, a bundled name, or a dict."""
    where = ""  # names the file in error messages
    if isinstance(source, dict):
        data = source
        name = data.get("name", "")
    else:
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8") if path.suffix == ".json" else None
        except (FileNotFoundError, NotADirectoryError):
            text = None  # no such file: try the bundled names
        except (OSError, ValueError) as exc:  # ValueError: undecodable, or a NUL in the name
            reason = getattr(exc, "strerror", None) or exc
            raise InvalidSurface(f"cannot read surface data in {path}: {reason}") from None
        if text is not None:
            where, name = f" in {path}", path.stem
        else:
            from importlib import resources

            ref = resources.files(__package__).joinpath(f"surfaces/{source}.json")
            try:
                text = ref.read_text()
            except (OSError, ValueError):  # no such name, too long, or holding a NUL
                raise InvalidSurface(
                    f"no such surface file or bundled name: {source!r} "
                    f"(bundled: {', '.join(bundled_surface_names())})"
                ) from None
            name = str(source)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSurface(f"not JSON{where}: {exc}") from None
        if not isinstance(data, dict):
            raise InvalidSurface(f"no JSON object{where}")
        name = data.get("name", name)
    try:
        arcs = [Arc(_integer(a["id"]), str(a["kind"])) for a in data["arcs"]]
        triangles = [tuple(_integer(x) for x in t) for t in data["triangles"]]
        lam = data.get("lambda")
        if lam is not None:
            lam = [[_integer(x) for x in row] for row in lam]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSurface(f"malformed surface data{where}: {exc}") from exc
    return Triangulation(arcs, triangles, lam, name)


def build_quiver(t: Triangulation) -> QuiverWithRelations:
    """Adjacency quiver: each triangle's ccw cycle contributes arrows.

    A triangle (s0, s1, s2) carries the cyclic arrows s0->s1->s2->s0;
    only those with both endpoints internal survive as quiver arrows.
    Two consecutive surviving arrows of one triangle compose to zero,
    which happens exactly for fully internal triangles.
    """
    arrows: list[Arrow] = []
    for ti, tri in enumerate(t.triangles):
        for pos in range(3):
            src, tgt = tri[pos], tri[(pos + 1) % 3]
            if t.is_internal(src) and t.is_internal(tgt):
                name_idx = len(arrows)
                if name_idx < len(_ARROW_NAMES):
                    name = _ARROW_NAMES[name_idx]
                else:
                    name = f"a{name_idx}"
                arrows.append(Arrow(name, src, tgt, ti, pos))
    relations = set()
    for first in arrows:
        for second in arrows:
            if (
                first.triangle == second.triangle
                and first.target == second.source
                and first is not second
            ):
                relations.add((first.name, second.name))
    return QuiverWithRelations(
        vertices=tuple(a.id for a in t.arcs if a.kind == "internal"),
        arrows=tuple(arrows),
        relations=frozenset(relations),
        triangulation=t,
    )


def check_gentle(q: QuiverWithRelations) -> None:
    """Raise InvalidSurface unless (Q, I) satisfies the gentle conditions."""
    for v in q.vertices:
        if len(q.arrows_from(v)) > 2 or len(q.arrows_to(v)) > 2:
            raise InvalidSurface(f"vertex {v} has more than two arrows on one side")
    rel = q.relations
    for a in q.arrows:
        followers = [b for b in q.arrows if b.source == a.target]
        in_rel = [b for b in followers if (a.name, b.name) in rel]
        out_rel = [b for b in followers if (a.name, b.name) not in rel]
        if len(in_rel) > 1 or len(out_rel) > 1:
            raise InvalidSurface(f"arrow {a.name} violates the gentle composition conditions")
        preceders = [b for b in q.arrows if b.target == a.source]
        in_rel = [b for b in preceders if (b.name, a.name) in rel]
        out_rel = [b for b in preceders if (b.name, a.name) not in rel]
        if len(in_rel) > 1 or len(out_rel) > 1:
            raise InvalidSurface(f"arrow {a.name} violates the gentle composition conditions")


def b_matrix(t: Triangulation) -> list[list[int]]:
    """Extended exchange matrix, m rows by n columns.

    Entry (i, j) counts triangle-induced arrows j -> i minus arrows
    i -> j, over all triangles and all sides (boundary included); only
    columns of internal arcs are kept.
    """
    m, n = t.m, t.n
    b = [[0] * n for _ in range(m)]
    for tri in t.triangles:
        for pos in range(3):
            src, tgt = tri[pos], tri[(pos + 1) % 3]
            # arrow src -> tgt contributes +1 to b[tgt-1][src-1] (column src)
            # and -1 to b[src-1][tgt-1] (column tgt), where columns exist.
            if t.is_internal(src):
                b[tgt - 1][src - 1] += 1
            if t.is_internal(tgt):
                b[src - 1][tgt - 1] -= 1
    return b


# -- integer linear algebra for find_lambda ---------------------------


def _sub_scaled(target: dict[int, int], source: dict[int, int], factor: int) -> None:
    """target -= factor * source on sparse vectors; factor and source's entries are nonzero."""
    for k, v in source.items():
        t = target.get(k, 0) - factor * v
        if t:
            target[k] = t
        else:
            del target[k]


def _reduce_columns(a_cols: list[dict[int, int]], nrows: int) -> tuple:
    """Column-reduce A to echelon form, logging each column operation.

    ``a_cols`` holds the columns of A as sparse ``{row: value}`` dicts.
    Returns (echelon columns, log, pivots), ``pivots`` being the (row,
    column) pairs in order.  The echelon columns past the pivots are zero.
    The log is flat, three entries per operation: ``dst, src, f`` for
    col dst -= f col src, and ``dst, src, 0`` for a swap (a subtraction
    never has f = 0: each reduces a column by a pivot of no larger
    absolute value).  The operations compose to the unimodular T with
    echelon = A T; T itself is never built, and :func:`_replay` applies it.
    """
    ncols = len(a_cols)
    work = [dict(col) for col in a_cols]
    log: list[int] = []
    lead = 0
    pivots: list[tuple[int, int]] = []
    for row in range(nrows):
        live = [j for j in range(lead, ncols) if row in work[j]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: (abs(work[j][row]), j))
            piv = live[0]
            for j in live[1:]:
                factor = work[j][row] // work[piv][row]
                _sub_scaled(work[j], work[piv], factor)
                log += (j, piv, factor)
            live = [j for j in live if row in work[j]]
        piv = live[0]
        if piv != lead:
            work[piv], work[lead] = work[lead], work[piv]
            log += (lead, piv, 0)
        pivots.append((row, lead))
        lead += 1
        if lead == ncols:
            break
    return work, log, pivots


def _replay(log: list[int], c: list[int], rank: int) -> tuple:
    """T c and the kernel basis T e_j (j = rank .. len(c) - 1), T read from the log.

    T is E_1 E_2 ... E_k over the logged operations, so T v applies E_k
    first: one backward pass over the log.  Column operation
    col dst -= f col src is E = I - f e_src e_dst^T, which acts as
    row src -= f row dst; a swap swaps two rows.  The pass runs on the rows
    of the sparse matrix [c | e_rank ... e_{ncols-1}], keyed -1 for c and j
    for e_j.  Returns (T c, kernel columns as sparse dicts, in order of j).
    """
    ncols = len(c)
    rows = [{-1: v} if v else {} for v in c]
    for j in range(rank, ncols):
        rows[j][j] = 1
    for at in range(len(log) - 3, -1, -3):
        dst, src, factor = log[at : at + 3]
        if factor:
            _sub_scaled(rows[src], rows[dst], factor)
        else:
            rows[dst], rows[src] = rows[src], rows[dst]
    x = [row.pop(-1, 0) for row in rows]
    kernel: list[dict[int, int]] = [{} for _ in range(rank, ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            kernel[j - rank][i] = v
    return x, kernel


def _size_reduce(x: list[int], kernel: list[dict[int, int]]) -> list[int]:
    """Greedy lattice reduction of x modulo the kernel (sparse, nonzero vectors), minimizing norm.

    Passes repeat until one changes nothing; that pass always comes.  The kernel
    vectors are columns of a unimodular matrix, so they are independent.  A step x -= t v, t being <x, v> / |v|^2 rounded half up,
    with t != 0 never raises |x|^2, and keeps it only when t = 1 and
    2<x, v> = |v|^2.  |x|^2 is a non-negative integer and only finitely many
    integer vectors share a norm, so an endless run would return to a state
    through steps that all keep |x|^2: then sum c_i v_i = 0 with every
    c_i >= 0 and some c_i > 0, which independence rules out.
    """
    x = list(x)
    norms = [(v, sum(a * a for a in v.values())) for v in kernel]
    changed = True
    while changed:
        changed = False
        for v, vv in norms:
            t = (2 * sum(x[i] * a for i, a in v.items()) + vv) // (2 * vv)
            if t:
                for i, a in v.items():
                    x[i] -= t * a
                changed = True
    return x


def find_lambda(b_tilde: list[list[int]]) -> list[list[int]]:
    """Integer skew Lambda with Lambda . b_tilde = -[d I; 0], least uniform d.

    The entries above the diagonal solve A x = d rhs, where A depends on
    ``b_tilde`` alone and rhs is the d = 1 right-hand side.  A is
    column-reduced once, in sparse form, to A T with T logged rather than
    built, and rhs is back-substituted once into coefficients c on the pivot
    columns: where a pivot does not divide the residual, the residual and c
    are scaled by the least factor that makes it divide.  The product of
    those factors is the least d.  One backward pass over the log gives
    x = T c and the kernel columns of T, and x is size-reduced against them.  A x = d rhs is checked exactly;
    pair_from_surface certifies the pair once, through CompatiblePair.create.
    Raises :class:`NoCompatibleLambda` for an empty matrix and for a system
    no d solves.
    """
    m = len(b_tilde)
    n = len(b_tilde[0]) if m else 0
    if n == 0:
        raise NoCompatibleLambda("empty exchange matrix")
    positions = [(i, j) for i in range(m) for j in range(i + 1, m)]
    index = {p: k for k, p in enumerate(positions)}

    # Row i * n + j of A is entry (i, j) of Lambda . b_tilde.
    a_cols: list[dict[int, int]] = [{} for _ in positions]
    for i in range(m):
        for col_j in range(n):
            row = i * n + col_j
            for l in range(m):
                coeff = b_tilde[l][col_j]
                if l == i or coeff == 0:
                    continue
                if i < l:
                    a_cols[index[(i, l)]][row] = coeff
                else:
                    a_cols[index[(l, i)]][row] = -coeff

    work, log, pivots = _reduce_columns(a_cols, m * n)
    rhs = [0] * (m * n)
    for j in range(n):
        rhs[j * n + j] = -1
    d, residual, c = 1, list(rhs), [0] * len(a_cols)
    for row, col in pivots:
        pivot = work[col][row]
        scale = abs(pivot) // gcd(pivot, residual[row])
        if scale > 1:
            d *= scale
            residual = [scale * r for r in residual]
            c = [scale * v for v in c]
        c[col] = residual[row] // pivot
        for r, v in work[col].items():
            residual[r] -= c[col] * v
    del work  # freed before the replay, which holds a row per column of A
    x, kernel = _replay(log, c, len(pivots))
    image = [0] * (m * n)
    for col, xj in zip(a_cols, x):
        for row, v in col.items():
            image[row] += v * xj
    if image != [d * r for r in rhs]:
        raise NoCompatibleLambda("no integer skew lambda solves the system for any uniform d")
    x = _size_reduce(x, kernel)
    lam = [[0] * m for _ in range(m)]
    for (i, j), k in index.items():
        lam[i][j] = x[k]
        lam[j][i] = -x[k]
    return lam


def pair_from_surface(t: Triangulation) -> CompatiblePair:
    """Compatible pair for a surface: file-supplied lambda or a found one."""
    b = b_matrix(t)
    lam = t.lam if t.lam is not None else find_lambda(b)
    return CompatiblePair.create(b, lam)
