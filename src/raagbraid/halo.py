"""Halo graphs: one simple loop per source vertex, intersecting dually.

Given a colored graph, a halo is a connected graph carrying one simple edge
loop per source vertex such that loops of non-adjacent vertices meet in
exactly one vertex (the shared color basepoint when the colors agree, a
private junction otherwise), loops of adjacent vertices are disjoint, and
each color's basepoint lies precisely on the loops of that color.

The builder uses a fixed canonical construction: one basepoint vertex per
color, one junction vertex per non-adjacent differently-colored pair, and
private two-edge arcs threading each loop through its junctions in vertex
order. Vertices with nothing to intersect get a private triangle through
their basepoint. If the union of loops is disconnected, private paths are
grafted between basepoints; these touch the loops only at their endpoints,
so no axiom is disturbed. One pass over the pairs of Δ's vertices names
each junction once. The components are known from the colouring before Γ
exists: loops of one colour share its basepoint, and loops of non-adjacent
vertices meet, so Γ is assembled once, grafts included. Γ's size is
predicted and budgeted before any name is made.

The builder does not check what it builds: ``verify_halo`` is the check,
and the caller that reads its report runs it, once per halo.

The checks read each loop as vertex ids of Γ's integer view, made once per
halo (``Halo._loop_ids``). ``build_halo`` makes Γ's view and the loops'
ids as it builds and fills both in; any other halo, loaded, subdivided or
hand-built, gets them from its names on first use. ``verify_halo`` and
``check_homomorphism`` read that one reading.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from itertools import combinations

from . import errors
from .errors import (
    EmptyGraphError,
    GraphFormatError,
    SizeExceededError,
    UnknownVertexError,
)
from .graphs import (
    Coloring,
    SimpleGraph,
    _DOT_PALETTE,
    _Value,
    _dot_quote,
    coloring_from_json_dict,
    graph_from_json_dict,
    graph_to_json_dict,
    is_sufficiently_subdivided,
    json_value,
    minimal_subdivision,
    normalize_edge,
)

# stable axiom identifiers used in verification reports
AXIOM_LOOP_COVERAGE = "loop-coverage"
AXIOM_SIMPLE_LOOP = "simple-loop"
AXIOM_LOOP_START = "loop-start"
AXIOM_BASEPOINT = "basepoint"
AXIOM_NON_EDGE = "non-edge-intersection"
AXIOM_EDGE_DISJOINT = "edge-disjoint"
AXIOM_CONNECTED = "connected"


class Halo(_Value):
    __slots__ = ("gamma", "artin_loops", "basepoints", "coloring", "delta", "__dict__")
    _fields = ("gamma", "artin_loops", "basepoints", "coloring", "delta")

    def __init__(
        self,
        gamma: SimpleGraph,
        artin_loops: tuple[tuple[str, tuple[str, ...]], ...],
        basepoints: tuple[tuple[int, str], ...],
        coloring: Coloring,
        delta: SimpleGraph,
    ):
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "artin_loops", artin_loops)
        object.__setattr__(self, "basepoints", basepoints)
        object.__setattr__(self, "coloring", coloring)
        object.__setattr__(self, "delta", delta)

    @cached_property
    def loops(self) -> dict[str, tuple[str, ...]]:
        return dict(self.artin_loops)

    @cached_property
    def basepoint_of(self) -> dict[int, str]:
        return dict(self.basepoints)

    @cached_property
    def _loop_ids(self) -> "LoopIds":
        # made once per instance; copies and pickles rebuild from the fields
        # and make it again. The readers make each loop's id set as they
        # need it: kept here, the sets would hold several times the ids'
        # memory for as long as the halo lives
        return _read_loops(self)

    def loop_of(self, delta_vertex: str) -> tuple[str, ...]:
        try:
            return self.loops[delta_vertex]
        except KeyError:
            raise UnknownVertexError(f"no loop for vertex {delta_vertex!r}") from None

    def loop_edges(self, delta_vertex: str) -> tuple[tuple[str, str], ...]:
        loop = self.loop_of(delta_vertex)
        return tuple(normalize_edge(a, b) for a, b in zip(loop, loop[1:]))


class LoopIds(namedtuple("LoopIds", "outside ids")):
    """Each loop read as vertex ids of Γ's integer view (``_index``):
    ``ids`` maps a source vertex to its loop's ids. A loop vertex outside Γ
    gets the next free id, in order of first appearance, and ``outside``
    maps its name to that id."""

    __slots__ = ()


def _read_loops(h: Halo) -> LoopIds:
    """The loops of ``h`` read from their names: the one definition of the
    reading, which ``build_halo`` fills in with equal values."""
    index = h.gamma._index
    outside: dict[str, int] = {}
    ids: dict[str, tuple[int, ...]] = {}
    for a, loop in h.loops.items():
        try:
            ids[a] = tuple(map(index.__getitem__, loop))
        except KeyError:
            n = len(index)
            ids[a] = tuple(
                index[v] if v in index else outside.setdefault(v, n + len(outside))
                for v in loop
            )
    return LoopIds(outside, ids)


class HaloViolation(namedtuple("HaloViolation", "axiom message witnesses")):
    __slots__ = ()


class HaloReport(namedtuple("HaloReport", "ok violations")):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok

    def axioms_violated(self) -> tuple[str, ...]:
        return tuple(sorted({v.axiom for v in self.violations}))

    def to_json_dict(self) -> dict:
        return json_value(self)


def _halo_size(delta: SimpleGraph, coloring: Coloring) -> tuple[int, int]:
    """Γ's vertex and edge counts as ``build_halo`` makes them, grafts left
    out, read off Δ's degrees and colour-class sizes in O(|V| + |E|). A
    vertex a has p(a) = |V| - |class(a)| - deg(a) partners. Its loop has
    1 + p(a) steps, each a private vertex between two edges, or is a
    private triangle (one vertex and edge more) when p(a) = 0; each
    junction lies on two loops."""
    color, adjacency = coloring.as_dict, delta.adjacency
    size = Counter(color.values())
    total = delta.n_vertices
    p = [total - size[color[a]] - len(adjacency[a]) for a in delta.vertices]
    partners, triangles = sum(p), p.count(0)
    vertices = coloring.color_count + total + partners + triangles + partners // 2
    return vertices, 2 * (total + partners) + triangles


def _check_halo_input(delta: SimpleGraph, coloring: Coloring) -> None:
    """Raise unless ``build_halo`` can build the halo: Δ is nonempty, the
    colouring is proper for it, no name holds the reserved ``~``, and Γ,
    its grafts counted at their most (one fewer than the colours), is
    within ``errors.DEFAULT_BUDGET`` vertices and edges, read at call time."""
    if delta.n_vertices == 0:
        raise EmptyGraphError("cannot build a halo for an empty graph")
    # raises unless the coloring is proper for delta itself
    Coloring.make(delta, coloring.as_dict)
    for v in delta.vertices:
        if "~" in v:
            raise GraphFormatError(
                f"vertex name {v!r} contains '~', reserved for generated names"
            )
    vertices, edges = _halo_size(delta, coloring)
    grafts = coloring.color_count - 1
    vertices, edges = vertices + grafts, edges + 2 * grafts
    budget = errors.DEFAULT_BUDGET
    if vertices > budget or edges > budget:
        raise SizeExceededError(
            f"a halo of up to {vertices} vertices and {edges} edges, "
            f"over the budget of {budget}"
        )


def build_halo(delta: SimpleGraph, coloring: Coloring) -> Halo:
    """Canonical halo for a properly colored graph. It meets every axiom
    by construction and is not checked here: ``verify_halo`` checks it
    where its report is read. Over the budget, ``SizeExceededError`` is
    raised before any name is made (``_check_halo_input``)."""
    _check_halo_input(delta, coloring)
    return _assemble_halo(delta, coloring)


def _assemble_halo(delta: SimpleGraph, coloring: Coloring) -> Halo:
    """``build_halo`` after its input checks, for a caller that has made
    them.

    One pass over the pairs a < b of Δ's sorted vertices names the junction
    ``j~a~b`` of each non-adjacent, differently coloured pair once, and
    appends it to both loops' anchors, so each loop meets its partners in
    vertex order; the pair's colours join one group, as their loops meet.
    Γ has one component per group, and the grafts between their least
    basepoints are known before Γ is assembled. The names, listed once
    each, are sorted, every loop and graft is read as vertex ids, positions
    in that order, and each step of those walks adds its two ends to each
    other's neighbour list; sorted, the lists are Γ's ``_adj``, off which
    its edges are read. The loops' ids are the halo's loop reading
    (``_loop_ids``), which ``verify_halo`` and ``check_homomorphism`` read.
    Any other halo makes both from its names on first use; a test checks
    that the values filled in here are equal.

    Γ is built with the plain ``SimpleGraph`` constructor, not through
    ``SimpleGraph.make``, which would validate, normalise and de-duplicate
    its vertices and edges again. That is sound because every name is a
    nonempty string and no two coincide by accident (Δ's names hold no
    ``~``, so ``p~a~i``, ``j~a~b`` and ``g~k~1`` each name one loop step,
    junction or graft, and the basepoints ``x_c`` hold no ``~``), every
    edge is stored from its smaller id, so its smaller name, and every edge
    holds a vertex private to one loop or graft, so no edge repeats. A test
    compares the result with ``make``'s on every halo it builds."""
    color = coloring.as_dict
    basepoint = {c: f"x_{c}" for c in range(1, coloring.color_count + 1)}
    names = list(basepoint.values())
    # the colours whose loops lie in one component of Γ: loops of one
    # colour meet at its basepoint, and the loops of a partner pair meet at
    # their junction
    group = {c: {c} for c in basepoint}

    vs = delta.vertices
    colors = [color[a] for a in vs]
    # per vertex, the anchors its loop threads: its basepoint, then the
    # junctions with its partners
    rings = [[basepoint[ca]] for ca in colors]
    adjacency = delta.adjacency
    for i, a in enumerate(vs):
        ca, near, own = colors[i], adjacency[a], rings[i]
        joined = group[ca]
        for b, cb, ring in zip(vs[i + 1 :], colors[i + 1 :], rings[i + 1 :]):
            if cb != ca and b not in near:
                j = f"j~{a}~{b}"
                names.append(j)
                own.append(j)
                ring.append(j)
                if cb not in joined:
                    joined = joined | group[cb]
                    group.update(dict.fromkeys(joined, joined))

    loops: dict[str, list[str]] = {}
    for a, ring in zip(vs, rings):
        prefix = f"p~{a}~"
        if len(ring) == 1:
            # nothing to meet: a private triangle through the basepoint
            steps = [f"{prefix}1", f"{prefix}2"]
            loop = [ring[0], *steps, ring[0]]
        else:
            steps = [f"{prefix}{idx}" for idx in range(1, len(ring) + 1)]
            loop = [None] * (2 * len(ring) + 1)
            loop[0::2] = ring + ring[:1]
            loop[1::2] = steps
        names += steps
        loops[a] = loop

    # each component's anchor is its least basepoint name, and a two-edge
    # graft joins the least anchor to each other one
    least = sorted({min(map(basepoint.__getitem__, g)) for g in group.values()})
    grafts = [(least[0], f"g~{k}~1", other) for k, other in enumerate(least[1:], start=1)]
    names += [mid for _, mid, _ in grafts]

    # Γ over the sorted names, its integer view and the loops' ids. Every
    # step of a loop or graft is an edge, listed from both ends; each list
    # is then sorted, so its ids ascend as the edges' names do
    names.sort()
    index = dict(zip(names, range(len(names))))
    ids = {a: tuple(map(index.__getitem__, loop)) for a, loop in loops.items()}
    adj: list[list[int]] = [[] for _ in names]
    for walk in (*ids.values(), *(tuple(map(index.__getitem__, g)) for g in grafts)):
        for i, j in zip(walk, walk[1:]):
            adj[i].append(j)
            adj[j].append(i)
    for row in adj:
        row.sort()
    adj = tuple(map(tuple, adj))
    gamma = SimpleGraph(
        vertices=tuple(names),
        edges=tuple((names[i], names[j]) for i, row in enumerate(adj) for j in row if j > i),
    )
    vars(gamma).update(_index=index, _adj=adj)

    h = Halo(
        gamma=gamma,
        # in Δ's vertex order, which is sorted
        artin_loops=tuple((a, tuple(loop)) for a, loop in loops.items()),
        basepoints=tuple(sorted(basepoint.items())),
        coloring=coloring,
        delta=delta,
    )
    vars(h)["_loop_ids"] = LoopIds({}, ids)
    return h


def verify_halo(h: Halo) -> HaloReport:
    """Check every halo axiom; failures name the axiom and its witnesses.
    Nothing is memoised: each caller that reads the report calls it once.

    The pair axioms read the vertices two loops share off ``loops_at``,
    the loops through each halo vertex: a vertex on m loops is shared by
    m(m-1)/2 pairs, so no two loops' vertex sets are intersected. Every
    pair of sources is still visited in sorted order, since non-adjacent
    ones that share nothing fail too. The loops are read off the halo's
    one reading as vertex ids of Γ's integer view (``Halo._loop_ids``):
    one id list and one id set per loop serve every per-loop check, in one
    pass, and no name-keyed adjacency is built; names are looked up only
    for what the report says."""
    violations: list[HaloViolation] = []
    gamma, delta, coloring = h.gamma, h.delta, h.coloring
    loops = h.loops
    basepoint = h.basepoint_of

    loop_keys = set(loops)
    delta_vertices = set(delta.vertices)
    if loop_keys != delta_vertices:
        missing = sorted(delta_vertices - loop_keys)
        extra = sorted(loop_keys - delta_vertices)
        violations.append(
            HaloViolation(
                AXIOM_LOOP_COVERAGE,
                f"loops must be indexed by the source vertices (missing {missing}, extra {extra})",
                tuple(missing + extra),
            )
        )

    colors = range(1, coloring.color_count + 1)
    for c in sorted(set(basepoint) - set(colors)):
        violations.append(
            HaloViolation(
                AXIOM_BASEPOINT,
                f"basepoint {basepoint[c]!r} is for color {c}, outside 1..{coloring.color_count}",
                (str(c),),
            )
        )
    for c in colors:
        if c not in basepoint:
            violations.append(
                HaloViolation(AXIOM_BASEPOINT, f"color {c} has no basepoint", (str(c),))
            )
        elif not gamma.has_vertex(basepoint[c]):
            violations.append(
                HaloViolation(
                    AXIOM_BASEPOINT,
                    f"basepoint {basepoint[c]!r} of color {c} is not a vertex",
                    (basepoint[c],),
                )
            )

    # each loop as vertex ids (Halo._loop_ids): Γ's, then a fresh one for
    # any loop vertex outside Γ, which has no neighbours
    reading = h._loop_ids
    outside = reading.outside
    names = gamma.vertices + tuple(outside)
    adj = gamma._adj + ((),) * len(outside)
    index = gamma._index
    placed = [
        (c, x, index.get(x, outside.get(x))) for c, x in sorted(basepoint.items()) if c in colors
    ]

    # one pass over the loops: their simple-loop checks, and for each
    # source vertex its loop's start, the basepoints on it and its vertices'
    # entries in loops_at, kept apart so that the report lists them by axiom
    starts: list[HaloViolation] = []
    misplaced: dict[int, list[HaloViolation]] = {c: [] for c, _, _ in placed}
    pairs: list[str] = []  # the source vertices with a loop, sorted
    # per vertex id: the loops through it, in pairs order
    loops_at: list[list[str]] = [[] for _ in names]
    for a in sorted(loops):
        loop, ids = loops[a], reading.ids[a]
        id_set = set(ids)
        if len(ids) < 4 or ids[0] != ids[-1]:
            violations.append(
                HaloViolation(
                    AXIOM_SIMPLE_LOOP,
                    f"loop of {a!r} must close over at least three vertices",
                    (a,),
                )
            )
            distinct = len(set(ids[:-1]))
        else:
            distinct = len(id_set)
        if distinct != max(len(ids) - 1, 0):  # the vertices before the last repeat one
            violations.append(
                HaloViolation(
                    AXIOM_SIMPLE_LOOP, f"loop of {a!r} repeats a vertex", (a,)
                )
            )
        for i, j in zip(ids, ids[1:]):
            if j not in adj[i]:
                s, t = names[i], names[j]
                violations.append(
                    HaloViolation(
                        AXIOM_SIMPLE_LOOP,
                        f"loop of {a!r} uses a missing edge {s!r}-{t!r}",
                        (a, s, t),
                    )
                )
        if a not in delta_vertices:
            continue
        pairs.append(a)
        ca = coloring.color_of(a)
        if ca in basepoint and loop and loop[0] != basepoint[ca]:
            starts.append(
                HaloViolation(
                    AXIOM_LOOP_START,
                    f"loop of {a!r} must start at basepoint {basepoint[ca]!r}",
                    (a, loop[0]),
                )
            )
        for c, x, x_id in placed:
            should = ca == c
            if (x_id in id_set) != should:
                detail = "missing from" if should else "present on"
                misplaced[c].append(
                    HaloViolation(
                        AXIOM_BASEPOINT,
                        f"basepoint {x!r} of color {c} is {detail} the loop of {a!r}",
                        (x, a),
                    )
                )
        for v in id_set:
            loops_at[v].append(a)
    violations += starts
    for found in misplaced.values():
        violations += found

    # per pair of loops that meet: the vertex ids they share
    shared: dict[tuple[str, str], list[int]] = {}
    for v, through in enumerate(loops_at):
        if len(through) > 1:  # most vertices are private to one loop
            for pair in combinations(through, 2):
                shared.setdefault(pair, []).append(v)
    color = coloring.as_dict
    for i, a in enumerate(pairs):
        ca, near = color[a], delta.adjacency[a]
        for b in pairs[i + 1 :]:
            inter = shared.get((a, b), ())
            if b in near:
                if inter:
                    inter = sorted(map(names.__getitem__, inter))
                    violations.append(
                        HaloViolation(
                            AXIOM_EDGE_DISJOINT,
                            f"loops of adjacent {a!r}, {b!r} share {inter}",
                            (a, b, *inter),
                        )
                    )
                continue
            if len(inter) != 1:
                inter = sorted(map(names.__getitem__, inter))
                violations.append(
                    HaloViolation(
                        AXIOM_NON_EDGE,
                        f"loops of non-adjacent {a!r}, {b!r} share {len(inter)} vertices "
                        f"({inter}), expected exactly 1",
                        (a, b, *inter),
                    )
                )
                continue
            w = inter[0]
            v = names[w]
            if ca == color[b]:
                if basepoint.get(ca) != v:
                    violations.append(
                        HaloViolation(
                            AXIOM_NON_EDGE,
                            f"same-colored non-adjacent {a!r}, {b!r} must meet at their "
                            f"basepoint, met at {v!r}",
                            (a, b, v),
                        )
                    )
            elif len(loops_at[w]) > 2:
                third = [d for d in loops_at[w] if d not in (a, b)]
                violations.append(
                    HaloViolation(
                        AXIOM_NON_EDGE,
                        f"junction {v!r} of {a!r}, {b!r} also lies on loops {third}",
                        (a, b, v, *third),
                    )
                )

    if not gamma.is_connected():
        comps = gamma.components()
        violations.append(
            HaloViolation(
                AXIOM_CONNECTED,
                f"halo graph has {len(comps)} components",
                tuple(comp[0] for comp in comps),
            )
        )

    return HaloReport(ok=not violations, violations=tuple(violations))


def subdivided_halo(h: Halo, n: int, path_threshold: str = "paper") -> Halo:
    """Uniformly subdivide the halo graph until it suffices for n strands,
    re-threading every loop through the fresh vertices. Basepoints and
    original vertices keep their names. The new halo's graph is the one the
    subdivision check accepted, so that check is not run again on it; a
    halo that suffices already is returned as it is, before any chain is
    made. A subdivision over ``errors.DEFAULT_BUDGET`` vertices or edges
    raises ``SizeExceededError`` before it is made (``minimal_subdivision``).
    A loop that is empty or steps along no edge raises ``GraphFormatError``
    when threaded."""
    if n != h.coloring.color_count:
        raise GraphFormatError(
            f"strand count {n} must equal the color count {h.coloring.color_count}"
        )
    if is_sufficiently_subdivided(h.gamma, n, path_threshold).ok:
        return h
    _, gamma2, chains = minimal_subdivision(h.gamma, n, path_threshold)
    new_loops = []
    for a, loop in h.artin_loops:
        if not loop:
            raise GraphFormatError(f"cannot thread the loop of {a!r}: it is empty")
        threaded = [loop[0]]
        for step, (s, t) in enumerate(zip(loop, loop[1:]), start=1):
            try:
                seg = chains[(s, t)] if s < t else chains[(t, s)][::-1]
            except KeyError:
                raise GraphFormatError(
                    f"cannot thread the loop of {a!r}: step {step}, {s!r}-{t!r}, "
                    "is no edge of the halo graph"
                ) from None
            threaded.extend(seg[1:])
        new_loops.append((a, tuple(threaded)))
    return Halo(
        gamma=gamma2,
        artin_loops=tuple(new_loops),
        basepoints=h.basepoints,
        coloring=h.coloring,
        delta=h.delta,
    )


# --- serialization ---------------------------------------------------------


def halo_to_json_dict(h: Halo) -> dict:
    data = graph_to_json_dict(h.gamma)
    data["loops"] = {a: list(loop) for a, loop in h.artin_loops}
    data["basepoints"] = {str(c): v for c, v in h.basepoints}
    data["delta"] = graph_to_json_dict(h.delta)
    data["coloring"] = h.coloring.to_json_dict()
    return data


def halo_from_json_dict(data) -> Halo:
    if not isinstance(data, dict):
        raise GraphFormatError("halo JSON must be an object")
    for key in ("loops", "basepoints", "delta", "coloring"):
        if key not in data:
            raise GraphFormatError(f"halo JSON is missing {key!r}")
    gamma = graph_from_json_dict(data)
    delta = graph_from_json_dict(data["delta"])
    coloring = coloring_from_json_dict(delta, data["coloring"])
    loops = data["loops"]
    if not isinstance(loops, dict):
        raise GraphFormatError("halo 'loops' must be an object")
    for a, loop in loops.items():
        if not isinstance(loop, (list, tuple)) or not all(isinstance(v, str) for v in loop):
            raise GraphFormatError(f"loop of {a!r} must be an array of vertex names, got {loop!r}")
    if not isinstance(data["basepoints"], dict):
        raise GraphFormatError("halo 'basepoints' must be an object")
    basepoints = {}
    for c, v in data["basepoints"].items():
        if not isinstance(v, str):
            raise GraphFormatError(f"basepoint of color {c!r} must be a vertex name, got {v!r}")
        try:
            color = int(c)
            if str(color) != c:  # "01", " 1" and "1_0" parse too
                raise ValueError
        except ValueError:
            raise GraphFormatError(
                f"basepoint color {c!r} is not an integer in canonical form"
            ) from None
        basepoints[color] = v
    return Halo(
        gamma=gamma,
        artin_loops=tuple(sorted((a, tuple(loop)) for a, loop in loops.items())),
        basepoints=tuple(sorted(basepoints.items())),
        coloring=coloring,
        delta=delta,
    )


def halo_to_dot(h: Halo) -> str:
    """DOT export with each loop's edges drawn in its own color."""
    owner: dict[tuple[str, str], int] = {}
    for idx, (a, _) in enumerate(h.artin_loops):
        for e in h.loop_edges(a):
            owner.setdefault(e, idx)
    basepoints = set(h.basepoint_of.values())
    lines = ["graph Halo {"]
    for v in h.gamma.vertices:
        shape = ", shape=doublecircle" if v in basepoints else ""
        lines.append(f"  {_dot_quote(v)} [label={_dot_quote(v)}{shape}];")
    for e in h.gamma.edges:
        if e in owner:
            color = _DOT_PALETTE[owner[e] % len(_DOT_PALETTE)]
            lines.append(
                f"  {_dot_quote(e[0])} -- {_dot_quote(e[1])} [color={_dot_quote(color)}];"
            )
        else:
            lines.append(f"  {_dot_quote(e[0])} -- {_dot_quote(e[1])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
