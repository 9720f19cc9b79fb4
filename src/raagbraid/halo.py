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
so no axiom is disturbed. One pass over the pairs of Δ's vertices finds
each junction once. The components are known from the colouring before Γ
exists: loops of one colour share its basepoint, and loops of non-adjacent
vertices meet, so Γ is assembled once, grafts included. Γ's size is
predicted and budgeted before any of it is made.

The builder makes no name. It gives each vertex of Γ its id as it makes
it, in an order fixed by the construction that is the sorted order of the
names: grafts ``g~k~1``, then junctions ``j~a~b``, then loop steps
``p~a~i``, then basepoints ``x_c``; within a block, Δ's vertices a in the
order of ``a + "~"``, partners b in Δ's order, and graft, step and colour
numbers in string order (10 before 2; a graft's number is followed by
``~``, so its 10 comes before 1 as well). Γ's vertices and edges, and the
loops' names, are made on first read, by the output that needs them.

The builder does not check what it builds: ``verify_halo`` is the check,
and the caller that reads its report runs it, once per halo.

The checks read each loop, and each basepoint, as vertex ids of Γ's
integer view, made once per halo (``Halo._loop_ids``). ``build_halo``
makes Γ's view and the loops' ids as it builds and fills both in; any
other halo, loaded, subdivided or hand-built, gets them from its names on
first use. ``verify_halo`` and ``check_homomorphism`` read that one
reading, and look up names only for what a violation says.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property, lru_cache, partial
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

    @classmethod
    def _from_ids(
        cls,
        gamma: SimpleGraph,
        loop_ids: "LoopIds",
        basepoints: tuple[tuple[int, str], ...],
        coloring: Coloring,
        delta: SimpleGraph,
    ) -> "Halo":
        """The halo whose loops are ``loop_ids``, read as vertex ids of Γ:
        ``artin_loops`` is named from them on first read."""
        h = cls.__new__(cls)
        for name, value in (
            ("gamma", gamma), ("basepoints", basepoints), ("coloring", coloring), ("delta", delta)
        ):
            object.__setattr__(h, name, value)
        vars(h)["_loop_ids"] = loop_ids
        return h

    def __getattr__(self, name):
        # reached only for an attribute not found, as the loops left unset
        # by _from_ids: they are named here, on first read, and kept
        if name != "artin_loops" or "_loop_ids" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        names = self.gamma.vertices
        value = tuple(
            (a, tuple(map(names.__getitem__, ids))) for a, ids in self._loop_ids.ids.items()
        )
        object.__setattr__(self, name, value)
        return value

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


class LoopIds(namedtuple("LoopIds", "outside ids basepoints")):
    """Each loop read as vertex ids of Γ's integer view (``_index``):
    ``ids`` maps a source vertex to its loop's ids. A loop vertex outside Γ
    gets the next free id, in order of first appearance, and ``outside``
    maps its name to that id. ``basepoints`` maps each colour of
    ``Halo.basepoints`` to its basepoint's id, or to None for a name that
    is neither a vertex of Γ nor on a loop."""

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
    basepoints = {c: index.get(x, outside.get(x)) for c, x in h.basepoint_of.items()}
    return LoopIds(outside, ids, basepoints)


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
    raised before any of Γ is made (``_check_halo_input``)."""
    _check_halo_input(delta, coloring)
    return _assemble_halo(delta, coloring)


def _assemble_halo(delta: SimpleGraph, coloring: Coloring) -> Halo:
    """``build_halo`` after its input checks, for a caller that has made
    them.

    One pass over the pairs a < b of Δ's sorted vertices finds each loop's
    partners after it, the non-adjacent, differently coloured vertices,
    and the colours whose loops meet: a pair's loops meet at its junction
    ``j~a~b``, and loops of one colour at its basepoint. Γ has one
    component per group of such colours, and a two-edge graft joins the
    least basepoint name of the first component to that of each other.

    Every vertex of Γ gets its id as it is made, in an order fixed by the
    construction that is the sorted order of the names:
    - the grafts ``g~k~1``, then the junctions ``j~a~b``, then the loop
      steps ``p~a~i``, then the basepoints ``x_c``;
    - within the junctions and the steps, Δ's vertices a in the order of
      ``a + "~"`` (no name holds a ``~``, so that is the order of the
      names), and a's partners b in Δ's order;
    - step and colour numbers in string order, so 10 comes after 1 and
      before 2, and graft numbers in the order of ``k + "~"``, so 10 comes
      before 1 too (``_numbers_as_named``).
    Each loop threads its basepoint and then its junctions, in its
    partners' order, through private steps, and is a private triangle
    through the basepoint when it has no partner. Γ's ``_adj`` is written
    row by row as the loops and grafts are laid, from the blocks' order:
    only the basepoints' rows are gathered and sorted. The loops' ids are
    the halo's loop reading (``_loop_ids``), which ``verify_halo`` and
    ``check_homomorphism`` read. Every id is one int object, drawn from one
    pool, which Γ's ``_index`` shares.

    No name is made here: Γ's names and the loops' are made on first read
    (``SimpleGraph._from_ids``, ``Halo._from_ids``), read off the loops'
    ids by ``_halo_names``. Γ is not built through ``SimpleGraph.make``,
    which would validate, normalise and de-duplicate its vertices and edges
    again. That is sound because every name is a nonempty string and no
    two coincide by accident (Δ's names hold no ``~``, so ``p~a~i``,
    ``j~a~b`` and ``g~k~1`` each name one loop step, junction or graft, and
    the basepoints ``x_c`` hold no ``~``), ids follow the names' order, and
    every edge holds a vertex private to one loop or graft, so no edge
    repeats. Tests compare the result with ``make``'s, and the loops with
    those read from the names, on every halo they build."""
    vs, near = delta.vertices, delta._adj
    n, count = len(vs), coloring.color_count
    color = coloring.as_dict
    colors = [color[a] for a in vs]
    # the pair pass: per vertex of Δ, its partners after it, and per
    # colour, the colours whose loops lie in one component of Γ with its own
    later: list[list[int]] = []
    group = {c: {c} for c in range(1, count + 1)}
    for i, ca in enumerate(colors):
        adjacent = set(near[i])
        partners = [k for k in range(i + 1, n) if colors[k] != ca and k not in adjacent]
        later.append(partners)
        met = set(map(colors.__getitem__, partners))
        if not met <= group[ca]:
            joined = group[ca].union(*map(group.__getitem__, met))
            group.update(dict.fromkeys(joined, joined))
    # each component's anchor is its least basepoint name, met first in
    # the colours' string order
    color_ranks, color_names = _numbers_as_named(count)
    anchors, unmet = [], set(group)
    for c in map(int, color_names):
        if c in unmet:
            anchors.append(c)
            unmet -= group[c]
    grafts = len(anchors) - 1

    # the junction blocks, in the order of a + "~", each in its partners'
    # order; per vertex of Δ, the junctions its loop threads, its earlier
    # partners' first
    blocks = sorted(range(n), key=[a + "~" for a in vs].__getitem__)
    first_junction = [0] * n
    next_id = grafts
    for i in blocks:
        first_junction[i] = next_id
        next_id += len(later[i])
    pool = list(range(next_id))
    rings: list[list[int]] = [[] for _ in vs]
    for i, partners in enumerate(later):
        start = first_junction[i]
        own = pool[start : start + len(partners)]
        rings[i] += own
        for j, k in zip(own, partners):
            rings[k].append(j)
    # the step blocks: a loop through p junctions has p + 1 steps, and a
    # private triangle through its basepoint 2; then the basepoints
    steps = [len(ring) + 1 if ring else 2 for ring in rings]
    first_step = [0] * n
    for i in blocks:
        first_step[i] = next_id
        next_id += steps[i]
    pool += range(len(pool), next_id + count)
    basepoint = [pool[next_id + r] for r in color_ranks]

    # each loop's ids and Γ's _adj, row by row. Blocks ascend as grafts,
    # junctions, steps, basepoints. A step lies between two junctions or a
    # junction and its basepoint; a junction between two steps of each of
    # its two loops, which lie in two blocks, so its row is the two pairs
    # in block order. Only the basepoints' rows are gathered and sorted
    adj: list = [()] * len(pool)
    for x in basepoint:
        adj[x] = []
    ids: dict[str, tuple[int, ...]] = {}
    for a, ca, ring, partners, m, start in zip(vs, colors, rings, later, steps, first_step):
        if m < 10:
            block = pool[start : start + m]
        else:
            block = [pool[start + r] for r in _numbers_as_named(m)[0]]
        x = basepoint[ca - 1]
        if ring:
            loop = [x] * (2 * m + 1)
            loop[1::2] = block
            loop[2:-1:2] = ring
            adj[block[0]] = (ring[0], x)
            adj[block[-1]] = (ring[-1], x)
            for j, k, s in zip(ring, ring[1:], block[1:]):
                adj[s] = (j, k) if j < k else (k, j)
            # the two steps about each junction: the junctions of earlier
            # partners, whose loops gave the first pair of their rows, come
            # first in the ring; this loop's own junctions follow, in one
            # run of ids
            pairs = [(s, t) if s < t else (t, s) for s, t in zip(block, block[1:])]
            earlier = len(ring) - len(partners)
            for j, q in zip(ring, pairs[:earlier]):
                p = adj[j]
                adj[j] = p + q if p < q else q + p
            if partners:
                own = ring[earlier]
                adj[own : own + len(partners)] = pairs[earlier:]
            adj[x] += (block[0], block[-1])
        else:
            # nothing to meet: a private triangle through the basepoint
            loop = [x, *block, x]
            s, t = block
            adj[s], adj[t] = (t, x), (s, x)
            adj[x] += block
        ids[a] = tuple(loop)

    hub = basepoint[anchors[0] - 1]
    for r, c in zip(_numbers_as_named(grafts, "~")[0], anchors[1:]):
        g, other = pool[r], basepoint[c - 1]
        adj[g] = (hub, other) if hub < other else (other, hub)
        adj[hub].append(g)
        adj[other].append(g)
    for x in basepoint:
        adj[x] = tuple(sorted(adj[x]))
    adj = tuple(adj)

    loop_ids = LoopIds({}, ids, dict(zip(range(1, count + 1), basepoint)))
    # a tuple of ints, unlike a list, is dropped from the garbage
    # collector's tracking, so no full collection walks the pool's ints
    gamma = SimpleGraph._from_ids(
        adj, partial(_halo_names, loop_ids, grafts, len(pool)), tuple(pool)
    )
    basepoints = tuple((c, f"x_{c}") for c in range(1, count + 1))
    return Halo._from_ids(gamma, loop_ids, basepoints, coloring, delta)


@lru_cache(maxsize=64)
def _numbers_as_named(m: int, suffix: str = "") -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The numbers 1 to m as names that end in them (or in them and then
    ``suffix``) sort: each one's rank, in the numbers' order, and the
    numbers' strings in the names' order. With no suffix 10 comes after 1
    and before 2; with ``"~"`` it comes before 1, as ``~`` sorts after the
    digits."""
    order = sorted(range(1, m + 1), key=lambda k: f"{k}{suffix}")
    ranks = [0] * m
    for r, k in enumerate(order):
        ranks[k - 1] = r
    return tuple(ranks), tuple(map(str, order))


def _halo_names(loop_ids: LoopIds, grafts: int, size: int) -> tuple[str, ...]:
    """The names of a canonical halo's ``size`` vertices in id order, which
    is their sorted order: the grafts ``g~k~1`` first, the basepoints
    ``x_c`` last, each block in its numbers' name order; each loop's steps
    ``p~a~i`` in the block that starts at its first step; and each
    junction ``j~a~b``, named by the first loop through it, a, and the
    second, b, in Δ's order."""
    count = len(loop_ids.basepoints)
    names: list = [f"g~{k}~1" for k in _numbers_as_named(grafts, "~")[1]]
    names += [None] * (size - grafts - count)
    names += ["x_" + c for c in _numbers_as_named(count)[1]]
    for a, loop in loop_ids.ids.items():
        start, m = loop[1], len(loop) // 2
        if len(loop) % 2:  # not a private triangle, which has 4 ids
            for j in loop[2:-1:2]:
                first = names[j]
                names[j] = a if first is None else f"j~{first}~{a}"
        prefix = f"p~{a}~"
        names[start : start + m] = [prefix + i for i in _numbers_as_named(m)[1]]
    return tuple(names)


def verify_halo(h: Halo) -> HaloReport:
    """Check every halo axiom; failures name the axiom and its witnesses.
    Nothing is memoised: each caller that reads the report calls it once.

    The pair axioms read the vertices two loops share off ``loops_at``,
    the loops through each halo vertex: a vertex on m loops is shared by
    m(m-1)/2 pairs, so no two loops' vertex sets are intersected. Every
    pair of sources is still visited in sorted order, since non-adjacent
    ones that share nothing fail too. The loops and the basepoints are
    read off the halo's one reading as vertex ids of Γ's integer view
    (``Halo._loop_ids``): one id list and one id set per loop serve every
    per-loop check, in one pass, and no name-keyed adjacency is built; Γ's
    names and the loops' are looked up only for what a violation says."""
    violations: list[HaloViolation] = []
    gamma, delta, coloring = h.gamma, h.delta, h.coloring
    basepoint = h.basepoint_of
    reading = h._loop_ids
    loop_ids, placed_at = reading.ids, reading.basepoints

    loop_keys = set(loop_ids)
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

    # each loop as vertex ids (Halo._loop_ids): Γ's, then a fresh one for
    # any loop vertex outside Γ, which has no neighbours
    outside = reading.outside
    adj = gamma._adj
    n = len(adj)
    adj += ((),) * len(outside)

    def name(v: int) -> str:
        return gamma.vertices[v] if v < n else list(outside)[v - n]

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
        elif placed_at[c] is None or placed_at[c] >= n:
            violations.append(
                HaloViolation(
                    AXIOM_BASEPOINT,
                    f"basepoint {basepoint[c]!r} of color {c} is not a vertex",
                    (basepoint[c],),
                )
            )
    placed = [(c, x) for c, x in sorted(placed_at.items()) if c in colors]

    # one pass over the loops: their simple-loop checks, and for each
    # source vertex its loop's start, the basepoints on it and its vertices'
    # entries in loops_at, kept apart so that the report lists them by axiom
    starts: list[HaloViolation] = []
    misplaced: dict[int, list[HaloViolation]] = {c: [] for c, _ in placed}
    pairs: list[str] = []  # the source vertices with a loop, sorted
    # per vertex id: the loops through it, in pairs order
    loops_at: list[list[str]] = [[] for _ in adj]
    for a in sorted(loop_ids):
        ids = loop_ids[a]
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
                s, t = name(i), name(j)
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
        if ca in basepoint and ids and ids[0] != placed_at[ca]:
            starts.append(
                HaloViolation(
                    AXIOM_LOOP_START,
                    f"loop of {a!r} must start at basepoint {basepoint[ca]!r}",
                    (a, name(ids[0])),
                )
            )
        for c, x in placed:
            should = ca == c
            if (x in id_set) != should:
                detail = "missing from" if should else "present on"
                misplaced[c].append(
                    HaloViolation(
                        AXIOM_BASEPOINT,
                        f"basepoint {basepoint[c]!r} of color {c} is {detail} the loop of {a!r}",
                        (basepoint[c], a),
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
                    inter = sorted(map(name, inter))
                    violations.append(
                        HaloViolation(
                            AXIOM_EDGE_DISJOINT,
                            f"loops of adjacent {a!r}, {b!r} share {inter}",
                            (a, b, *inter),
                        )
                    )
                continue
            if len(inter) != 1:
                inter = sorted(map(name, inter))
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
            if ca == color[b]:
                if placed_at.get(ca) != w:
                    v = name(w)
                    violations.append(
                        HaloViolation(
                            AXIOM_NON_EDGE,
                            f"same-colored non-adjacent {a!r}, {b!r} must meet at their "
                            f"basepoint, met at {v!r}",
                            (a, b, v),
                        )
                    )
            elif len(loops_at[w]) > 2:
                v = name(w)
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
