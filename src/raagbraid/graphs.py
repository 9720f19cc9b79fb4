"""Finite simple graphs and the combinatorial operations the pipeline consumes.

Everything here is an immutable value; operations are pure functions, and all
iteration orders are derived from the lexicographic vertex order so that a
given input always produces byte-identical output.
"""
from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property

from . import errors
from .errors import (
    GraphFormatError,
    ImproperColoringError,
    SizeExceededError,
    UnknownVertexError,
    VerificationError,
)

Edge = tuple[str, str]

#: threshold conventions for the inter-essential-vertex path bound; see
#: is_sufficiently_subdivided.
PATH_THRESHOLDS = ("paper", "alt")


def normalize_edge(u: str, v: str) -> Edge:
    if u == v:
        raise GraphFormatError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


class _Value:
    """An immutable value over the attributes named in ``_fields``.

    Two values are equal when they are of one class and their fields are
    equal; the hash and the repr are those of the fields, and pickling and
    copying rebuild a value from them. A field cannot be assigned or
    deleted. A subclass declares ``_fields`` and its ``__slots__``, with
    ``"__dict__"`` among them where a cached property needs the instance
    dict, and its ``__init__`` sets each field with ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class SimpleGraph(_Value):
    """A finite simple graph with string vertex identifiers.

    ``vertices`` is lexicographically sorted, and each edge is stored with
    its smaller endpoint first; the edge tuple is itself sorted.

    A graph built from its integer view (``_from_ids``) makes ``vertices``,
    ``edges`` and ``_index`` on first read; the algorithms read ``_adj``.
    """

    __slots__ = ("vertices", "edges", "__dict__")
    _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _from_ids(
        cls, adj: tuple[tuple[int, ...], ...], names, ids: tuple[int, ...]
    ) -> "SimpleGraph":
        """The graph whose integer view is ``adj``, each row ascending.
        ``names()``, called on the first read of ``vertices``, returns the
        vertex names in id order, which must be their sorted order, so that
        the edges read off ``adj`` come out sorted. ``ids`` holds the int
        objects of ``adj``, one per id, which ``_index`` maps the names to."""
        g = cls.__new__(cls)
        vars(g).update(_adj=adj, _names=names, _ids=ids)
        return g

    def __getattr__(self, name):
        # reached only for an attribute not found, as a field left unset by
        # _from_ids: its names are made here, on first read, and kept
        made = vars(self)
        if name == "vertices" and "_names" in made:
            value = made["_names"]()
        elif name == "edges" and "_ids" in made:
            names = self.vertices
            value = tuple(
                [(names[i], names[j]) for i, row in enumerate(self._adj) for j in row if j > i]
            )
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @classmethod
    def make(cls, vertices, edges=()) -> "SimpleGraph":
        vs = []
        for v in vertices:
            if not isinstance(v, str) or not v:
                raise GraphFormatError(f"vertex names must be nonempty strings, got {v!r}")
            vs.append(v)
        vset = set(vs)
        es = set()
        for pair in edges:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2 or not (
                isinstance(pair[0], str) and isinstance(pair[1], str)
            ):
                raise GraphFormatError(f"an edge must be a pair of vertex names, got {pair!r}")
            e = normalize_edge(*pair)
            if e[0] not in vset or e[1] not in vset:
                raise GraphFormatError(f"edge {e} has an undeclared endpoint")
            es.add(e)
        return cls(vertices=tuple(sorted(vset)), edges=tuple(sorted(es)))

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        """Neighbours by name, built on request: the algorithms read ``_adj``."""
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    @cached_property
    def _index(self) -> dict[str, int]:
        # each name's position in vertices, so integer order is name order;
        # a graph built from its integer view maps each name to the int
        # object that view holds
        ids = vars(self).get("_ids") or range(len(self.vertices))
        return dict(zip(self.vertices, ids))

    @cached_property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        # per vertex, its neighbours' positions; ascending, as the edges are
        # sorted: a vertex's smaller neighbours come first, in their order
        index = self._index
        adj: list[list[int]] = [[] for _ in self.vertices]
        for u, v in self.edges:
            i, j = index[u], index[v]
            adj[i].append(j)
            adj[j].append(i)
        return tuple(map(tuple, adj))

    @cached_property
    def _subdivision_reports(self) -> dict[tuple[int, str], "SubdivisionReport"]:
        # is_sufficiently_subdivided's memo, keyed by (n, path_threshold)
        return {}

    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self._adj)) // 2

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def neighbors(self, v: str) -> frozenset[str]:
        try:
            return self.adjacency[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    @cached_property
    def _component_ids(self) -> tuple[list[int], ...]:
        # the components' vertex ids, in the order of their least ids, each
        # in breadth-first order: one traversal per graph instance, which
        # names no vertex
        adj = self._adj
        seen = [False] * len(adj)
        comps = []
        for start in range(len(adj)):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for x in comp:  # a breadth-first search: the loop reads what it appends
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
            comps.append(comp)
        return tuple(comps)

    def components(self) -> tuple[tuple[str, ...], ...]:
        """The vertex sets of the connected components, each sorted, in the
        order of their smallest vertices. The traversal runs once per
        instance; the names are read off it on each call."""
        names = self.vertices
        return tuple(tuple(map(names.__getitem__, sorted(comp))) for comp in self._component_ids)

    def is_connected(self) -> bool:
        return len(self._component_ids) <= 1


class Coloring(_Value):
    """A proper vertex coloring with colors 1..color_count, all of them used."""

    __slots__ = ("assignment", "color_count", "__dict__")
    _fields = ("assignment", "color_count")

    def __init__(self, assignment: tuple[tuple[str, int], ...], color_count: int):
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "color_count", color_count)

    @classmethod
    def make(cls, graph: SimpleGraph, mapping) -> "Coloring":
        mapping = dict(mapping)
        missing = [v for v in graph.vertices if v not in mapping]
        if missing:
            raise ImproperColoringError(f"uncolored vertices: {missing}")
        extra = sorted(set(mapping) - set(graph.vertices))
        if extra:
            raise UnknownVertexError(f"colored vertices not in the graph: {extra}")
        if not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 1
            for c in mapping.values()
        ):
            raise ImproperColoringError("colors must be integers >= 1")
        colors = set(mapping.values())
        n = max(colors, default=0)
        # distinct integers >= 1 are exactly 1..n when there are n of them
        if len(colors) != n:
            raise ImproperColoringError(
                f"colors must be exactly 1..{n} with every color used, got {sorted(colors)}"
            )
        for u, v in graph.edges:
            if mapping[u] == mapping[v]:
                raise ImproperColoringError(
                    f"adjacent vertices {u!r} and {v!r} share color {mapping[u]}"
                )
        return cls(assignment=tuple(sorted(mapping.items())), color_count=n)

    @cached_property
    def as_dict(self) -> dict[str, int]:
        return dict(self.assignment)

    def color_of(self, v: str) -> int:
        try:
            return self.as_dict[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def to_json_dict(self) -> dict:
        return {"colors": self.color_count, "assignment": dict(self.assignment)}


def coloring_from_json_dict(graph: SimpleGraph, data) -> Coloring:
    if not isinstance(data, dict) or not isinstance(data.get("assignment"), dict):
        raise GraphFormatError("coloring JSON must be an object with an 'assignment' object")
    return Coloring.make(graph, data["assignment"])


def greedy_color(g: SimpleGraph) -> Coloring:
    """Color vertices in lexicographic order with the smallest legal color.

    Every color up to the maximum is used, so the result is surjective.
    """
    assignment: dict[str, int] = {}
    for v in g.vertices:
        taken = {assignment[w] for w in g.adjacency[v] if w in assignment}
        c = 1
        while c in taken:
            c += 1
        assignment[v] = c
    return Coloring.make(g, assignment) if assignment else Coloring((), 0)


def _greedy_clique(g: SimpleGraph, order) -> list[str]:
    clique: list[str] = []
    for v in order:
        if g.adjacency[v].issuperset(clique):
            clique.append(v)
    return clique


def chromatic_number(g: SimpleGraph) -> Coloring:
    """A proper coloring with provably minimal color count.

    One depth-first branch and bound on an explicit stack: vertices by degree
    descending, then name; colors ascending, a vertex opening at most the next
    new color. It allows one color fewer than the best coloring so far,
    ``greedy_color``'s at first, and stops below a greedy clique's size.
    Raises ``SizeExceededError`` once its color placements pass
    ``errors.DEFAULT_BUDGET``, read when it is called.
    """
    budget = errors.DEFAULT_BUDGET
    best = greedy_color(g)
    allowance = best.color_count - 1
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    lower = max(1, len(_greedy_clique(g, order)))
    rank = {v: i for i, v in enumerate(order)}
    earlier = [[rank[w] for w in g.adjacency[v] if rank[w] < i] for i, v in enumerate(order)]
    n = len(order)
    # color[i] is order[i]'s color on the current branch, 0 before its first
    # try; used[i] counts the colors among order[:i]
    color = [0] * (n + 1)
    used = [0] * (n + 1)
    placements = i = 0
    while i >= 0 and allowance >= lower:
        if i == n:
            best = Coloring.make(g, zip(order, color))
            allowance = used[n] - 1
            # pop the first vertex of the top color and every frame above it:
            # each is colored past the new allowance or sits on one that is
            i = color.index(used[n]) - 1
            continue
        taken = {color[p] for p in earlier[i]}
        c = color[i] + 1
        while c in taken:
            c += 1
        if c > min(allowance, used[i] + 1):
            i -= 1
            continue
        placements += 1
        if placements > budget:
            raise SizeExceededError(f"exact coloring needs over {budget} color placements")
        color[i] = c
        used[i + 1] = max(used[i], c)
        i += 1
        color[i] = 0
    return best


def essential_vertices(g: SimpleGraph) -> frozenset[str]:
    """Vertices of degree at least 3."""
    return frozenset([v for v, ns in zip(g.vertices, g._adj) if len(ns) >= 3])


# --- subdivision -----------------------------------------------------------


class SubdivisionViolation(namedtuple("SubdivisionViolation", "kind vertices length required")):
    """A path or loop of ``length`` edges, fewer than ``required``; ``kind``
    is "path" or "loop"."""

    __slots__ = ()


class SubdivisionReport(
    namedtuple(
        "SubdivisionReport",
        "ok n path_threshold path_required loop_required violations",
    )
):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        return json_value(self)


def _path_required(n: int, path_threshold: str) -> int:
    # Two conventions appear in the literature for the minimum edge count of
    # an arc between essential vertices: n - 1 and n + 1. "paper" selects the
    # former, "alt" the latter; the loop bound n + 1 is common to both. The
    # discrepancy is surfaced as a flag rather than silently resolved.
    if path_threshold not in PATH_THRESHOLDS:
        raise GraphFormatError(f"path_threshold must be one of {PATH_THRESHOLDS}")
    return n - 1 if path_threshold == "paper" else n + 1


def _arcs(g: SimpleGraph):
    """The chains of non-essential vertices that join essential vertices or
    close a cycle. Yields vertex ids (u, w, interior), a walk of
    len(interior) + 1 edges, once for each of these:
    - an arc: a maximal path between distinct essential vertices u < w
      whose interior vertices are all non-essential;
    - a cycle through exactly one essential vertex u, as (u, u, interior);
    - a component whose vertices all have degree 2, a cycle through no
      essential vertex, as (u, u, interior) from its least vertex u.
    The first two come in the order of (u, the walk's first vertex after
    u), then the third in the order of u. Walks that stop at a vertex of
    degree 1 are not yielded.

    Every interior vertex has exactly two neighbours, so a walk can enter
    its chain only from one of the chain's two ends, and leaves each vertex
    by the neighbour it did not come from: it cannot revisit a vertex before
    it reaches an essential vertex (u, if it loops back) or one of degree 1,
    so it always ends. Each chain is walked once: from
    its smaller essential end, whose turn comes first, or from the end it
    loops back to. The other end skips a first step into a walked vertex,
    so every arc is yielded from its smaller end.
    A direct edge between two essential vertices is taken from its smaller
    end. A degree-2 vertex that no such walk reached lies in a component
    without essential vertices: a cycle, or a path. The walk from the least
    unwalked one stops at a walked vertex, its start if the component is a
    cycle."""
    adj = g._adj
    ess = [len(ns) >= 3 for ns in adj]
    walked = [False] * len(adj)
    for u, ns in enumerate(adj):
        if not ess[u]:
            continue
        for z in ns:
            if ess[z]:
                if u < z:
                    yield (u, z, ())
                continue
            if walked[z]:
                continue
            prev, cur = u, z
            interior: list[int] = []
            while len(adj[cur]) == 2:
                walked[cur] = True
                interior.append(cur)
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
            if ess[cur]:
                yield (u, cur, tuple(interior))
    # what is left of degree 2 lies in components without essential vertices
    for u, ns in enumerate(adj):
        if len(ns) != 2 or walked[u]:
            continue
        walked[u] = True
        prev, cur = u, ns[0]
        interior = []
        while len(adj[cur]) == 2 and not walked[cur]:
            walked[cur] = True
            interior.append(cur)
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
        if cur == u:
            yield (u, u, tuple(interior))


def _tree_path(parent: list[int], v: int) -> list[int]:
    """v, its parent, and so on up to the root of the search."""
    path = [v]
    while parent[v] != v:
        v = parent[v]
        path.append(v)
    return path


def _keep(found: set[tuple[int, ...]], bound: int, walk: list[int]) -> int:
    """Add a closed walk of at most bound edges to found, from its least vertex
    and second vertex before last, clearing found if it is shorter; return
    its length, the new bound."""
    if len(walk) < bound:
        found.clear()
    i = walk.index(min(walk))
    cycle = walk[i:] + walk[:i]
    if cycle[1] > cycle[-1]:
        cycle[1:] = cycle[:0:-1]
    found.add(tuple(cycle))
    return len(walk)


def _shortest_cycles(g: SimpleGraph, max_edges: int) -> list[tuple[str, ...]]:
    """Every shortest simple cycle, if it has at most max_edges edges, in
    ``_keep``'s form and sorted; otherwise [].

    A breadth-first search, cut off at half the least length kept, starts
    at each essential vertex and at one vertex of each cycle of degree-2
    vertices. A path shorter than half the girth is the only shortest path
    between its ends, so a shortest cycle is the tree paths to the ends of
    an edge x-y at one distance, or to any two parents x, p of a vertex y,
    not only to y's own. A kept walk of least length is simple: tree paths
    sharing a vertex besides the root would close a shorter cycle.

    The searches share one ``dist`` and one ``parent`` list, each search
    resetting only the distances it wrote, and grow the tree level by level.
    ``_subdivision_report`` calls this only where its arcs leave room for
    a cycle of at most max_edges edges."""
    if max_edges < 3:
        return []
    adj = g._adj
    roots = [i for i, ns in enumerate(adj) if len(ns) >= 3]
    for comp in g._component_ids:
        if len(comp) <= max_edges and all(len(adj[v]) == 2 for v in comp):
            roots.append(min(comp))
    bound, radius = max_edges, max_edges // 2
    found: set[tuple[int, ...]] = set()
    dist = [-1] * len(adj)
    parent = [0] * len(adj)
    for root in roots:
        dist[root] = 0
        parent[root] = root
        reached = [root]
        level, d = [root], 0
        while level:
            nxt: list[int] = []
            for x in level:
                for y in adj[x]:
                    dy = dist[y]
                    if dy < 0:
                        if d < radius:
                            dist[y] = d + 1
                            parent[y] = x
                            nxt.append(y)
                    elif dy == d and 2 * d < bound:
                        walk = _tree_path(parent, x) + _tree_path(parent, y)[-2::-1]
                        bound = _keep(found, bound, walk)
                        radius = bound // 2
                    elif dy > d and parent[y] != x and 2 * d + 2 <= bound:
                        up = _tree_path(parent, x)
                        for p in adj[y]:
                            if p != x and dist[p] == d:
                                bound = _keep(found, bound, up + _tree_path(parent, p)[-2::-1] + [y])
                        radius = bound // 2
            reached += nxt
            level, d = nxt, d + 1
        for v in reached:
            dist[v] = -1
    return [tuple(map(g.vertices.__getitem__, cycle)) for cycle in sorted(found)]


def is_sufficiently_subdivided(
    g: SimpleGraph, n: int, path_threshold: str = "paper"
) -> SubdivisionReport:
    """Check the subdivision criterion for n strands.

    Requires every arc between two distinct essential vertices (interior
    free of essential vertices) to have at least ``path_required`` edges and
    every simple cycle to have at least ``n + 1`` edges. The report lists
    every short arc, and every shortest cycle if it is short. The arcs
    bound the girth from below, and the cycles are searched for only where
    that bound is at most n. The report is computed once per graph
    instance and (n, path_threshold), and reused later.
    """
    key = (n, path_threshold)
    report = g._subdivision_reports.get(key)
    if report is None:
        report = g._subdivision_reports[key] = _subdivision_report(g, n, path_threshold)
    return report


def _subdivision_report(g: SimpleGraph, n: int, path_threshold: str) -> SubdivisionReport:
    """The unmemoised check: the short arcs, then the shortest cycles.

    The walks of ``_arcs`` bound the girth from below: a cycle through at
    most one essential vertex is one of its closed walks, and a cycle
    through two or more is made of two or more arcs. The search runs only
    when that bound is at most n; otherwise no cycle is short."""
    if n < 1:
        raise GraphFormatError(f"strand count must be >= 1, got {n}")
    path_required = _path_required(n, path_threshold)
    loop_required = n + 1
    violations: list[SubdivisionViolation] = []
    # the shortest closed walk and the shortest arc, capped at n + 1
    closed = arc = loop_required
    for u, w, interior in _arcs(g):
        length = len(interior) + 1
        if u == w:
            closed = min(closed, length)
            continue
        if length < arc:
            arc = length
        if length < path_required:
            path = tuple(map(g.vertices.__getitem__, (u, *interior, w)))
            violations.append(SubdivisionViolation("path", path, length, path_required))
    if min(closed, max(3, 2 * arc)) <= n:
        for cycle in _shortest_cycles(g, n):
            violations.append(SubdivisionViolation("loop", cycle, len(cycle), loop_required))
    return SubdivisionReport(
        ok=not violations,
        n=n,
        path_threshold=path_threshold,
        path_required=path_required,
        loop_required=loop_required,
        violations=tuple(violations),
    )


def subdivide_uniform(g: SimpleGraph, k: int) -> tuple[SimpleGraph, dict[Edge, tuple[str, ...]]]:
    """Replace every edge by a path of k edges; fresh interior vertices are
    named ``<u>~<v>~<i>`` from the smaller endpoint. Returns the new graph
    and, per original edge, the full replacement path from u to v.

    The graph is built with the plain constructor: the names are checked
    fresh as they are made, each edge is normalised, and for k > 1 each
    holds a fresh vertex of one chain, so no edge repeats."""
    if k < 1:
        raise GraphFormatError(f"subdivision factor must be >= 1, got {k}")
    vertices = list(g.vertices)
    existing = set(vertices)
    edges: list[Edge] = []
    chains: dict[Edge, tuple[str, ...]] = {}
    for u, v in g.edges:
        path = [u]
        for i in range(1, k):
            name = f"{u}~{v}~{i}"
            if name in existing:
                raise GraphFormatError(f"subdivision name collision at {name!r}")
            existing.add(name)
            vertices.append(name)
            path.append(name)
        path.append(v)
        chains[(u, v)] = tuple(path)
        edges.extend(normalize_edge(a, b) for a, b in zip(path, path[1:]))
    return SimpleGraph(vertices=tuple(sorted(vertices)), edges=tuple(sorted(edges))), chains


def minimal_subdivision(
    g: SimpleGraph, n: int, path_threshold: str = "paper"
) -> tuple[int, SimpleGraph, dict[Edge, tuple[str, ...]]]:
    """Smallest uniform factor whose subdivision passes the checker, with
    that subdivision and its chains (as ``subdivide_uniform``).

    Subdividing by k multiplies every arc and cycle length by k and keeps
    the essential vertices, so the factor is read off the violations of
    ``g`` itself: the largest ceil(required / length). A graph that passes
    is returned as it is. The subdivided graph is checked again, as a safety
    net; where it passes, its arcs of at least n - 1 edges and its closed
    walks of at least n + 1 prove its girth over n, so that check walks its
    arcs and searches for no cycle. The returned graph is the instance that
    was checked, so its report is memoised.

    The subdivision has |V| + (k - 1)|E| vertices and k|E| edges; over
    ``errors.DEFAULT_BUDGET``, read when it is called, ``SizeExceededError``
    is raised before any of them is made."""
    report = is_sufficiently_subdivided(g, n, path_threshold)
    if report.ok:
        return 1, g, {e: e for e in g.edges}
    k = max(-(-v.required // v.length) for v in report.violations)
    vertices, edges = g.n_vertices + (k - 1) * g.n_edges, k * g.n_edges
    budget = errors.DEFAULT_BUDGET
    if vertices > budget or edges > budget:
        raise SizeExceededError(
            f"subdividing by {k} makes {vertices} vertices and {edges} edges, "
            f"over the budget of {budget}"
        )
    subdivided, chains = subdivide_uniform(g, k)
    if not is_sufficiently_subdivided(subdivided, n, path_threshold).ok:
        raise VerificationError(f"subdivision by {k} still fails the check")
    return k, subdivided, chains


def is_planar(g: SimpleGraph) -> bool:
    """Planarity of the abstract graph, at any size. The Euler bound
    |E| <= 3|V| - 6 rejects dense graphs before the left-right test runs,
    so that test sees O(|V|) edges."""
    if g.n_vertices >= 3 and g.n_edges > 3 * g.n_vertices - 6:
        return False
    return _left_right_planar(g._adj)


def _left_right_planar(adj: tuple[tuple[int, ...], ...]) -> bool:
    """The left-right planarity test (de Fraysseix & Rosenstiehl, in the
    form of Brandes, *The Left-Right Planarity Test*, 2009) on vertex
    indices, without building an embedding.

    Both passes are depth-first searches driven by an explicit stack, so a
    deep graph meets no recursion limit. The orientation pass turns each
    edge into a tree edge or a back edge to an ancestor, and gives every
    oriented edge its lowpoint (the least height its return edges reach)
    and second lowpoint. The testing pass visits each vertex's out-edges
    by nesting depth, read off those two, and keeps a stack of conflict
    pairs: a pair is two intervals of return edges, [low, high], that must
    lie on opposite sides. Within an interval, ``ref`` links each return
    edge to the next lower one. The graph is planar when no pair is forced
    to put two conflicting intervals on one side."""
    n = len(adj)
    height = [-1] * n
    parent_edge = [-1] * n
    tail: list[int] = []
    head: list[int] = []
    low: list[int] = []
    low2: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]

    # orientation pass
    step = [0] * n
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        stack = [root]
        while stack:
            v = stack[-1]
            if step[v] < len(adj[v]):
                w = adj[v][step[v]]
                step[v] += 1
                if height[w] >= 0 and (height[w] >= height[v] or tail[parent_edge[v]] == w):
                    continue  # already oriented: a descendant's back edge, or the tree edge in
                e = len(head)
                tail.append(v)
                head.append(w)
                low.append(height[v] if height[w] < 0 else height[w])
                low2.append(height[v])
                out[v].append(e)
                if height[w] < 0:
                    parent_edge[w] = e
                    height[w] = height[v] + 1
                    stack.append(w)
                    continue  # e is finished when w is
            else:
                stack.pop()
                e = parent_edge[v]
                if e < 0:
                    continue
                v = tail[e]
            # e = (v, .) is finished: fold its lowpoints into the edge
            # that enters v
            p = parent_edge[v]
            if p >= 0:
                if low[e] < low[p]:
                    low2[p] = min(low[p], low2[e])
                    low[p] = low[e]
                elif low[e] > low[p]:
                    low2[p] = min(low2[p], low[e])
                else:
                    low2[p] = min(low2[p], low2[e])
    # visit out-edges by nesting depth: by lowpoint, a chordal edge (one
    # whose second lowpoint is below its tail) after a plain one
    for edges in out:
        edges.sort(key=lambda e: 2 * low[e] + (low2[e] < height[tail[e]]))

    # testing pass; a conflict pair is [left low, left high, right low,
    # right high], with -1 for an empty interval's ends
    m = len(head)
    ref = [-1] * m
    bottom: list[list[int] | None] = [None] * m
    pairs: list[list[int]] = []

    def conflicting(high: int, e: int) -> bool:
        return high >= 0 and low[high] > low[e]

    def add_constraints(ei: int, e: int) -> bool:
        p = [-1, -1, -1, -1]
        while True:  # merge the return edges of ei into p's right
            q = pairs.pop()
            if q[0] >= 0:
                q = q[2:] + q[:2]
            if q[0] >= 0:
                return False
            if low[q[2]] > low[e]:
                if p[2] < 0:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            if (pairs[-1] if pairs else None) is bottom[ei]:
                break
        # merge the earlier siblings' return edges that conflict with ei
        # into p's left
        while pairs and (conflicting(pairs[-1][1], ei) or conflicting(pairs[-1][3], ei)):
            q = pairs.pop()
            if conflicting(q[3], ei):
                q = q[2:] + q[:2]
            if conflicting(q[3], ei):
                return False
            if p[2] >= 0:
                ref[p[2]] = q[3]
            if q[2] >= 0:
                p[2] = q[2]
            if p[0] < 0:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p[0] >= 0 or p[2] >= 0:
            pairs.append(p)
        return True

    def lowest(p: list[int]) -> int:
        if p[0] < 0:
            return low[p[2]]
        if p[2] < 0:
            return low[p[0]]
        return min(low[p[0]], low[p[2]])

    def remove_back_edges(u: int) -> None:
        # drop the pairs, then trim the intervals, whose edges return to u
        while pairs and lowest(pairs[-1]) == height[u]:
            pairs.pop()
        if pairs:
            p = pairs[-1]
            for lo, hi in ((0, 1), (2, 3)):
                while p[hi] >= 0 and head[p[hi]] == u:
                    p[hi] = ref[p[hi]]
                if p[hi] < 0:
                    p[lo] = -1

    step = [0] * n
    for root in range(n):
        if parent_edge[root] >= 0:
            continue
        stack = [root]
        while stack:
            v = stack[-1]
            if step[v] < len(out[v]):
                ei = out[v][step[v]]
                step[v] += 1
                bottom[ei] = pairs[-1] if pairs else None
                if parent_edge[head[ei]] == ei:
                    stack.append(head[ei])
                    continue  # ei is integrated when its head is finished
                pairs.append([-1, -1, ei, ei])
            else:
                stack.pop()
                ei = parent_edge[v]
                if ei < 0:
                    continue
                v = tail[ei]
                remove_back_edges(v)
            # integrate the return edges of ei = (v, .)
            if low[ei] < height[v] and ei != out[v][0]:
                if not add_constraints(ei, parent_edge[v]):
                    return False
    return True


# --- serialization ---------------------------------------------------------


def graph_to_json_dict(g: SimpleGraph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}


def graph_from_json_dict(data) -> SimpleGraph:
    if not isinstance(data, dict):
        raise GraphFormatError("graph JSON must be an object")
    vertices = data.get("vertices")
    edges = data.get("edges", [])
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphFormatError("graph JSON needs 'vertices' and 'edges' arrays")
    return SimpleGraph.make(vertices, edges)


def json_value(value):
    """The JSON form of a report: a record (a named tuple) becomes an object
    of its fields in declaration order, read off ``_fields``; other tuples
    and lists become lists, a dict keeps its keys, each converted
    recursively; any other value is returned as it is. Tuples come out as
    lists, so a report's text rendering prints ``[]``, not ``()``."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: json_value(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    return value


def dumps_canonical(obj) -> str:
    """Fixed JSON serialization so identical data yields identical bytes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_DOT_PALETTE = (
    "red",
    "blue",
    "green",
    "orange",
    "purple",
    "brown",
    "cyan",
    "magenta",
    "gold",
    "gray",
)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: SimpleGraph, coloring: Coloring | None = None) -> str:
    lines = ["graph G {"]
    for v in g.vertices:
        if coloring is not None:
            c = coloring.color_of(v)
            fill = _DOT_PALETTE[(c - 1) % len(_DOT_PALETTE)]
            lines.append(
                f"  {_dot_quote(v)} [style=filled, fillcolor={_dot_quote(fill)}, "
                f"label={_dot_quote(f'{v}:{c}')}];"
            )
        else:
            lines.append(f"  {_dot_quote(v)};")
    for u, v in g.edges:
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
