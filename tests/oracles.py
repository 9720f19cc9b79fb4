"""Independent brute-force oracles the tests compare the library against.

Nothing here may import the algorithms under test: cell counts come from raw
subset enumeration, word triviality and least spellings from breadth-first
rewriting closures, the elements of bounded length from every freely reduced
word (spelled by a reduction the caller passes in), colorability from
exhaustive assignment, the exact coloring from one recursive search per
color count, seeded sample words from ``random``'s own ``randint`` and
``choice``, planarity from networkx's ``check_planarity``, graph corpora
from the networkx atlas, the arcs between essential vertices from the
components networkx finds once those vertices are deleted, the short
cycles from every simple path, and the canonical halo's loops from a scan
of all of Δ per vertex. The one exception is
``smallest_passing_factor``: it tries every candidate factor against the
library's subdivision check, as a reference for the closed form that
reads the factor off that check's violations.
"""
from __future__ import annotations

import random
from collections import deque
from itertools import combinations, islice, product

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from raagbraid import SimpleGraph
from raagbraid.graphs import is_sufficiently_subdivided, subdivide_uniform


# --- seeded sample words -----------------------------------------------------


def reference_sample_stream(seed: int, n_codes: int, max_length: int):
    """The sample words of ``random.Random(seed)``, endlessly, drawn through
    the standard library: a length by ``randint(1, max_length)``, then that
    many letter codes by ``choice`` over ``range(n_codes)``."""
    rng = random.Random(seed)
    codes = list(range(n_codes))
    while True:
        length = rng.randint(1, max_length)
        yield [rng.choice(codes) for _ in range(length)]


def reference_samples(seed: int, n_codes: int, max_length: int, count: int) -> list[list[int]]:
    """The first ``count`` words of ``reference_sample_stream``."""
    return list(islice(reference_sample_stream(seed, n_codes, max_length), count))


# --- configuration-space counts and paths -----------------------------------


def brute_force_udc_counts(g: SimpleGraph, n: int) -> tuple[int, int]:
    """Counts of 0- and 1-cells by filtering all n-subsets of cells of the
    graph for pairwise disjoint closures."""
    cells = [("v", v) for v in g.vertices] + [("e", e) for e in g.edges]

    def closure(cell):
        kind, payload = cell
        return {payload} if kind == "v" else set(payload)

    zero = one = 0
    for subset in combinations(cells, n):
        ok = True
        for i in range(len(subset)):
            for j in range(i + 1, len(subset)):
                if closure(subset[i]) & closure(subset[j]):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        edges = sum(1 for kind, _ in subset if kind == "e")
        if edges == 0:
            zero += 1
        elif edges == 1:
            one += 1
    return zero, one


def replay_psi(halo, letters, squared: bool):
    """Walk a source word through the halo one token move at a time.

    Each letter moves the token of its generator's colour once (twice when
    ``squared``) around the generator's loop, reversed for an inverse
    letter. Every move is checked against the halo's edges and an occupancy
    set kept here, and every token must be back on its basepoint at the end.
    Returns the moves as (edge, source) pairs and the edge word: one letter
    ``"u|v"`` per crossed edge u < v, signed +1 when the token leaves u.
    """
    edges = set(halo.gamma.edges)
    loops = dict(halo.artin_loops)
    basepoint_of = dict(halo.basepoints)
    colors = dict(halo.coloring.assignment)
    home = set(basepoint_of.values())
    occupied = set(home)
    moves, image = [], []
    for gen, sign in letters:
        loop = loops[gen]
        assert loop[0] == loop[-1] == basepoint_of[colors[gen]]
        walk = loop if sign > 0 else loop[::-1]
        for _ in range((2 if squared else 1) * abs(sign)):
            for s, t in zip(walk, walk[1:]):
                edge = (s, t) if s < t else (t, s)
                assert edge in edges, f"{edge} is not a halo edge"
                assert s in occupied, f"no token at {s}"
                assert t not in occupied, f"{t} is occupied"
                occupied.remove(s)
                occupied.add(t)
                moves.append((edge, s))
                image.append((f"{edge[0]}|{edge[1]}", 1 if s == edge[0] else -1))
    assert occupied == home, "the walk does not close at the basepoints"
    return moves, image


def edges_commute(e, f) -> bool:
    """Two halo edges, given as endpoint tuples, commute in the edge group
    exactly when their closures (the edge with its endpoints) are disjoint."""
    return not set(e) & set(f)


def relator_supports(halo, a: str, b: str) -> tuple[bool, bool]:
    """(supports_disjoint, cross_pairs_commute) of the relator [a, b], read
    off the full edge sets of the two loops: they share no edge, and every
    edge of one commutes with every edge of the other."""
    loops = dict(halo.artin_loops)
    edges = [{frozenset(step) for step in zip(loops[d], loops[d][1:])} for d in (a, b)]
    return (
        edges[0].isdisjoint(edges[1]),
        all(edges_commute(e, f) for e in edges[0] for f in edges[1]),
    )


# --- halo axioms ---------------------------------------------------------------


def halo_pair_violations(halo) -> list[tuple[str, str, tuple[str, ...]]]:
    """The pair axioms checked pair by pair, as (axiom, message, witnesses):
    every two loops of source vertices, in sorted order, intersect as vertex
    sets. Adjacent sources' loops must share nothing ("edge-disjoint");
    non-adjacent ones exactly one vertex ("non-edge-intersection"), their
    basepoint when their colours agree, else a junction on no third loop."""
    delta, color = halo.delta, halo.coloring.as_dict
    basepoint = dict(halo.basepoints)
    sets = {a: set(loop) for a, loop in halo.artin_loops}
    sources = sorted(set(sets) & set(delta.vertices))
    out = []
    for a, b in combinations(sources, 2):
        inter = sorted(sets[a] & sets[b])
        if b in delta.adjacency[a]:
            if inter:
                out.append(
                    ("edge-disjoint", f"loops of adjacent {a!r}, {b!r} share {inter}",
                     (a, b, *inter))
                )
        elif len(inter) != 1:
            out.append(
                ("non-edge-intersection",
                 f"loops of non-adjacent {a!r}, {b!r} share {len(inter)} vertices "
                 f"({inter}), expected exactly 1",
                 (a, b, *inter))
            )
        elif color[a] == color[b]:
            if basepoint.get(color[a]) != inter[0]:
                out.append(
                    ("non-edge-intersection",
                     f"same-colored non-adjacent {a!r}, {b!r} must meet at their "
                     f"basepoint, met at {inter[0]!r}",
                     (a, b, inter[0]))
                )
        else:
            v = inter[0]
            third = [d for d in sources if d not in (a, b) and v in sets[d]]
            if third:
                out.append(
                    ("non-edge-intersection",
                     f"junction {v!r} of {a!r}, {b!r} also lies on loops {third}",
                     (a, b, v, *third))
                )
    return out


def canonical_loops(delta, coloring) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The canonical halo's loops, transcribed vertex by vertex: the loop of
    v starts at its colour's basepoint ``x_c`` and threads, in vertex
    order, the junction of every differently coloured w it is not adjacent
    to, found by scanning all of Δ and named ``j~a~b`` from the pair's
    smaller name a; a private step ``p~v~i`` precedes each anchor and the
    return, and a vertex with no such w gets a private triangle."""
    color = coloring.as_dict
    edges = set(delta.edges)
    loops = []
    for v in sorted(delta.vertices):
        anchors = [f"x_{color[v]}"]
        for w in sorted(delta.vertices):
            a, b = sorted((v, w))
            if color[w] != color[v] and (a, b) not in edges:
                anchors.append(f"j~{a}~{b}")
        if len(anchors) == 1:
            loop = [anchors[0], f"p~{v}~1", f"p~{v}~2", anchors[0]]
        else:
            loop = [anchors[0]]
            for i, t in enumerate(anchors[1:] + anchors[:1], start=1):
                loop += [f"p~{v}~{i}", t]
        loops.append((v, tuple(loop)))
    return tuple(loops)


# --- word problem ------------------------------------------------------------


def trivial_closure(generators, commuting_pairs, max_len: int) -> set:
    """All words of length <= max_len equal to the identity, computed by a
    breadth-first closure from the empty word under inverse-pair insertion
    and adjacent commuting swaps."""
    commuting = set()
    for a, b in commuting_pairs:
        commuting.add((a, b))
        commuting.add((b, a))
    signed = [(g, s) for g in generators for s in (1, -1)]
    seen = {()}
    queue = deque([()])
    while queue:
        word = queue.popleft()
        successors = []
        if len(word) + 2 <= max_len:
            for pos in range(len(word) + 1):
                for g, s in signed:
                    successors.append(word[:pos] + ((g, s), (g, -s)) + word[pos:])
        for t in range(len(word) - 1):
            (g1, s1), (g2, s2) = word[t], word[t + 1]
            if g1 != g2 and (g1, g2) in commuting:
                successors.append(
                    word[:t] + ((g2, s2), (g1, s1)) + word[t + 2 :]
                )
        for w2 in successors:
            if w2 not in seen:
                seen.add(w2)
                queue.append(w2)
    return seen


def bfs_is_trivial(word, commuting_pairs, state_cap: int = 2_000_000) -> bool:
    """Search for the empty word from this word using free cancellation and
    adjacent commuting swaps."""
    commuting = set()
    for a, b in commuting_pairs:
        commuting.add((a, b))
        commuting.add((b, a))
    word = tuple(word)
    if not word:
        return True
    seen = {word}
    queue = deque([word])
    while queue:
        cur = queue.popleft()
        for t in range(len(cur) - 1):
            (g1, s1), (g2, s2) = cur[t], cur[t + 1]
            nxt = None
            if g1 == g2 and s1 == -s2:
                nxt = cur[:t] + cur[t + 2 :]
                if not nxt:
                    return True
            elif g1 != g2 and (g1, g2) in commuting:
                nxt = cur[:t] + ((g2, s2), (g1, s1)) + cur[t + 2 :]
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                if len(seen) > state_cap:
                    raise RuntimeError("state cap exceeded")
    return False


def least_spelling(word, commuting_pairs, state_cap: int = 500_000):
    """The spelling least in generator order, compared by generator names,
    among all words reached from ``word`` by swapping adjacent letters of
    distinct commuting generators, found by a breadth-first search."""
    commuting = set()
    for a, b in commuting_pairs:
        commuting.add((a, b))
        commuting.add((b, a))
    word = tuple(word)
    seen = {word}
    queue = deque([word])
    while queue:
        cur = queue.popleft()
        for t in range(len(cur) - 1):
            (g1, s1), (g2, s2) = cur[t], cur[t + 1]
            if g1 != g2 and (g1, g2) in commuting:
                nxt = cur[:t] + ((g2, s2), (g1, s1)) + cur[t + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                    if len(seen) > state_cap:
                        raise RuntimeError("state cap exceeded")
    return min(seen, key=lambda w: [g for g, _ in w])


def shortest_spellings(word, commuting_pairs, state_cap: int = 500_000) -> set:
    """The shortest words reachable from ``word`` by free cancellation and
    commuting swaps: every geodesic spelling of its element."""
    commuting = set()
    for a, b in commuting_pairs:
        commuting.add((a, b))
        commuting.add((b, a))
    word = tuple(word)
    best = len(word)
    seen = {word}
    queue = deque([word])
    while queue:
        cur = queue.popleft()
        best = min(best, len(cur))
        for t in range(len(cur) - 1):
            (g1, s1), (g2, s2) = cur[t], cur[t + 1]
            nxt = None
            if g1 == g2 and s1 == -s2:
                nxt = cur[:t] + cur[t + 2 :]
            elif g1 != g2 and (g1, g2) in commuting:
                nxt = cur[:t] + ((g2, s2), (g1, s1)) + cur[t + 2 :]
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                if len(seen) > state_cap:
                    raise RuntimeError("state cap exceeded")
    return {w for w in seen if len(w) == best}


def minimal_equivalent_length(word, commuting_pairs, state_cap: int = 500_000) -> int:
    """Shortest length reachable by free cancellation and commuting swaps."""
    return len(next(iter(shortest_spellings(word, commuting_pairs, state_cap))))


def free_word_spellings(generators, reduce, max_len: int) -> set:
    """The spelling ``reduce`` gives each nontrivial element of geodesic
    length at most max_len, found by reducing every freely reduced word of
    length 1..max_len: sum 2k(2k-1)^(l-1) words for k generators, each
    element reached many times. ``reduce`` maps a letter tuple to the
    canonical spelling under test (empty for the identity)."""
    signed = [(g, s) for g in generators for s in (1, -1)]
    out = set()
    word: list = []

    def rec():
        if word:
            reduced = tuple(reduce(tuple(word)))
            if reduced:
                out.add(reduced)
        if len(word) == max_len:
            return
        for letter in signed:
            if word and letter == (word[-1][0], -word[-1][1]):
                continue
            word.append(letter)
            rec()
            word.pop()

    rec()
    return out


def per_element_failures(generators, reduce, max_len: int, *image_is_trivial) -> list[set]:
    """Per decider in ``image_is_trivial``, the spellings
    (``free_word_spellings``) of the nontrivial elements of geodesic length
    at most max_len whose image it finds trivial. The elements are listed
    once and every element's image is decided on its own: none is skipped
    for its exponent sums, and none reads the verdict of another word."""
    elements = free_word_spellings(generators, reduce, max_len)
    return [{w for w in elements if trivial(w)} for trivial in image_is_trivial]


# --- graph oracles ------------------------------------------------------------


def exhaustive_k_colorable(g: SimpleGraph, k: int) -> bool:
    """Try every assignment of k colors outright."""
    vs = g.vertices
    for assignment in product(range(k), repeat=len(vs)):
        colors = dict(zip(vs, assignment))
        if all(colors[u] != colors[v] for u, v in g.edges):
            return True
    return False


def per_k_coloring(g: SimpleGraph) -> dict[str, int]:
    """The exact coloring from one backtracking search per color count k,
    from a greedy clique's size up to one below a greedy coloring's count.

    Vertices go by degree descending, then name; colors are tried ascending,
    and a vertex may open at most the next unused color. The first k that
    succeeds gives the assignment; if none does, the greedy coloring (each
    vertex in name order takes its least free color) is returned."""
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    greedy: dict[str, int] = {}
    for v in sorted(adj):
        taken = {greedy[w] for w in adj[v] if w in greedy}
        greedy[v] = min(c for c in range(1, len(adj) + 1) if c not in taken)
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    clique: list[str] = []
    for v in order:
        if all(w in adj[v] for w in clique):
            clique.append(v)
    for k in range(max(1, len(clique)), max(greedy.values(), default=0)):
        assignment: dict[str, int] = {}

        def place(i: int, used: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            taken = {assignment[w] for w in adj[v] if w in assignment}
            for c in range(1, min(k, used + 1) + 1):
                if c not in taken:
                    assignment[v] = c
                    if place(i + 1, max(used, c)):
                        return True
                    del assignment[v]
            return False

        if place(0, 0):
            return assignment
    return greedy


# --- subdivision --------------------------------------------------------------


def arcs_by_deletion(g: SimpleGraph) -> list[tuple[str, str, tuple[str, ...]]]:
    """The arcs between distinct essential (degree >= 3) vertices, as
    (u, w, interior) with u < w, read off the graph left after deleting the
    essential vertices: every edge joining two essential vertices is an arc
    with no interior, and so is every component of what is left whose
    vertices all have degree 2 and whose two ends attach to two different
    essential vertices. Components come from networkx. Sorted by u, then by
    the arc's first vertex after u."""
    G = nx.Graph(list(g.edges))
    G.add_nodes_from(g.vertices)
    ess = {v for v in G if G.degree(v) >= 3}
    arcs = [(u, w, ()) for u, w in g.edges if u in ess and w in ess]
    for comp in nx.connected_components(G.subgraph(set(G) - ess)):
        if any(G.degree(v) != 2 for v in comp):
            continue  # a dead end
        attached = [(v, w) for v in comp for w in G[v] if w in ess]
        if not attached:
            continue  # a cycle of degree-2 vertices
        # comp is a path; walk it from one attachment to the other
        (start, u), (_, w) = sorted(attached)
        if u == w:
            continue  # a loop back to one essential vertex
        interior, prev = [start], u
        while len(interior) < len(comp):
            nxt = next(x for x in G[interior[-1]] if x != prev and x in comp)
            prev = interior[-1]
            interior.append(nxt)
        arcs.append((u, w, tuple(interior)) if u < w else (w, u, tuple(reversed(interior))))
    return sorted(arcs, key=lambda arc: (arc[0], (*arc[2], arc[1])[0]))


def cycles_by_paths(g: SimpleGraph, max_edges: int) -> set[tuple[str, ...]]:
    """Every simple cycle of at most max_edges edges: each simple path is
    extended from its first vertex through larger vertices only, and closes
    a cycle when its last vertex is adjacent to its first. A cycle is
    written as the least of its rotations and reflections, so its smallest
    vertex comes first and its second vertex before its last. For small
    graphs: the paths grow exponentially with max_edges."""
    G = nx.Graph(list(g.edges))
    G.add_nodes_from(g.vertices)
    cycles = set()

    def extend(path):
        for w in G[path[-1]]:
            if w == path[0] and len(path) >= 3:
                c = tuple(path)
                cycles.add(min(r[i:] + r[:i] for r in (c, c[::-1]) for i in range(len(c))))
            elif w > path[0] and w not in path and len(path) < max_edges:
                extend(path + [w])

    for s in G:
        extend([s])
    return cycles


def smallest_passing_factor(g: SimpleGraph, n: int, path_threshold: str) -> int:
    """The least uniform factor k = 1..n+2 whose subdivision passes the
    check, found by subdividing by each in turn."""
    for k in range(1, n + 3):
        if is_sufficiently_subdivided(subdivide_uniform(g, k)[0], n, path_threshold).ok:
            return k
    raise AssertionError(f"no factor up to {n + 2} passes")


# --- graph corpora ------------------------------------------------------------


def _from_networkx(G) -> SimpleGraph:
    return SimpleGraph.make(
        [f"v{i}" for i in G.nodes], [(f"v{u}", f"v{v}") for u, v in G.edges]
    )


def networkx_graph(G) -> SimpleGraph:
    """A networkx graph, its vertices numbered in its own order and named
    v0, v1, ..."""
    return _from_networkx(nx.convert_node_labels_to_integers(G))


def atlas_graphs() -> list[SimpleGraph]:
    """Every graph of the networkx atlas: all graphs with 0..7 vertices up
    to isomorphism, disconnected ones included."""
    return [_from_networkx(G) for G in graph_atlas_g()]


def atlas_connected(max_vertices: int, max_edges: int | None = None) -> list[SimpleGraph]:
    """Every connected graph with 1..max_vertices vertices up to isomorphism
    (the atlas is complete through 7 vertices)."""
    assert max_vertices <= 7
    out = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0 or n > max_vertices:
            continue
        if not nx.is_connected(G):
            continue
        if max_edges is not None and G.number_of_edges() > max_edges:
            continue
        out.append(_from_networkx(G))
    return out


def random_connected_graph(rng: random.Random, n: int, extra_edges: int) -> SimpleGraph:
    """Random spanning tree plus a few extra edges."""
    names = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        edges.add(tuple(sorted((names[i], names[rng.randrange(i)]))))
    pool = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if (a, b) not in edges
    ]
    rng.shuffle(pool)
    edges.update(pool[:extra_edges])
    return SimpleGraph.make(names, edges)


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    """G(n, p): each of the n(n-1)/2 pairs is an edge with probability p."""
    names = [f"v{i}" for i in range(n)]
    return SimpleGraph.make(
        names,
        [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < p],
    )


def random_multipartite(rng: random.Random, parts: int, size: int, p: float) -> SimpleGraph:
    """``parts`` independent sets of ``size`` vertices; two vertices of
    different parts are joined with probability p."""
    names = [f"m{i}_{j}" for i in range(parts) for j in range(size)]
    return SimpleGraph.make(
        names,
        [
            (a, b)
            for i, a in enumerate(names)
            for b in names[i + 1 :]
            if a.split("_")[0] != b.split("_")[0] and rng.random() < p
        ],
    )


def random_regular_multipartite(
    rng: random.Random, parts: int, size: int, matchings: int
) -> tuple[SimpleGraph, dict[str, int]]:
    """``parts`` independent sets of ``size`` vertices joined by
    ``matchings`` edge-disjoint random perfect matchings between every pair
    of parts, redrawn until connected; returns the graph and its parts as a
    colouring (1..parts)."""
    groups = [[f"r{p}_{i}" for i in range(size)] for p in range(parts)]
    part = {v: p + 1 for p, group in enumerate(groups) for v in group}
    while True:
        edges: set[tuple[str, str]] = set()
        for p, q in combinations(range(parts), 2):
            for _ in range(matchings):
                while True:
                    image = groups[q][:]
                    rng.shuffle(image)
                    pairs = {tuple(sorted(e)) for e in zip(groups[p], image)}
                    if not pairs & edges:
                        break
                edges |= pairs
        G = nx.Graph(list(edges))
        G.add_nodes_from(part)
        if nx.is_connected(G):
            return SimpleGraph.make(part, edges), part


def random_triangulation(rng: random.Random, n: int) -> SimpleGraph:
    """A maximal planar graph on n >= 3 vertices: each new vertex is joined
    to the three corners of a random face, then 3n random edge flips (an
    edge of two triangles is replaced by the other diagonal, when that is
    not already an edge) mix the degrees."""
    edges = {(0, 1), (1, 2), (0, 2)}
    faces = [(0, 1, 2), (0, 2, 1)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges.update({(a, v), (b, v), (c, v)})
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for _ in range(3 * n):
        a = rng.randrange(n)
        b = rng.choice(sorted(adj[a]))
        common = sorted(adj[a] & adj[b])
        if len(common) == 2 and common[1] not in adj[common[0]]:
            x, y = common
            adj[a].discard(b)
            adj[b].discard(a)
            adj[x].add(y)
            adj[y].add(x)
    names = [f"v{i}" for i in range(n)]
    return SimpleGraph.make(
        names, [(names[a], names[b]) for a in range(n) for b in adj[a] if a < b]
    )


def nx_is_planar(g: SimpleGraph) -> bool:
    """networkx's planarity verdict for g."""
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges)
    return nx.check_planarity(G)[0]


def random_proper_coloring(g: SimpleGraph, rng: random.Random):
    """A proper surjective coloring found by a randomized greedy pass."""
    order = list(g.vertices)
    rng.shuffle(order)
    assignment: dict[str, int] = {}
    for v in order:
        taken = {assignment[w] for w in g.adjacency[v] if w in assignment}
        choices = [c for c in range(1, len(assignment) + 2) if c not in taken]
        assignment[v] = rng.choice(choices)
    used = sorted(set(assignment.values()))
    remap = {c: i + 1 for i, c in enumerate(used)}
    return {v: remap[c] for v, c in assignment.items()}


def cycle_graph(n: int, prefix: str = "a") -> SimpleGraph:
    names = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return SimpleGraph.make(names, edges)


def complete_graph(n: int, prefix: str = "k") -> SimpleGraph:
    names = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    return SimpleGraph.make(names, edges)


def path_graph(n: int, prefix: str = "p") -> SimpleGraph:
    names = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = list(zip(names, names[1:]))
    return SimpleGraph.make(names, edges)


def complete_bipartite(m: int, n: int) -> SimpleGraph:
    left = [f"l{i}" for i in range(1, m + 1)]
    right = [f"r{i}" for i in range(1, n + 1)]
    return SimpleGraph.make(left + right, [(a, b) for a in left for b in right])


def petersen_graph() -> SimpleGraph:
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    return SimpleGraph.make(outer + inner, edges)
