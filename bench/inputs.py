"""Seeded inputs for the three benchmark workloads.

Everything here is plain data (vertex tuples, edge tuples, colour maps and
signed letters) derived from one integer seed, so the same seed always gives
the same inputs and the program under test receives nothing but them. Sizes
follow fixed grids and only the content is random, so every seed draws the
same mix of input shapes. Each shape is drawn more than once, so that a
percentile rests on several inputs of similar cost rather than on one input
whose cost depends on its content; one pass over a corpus still takes only
about ten seconds, letting a run repeat it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

Edges = tuple[tuple[str, str], ...]
Letters = tuple[tuple[str, int], ...]

#: named graphs of the verify corpus
NAMED = ("figure", "C6", "P6", "K5", "Petersen", "C12")
#: the counterexample figure: three generators, a and c commute
FIGURE_COLORING = {"a": 1, "b": 2, "c": 3}

#: Random graphs: VERIFY_PER_SHAPE for every (vertices, parts) pair with
#: parts <= vertices, except 8 vertices in 3 or 4 parts. Each graph is
#: multipartite with balanced parts, coloured by its parts, with n // 2 edges
#: beyond a spanning tree, so the halo's size barely depends on the seed.
#: Greedy-coloured free random graphs swung the slowest verify time by half
#: between seeds, since a fourth colour doubles the subdivision factor. The
#: 8-vertex graphs in 3 or 4 parts are the costliest, and whether their halo
#: needs subdividing depends on the seed, which doubles their cost: they set
#: p90 alone and made it swing by a quarter between seeds. With the six named
#: graphs that makes 58 inputs, enough for the two named failures to lie
#: beyond the 90th percentile. Costs come in tiers by vertex count; these
#: counts put p50 among the 6-vertex graphs and p90 among the 7-vertex
#: ones, not in a gap between tiers, where they jumped between seeds.
VERIFY_VERTICES = (4, 5, 6, 7, 8)
VERIFY_PARTS = (2, 3, 4)
VERIFY_SKIPPED = ((8, 3), (8, 4))
VERIFY_PER_SHAPE = 4

EMBED_GRAPHS = ("C6", "K5", "Petersen")
EMBED_WORDS = 54
#: lengths spread evenly over this range, so percentiles fall inside a
#: continuum rather than between steps of a coarse grid
EMBED_LENGTHS = (20, 120)

#: Scale graphs are 3-partite with parts of n/3 vertices, every vertex
#: joined to exactly two vertices of each other part. With every degree
#: fixed, every loop of the halo has the same length, so each graph of a
#: given size costs the same whatever the seed.
SCALE_VERTICES = (21, 21, 24, 24, 27, 27, 30, 30)
SCALE_PARTS = 3
SCALE_MATCHINGS = 2  # perfect matchings per pair of parts


def cycle(n: int, prefix: str) -> tuple[tuple[str, ...], Edges]:
    names = tuple(f"{prefix}{i}" for i in range(1, n + 1))
    return names, tuple((names[i], names[(i + 1) % n]) for i in range(n))


def path(n: int, prefix: str) -> tuple[tuple[str, ...], Edges]:
    names = tuple(f"{prefix}{i}" for i in range(1, n + 1))
    return names, tuple(zip(names, names[1:]))


def complete(n: int, prefix: str) -> tuple[tuple[str, ...], Edges]:
    names = tuple(f"{prefix}{i}" for i in range(1, n + 1))
    return names, tuple((a, b) for i, a in enumerate(names) for b in names[i + 1 :])


def petersen() -> tuple[tuple[str, ...], Edges]:
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    return tuple(outer + inner), tuple(edges)


def named_graph(name: str) -> tuple[tuple[str, ...], Edges]:
    return {
        "figure": lambda: (("a", "b", "c"), (("a", "c"),)),
        "C6": lambda: cycle(6, "a"),
        "P6": lambda: path(6, "p"),
        "K5": lambda: complete(5, "k"),
        "Petersen": petersen,
        "C12": lambda: cycle(12, "a"),
    }[name]()


@dataclass(frozen=True)
class GraphInput:
    id: str
    vertices: tuple[str, ...]
    edges: Edges
    coloring: dict[str, int] | None  # None: the program colours it
    sample_seed: int = 0


@dataclass(frozen=True)
class WordInput:
    id: str
    graph: str
    trivial: bool
    letters: Letters


def verify_corpus(seed: int) -> list[GraphInput]:
    """The named graphs, then random multipartite graphs on a size grid."""
    rng = random.Random(seed)
    corpus = [
        GraphInput(
            name,
            *named_graph(name),
            dict(FIGURE_COLORING) if name == "figure" else None,
            rng.randrange(2**31),
        )
        for name in NAMED
    ]
    for n in VERIFY_VERTICES:
        for k in VERIFY_PARTS:
            if k > n or (n, k) in VERIFY_SKIPPED:
                continue
            for j in range(VERIFY_PER_SHAPE):
                vertices, edges, parts = random_multipartite_graph(rng, n, k, n // 2)
                corpus.append(GraphInput(
                    f"n{n}-k{k}-{j}", vertices, edges, parts, rng.randrange(2**31)
                ))
    return corpus


def _random_letters(rng: random.Random, vertices, length: int) -> list[tuple[str, int]]:
    return [(rng.choice(vertices), rng.choice((1, -1))) for _ in range(length)]


def trivial_word(rng: random.Random, vertices, edges, length: int) -> Letters:
    """w followed by w^-1 shuffled by legal commutations: trivial by
    construction, whatever the program says."""
    half = length // 2
    w = _random_letters(rng, vertices, half)
    inv = [(g, -s) for g, s in reversed(w)]
    commuting = {frozenset(e) for e in edges}
    for _ in range(4 * half):
        j = rng.randrange(half - 1)
        a, b = inv[j][0], inv[j + 1][0]
        if a != b and frozenset((a, b)) in commuting:
            inv[j], inv[j + 1] = inv[j + 1], inv[j]
    return tuple(w + inv)


def nontrivial_word(rng: random.Random, vertices, length: int) -> Letters:
    """A random word with a nonzero exponent sum, which proves it nontrivial."""
    letters = _random_letters(rng, vertices, length)
    sums: dict[str, int] = {}
    for g, s in letters:
        sums[g] = sums.get(g, 0) + s
    if not any(sums.values()):
        g, s = letters[-1]
        letters[-1] = (g, -s)
    return tuple(letters)


def embed_words(seed: int) -> list[WordInput]:
    """Words cycling over graph, then half (random / trivial), with lengths
    rising evenly across the corpus."""
    rng = random.Random(seed)
    ng = len(EMBED_GRAPHS)
    words = []
    for i in range(EMBED_WORDS):
        graph = EMBED_GRAPHS[i % ng]
        trivial = (i // ng) % 2 == 1
        shortest, longest = EMBED_LENGTHS
        length = shortest + round((longest - shortest) * i / max(EMBED_WORDS - 1, 1))
        vertices, edges = named_graph(graph)
        if trivial:
            letters = trivial_word(rng, vertices, edges, length)
        else:
            letters = nontrivial_word(rng, vertices, length)
        kind = "trivial" if trivial else "random"
        words.append(WordInput(f"w{i}-{graph}-{kind}-{length}", graph, trivial, letters))
    return words


def random_multipartite_graph(
    rng: random.Random, n: int, parts: int, extra: int
) -> tuple[tuple[str, ...], Edges, dict[str, int]]:
    """A random spanning tree plus up to ``extra`` further edges, every edge
    joining two of ``parts`` balanced parts; returns the parts as a
    colouring."""
    names = [f"v{i}" for i in range(n)]
    part = {v: i % parts + 1 for i, v in enumerate(names)}
    edges = set()
    for i in range(1, n):
        other = rng.choice([u for u in names[:i] if part[u] != part[names[i]]])
        edges.add(tuple(sorted((other, names[i]))))
    pool = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if part[a] != part[b] and tuple(sorted((a, b))) not in edges
    ]
    rng.shuffle(pool)
    edges.update(tuple(sorted(e)) for e in pool[:extra])
    return tuple(names), tuple(sorted(edges)), part


def random_regular_multipartite_graph(
    rng: random.Random, n: int, parts: int, matchings: int
) -> tuple[tuple[str, ...], Edges, dict[str, int]]:
    """A connected graph on ``parts`` parts of n/parts vertices whose edges
    are ``matchings`` edge-disjoint random perfect matchings between every
    pair of parts; returns the parts as a colouring."""
    size = n // parts
    groups = [[f"v{p * size + i}" for i in range(size)] for p in range(parts)]
    part = {v: p + 1 for p, group in enumerate(groups) for v in group}
    while True:
        edges: set[tuple[str, str]] = set()
        for p in range(parts):
            for q in range(p + 1, parts):
                for _ in range(matchings):
                    while True:
                        image = groups[q][:]
                        rng.shuffle(image)
                        pairs = {tuple(sorted(e)) for e in zip(groups[p], image)}
                        if not pairs & edges:
                            break
                    edges |= pairs
        if _connected(part, edges):
            return tuple(part), tuple(sorted(edges)), part


def _connected(vertices, edges) -> bool:
    adjacent: dict[str, list[str]] = {v: [] for v in vertices}
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    start = next(iter(adjacent))
    seen, stack = {start}, [start]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adjacent)


def scale_corpus(seed: int) -> list[GraphInput]:
    """Regular 3-partite random connected graphs on SCALE_VERTICES."""
    rng = random.Random(seed)
    return [
        GraphInput(
            f"s{i}-n{n}",
            *random_regular_multipartite_graph(rng, n, SCALE_PARTS, SCALE_MATCHINGS),
        )
        for i, n in enumerate(SCALE_VERTICES)
    ]
