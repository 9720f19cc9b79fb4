import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagbraid import (
    Coloring,
    GraphFormatError,
    ImproperColoringError,
    SimpleGraph,
    SizeExceededError,
    UnknownVertexError,
    VerificationError,
    build_context,
    build_halo,
    chromatic_number,
    essential_vertices,
    graph_from_json_dict,
    graph_to_json_dict,
    greedy_color,
    is_planar,
    is_sufficiently_subdivided,
    minimal_subdivision,
    subdivided_halo,
    to_dot,
)
from raagbraid import errors, graphs
from raagbraid.graphs import (
    _arcs,
    _shortest_cycles,
    dumps_canonical,
    subdivide_uniform,
)

from oracles import (
    arcs_by_deletion,
    atlas_connected,
    atlas_graphs,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    cycles_by_paths,
    exhaustive_k_colorable,
    networkx_graph,
    nx_is_planar,
    path_graph,
    per_k_coloring,
    petersen_graph,
    random_connected_graph,
    random_graph,
    random_triangulation,
    smallest_passing_factor,
)
from test_golden import GRAPHS, RAND40, SCALE30, SCALE30_PARTS


def simple_graph_strategy(max_vertices=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_vertices))
        names = [f"v{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        return SimpleGraph.make(names, edges)

    return build()


class TestSimpleGraph:
    def test_normalization_and_dedup(self):
        g = SimpleGraph.make(["b", "a", "c"], [("c", "a"), ("a", "c"), ("a", "b")])
        assert g.vertices == ("a", "b", "c")
        assert g.edges == (("a", "b"), ("a", "c"))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            SimpleGraph.make(["a"], [("a", "a")])

    def test_rejects_undeclared_endpoint(self):
        with pytest.raises(GraphFormatError):
            SimpleGraph.make(["a"], [("a", "b")])

    @pytest.mark.parametrize(
        "edge",
        [("a",), ("a", "b", "c"), (1, "a"), ("a", None), "ab"],
        ids=["one-name", "three-names", "int-endpoint", "none-endpoint", "string"],
    )
    def test_rejects_an_edge_that_is_not_a_pair_of_names(self, edge):
        with pytest.raises(GraphFormatError, match="pair of vertex names"):
            SimpleGraph.make(["a", "b", "c"], [edge])

    def test_rejects_empty_name(self):
        with pytest.raises(GraphFormatError):
            SimpleGraph.make([""])

    def test_neighbors_unknown_vertex(self):
        g = SimpleGraph.make(["a"])
        with pytest.raises(UnknownVertexError):
            g.neighbors("z")

    def test_components(self):
        g = SimpleGraph.make(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert g.components() == (("a", "b"), ("c", "d"))
        assert not g.is_connected()


def assert_int_view_matches_name_view(g: SimpleGraph) -> None:
    """``_index`` inverts ``vertices``, and each ``_adj[i]`` is ascending
    and names the neighbours of ``vertices[i]``, read off the edges."""
    assert g._index == {v: i for i, v in enumerate(g.vertices)}
    named: dict[str, set[str]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        named[u].add(v)
        named[v].add(u)
    assert len(g._adj) == g.n_vertices
    for i, ns in enumerate(g._adj):
        assert list(ns) == sorted(set(ns))
        assert {g.vertices[j] for j in ns} == named[g.vertices[i]] == g.adjacency[g.vertices[i]]


class TestIntView:
    def test_atlas(self):
        for g in atlas_graphs():
            assert_int_view_matches_name_view(g)

    def test_golden_halos(self):
        colored = [(g, greedy_color(g)) for g in (*GRAPHS.values(), RAND40)]
        colored.append((SCALE30, Coloring.make(SCALE30, SCALE30_PARTS)))
        for delta, coloring in colored:
            halo = build_halo(delta, coloring)
            assert_int_view_matches_name_view(halo.gamma)
            assert_int_view_matches_name_view(
                subdivided_halo(halo, coloring.color_count).gamma
            )


class TestColoring:
    def test_improper_rejected(self):
        g = SimpleGraph.make(["a", "b"], [("a", "b")])
        with pytest.raises(ImproperColoringError):
            Coloring.make(g, {"a": 1, "b": 1})

    def test_color_gap_rejected(self):
        g = SimpleGraph.make(["a", "b"])
        with pytest.raises(ImproperColoringError):
            Coloring.make(g, {"a": 1, "b": 3})

    def test_missing_vertex_rejected(self):
        g = SimpleGraph.make(["a", "b"])
        with pytest.raises(ImproperColoringError):
            Coloring.make(g, {"a": 1})

    def test_boolean_color_rejected(self):
        # True == 1 and isinstance(True, int), yet a boolean is no color
        g = SimpleGraph.make(["a", "b", "c"])
        with pytest.raises(ImproperColoringError, match="colors must be integers >= 1"):
            Coloring.make(g, {"a": True, "b": 2, "c": 3})

    def test_large_color_costs_no_memory(self):
        # the colours are checked without listing 1..n
        import tracemalloc

        g = SimpleGraph.make(["a", "b"])
        tracemalloc.start()
        try:
            with pytest.raises(ImproperColoringError, match=r"exactly 1\.\.1000000000000 "):
                Coloring.make(g, {"a": 1, "b": 10**12})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_json_dict_is_a_copy(self):
        g = SimpleGraph.make(["a", "b"], [("a", "b")])
        coloring = Coloring.make(g, {"a": 1, "b": 2})
        coloring.to_json_dict()["assignment"]["a"] = 2
        assert coloring.color_of("a") == 1
        Coloring.make(g, coloring.as_dict)


class TestGreedyColor:
    def test_single_vertex(self):
        col = greedy_color(SimpleGraph.make(["a"]))
        assert col.color_count == 1

    def test_c6_alternates(self):
        col = greedy_color(cycle_graph(6))
        assert col.color_count == 2
        assert [col.color_of(f"a{i}") for i in range(1, 7)] == [1, 2, 1, 2, 1, 2]

    def test_k4_uses_four(self):
        assert greedy_color(complete_graph(4)).color_count == 4


class TestChromaticNumber:
    def test_c6(self):
        assert chromatic_number(cycle_graph(6)).color_count == 2

    def test_k3(self):
        assert chromatic_number(complete_graph(3)).color_count == 3

    def test_petersen_is_3_by_oracle(self):
        g = petersen_graph()
        assert not exhaustive_k_colorable(g, 2)
        assert exhaustive_k_colorable(g, 3)
        assert chromatic_number(g).color_count == 3

    def test_size_bound(self, monkeypatch):
        """The bound is on color placements, not vertices: K17, past the old
        16-vertex cap, needs none, as its clique bound meets greedy."""
        monkeypatch.setattr(errors, "DEFAULT_BUDGET", 0)
        assert chromatic_number(complete_graph(17)).color_count == 17

    def test_budget_is_inclusive(self, monkeypatch):
        import networkx as nx

        grotzsch = networkx_graph(nx.mycielski_graph(4))
        monkeypatch.setattr(errors, "DEFAULT_BUDGET", 77)
        assert chromatic_number(grotzsch).color_count == 4
        monkeypatch.setattr(errors, "DEFAULT_BUDGET", 76)
        with pytest.raises(SizeExceededError, match="over 76 color placements"):
            chromatic_number(grotzsch)

    def test_matches_per_k_search(self):
        """The one search returns the colouring the first k of a search per
        color count finds, on every atlas graph, 324 seeded random graphs of
        8-16 vertices at densities 0.1-0.9, Grötzsch and Chvátal."""
        import networkx as nx

        corpus = atlas_graphs()
        corpus += [
            random_graph(random.Random(1000 * n + 10 * p + seed), n, p / 10)
            for n in range(8, 17)
            for p in range(1, 10)
            for seed in range(4)
        ]
        corpus += [networkx_graph(nx.mycielski_graph(4)), networkx_graph(nx.chvatal_graph())]
        for g in corpus:
            assert chromatic_number(g).as_dict == per_k_coloring(g), g

    def test_past_old_cap_and_recursion_limit(self):
        import networkx as nx

        dodecahedron = nx.dodecahedral_graph()
        assert not nx.is_bipartite(dodecahedron)
        g = networkx_graph(dodecahedron)
        assert (greedy_color(g).color_count, chromatic_number(g).color_count) == (4, 3)
        for g, k in ((cycle_graph(2001), 3), (cycle_graph(2000), 2), (path_graph(3000), 2)):
            coloring = chromatic_number(g)
            assert coloring.color_count == k
            Coloring.make(g, coloring.as_dict)

    def test_agrees_with_oracle_small(self):
        for g in atlas_connected(5):
            k = chromatic_number(g).color_count
            assert exhaustive_k_colorable(g, k)
            assert k == 1 or not exhaustive_k_colorable(g, k - 1)


class TestLinkAndDelete:
    """The link of a vertex in Δ is its neighbor set, ``SimpleGraph.neighbors``."""

    def test_star_center(self):
        g = SimpleGraph.make(["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")])
        assert g.neighbors("c") == {"l1", "l2", "l3"}

    def test_isolated_vertex(self):
        g = SimpleGraph.make(["a", "b"], [])
        assert g.neighbors("a") == frozenset()

    def test_figure_graph_link(self, figure_delta):
        assert figure_delta.neighbors("a") == {"c"}

    def test_link_unknown(self, figure_delta):
        with pytest.raises(UnknownVertexError):
            figure_delta.neighbors("z")


class TestEssentialVertices:
    def test_cycles_have_none(self):
        for n in (3, 4, 5, 6):
            assert essential_vertices(cycle_graph(n)) == frozenset()

    def test_star_center_only(self):
        g = SimpleGraph.make(["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")])
        assert essential_vertices(g) == {"c"}

    def test_figure_halo_junctions(self, figure_context):
        # the chained-loop halo has exactly its two junction vertices at
        # degree four
        ess = essential_vertices(figure_context.halo.gamma)
        assert ess == {"j~a~b", "j~b~c"}


class TestSubdivision:
    def test_c3_n2_unchanged(self):
        g = cycle_graph(3)
        assert minimal_subdivision(g, 2)[1] == g

    def test_c3_n3_passes_checker(self):
        k, out, _ = minimal_subdivision(cycle_graph(3), 3)
        assert is_sufficiently_subdivided(out, 3).ok
        assert k == 2

    def test_k4_n4(self):
        k, out, _ = minimal_subdivision(complete_graph(4), 4)
        report = is_sufficiently_subdivided(out, 4)
        assert report.ok
        # inter-essential arcs >= 3 edges, cycles >= 5 edges
        assert k == 3

    def test_checker_c3_n3_fails_with_loop_witness(self):
        report = is_sufficiently_subdivided(cycle_graph(3), 3)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds == {"loop"}
        assert report.violations[0].length == 3
        assert report.violations[0].required == 4

    def test_checker_n1_always_true(self):
        for g in atlas_connected(5):
            assert is_sufficiently_subdivided(g, 1).ok

    def test_checker_path_violation(self):
        # two essential vertices joined by a single edge
        g = SimpleGraph.make(
            ["u", "w", "a", "b", "c", "d"],
            [("u", "w"), ("u", "a"), ("u", "b"), ("w", "c"), ("w", "d")],
        )
        report = is_sufficiently_subdivided(g, 3)
        assert not report.ok
        paths = [v for v in report.violations if v.kind == "path"]
        assert paths and paths[0].vertices == ("u", "w") and paths[0].length == 1

    def test_alt_threshold_is_stricter(self):
        g = minimal_subdivision(complete_graph(4), 3, path_threshold="paper")[1]
        assert is_sufficiently_subdivided(g, 3, path_threshold="paper").ok
        # with the n+1 convention the same graph may fail
        alt = is_sufficiently_subdivided(g, 3, path_threshold="alt")
        strict = minimal_subdivision(complete_graph(4), 3, path_threshold="alt")[1]
        assert is_sufficiently_subdivided(strict, 3, path_threshold="alt").ok
        assert not alt.ok

    def test_subdivide_output_passes_over_corpus(self):
        from oracles import random_connected_graph

        rng = random.Random(5)
        corpus = atlas_connected(6)
        corpus += [random_connected_graph(rng, 7, rng.randint(0, 6)) for _ in range(15)]
        corpus += [random_connected_graph(rng, 8, rng.randint(0, 6)) for _ in range(15)]
        for g in corpus:
            for n in (1, 2, 3, 4):
                out = minimal_subdivision(g, n)[1]
                assert is_sufficiently_subdivided(out, n).ok

    def test_homeomorphism_type_preserved(self):
        rng = random.Random(7)
        corpus = atlas_connected(6)
        for g in rng.sample(corpus, 25):
            for n in (2, 4):
                out = minimal_subdivision(g, n)[1]
                ess_before = sorted(g.degree(v) for v in essential_vertices(g))
                ess_after = sorted(out.degree(v) for v in essential_vertices(out))
                assert ess_before == ess_after
                rank = lambda h: h.n_edges - h.n_vertices + len(h.components())
                assert rank(g) == rank(out)

    def test_fresh_vertex_naming(self):
        g = SimpleGraph.make(["a", "b"], [("a", "b")])
        out, chains = subdivide_uniform(g, 3)
        assert chains[("a", "b")] == ("a", "a~b~1", "a~b~2", "b")
        assert out.vertices == ("a", "a~b~1", "a~b~2", "b")


def _factor_corpus() -> list[SimpleGraph]:
    from raagbraid import build_halo

    rng = random.Random(11)
    corpus = atlas_connected(6)
    corpus += [random_connected_graph(rng, rng.randint(5, 9), rng.randint(0, 6)) for _ in range(30)]
    corpus += [build_halo(g, chromatic_number(g)).gamma for g in atlas_connected(5)]
    return corpus


def _component_corpus() -> list[SimpleGraph]:
    """Graphs with a cycle through no vertex of degree 3 or more, or with
    no cycle at all: the short-cycle search tests these by component."""

    def union(*parts):
        return SimpleGraph.make(
            [v for g in parts for v in g.vertices], [e for g in parts for e in g.edges]
        )

    forest = SimpleGraph.make(
        ["r", "s", "t", "u", "v", "w", "x"],
        [("r", "s"), ("r", "t"), ("r", "u"), ("v", "w")],
    )
    return [
        cycle_graph(3),
        cycle_graph(4),
        union(petersen_graph(), cycle_graph(4, prefix="c")),
        union(complete_graph(4), cycle_graph(5, prefix="c")),
        union(cycle_graph(7), cycle_graph(3, prefix="c")),
        forest,
        path_graph(5),
    ]


def _cycle_corpus() -> list[SimpleGraph]:
    """Small graphs for the short-cycle search: the factor and component
    corpora, named graphs whose shortest cycles share vertices and edges,
    and seeded random graphs, connected or not."""
    import networkx as nx

    corpus = _factor_corpus() + _component_corpus()
    corpus += [complete_graph(k) for k in range(3, 9)]
    corpus += [cycle_graph(k) for k in range(3, 9)]
    corpus += [petersen_graph(), complete_bipartite(3, 3), complete_bipartite(2, 5)]
    corpus += [
        networkx_graph(G)
        for G in (nx.hypercube_graph(3), nx.heawood_graph(), nx.grid_2d_graph(3, 4))
    ]
    rng = random.Random(24)
    for _ in range(150):
        corpus.append(random_connected_graph(rng, rng.randint(3, 10), rng.randint(0, 8)))
        corpus.append(random_graph(rng, rng.randint(3, 10), rng.choice((0.2, 0.3, 0.5))))
    return corpus


def _arc_shapes() -> list[SimpleGraph]:
    """Essential vertices joined by direct edges, parallel arcs, a loop back
    to one essential vertex, dead ends and a lone cycle."""
    return [
        # theta graph: three parallel arcs between u and w
        SimpleGraph.make(
            ["u", "w", "a", "b", "c"],
            [("u", "a"), ("a", "w"), ("u", "b"), ("b", "w"), ("u", "c"), ("c", "w")],
        ),
        # a loop through u, a dead end at u, and a direct edge u-w
        SimpleGraph.make(
            ["u", "w", "l1", "l2", "d", "w1", "w2"],
            [("u", "l1"), ("l1", "l2"), ("l2", "u"), ("u", "d"), ("u", "w"),
             ("w", "w1"), ("w", "w2")],
        ),
        # K4 beside a lone cycle and a path
        SimpleGraph.make(
            ["k1", "k2", "k3", "k4", "c1", "c2", "c3", "q1", "q2"],
            [("k1", "k2"), ("k1", "k3"), ("k1", "k4"), ("k2", "k3"), ("k2", "k4"),
             ("k3", "k4"), ("c1", "c2"), ("c2", "c3"), ("c1", "c3"), ("q1", "q2")],
        ),
        complete_bipartite(3, 3),
        petersen_graph(),
    ]


class TestSubdivisionFactor:
    """The factor read off the violations equals the least factor a search
    over every candidate finds."""

    @pytest.mark.parametrize("path_threshold", ["paper", "alt"])
    def test_matches_search(self, path_threshold):
        for g in _factor_corpus():
            for n in range(1, 6):
                k = smallest_passing_factor(g, n, path_threshold)
                factor, out, _ = minimal_subdivision(g, n, path_threshold)
                assert factor == k, (g, n)
                assert out == subdivide_uniform(g, k)[0]

    def test_short_cycle_search_matches_girth(self):
        import networkx as nx

        for g in _factor_corpus() + _component_corpus():
            G = nx.Graph(list(g.edges))
            G.add_nodes_from(g.vertices)
            girth = nx.girth(G)
            for m in range(9):
                cycles = _shortest_cycles(g, m)
                if girth <= m:
                    assert {len(c) for c in cycles} == {girth}, (g, m)
                else:
                    assert cycles == [], (g, m)

    def test_shortest_cycles_match_path_search(self):
        """The cycles of least length among those of at most m edges, from
        a search over every simple path, in the same form and order."""
        for g in _cycle_corpus():
            every = cycles_by_paths(g, 9)
            for m in range(10):
                short = [c for c in every if len(c) <= m]
                least = min(map(len, short), default=0)
                expected = sorted(c for c in short if len(c) == least)
                assert _shortest_cycles(g, m) == expected, (g, m)

    def test_reports_do_not_hang_on_the_hash_seed(self):
        """The search walks each vertex's neighbours in id order, which no
        hash seed moves; failing reports, whose shortest cycles share
        edges, read the same under two seeds."""
        script = (
            "import networkx as nx\n"
            "from oracles import complete_bipartite, networkx_graph, petersen_graph\n"
            "from raagbraid import is_sufficiently_subdivided\n"
            "from raagbraid.graphs import dumps_canonical\n"
            "cube = networkx_graph(nx.hypercube_graph(3))\n"
            "cases = [(complete_bipartite(3, 3), 4), (cube, 4),\n"
            "         (complete_bipartite(2, 5), 4), (petersen_graph(), 5)]\n"
            "for g, n in cases:\n"
            "    print(dumps_canonical(is_sufficiently_subdivided(g, n).to_json_dict()), end='')\n"
        )
        here = Path(__file__).resolve().parent
        path = os.pathsep.join((str(here.parent / "src"), str(here)))
        outs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outs[0] == outs[1]
        assert outs[0].count('"loop"') == 9 + 6 + 10 + 12

    def test_arcs_match_deletion_oracle(self):
        """Each arc once, in the order of its smaller end and then its
        first vertex after that end."""
        corpus = _factor_corpus() + _component_corpus() + _arc_shapes()
        corpus += [subdivide_uniform(g, 3)[0] for g in _arc_shapes()]
        for g in corpus:
            names = g.vertices
            arcs = [
                (names[u], names[w], tuple(names[i] for i in interior))
                for u, w, interior in _arcs(g)
                if u != w
            ]
            assert arcs == arcs_by_deletion(g), g
            assert len(set(arcs)) == len(arcs)

    def test_closed_walks_are_the_cycles_through_one_essential_vertex_or_none(self):
        """``_arcs``' closed walks (u, u, interior) are the simple cycles
        through at most one essential vertex, each once: from that vertex,
        in the order of (u, the first vertex after u) among the arcs, or
        from the least vertex of a cycle through none, after every walk from
        an essential vertex and in the order of u."""
        corpus = _component_corpus() + _arc_shapes() + atlas_graphs()
        corpus += [subdivide_uniform(g, 2)[0] for g in _component_corpus() + _arc_shapes()]
        for g in corpus:
            names, ess = g.vertices, essential_vertices(g)
            walks = list(_arcs(g))
            cycles = [(names[u], *map(names.__getitem__, interior)) for u, w, interior in walks if u == w]
            expected = {c for c in cycles_by_paths(g, g.n_vertices) if len(ess.intersection(c)) <= 1}
            written = [min(r[i:] + r[:i] for r in (c, c[::-1]) for i in range(len(c))) for c in cycles]
            assert sorted(written) == sorted(expected), g
            order = [(names[u] not in ess, u, (*interior, w)[0]) for u, w, interior in walks]
            assert order == sorted(order), g
            for cycle in cycles:
                assert cycle[0] in ess or cycle[0] == min(cycle), g

    def test_passing_graph_is_returned_as_is(self):
        for g in (cycle_graph(3), cycle_graph(6), petersen_graph()):
            assert is_sufficiently_subdivided(g, 2).ok
            k, out, chains = minimal_subdivision(g, 2)
            assert k == 1 and out is g
            assert chains == {e: e for e in g.edges}

    def test_reports_computed(self, monkeypatch):
        checked = []
        original = graphs._subdivision_report

        def counted(g, *args):
            checked.append(g)
            return original(g, *args)

        monkeypatch.setattr(graphs, "_subdivision_report", counted)
        g = complete_graph(4)
        _, out, _ = minimal_subdivision(g, 4)
        assert checked == [g, out] and checked[1] is out
        checked.clear()
        minimal_subdivision(cycle_graph(6), 2)
        assert len(checked) == 1

    def test_dense_graph_reports_its_triangles(self):
        # K_8 at 8 strands: its 28 edges are short arcs, and of its 8,018
        # cycles under 9 edges the report lists the 56 triangles
        report = is_sufficiently_subdivided(complete_graph(8), 8)
        assert [v.kind for v in report.violations] == ["path"] * 28 + ["loop"] * 56
        assert {v.length for v in report.violations[28:]} == {3}

    def test_failing_subdivision_is_caught(self, monkeypatch):
        # the check on the graph returned stays as a safety net
        monkeypatch.setattr(graphs, "subdivide_uniform", lambda g, k: (g, {}))
        with pytest.raises(VerificationError):
            minimal_subdivision(cycle_graph(3), 3)


def _girth_corpus() -> list[SimpleGraph]:
    """The short-cycle corpora, the atlas through 6 vertices and the golden
    halos, each also subdivided by 2 and by 3."""
    corpus = _cycle_corpus() + _arc_shapes()
    corpus += [g for g in atlas_graphs() if g.n_vertices <= 6]
    colored = [(g, greedy_color(g)) for g in (*GRAPHS.values(), RAND40)]
    colored.append((SCALE30, Coloring.make(SCALE30, SCALE30_PARTS)))
    corpus += [build_halo(delta, coloring).gamma for delta, coloring in colored]
    return corpus + [subdivide_uniform(g, k)[0] for k in (2, 3) for g in corpus]


class TestGirthBound:
    """The report searches for short cycles only where its arcs leave room
    for one, and lists the same cycles as the search run on every graph."""

    def test_loops_match_the_unconditional_search(self):
        for g in _girth_corpus():
            for n in range(1, 8):
                expected = _shortest_cycles(g, n)
                for path_threshold in graphs.PATH_THRESHOLDS:
                    report = graphs._subdivision_report(g, n, path_threshold)
                    loops = [v.vertices for v in report.violations if v.kind == "loop"]
                    assert loops == expected, (g, n, path_threshold)

    @pytest.fixture
    def searches(self, monkeypatch):
        """The graphs the cycle search runs on."""
        searched = []
        original = graphs._shortest_cycles

        def counted(g, max_edges):
            searched.append(g)
            return original(g, max_edges)

        monkeypatch.setattr(graphs, "_shortest_cycles", counted)
        return searched

    def test_three_colour_halo_is_not_searched(self, searches):
        # its arcs have 2 edges, so a cycle through two junctions has 4 > 3
        build_context(SCALE30, Coloring.make(SCALE30, SCALE30_PARTS))
        assert searches == []

    def test_only_the_base_halo_of_k4_is_searched(self, searches):
        # its private triangles are cycles through one essential vertex; the
        # subdivided halo's arcs prove its girth
        k4 = complete_graph(4)
        ctx = build_context(k4, chromatic_number(k4))
        assert searches == [build_halo(k4, chromatic_number(k4)).gamma]
        assert ctx.halo.gamma != searches[0]

    def test_a_lone_triangle_is_searched(self, searches):
        # arcs of 3 edges leave no room for a cycle of 3, but the component
        # of degree-2 vertices is one
        long_arcs = subdivide_uniform(complete_graph(4), 3)[0]
        triangle = cycle_graph(3, prefix="c")
        g = SimpleGraph.make(
            long_arcs.vertices + triangle.vertices, long_arcs.edges + triangle.edges
        )
        report = is_sufficiently_subdivided(g, 3)
        assert searches == [g]
        assert [v.vertices for v in report.violations] == [("c1", "c2", "c3")]


class TestPlanarity:
    def test_k5(self):
        assert not is_planar(complete_graph(5))

    def test_k33(self):
        assert not is_planar(complete_bipartite(3, 3))

    def test_c6_halo_planar(self, c6):
        from raagbraid import build_halo, chromatic_number

        halo = build_halo(c6, chromatic_number(c6))
        assert is_planar(halo.gamma)

    def test_petersen_not_planar(self):
        assert not is_planar(petersen_graph())

    def test_size_bound(self):
        # no vertex cap: 65 isolated vertices are planar
        big = SimpleGraph.make([f"v{i}" for i in range(65)])
        assert is_planar(big)

    def test_euler_reject_path(self):
        # K7 fails the edge-count bound before any planarity search
        assert not is_planar(complete_graph(7))


def _with_trees(rng: random.Random, g: SimpleGraph, size: int) -> SimpleGraph:
    """g with ``size`` new vertices, each hung from a random vertex before
    it: planar trees attached to g."""
    vertices = list(g.vertices)
    edges = list(g.edges)
    for i in range(size):
        name = f"t{i}"
        edges.append((rng.choice(vertices), name))
        vertices.append(name)
    return SimpleGraph.make(vertices, edges)


def _near_triangulation(rng: random.Random, n: int) -> SimpleGraph:
    """A maximal planar graph with 1-6 random edges removed and up to as
    many random non-edges added: it passes the Euler bound, and whether it
    is planar depends on where the new edges land."""
    g = random_triangulation(rng, n)
    edges = set(g.edges)
    removed = rng.randint(1, 6)
    for e in rng.sample(sorted(edges), removed):
        edges.discard(e)
    for _ in range(rng.randint(0, removed)):
        u, v = rng.sample(g.vertices, 2)
        edges.add((u, v) if u < v else (v, u))
    return SimpleGraph.make(g.vertices, edges)


class TestPlanarityOracle:
    """The left-right test agrees with networkx's ``check_planarity``."""

    def test_atlas(self):
        corpus = atlas_graphs()
        assert len(corpus) == 1253
        for g in corpus:
            assert is_planar(g) == nx_is_planar(g), g

    def test_random_graphs(self):
        rng = random.Random(1010)
        planar = disconnected = isolated = 0
        for i in range(600):
            n = rng.randint(8, 60)
            if i % 2:
                # mean degree 0.5-5: sparse forests up to dense graphs
                g = random_graph(rng, n, rng.uniform(0.5, 5.0) / (n - 1))
            else:
                g = _near_triangulation(rng, n)
            verdict = nx_is_planar(g)
            assert is_planar(g) == verdict, g
            planar += verdict
            disconnected += not g.is_connected()
            isolated += any(not g.adjacency[v] for v in g.vertices)
        assert 150 < planar < 450
        assert disconnected > 50 and isolated > 50

    @pytest.mark.parametrize("base", [complete_graph(5), complete_bipartite(3, 3)], ids=["K5", "K33"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_subdivided_kuratowski_with_trees(self, base, k):
        rng = random.Random(k)
        subdivided, _ = subdivide_uniform(base, k)
        for size in (0, 1, 5, 20):
            g = _with_trees(rng, subdivided, size)
            assert not nx_is_planar(g)
            assert not is_planar(g), (k, size)

    def test_halos(self, figure_delta, figure_coloring):
        # the named verify graphs, coloured as verify colours them; C8,
        # whose halo is planar, and C10, whose halo is not; then the halos
        # of Petersen (67 vertices), C12 (114) and rand40, all non-planar
        from raagbraid import build_halo

        halos = [build_halo(g, chromatic_number(g)).gamma for g in atlas_connected(5)]
        halos.append(build_halo(figure_delta, figure_coloring).gamma)
        rand40 = random_connected_graph(random.Random(40), 40, 20)
        halos += [
            build_halo(g, greedy_color(g)).gamma
            for g in (
                cycle_graph(6), path_graph(6), complete_graph(5), cycle_graph(8), cycle_graph(10),
                petersen_graph(), cycle_graph(12), rand40,
            )
        ]
        verdicts = []
        for h in halos:
            verdicts.append(nx_is_planar(h))
            assert is_planar(h) == verdicts[-1], h
        assert verdicts[-5:] == [True, False, False, False, False]
        assert [h.n_vertices for h in halos[-3:-1]] == [67, 114]


class TestPlanarityIsIterative:
    """Both depth-first passes run on an explicit stack: graphs deeper than
    the default recursion limit are decided without a RecursionError."""

    @pytest.fixture(autouse=True)
    def default_recursion_limit(self):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(saved)

    def test_long_cycle_planar(self):
        g = cycle_graph(20_000)
        assert is_planar(g)

    def test_long_subdivided_k33_not_planar(self):
        g, _ = subdivide_uniform(complete_bipartite(3, 3), 1112)
        assert g.n_vertices > 10_000
        assert not is_planar(g)


class TestSerialization:
    def test_round_trip(self):
        g = cycle_graph(5)
        assert graph_from_json_dict(graph_to_json_dict(g)) == g

    def test_json_is_canonical(self):
        g = SimpleGraph.make(["b", "a"], [("b", "a")])
        data = graph_to_json_dict(g)
        assert data == {"vertices": ["a", "b"], "edges": [["a", "b"]]}

    def test_bad_json_rejected(self):
        with pytest.raises(GraphFormatError):
            graph_from_json_dict({"vertices": "abc"})
        with pytest.raises(GraphFormatError):
            graph_from_json_dict({"vertices": ["a"], "edges": [["a"]]})

    def test_deterministic_bytes(self):
        g = cycle_graph(6)
        one = dumps_canonical(graph_to_json_dict(g))
        two = dumps_canonical(graph_to_json_dict(SimpleGraph.make(g.vertices, g.edges)))
        assert one == two

    def test_dot_output(self):
        g = SimpleGraph.make(["a", "b"], [("a", "b")])
        dot = to_dot(g, greedy_color(g))
        assert dot.startswith("graph G {")
        assert '"a" -- "b";' in dot


@settings(max_examples=60, deadline=None)
@given(simple_graph_strategy())
def test_chromatic_not_above_greedy(g):
    exact = chromatic_number(g)
    greedy = greedy_color(g)
    assert exact.color_count <= greedy.color_count
    for col in (exact, greedy):
        Coloring.make(g, col.as_dict)
