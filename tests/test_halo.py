import copy
import json
import pickle
import random
import tracemalloc
from itertools import product

import pytest

from raagbraid import (
    Coloring,
    EmptyGraphError,
    GraphFormatError,
    Halo,
    ImproperColoringError,
    SimpleGraph,
    SizeExceededError,
    UnknownVertexError,
    build_halo,
    chromatic_number,
    greedy_color,
    halo_from_json_dict,
    halo_to_dot,
    halo_to_json_dict,
    is_sufficiently_subdivided,
    subdivided_halo,
    verify_halo,
)
from raagbraid.halo import (
    AXIOM_BASEPOINT,
    AXIOM_CONNECTED,
    AXIOM_EDGE_DISJOINT,
    AXIOM_NON_EDGE,
    AXIOM_SIMPLE_LOOP,
    HaloViolation,
    _halo_size,
)

from raagbraid import errors
from raagbraid.graphs import minimal_subdivision, subdivide_uniform

from oracles import (
    atlas_connected,
    canonical_loops,
    complete_graph,
    cycle_graph,
    halo_pair_violations,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_proper_coloring,
    random_regular_multipartite,
)


def halo_for(delta, mapping=None):
    coloring = (
        Coloring.make(delta, mapping) if mapping else chromatic_number(delta)
    )
    return build_halo(delta, coloring)


def verify_built_and_loaded(h):
    """``verify_halo(h)``, after checking that ``h`` loaded from its JSON,
    which carries no loop reading filled in and reads its loops from their
    names, gets the same report."""
    report = verify_halo(h)
    loaded = halo_from_json_dict(halo_to_json_dict(h))
    assert loaded == h and "_loop_ids" not in vars(loaded)
    assert verify_halo(loaded) == report
    return report


class TestBuildHalo:
    def test_single_vertex_private_triangle(self):
        h = halo_for(SimpleGraph.make(["a"]))
        assert len(h.artin_loops) == 1
        loop = h.loop_of("a")
        assert loop[0] == loop[-1] == "x_1"
        assert len(loop) == 4  # a triangle
        assert verify_halo(h).ok

    def test_empty_graph_rejected(self):
        g = SimpleGraph.make([])
        from raagbraid import greedy_color

        with pytest.raises(EmptyGraphError):
            build_halo(g, greedy_color(g))

    def test_reserved_name_rejected(self):
        g = SimpleGraph.make(["a~b"])
        with pytest.raises(GraphFormatError):
            build_halo(g, Coloring.make(g, {"a~b": 1}))

    def test_coloring_of_another_graph_rejected(self, figure_delta):
        # made for a graph without c, so c is left uncolored
        other = SimpleGraph.make(["a", "b"])
        with pytest.raises(ImproperColoringError):
            build_halo(figure_delta, Coloring.make(other, {"a": 1, "b": 2}))

    def test_adjacent_vertices_sharing_a_color_rejected(self, figure_delta):
        # proper without the edge a-c, improper for Δ
        edgeless = SimpleGraph.make(figure_delta.vertices)
        with pytest.raises(ImproperColoringError):
            build_halo(figure_delta, Coloring.make(edgeless, {"a": 1, "b": 2, "c": 1}))

    def test_loop_edges_of_unknown_vertex(self, figure_delta, figure_coloring):
        h = build_halo(figure_delta, figure_coloring)
        with pytest.raises(UnknownVertexError):
            h.loop_edges("zz")

    def test_figure_shape(self, figure_delta, figure_coloring):
        h = build_halo(figure_delta, figure_coloring)
        la, lb, lc = (set(h.loop_of(v)) for v in "abc")
        assert la & lb == {"j~a~b"}
        assert lb & lc == {"j~b~c"}
        assert la & lc == set()
        assert verify_halo(h).ok

    def test_c6_structure(self, c6):
        coloring = chromatic_number(c6)
        h = build_halo(c6, coloring)
        assert len(h.artin_loops) == 6
        odd = [f"a{i}" for i in (1, 3, 5)]
        even = [f"a{i}" for i in (2, 4, 6)]
        for v in odd:
            assert h.loop_of(v)[0] == "x_1"
        for v in even:
            assert h.loop_of(v)[0] == "x_2"
        # each loop is a square through its basepoint and one junction
        for v in odd + even:
            assert len(h.loop_of(v)) == 5
        # opposite vertices meet at a junction, adjacent ones are disjoint
        for i in (1, 2, 3):
            a, b = f"a{i}", f"a{i + 3}"
            assert len(set(h.loop_of(a)) & set(h.loop_of(b))) == 1
        for i in range(1, 7):
            a, b = f"a{i}", f"a{i % 6 + 1}"
            assert not set(h.loop_of(a)) & set(h.loop_of(b))
        assert verify_halo(h).ok

    def test_k2_needs_graft_for_connectivity(self):
        g = SimpleGraph.make(["a", "b"], [("a", "b")])
        h = halo_for(g)
        assert h.gamma.is_connected()
        assert not set(h.loop_of("a")) & set(h.loop_of("b"))
        assert verify_halo(h).ok

    def test_disconnected_delta(self):
        g = SimpleGraph.make(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        h = halo_for(g)
        assert verify_halo(h).ok

    def test_loop_count_and_basepoints(self):
        for g in atlas_connected(5):
            h = halo_for(g)
            assert len(h.artin_loops) == g.n_vertices
            assert len(h.basepoints) == h.coloring.color_count

    def test_no_vertex_on_three_loops_except_basepoints(self):
        for g in atlas_connected(5):
            h = halo_for(g)
            basepoints = set(h.basepoint_of.values())
            membership = {}
            for a, loop in h.artin_loops:
                for v in set(loop):
                    membership.setdefault(v, set()).add(a)
            for v, owners in membership.items():
                if len(owners) >= 3:
                    assert v in basepoints

    def test_determinism(self, c6):
        coloring = chromatic_number(c6)
        assert build_halo(c6, coloring) == build_halo(c6, coloring)

    def test_relabeled_graph_still_verifies(self, c6):
        names = {f"a{i}": w for i, w in enumerate(
            ["north", "east", "south", "west", "up", "down"], start=1
        )}
        relabeled = SimpleGraph.make(
            names.values(), [(names[u], names[v]) for u, v in c6.edges]
        )
        h = build_halo(relabeled, chromatic_number(relabeled))
        assert verify_halo(h).ok


class TestVerifyHalo:
    def test_canonical_halos_pass_both_colorings(self):
        for g in atlas_connected(5):
            for coloring in (greedy_color(g), chromatic_number(g)):
                assert verify_built_and_loaded(build_halo(g, coloring)).ok

    def test_random_colorings_pass(self):
        rng = random.Random(11)
        for g in rng.sample(atlas_connected(7), 40):
            coloring = Coloring.make(g, random_proper_coloring(g, rng))
            h = build_halo(g, coloring)
            assert verify_built_and_loaded(h).ok

    def test_deleted_loop_edge_names_simple_loop(self, c6):
        h = halo_for(c6)
        victim = h.loop_edges("a1")[0]
        broken = Halo(
            gamma=SimpleGraph.make(
                h.gamma.vertices, [e for e in h.gamma.edges if e != victim]
            ),
            artin_loops=h.artin_loops,
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        report = verify_built_and_loaded(broken)
        assert not report.ok
        assert AXIOM_SIMPLE_LOOP in report.axioms_violated()

    def test_forced_adjacent_intersection_names_edge_axiom(self, c6):
        h = halo_for(c6)
        # reroute the loop of a2 through a vertex of the loop of a1
        shared = h.loop_of("a1")[1]
        loop2 = list(h.loop_of("a2"))
        old = loop2[1]
        loop2[1] = shared
        gamma = SimpleGraph.make(
            h.gamma.vertices,
            list(h.gamma.edges)
            + [tuple(sorted((loop2[0], shared))), tuple(sorted((shared, loop2[2])))],
        )
        broken = Halo(
            gamma=gamma,
            artin_loops=tuple(
                (a, tuple(loop2) if a == "a2" else loop)
                for a, loop in h.artin_loops
            ),
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        report = verify_built_and_loaded(broken)
        assert not report.ok
        assert AXIOM_EDGE_DISJOINT in report.axioms_violated()

    def test_moved_basepoint_names_basepoint_axiom(self, c6):
        h = halo_for(c6)
        moved = tuple(
            (c, v if c != 1 else h.loop_of("a1")[1]) for c, v in h.basepoints
        )
        broken = Halo(
            gamma=h.gamma,
            artin_loops=h.artin_loops,
            basepoints=moved,
            coloring=h.coloring,
            delta=h.delta,
        )
        report = verify_built_and_loaded(broken)
        assert not report.ok
        assert AXIOM_BASEPOINT in report.axioms_violated()

    @pytest.mark.parametrize("color", [0, 9])
    @pytest.mark.parametrize("on_loop", [False, True], ids=["basepoint", "loop-vertex"])
    def test_basepoint_for_a_color_out_of_range(
        self, figure_delta, figure_coloring, color, on_loop
    ):
        # a basepoint for a color no vertex has, at another color's
        # basepoint or at a vertex inside a loop
        h = build_halo(figure_delta, figure_coloring)
        vertex = h.loop_of("a")[1] if on_loop else "x_1"
        broken = Halo(
            gamma=h.gamma,
            artin_loops=h.artin_loops,
            basepoints=tuple(sorted(h.basepoints + ((color, vertex),))),
            coloring=h.coloring,
            delta=h.delta,
        )
        report = verify_built_and_loaded(broken)
        assert report.violations == (
            HaloViolation(
                AXIOM_BASEPOINT,
                f"basepoint {vertex!r} is for color {color}, outside 1..3",
                (str(color),),
            ),
        )

    def test_same_color_loops_meeting_off_basepoint(self):
        # two same-colored loops must meet exactly at their basepoint
        g = SimpleGraph.make(["a", "b"])
        h = halo_for(g, {"a": 1, "b": 1})
        assert verify_built_and_loaded(h).ok
        # pull b's loop off the basepoint onto a private triangle elsewhere
        loop_b = ("p~b~9", "p~b~1", "p~b~2", "p~b~9")
        gamma = SimpleGraph.make(
            list(h.gamma.vertices) + ["p~b~9"],
            list(h.gamma.edges)
            + [("p~b~1", "p~b~9"), ("p~b~2", "p~b~9"), ("p~b~9", "x_1")],
        )
        broken = Halo(
            gamma=gamma,
            artin_loops=(("a", h.loop_of("a")), ("b", loop_b)),
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        report = verify_built_and_loaded(broken)
        assert not report.ok
        violated = report.axioms_violated()
        assert AXIOM_BASEPOINT in violated or AXIOM_NON_EDGE in violated

    def test_disconnected_gamma_flagged(self):
        g = SimpleGraph.make(["a", "b"], [("a", "b")])
        h = halo_for(g)
        # drop the grafted connector
        graft_edges = [e for e in h.gamma.edges if e[0].startswith("g~") or e[1].startswith("g~")]
        gamma = SimpleGraph.make(
            [v for v in h.gamma.vertices if not v.startswith("g~")],
            [e for e in h.gamma.edges if e not in graft_edges],
        )
        broken = Halo(
            gamma=gamma,
            artin_loops=h.artin_loops,
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        report = verify_built_and_loaded(broken)
        assert not report.ok
        assert AXIOM_CONNECTED in report.axioms_violated()

    def test_junction_on_a_third_loop(self):
        """Four loops of four colours through one vertex v: every pair meets
        only at v, a junction that lies on the other two loops."""
        names = ["a", "b", "c", "d"]
        delta = SimpleGraph.make(names)
        coloring = Coloring.make(delta, {a: i for i, a in enumerate(names, start=1)})
        loops = {
            a: (f"x_{i}", f"p~{a}~1", "v", f"p~{a}~2", f"x_{i}")
            for i, a in enumerate(names, start=1)
        }
        gamma = SimpleGraph.make(
            [v for loop in loops.values() for v in loop],
            [e for loop in loops.values() for e in zip(loop, loop[1:])],
        )
        h = Halo(
            gamma=gamma,
            artin_loops=tuple(sorted(loops.items())),
            basepoints=tuple((i, f"x_{i}") for i in range(1, 5)),
            coloring=coloring,
            delta=delta,
        )
        report = verify_built_and_loaded(h)
        assert not report.ok
        assert [(v.axiom, v.message, v.witnesses) for v in report.violations] == [
            (
                AXIOM_NON_EDGE,
                f"junction 'v' of {a!r}, {b!r} also lies on loops {others}",
                (a, b, "v", *others),
            )
            for a, b, others in [
                ("a", "b", ["c", "d"]),
                ("a", "c", ["b", "d"]),
                ("a", "d", ["b", "c"]),
                ("b", "c", ["a", "d"]),
                ("b", "d", ["a", "c"]),
                ("c", "d", ["a", "b"]),
            ]
        ]

    def test_loop_vertex_outside_gamma(self, figure_delta, figure_coloring):
        """Each loop vertex that Γ lacks gets its own fresh id: its steps
        are missing edges, and two loops through it meet there."""
        h = build_halo(figure_delta, figure_coloring)
        outside = {"a": "z~0", "b": "z~1", "c": "z~0"}
        loops = {a: (h.loop_of(a)[0], z) + h.loop_of(a)[1:] for a, z in outside.items()}
        broken = Halo(
            gamma=h.gamma,
            artin_loops=tuple(sorted({**h.loops, **loops}.items())),
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        report = verify_built_and_loaded(broken)
        missing = [
            (AXIOM_SIMPLE_LOOP, f"loop of {a!r} uses a missing edge {s!r}-{t!r}", (a, s, t))
            for a in outside
            for s, t in zip(loops[a][:3], loops[a][1:3])
        ]
        assert [(v.axiom, v.message, v.witnesses) for v in report.violations] == missing + [
            (AXIOM_EDGE_DISJOINT, "loops of adjacent 'a', 'c' share ['z~0']", ("a", "c", "z~0"))
        ]


class TestSubdividedHalo:
    def test_single_vertex_n1_unchanged(self):
        h = halo_for(SimpleGraph.make(["a"]))
        sub = subdivided_halo(h, 1)
        assert sub.gamma == h.gamma
        assert verify_halo(sub).ok

    def test_figure_n3(self, figure_delta, figure_coloring):
        h = build_halo(figure_delta, figure_coloring)
        sub = subdivided_halo(h, 3)
        assert verify_halo(sub).ok
        report = is_sufficiently_subdivided(sub.gamma, 3)
        assert report.ok
        for a, loop in sub.artin_loops:
            assert len(loop) - 1 >= 4

    def test_c6_n2(self, c6):
        h = halo_for(c6)
        sub = subdivided_halo(h, 2)
        assert verify_halo(sub).ok
        assert is_sufficiently_subdivided(sub.gamma, 2).ok
        for a, loop in sub.artin_loops:
            assert len(loop) - 1 >= 3

    def test_strand_count_must_match_colors(self, c6):
        h = halo_for(c6)
        with pytest.raises(GraphFormatError):
            subdivided_halo(h, 3)

    def test_basepoints_and_starts_preserved(self):
        g = SimpleGraph.make(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        h = halo_for(g)
        sub = subdivided_halo(h, 3)
        assert sub.basepoints == h.basepoints
        for a, loop in sub.artin_loops:
            assert loop[0] == h.loop_of(a)[0]

    def test_corpus_subdivided_halos_pass(self):
        for g in atlas_connected(5):
            coloring = chromatic_number(g)
            h = build_halo(g, coloring)
            sub = subdivided_halo(h, coloring.color_count)
            assert verify_halo(sub).ok
            assert is_sufficiently_subdivided(sub.gamma, coloring.color_count).ok


class TestHaloSerialization:
    def test_round_trip(self, figure_delta, figure_coloring):
        h = build_halo(figure_delta, figure_coloring)
        data = json.loads(json.dumps(halo_to_json_dict(h)))
        assert halo_from_json_dict(data) == h

    def test_json_shape(self, figure_delta, figure_coloring):
        h = build_halo(figure_delta, figure_coloring)
        data = halo_to_json_dict(h)
        assert set(data) == {"vertices", "edges", "loops", "basepoints", "delta", "coloring"}
        assert data["basepoints"]["1"] == "x_1"
        assert data["loops"]["a"][0] == data["loops"]["a"][-1] == "x_1"

    def test_missing_key_rejected(self):
        with pytest.raises(GraphFormatError):
            halo_from_json_dict({"vertices": [], "edges": []})

    def test_dot_export(self, figure_delta, figure_coloring):
        h = build_halo(figure_delta, figure_coloring)
        dot = halo_to_dot(h)
        assert dot.startswith("graph Halo {")
        assert "doublecircle" in dot
        assert "color=" in dot


def _atlas_cases():
    """(id, Δ, colouring): every connected Δ of up to 6 vertices under
    greedy and exact colourings."""
    cases = []
    for i, g in enumerate(atlas_connected(6)):
        cases.append((f"atlas{i}-greedy", g, greedy_color(g)))
        cases.append((f"atlas{i}-exact", g, chromatic_number(g)))
    return cases


def _trusted_cases():
    """(id, Δ, colouring): every connected Δ of up to 6 vertices under
    greedy and exact colourings, K2, K4 and K11 (grafted; K11 pins the
    string order of 11 anchors), a cone (its apex's triangle a component of
    its own), the join of two three-edge paths (two components of two
    colours each), a disconnected Δ and a 30-vertex regular 3-partite Δ
    coloured by its parts."""
    cases = _atlas_cases()
    k2 = SimpleGraph.make(["a", "b"], [("a", "b")])
    cases.append(("k2", k2, greedy_color(k2)))
    p, q = path_graph(4), path_graph(4, prefix="q")
    cone = SimpleGraph.make([*p.vertices, "o"], [*p.edges, *product(p.vertices, ["o"])])
    join = SimpleGraph.make(
        p.vertices + q.vertices, [*p.edges, *q.edges, *product(p.vertices, q.vertices)]
    )
    named = {"k4": complete_graph(4), "k11": complete_graph(11), "cone": cone, "join": join}
    cases += [(name, g, chromatic_number(g)) for name, g in named.items()]
    two = SimpleGraph.make(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    cases.append(("disconnected", two, greedy_color(two)))
    g, parts = random_regular_multipartite(random.Random(30), 3, 10, 2)
    cases.append(("scale30", g, Coloring.make(g, parts)))
    return cases


class TestTrustedConstruction:
    """``build_halo`` and ``subdivide_uniform`` build their graphs with the
    plain constructor; ``SimpleGraph.make`` would validate, normalise,
    de-duplicate and sort what they emit, so its result must be equal.
    ``build_halo`` also fills in the readings that other halos make from
    their names, so those must be equal too."""

    @pytest.fixture(scope="class")
    def halos(self):
        return [(name, build_halo(g, coloring)) for name, g, coloring in _trusted_cases()]

    def test_gamma_is_what_make_returns(self, halos):
        for name, h in halos:
            gamma = h.gamma
            assert gamma == SimpleGraph.make(gamma.vertices, gamma.edges), name

    def test_edges_are_the_loops_and_the_grafts(self, halos):
        grafted = set()
        for name, h in halos:
            loop_edges = {e for a, _ in h.artin_loops for e in h.loop_edges(a)}
            graft_edges = {e for e in h.gamma.edges if any(v.startswith("g~") for v in e)}
            assert not loop_edges & graft_edges, name
            assert set(h.gamma.edges) == loop_edges | graft_edges, name
            loop_vertices = {v for _, loop in h.artin_loops for v in loop}
            assert set(h.gamma.vertices) == (
                loop_vertices | {v for e in graft_edges for v in e}
            ), name
            # the grafts as read off the loops' union: the least basepoint
            # name of each component, the first joined to each other one
            loops_only = SimpleGraph.make(sorted(loop_vertices), loop_edges)
            bases = set(h.basepoint_of.values())
            anchors = sorted(min(bases.intersection(c)) for c in loops_only.components())
            assert graft_edges == {
                tuple(sorted(e)) for k, other in enumerate(anchors[1:], start=1)
                for e in ((anchors[0], f"g~{k}~1"), (f"g~{k}~1", other))
            }, name
            if graft_edges:
                grafted.add(name)
        # complete Δs, K2 among them, are the ones whose loops never meet
        assert "k2" in grafted and "disconnected" not in grafted

    def test_filled_in_reading_is_the_one_read_from_names(self, halos):
        """Γ's integer view and the loops' ids that ``build_halo`` fills in
        equal those a fresh graph and halo read from the names."""
        for name, h in halos:
            gamma = SimpleGraph(h.gamma.vertices, h.gamma.edges)
            fresh = Halo(gamma, h.artin_loops, h.basepoints, h.coloring, h.delta)
            assert vars(h.gamma)["_index"] == gamma._index, name
            assert vars(h.gamma)["_adj"] == gamma._adj, name
            assert vars(h)["_loop_ids"] == fresh._loop_ids, name
            assert not fresh._loop_ids.outside, name
            # one int object per id: Γ's view holds those of ``_index``
            held = {id(i) for i in h.gamma._index.values()}
            assert all(id(j) in held for row in h.gamma._adj for j in row), name

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda h: pickle.loads(pickle.dumps(h))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_read_the_loops_again(self, halos, clone):
        for name, h in halos[::11] + halos[-3:]:
            twin = clone(h)
            assert twin == h and "_loop_ids" not in vars(twin), name
            assert verify_halo(twin).ok, name
            assert twin._loop_ids == h._loop_ids, name

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_subdivision_is_what_make_returns(self, halos, k):
        # "a~ab~1" sorts after "ab": the chain's last edge is stored flipped
        prefixed = SimpleGraph.make(["a", "ab", "b"], [("a", "ab"), ("ab", "b"), ("a", "b")])
        for g in [h.gamma for _, h in halos[::7] + halos[-3:]] + [prefixed]:
            sub, chains = subdivide_uniform(g, k)
            assert sub == SimpleGraph.make(sub.vertices, sub.edges)
            assert sub.n_edges == k * g.n_edges
            assert set(chains) == set(g.edges)


class TestPairOracle:
    """``verify_halo``'s pair violations, in order and with their
    witnesses, against ``oracles.halo_pair_violations``, which intersects
    every two loops' vertex sets; each halo is also checked as loaded from
    its JSON."""

    PAIR_AXIOMS = (AXIOM_EDGE_DISJOINT, AXIOM_NON_EDGE)

    @staticmethod
    def pair_violations(h):
        return [
            (v.axiom, v.message, v.witnesses)
            for v in verify_built_and_loaded(h).violations
            if v.axiom in TestPairOracle.PAIR_AXIOMS
        ]

    @staticmethod
    def rethread(h, loops):
        """``h`` with the loops replaced, Γ grown by their new vertices and
        steps."""
        new = dict(h.artin_loops) | loops
        steps = [e for loop in loops.values() for e in zip(loop, loop[1:])]
        return Halo(
            gamma=SimpleGraph.make(
                set(h.gamma.vertices) | {v for loop in loops.values() for v in loop},
                list(h.gamma.edges) + steps,
            ),
            artin_loops=tuple(sorted(new.items())),
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )

    @staticmethod
    def insert(loop, v):
        """The loop through ``v`` right after its start."""
        return (loop[0], v) + loop[1:]

    def corruptions(self, h, rng):
        """(kind, corrupted halo) for each corruption that applies."""
        loops, color, delta = h.loops, h.coloring.color_of, h.delta
        names = sorted(loops)
        basepoints = set(h.basepoint_of.values())
        junctions = sorted(
            v for v in {v for loop in loops.values() for v in loop}
            if v.startswith("j~")
        )
        out = []
        if len(names) >= 2:
            a, b = rng.sample(names, 2)
            out.append(("vertex-on-two-loops", self.rethread(
                h, {a: self.insert(loops[a], "z~1"), b: self.insert(loops[b], "z~1")}
            )))
        if junctions:
            j = rng.choice(junctions)
            a = rng.choice([d for d in names if j in loops[d]])
            out.append(("junction-dropped", self.rethread(
                h, {a: tuple("z~2" if v == j else v for v in loops[a])}
            )))
            others = [d for d in names if j not in loops[d]]
            if others:
                c = rng.choice(others)
                out.append(("junction-on-a-third-loop", self.rethread(
                    h, {c: self.insert(loops[c], j)}
                )))
        if delta.edges:
            a, b = rng.choice(delta.edges)
            v = rng.choice([v for v in loops[b] if v not in basepoints])
            out.append(("adjacent-loops-meet", self.rethread(
                h, {a: self.insert(loops[a], v)}
            )))
        same = [(a, b) for a in names for b in names if a < b and color(a) == color(b)]
        if same:
            a, b = rng.choice(same)
            # b's loop moved off its basepoint onto a private vertex of a's
            v = loops[a][1]
            out.append(("same-colour-off-basepoint", self.rethread(
                h, {b: (v,) + loops[b][1:-1] + (v,)}
            )))
        return out

    def test_canonical_halos_have_none(self):
        for g in [cycle_graph(6)] + atlas_connected(5):
            h = halo_for(g)
            assert self.pair_violations(h) == halo_pair_violations(h) == []

    def test_seeded_corruptions(self):
        kinds = set()
        for i, g in enumerate([cycle_graph(6)] + atlas_connected(5)):
            for seed in range(3):
                rng = random.Random(100 * i + seed)
                h = halo_for(g, None if seed else greedy_color(g).as_dict)
                for kind, broken in self.corruptions(h, rng):
                    expected = halo_pair_violations(broken)
                    assert expected, (kind, g)
                    assert self.pair_violations(broken) == expected, (kind, g)
                    kinds.add(kind)
        assert kinds == {
            "vertex-on-two-loops", "junction-dropped", "junction-on-a-third-loop",
            "adjacent-loops-meet", "same-colour-off-basepoint",
        }


def _budget_cases():
    """(id, Δ, colouring): the connected atlas to 6 vertices, greedy and
    exact, and the golden graphs under their colourings."""
    cases = _atlas_cases()
    figure = SimpleGraph.make(["a", "b", "c"], [("a", "c")])
    cases.append(("figure", figure, Coloring.make(figure, {"a": 1, "b": 2, "c": 3})))
    for name, g in {"c6": cycle_graph(6), "k4": complete_graph(4),
                    "petersen": petersen_graph(), "c12": cycle_graph(12)}.items():
        cases.append((name, g, greedy_color(g)))
    rand40 = random_connected_graph(random.Random(40), 40, 20)
    cases.append(("rand40", rand40, greedy_color(rand40)))
    scale30, parts = random_regular_multipartite(random.Random(30), 3, 10, 2)
    cases.append(("scale30", scale30, Coloring.make(scale30, parts)))
    return cases


def _graft_count(h) -> int:
    return sum(v.startswith("g~") for v in h.gamma.vertices)


class TestHaloSize:
    """``build_halo`` predicts Γ's size from Δ's degrees and colour classes
    before it makes a name, and ``minimal_subdivision`` the subdivision's
    before it makes a chain; each raises over ``errors.DEFAULT_BUDGET``."""

    @pytest.fixture(scope="class")
    def halos(self):
        return [(name, g, c, build_halo(g, c)) for name, g, c in _budget_cases()]

    def test_prediction_is_the_built_size(self, halos):
        grafted = 0
        for name, g, c, h in halos:
            vertices, edges = _halo_size(g, c)
            grafts = _graft_count(h)
            assert h.gamma.n_vertices - vertices == grafts, name
            assert h.gamma.n_edges - edges == 2 * grafts, name
            assert grafts <= c.color_count - 1, name
            grafted += grafts > 0
        assert grafted

    def test_subdivided_size(self, halos):
        subdivided = 0
        for name, _, c, h in halos:
            k, sub, _ = minimal_subdivision(h.gamma, c.color_count)
            gamma = h.gamma
            assert sub.n_vertices == gamma.n_vertices + (k - 1) * gamma.n_edges, name
            assert sub.n_edges == k * gamma.n_edges, name
            subdivided += k > 1
        assert subdivided

    def test_budget_is_inclusive(self, monkeypatch):
        g = cycle_graph(6)
        c = greedy_color(g)
        vertices, edges = _halo_size(g, c)
        grafts = c.color_count - 1
        most = (vertices + grafts, edges + 2 * grafts)
        monkeypatch.setattr(errors, "DEFAULT_BUDGET", max(most))
        build_halo(g, c)
        monkeypatch.setattr(errors, "DEFAULT_BUDGET", max(most) - 1)
        with pytest.raises(SizeExceededError, match=f"{most[0]} vertices and {most[1]} edges"):
            build_halo(g, c)

    def test_subdivision_budget_is_inclusive(self, monkeypatch):
        g = complete_graph(4)
        c = chromatic_number(g)
        h = build_halo(g, c)
        k, sub, _ = minimal_subdivision(h.gamma, c.color_count)
        assert k > 1
        monkeypatch.setattr(errors, "DEFAULT_BUDGET", sub.n_edges)
        assert subdivided_halo(h, c.color_count).gamma == sub
        monkeypatch.setattr(errors, "DEFAULT_BUDGET", sub.n_edges - 1)
        with pytest.raises(
            SizeExceededError, match=f"{sub.n_vertices} vertices and {sub.n_edges} edges"
        ):
            subdivided_halo(h, c.color_count)

    def test_over_budget_raises_before_any_name(self):
        """A 3,000-vertex path's halo would have millions of vertices: the
        prediction raises first, having allocated next to nothing."""
        g = path_graph(3000)
        c = greedy_color(g)
        vertices, edges = _halo_size(g, c)
        assert vertices > 6_000_000
        tracemalloc.start()
        try:
            with pytest.raises(SizeExceededError, match=f"{edges + 2 * (c.color_count - 1)} edges"):
                build_halo(g, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"


def _one_pass_cases():
    """(id, Δ, colouring): the connected atlas to 6 vertices, greedy and
    exact; graphs of the benchmark's ``scale`` shape, coloured by their
    parts and greedily; and a Δ whose names are prefixes of one another or
    sort against numeric order."""
    cases = _atlas_cases()
    for size in (7, 8, 9, 10):
        g, parts = random_regular_multipartite(random.Random(size), 3, size, 2)
        cases.append((f"scale{3 * size}-parts", g, Coloring.make(g, parts)))
        cases.append((f"scale{3 * size}-greedy", g, greedy_color(g)))
    names = ["v1", "v10", "v2", "a", "a b", "ab", "é"]
    tricky = SimpleGraph.make(names, [("v1", "v10"), ("a", "ab"), ("a b", "é"), ("v2", "ab")])
    cases.append(("names-greedy", tricky, greedy_color(tricky)))
    cases.append(("names-exact", tricky, chromatic_number(tricky)))
    for seed in range(5):
        mapping = random_proper_coloring(tricky, random.Random(seed))
        cases.append((f"names-random{seed}", tricky, Coloring.make(tricky, mapping)))
    return cases


class TestOnePassConstruction:
    """``build_halo``'s one pass over the pairs a < b against
    ``oracles.canonical_loops``, which scans all of Δ for each vertex."""

    def test_loops_and_vertices(self):
        for name, delta, coloring in _one_pass_cases():
            h = build_halo(delta, coloring)
            expected = canonical_loops(delta, coloring)
            assert h.artin_loops == expected, name
            on_loops = {v for _, loop in expected for v in loop}
            grafts = {v for v in h.gamma.vertices if v.startswith("g~")}
            assert set(h.gamma.vertices) == on_loops | grafts, name
