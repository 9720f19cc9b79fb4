from itertools import product

import pytest

from raagbraid import (
    ConfigEdgePath,
    Configuration,
    GraphFormatError,
    IllegalStepError,
    Step,
    artin_basepoint,
    build_context,
    cell_counts,
    chromatic_number,
    edge_path,
)

from oracles import (
    atlas_connected,
    atlas_graphs,
    brute_force_udc_counts,
    cycle_graph,
    path_graph,
    replay_psi,
)


class TestCells:
    def test_configuration_canonical_order(self):
        c = Configuration.make(["z", "c", "a~b~1"])
        assert c.cells == ("a~b~1", "c", "z")

    def test_configuration_rejects_collision(self):
        with pytest.raises(GraphFormatError, match="vertex 'a' holds two tokens"):
            Configuration.make(["b", "a", "a"])


class TestBuildUdc:
    def test_one_strand_is_the_graph(self):
        for g in (cycle_graph(4), path_graph(5)):
            assert cell_counts(g, 1) == (g.n_vertices, g.n_edges)

    def test_p3_two_strands(self):
        assert cell_counts(path_graph(3), 2) == (3, 2)

    def test_c4_two_strands(self):
        assert cell_counts(cycle_graph(4), 2) == (6, 8)

    def test_counts_match_brute_force_corpus(self):
        for g in atlas_connected(5):
            for n in (1, 2, 3):
                if n > g.n_vertices:
                    continue
                assert cell_counts(g, n) == brute_force_udc_counts(g, n)

    def test_counts_match_brute_force_every_small_graph(self):
        # isolated vertices and disconnected graphs included, every n up to V
        corpus = [g for g in atlas_graphs() if 0 < g.n_vertices <= 5]
        assert len(corpus) == 52
        for g in corpus:
            for n in range(1, g.n_vertices + 1):
                assert cell_counts(g, n) == brute_force_udc_counts(g, n), (g, n)

    def test_counts_are_unbounded(self, monkeypatch):
        """Counting is closed-form, so no budget bounds it: K10 at 5 strands
        has 252 + 45 * C(8, 4) = 3,402 cells, counted under a budget of 0."""
        from oracles import complete_graph

        from raagbraid import errors

        monkeypatch.setattr(errors, "DEFAULT_BUDGET", 0)
        assert cell_counts(complete_graph(10), 5) == (252, 3150)

    def test_strand_count_bounds(self):
        g = path_graph(2)
        with pytest.raises(GraphFormatError):
            cell_counts(g, 0)
        with pytest.raises(GraphFormatError):
            cell_counts(g, 3)


def moves(p):
    return [(step.edge, step.source) for step in p.steps]


class TestArtinLoopPath:
    """The generators' loops, read off the halo by ``EmbeddingContext.loop_path``."""

    def test_power_zero_empty(self, figure_context):
        ctx = figure_context
        p = ctx.loop_path("a", 0)
        assert len(p) == 0
        assert p.base == ctx.base == artin_basepoint(ctx.halo)

    def test_single_traversal(self, figure_context):
        ctx = figure_context
        p = ctx.loop_path("a", 1)
        assert len(p) == len(ctx.halo.loop_of("a")) - 1 == 4
        # the oracle's walk is legal and closes at the basepoints
        assert moves(p) == replay_psi(ctx.halo, [("a", 1)], squared=False)[0]
        # only the strand of color 1 moves: no step touches another token
        resting = set(p.base.cells) - {"x_1"}
        assert not resting & {v for step in p.steps for v in step.edge}

    def test_negative_power_is_reverse(self, figure_context):
        fwd = figure_context.loop_path("a", 1)
        bwd = figure_context.loop_path("a", -1)
        # the same edges in the opposite order, each crossed from its other end
        assert moves(bwd) == [
            (edge, edge[1] if source == edge[0] else edge[0])
            for edge, source in reversed(moves(fwd))
        ]

    def test_power_k_is_concatenation(self, figure_context):
        single = figure_context.loop_path("a", 1)
        triple = figure_context.loop_path("a", 3)
        assert triple.steps == single.steps * 3

    def test_never_illegal_over_corpus(self):
        """Every loop, at every power ψ uses, is legal step by step and is
        the oracle's walk, over every connected graph of up to 6 vertices at
        both thresholds: the loops are read off the halo and replayed only
        here."""
        for g, path_threshold in product(atlas_connected(6), ("paper", "alt")):
            ctx = build_context(g, chromatic_number(g), path_threshold)
            for v in g.vertices:
                for power in (1, -1, 2, -2):
                    p = ctx.loop_path(v, power)
                    assert edge_path(ctx.halo.gamma, ctx.base, moves(p)) == p
                    assert moves(p) == replay_psi(ctx.halo, [(v, power)], squared=False)[0]
                    assert len(p) == abs(power) * (len(ctx.halo.loop_of(v)) - 1)


class TestPathsAndConcat:
    def test_identity_concat(self, figure_context):
        p = figure_context.loop_path("a", 1)
        empty = figure_context.loop_path("a", 0)
        assert empty.base == p.base
        assert ConfigEdgePath(empty.base, empty.steps + p.steps) == p

    def test_path_times_reverse_doubles_length(self, figure_context):
        ctx = figure_context
        p = ctx.loop_path("a", 1)
        double = ConfigEdgePath(p.base, p.steps + ctx.loop_path("a", -1).steps)
        assert len(double) == 2 * len(p)
        assert moves(double) == replay_psi(ctx.halo, [("a", 1), ("a", -1)], squared=False)[0]

    def test_loop_composition_length_adds(self, figure_context):
        ctx = figure_context
        pa = ctx.loop_path("a", 1)
        pb = ctx.loop_path("b", 1)
        combined = ConfigEdgePath(pa.base, pa.steps + pb.steps)
        assert moves(combined) == replay_psi(ctx.halo, [("a", 1), ("b", 1)], squared=False)[0]
        assert len(combined) == len(pa) + len(pb)
        h = ctx.halo
        assert len(combined) == (len(h.loop_of("a")) - 1) + (len(h.loop_of("b")) - 1)

    def test_illegal_step_collision(self):
        g = path_graph(3)  # p1 - p2 - p3
        base = Configuration.make(["p1", "p2"])
        with pytest.raises(IllegalStepError):
            edge_path(g, base, [(("p1", "p2"), "p1")])

    def test_step_needs_token(self):
        g = path_graph(3)
        base = Configuration.make(["p1", "p3"])
        with pytest.raises(IllegalStepError):
            edge_path(g, base, [(("p2", "p3"), "p2")])


class TestEdgePathRejections:
    """Each check ``edge_path`` runs on a move, one input per check."""

    def test_move_along_a_non_edge(self):
        base = Configuration.make(["p1"])
        with pytest.raises(GraphFormatError, match=r"\('p1', 'p3'\) is not an edge"):
            edge_path(path_graph(3), base, [(("p3", "p1"), "p1")])

    def test_source_off_its_edge(self):
        base = Configuration.make(["p1"])
        with pytest.raises(IllegalStepError, match="step source 'p1' is not on edge"):
            edge_path(path_graph(3), base, [(("p2", "p3"), "p1")])

    def test_self_loop_move(self):
        base = Configuration.make(["p1"])
        with pytest.raises(GraphFormatError, match="self-loop at 'p1'"):
            edge_path(path_graph(3), base, [(("p1", "p1"), "p1")])

    def test_base_holding_an_edge_cell(self):
        # make() holds vertices only, but a Configuration can be built directly
        base = Configuration((("p1", "p2"),))
        with pytest.raises(GraphFormatError, match="all-vertex configuration"):
            edge_path(path_graph(3), base, [])

    def test_steps_are_normalised_values(self):
        base = Configuration.make(["p1"])
        path = edge_path(path_graph(3), base, [(("p2", "p1"), "p1"), (("p3", "p2"), "p2")])
        assert path.steps == (Step(("p1", "p2"), "p1"), Step(edge=("p2", "p3"), source="p2"))
        step = path.steps[0]
        assert isinstance(step, Step)
        assert (step.edge, step.source) == (("p1", "p2"), "p1")
        assert step != Step(("p1", "p2"), "p2")
        assert hash(step) == hash(Step(("p1", "p2"), "p1"))
        assert len({step, Step(("p1", "p2"), "p1"), path.steps[1]}) == 2
