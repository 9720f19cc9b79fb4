import json
import random
import time
import tracemalloc
from functools import cached_property
from itertools import accumulate, islice, product

import pytest

from raagbraid import (
    Coloring,
    ConfigEdgePath,
    EmbeddingContext,
    GraphFormatError,
    GroupWord,
    Halo,
    InputError,
    RaagPresentation,
    SimpleGraph,
    SizeExceededError,
    UnknownVertexError,
    VerificationError,
    abelianization,
    build_context,
    build_halo,
    check_homomorphism,
    chromatic_number,
    context_from_halo,
    counterexample_report,
    counterexample_roles,
    counterexample_word,
    edge_path,
    greedy_color,
    halo_from_json_dict,
    halo_to_json_dict,
    injectivity_spot_check,
    is_trivial,
    phi,
    phi_psi,
    pinch_trace,
    psi,
    subdivided_halo,
    verify_suite,
)
from raagbraid import configspace, embedding, errors, graphs
from raagbraid import halo as halo_mod
from raagbraid.cli import main
from raagbraid.embedding import InjectivityReport, edge_generator_name
from raagbraid.graphs import dumps_canonical, graph_to_json_dict

from oracles import (
    atlas_connected,
    complete_graph,
    cycle_graph,
    edges_commute,
    free_word_spellings,
    path_graph,
    per_element_failures,
    petersen_graph,
    random_connected_graph,
    random_multipartite,
    reference_sample_stream,
    reference_samples,
    relator_supports,
    replay_psi,
)
from test_golden import GRAPHS, SCALE30, SCALE30_PARTS, context

W = GroupWord.parse


@pytest.fixture
def verified(monkeypatch):
    """Every halo ``verify_halo`` checks. ``embedding`` imports it by name,
    so both modules are patched."""
    halos = []
    original = halo_mod.verify_halo

    def counted(h):
        halos.append(h)
        return original(h)

    monkeypatch.setattr(halo_mod, "verify_halo", counted)
    monkeypatch.setattr(embedding, "verify_halo", counted)
    return halos


class TestBuildContext:
    def test_figure_context(self, figure_context):
        ctx = figure_context
        assert ctx.n == 3
        # one edge-group generator per halo edge
        assert len(ctx.a_gamma.generators) == ctx.halo.gamma.n_edges
        for a in "abc":
            assert len(ctx.halo.loop_of(a)) - 1 >= 4

    def test_single_vertex_free_of_rank_3(self):
        delta = SimpleGraph.make(["a"])
        ctx = build_context(delta, chromatic_number(delta))
        # a triangle's edges pairwise share vertices, so nothing commutes
        gens = ctx.a_gamma.generators
        assert len(gens) == 3
        assert not any(ctx.a_gamma.commute(e, f) for e in gens for f in gens)

    def test_c6_context_planar(self, c6):
        ctx = build_context(c6, chromatic_number(c6))
        from raagbraid import is_planar

        assert is_planar(ctx.halo.gamma)

    def test_orientation_is_lexicographic(self, figure_context):
        """A letter of a loop's image is positive exactly when its step
        leaves the edge's smaller endpoint."""
        ctx = figure_context
        signs = set()
        for v in ctx.delta.vertices:
            for power in (1, -1):
                path = ctx.loop_path(v, power)
                letters = phi(path, ctx).letters
                assert len(letters) == len(path.steps)
                for step, (gen, sign) in zip(path.steps, letters):
                    assert gen == edge_generator_name(step.edge)
                    assert (sign > 0) == (step.source == min(step.edge))
                    signs.add(sign)
        assert signs == {1, -1}

    def test_context_from_unverified_halo_rejected(self, c6):
        coloring = chromatic_number(c6)
        h = build_halo(c6, coloring)
        broken = Halo(
            gamma=h.gamma,
            artin_loops=tuple((a, loop) for a, loop in h.artin_loops if a != "a1"),
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        with pytest.raises(VerificationError):
            context_from_halo(broken)

    @pytest.mark.parametrize("path_threshold", ["paper", "alt"])
    def test_context_subdivides_the_halo_it_is_given(self, path_threshold):
        g = complete_graph(4)
        h = build_halo(g, chromatic_number(g))
        ctx = EmbeddingContext(h, path_threshold)
        assert ctx.halo == subdivided_halo(h, 4, path_threshold)
        assert ctx.halo != h
        # a halo that suffices already is kept as it is
        assert EmbeddingContext(ctx.halo, path_threshold).halo is ctx.halo

    @pytest.mark.parametrize(
        "loop, message",
        [
            (
                ("x_1", "p~k2~1", "p~k1~2", "x_1"),
                r"loop of 'k1': step 1, 'x_1'-'p~k2~1', is no edge",
            ),
            ((), "loop of 'k1': it is empty"),
        ],
    )
    def test_unthreadable_loop_is_a_format_error(self, loop, message):
        # K4's halo needs subdividing for 4 strands
        g = complete_graph(4)
        h = build_halo(g, chromatic_number(g))
        broken = Halo(
            gamma=h.gamma,
            artin_loops=(("k1", loop),) + h.artin_loops[1:],
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        with pytest.raises(GraphFormatError, match=message):
            subdivided_halo(broken, 4)
        with pytest.raises(GraphFormatError, match=message):
            EmbeddingContext(broken)


class TestLazySourceGroup:
    """A(Δ) is built on first read, and one passed in is reused."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``RaagPresentation`` constructed from a graph."""
        presentations = []
        init = RaagPresentation.__init__

        def counting(self, graph):
            init(self, graph)
            presentations.append(self)

        monkeypatch.setattr(RaagPresentation, "__init__", counting)
        return presentations

    def test_homomorphism_check_builds_none(self, c6, built):
        ctx = build_context(c6, greedy_color(c6))
        assert check_homomorphism(ctx).ok
        assert built == []
        group = ctx.source_group
        assert built == [group] and group.graph == ctx.delta
        assert ctx.source_group is group

    def test_suite_builds_one_and_the_context_reuses_it(self, c6, built, monkeypatch):
        contexts = []
        init = EmbeddingContext.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            contexts.append(self)

        monkeypatch.setattr(EmbeddingContext, "__init__", recording)
        assert verify_suite(c6, greedy_color(c6), max_len=2, sample_count=20).passed
        (group,) = built
        (ctx,) = contexts
        assert group.graph == c6 and ctx.source_group is group

    def test_another_graphs_group_is_not_used(self, c6, figure_delta):
        halo = subdivided_halo(build_halo(c6, greedy_color(c6)), 2)
        ctx = EmbeddingContext(halo, source_group=RaagPresentation(figure_delta))
        assert ctx.source_group.graph == c6


class TestLazyEdgeNames:
    """The halo edges' generator names are built on first use."""

    @pytest.fixture
    def named(self, monkeypatch):
        """Every edge passed to ``edge_generator_name``."""
        edges = []

        def counting(edge):
            edges.append(edge)
            return edge_generator_name(edge)

        monkeypatch.setattr(embedding, "edge_generator_name", counting)
        return edges

    def test_homomorphism_check_names_none(self, c6, named):
        ctx = build_context(c6, greedy_color(c6))
        assert check_homomorphism(ctx).ok
        assert named == []
        phi(ctx.loop_path("a1", 1), ctx)
        assert sorted(named) == sorted(ctx.halo.gamma.edges)
        ctx.a_gamma
        assert len(named) == ctx.halo.gamma.n_edges

    def test_non_edge_raises(self, figure_context):
        with pytest.raises(UnknownVertexError, match="not an edge of the halo graph"):
            figure_context.edge_generator(("x_1", "x_2"))


class TestPhi:
    def test_empty_path(self, figure_context):
        ctx = figure_context
        assert len(phi(psi(W(""), ctx), ctx)) == 0

    def test_loop_image_is_edge_sequence(self, figure_context):
        ctx = figure_context
        image = GroupWord(ctx.letter_image("a", 1, False))
        loop = ctx.halo.loop_of("a")
        assert len(image) == len(loop) - 1
        # letters name the traversed edges in order
        for (gen, _), (s, t) in zip(image.letters, zip(loop, loop[1:])):
            assert gen == edge_generator_name(tuple(sorted((s, t))))

    def test_reverse_path_gives_inverse_word(self, figure_context):
        ctx = figure_context
        fwd = GroupWord(ctx.letter_image("a", 1, False))
        bwd = GroupWord(ctx.letter_image("a", -1, False))
        assert bwd == fwd.inverse()

    def test_functoriality(self, figure_context):
        ctx = figure_context
        p = psi(W("a"), ctx, squared=False)
        q = psi(W("b"), ctx, squared=False)
        product = ConfigEdgePath(p.base, p.steps + q.steps)
        assert phi(product, ctx) == phi(p, ctx) * phi(q, ctx)
        assert phi(psi(W("a^-1"), ctx, squared=False), ctx) == phi(p, ctx).inverse()


class TestPsi:
    def test_empty_word(self, figure_context):
        assert len(psi(W(""), figure_context)) == 0

    def test_single_letter_squared_length(self, figure_context):
        ctx = figure_context
        p = psi(W("a"), ctx, squared=True)
        assert len(p) == 2 * (len(ctx.halo.loop_of("a")) - 1)

    def test_two_letters_additive(self, figure_context):
        ctx = figure_context
        p = psi(W("a b"), ctx, squared=True)
        la = len(ctx.halo.loop_of("a")) - 1
        lb = len(ctx.halo.loop_of("b")) - 1
        assert len(p) == 2 * la + 2 * lb

    def test_unknown_generator(self, figure_context):
        with pytest.raises(UnknownVertexError):
            psi(W("z"), figure_context)

    def test_closed_at_basepoint(self, figure_context):
        ctx = figure_context
        p = psi(W("a b^-1 c"), ctx)
        moves, _ = replay_psi(ctx.halo, W("a b^-1 c").letters, squared=True)
        assert [(step.edge, step.source) for step in p.steps] == moves
        assert p.base.cells == ("x_1", "x_2", "x_3")

    def test_loop_that_does_not_close_rejected(
        self, tmp_path, capsys, figure_delta, figure_coloring
    ):
        """A loop is read off the halo without a replay, so a halo whose
        loop does not close is turned away where its axioms are checked:
        by ``context_from_halo``, by the suite's first check and so by the
        CLI."""
        # a's loop stops one vertex short of its basepoint
        h = build_halo(figure_delta, figure_coloring)
        corrupted = Halo(
            gamma=h.gamma,
            artin_loops=tuple((a, loop[:-1] if a == "a" else loop) for a, loop in h.artin_loops),
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        with pytest.raises(VerificationError, match="simple-loop"):
            context_from_halo(corrupted)
        report = verify_suite(figure_delta, figure_coloring, halo=corrupted)
        assert not report.passed
        assert [(c.name, c.passed) for c in report.checks] == [("halo-axioms", False)]
        assert "simple-loop" in report.checks[0].details["axioms_violated"]
        path = tmp_path / "halo.json"
        path.write_text(json.dumps(halo_to_json_dict(corrupted)))
        assert main(["verify", "--input", str(path)]) == 4
        assert "Traceback" not in capsys.readouterr().err

    def test_no_path_replays_the_loops(self, tmp_path, monkeypatch, figure_delta, figure_coloring):
        """The loops are read off the halo, so nothing on the way to a
        context, a check or an image moves tokens through ``edge_path``."""

        def replayed(*args):
            raise AssertionError("a loop was replayed through edge_path")

        monkeypatch.setattr(configspace, "edge_path", replayed)
        monkeypatch.setattr(embedding, "edge_path", replayed, raising=False)
        path = tmp_path / "figure.json"
        path.write_text(dumps_canonical(graph_to_json_dict(figure_delta)))
        for path_threshold in ("paper", "alt"):
            ctx = build_context(figure_delta, figure_coloring, path_threshold)
            assert check_homomorphism(ctx).ok
            assert context_from_halo(ctx.halo, path_threshold).halo == ctx.halo
            assert verify_suite(
                figure_delta, figure_coloring, max_len=2, path_threshold=path_threshold
            ).passed
            argv = ["embed", "--input", str(path), "a b", "--path-threshold", path_threshold]
            assert main(argv) == 0


class TestPhiPsi:
    def test_counterexample_booleans(self, figure_delta, figure_context):
        ctx = figure_context
        g = counterexample_word(figure_delta)
        assert not is_trivial(g, ctx.source_group)
        assert is_trivial(phi_psi(g, ctx, squared=False), ctx.a_gamma)
        assert not is_trivial(phi_psi(g, ctx, squared=True), ctx.a_gamma)

    def test_length_bookkeeping(self, figure_context):
        ctx = figure_context
        w = W("a b c^-1 a")
        expected = sum(
            2 * (len(ctx.halo.loop_of(gen)) - 1) for gen, _ in w.letters
        )
        assert len(phi_psi(w, ctx, squared=True)) == expected

    def test_image_abelianization_tracks_source(self, figure_context):
        ctx = figure_context
        w = W("a b a^-1 c")
        image = phi_psi(w, ctx, squared=True)
        sums = abelianization(image, ctx.a_gamma)
        # each loop edge is crossed twice per squared letter, signs included
        support_c = {g for g, _ in ctx.letter_image("c", 1, True)}
        assert all(sums[g] != 0 for g in support_c)
        support_a = {g for g, _ in ctx.letter_image("a", 1, True)}
        assert all(sums[g] == 0 for g in support_a)


def _oracle_graphs():
    figure = SimpleGraph.make(["a", "b", "c"], [("a", "c")])
    return {
        "figure": (figure, Coloring.make(figure, {"a": 1, "b": 2, "c": 3})),
        "c6": (cycle_graph(6), None),
        "k5": (complete_graph(5), None),
        "petersen": (petersen_graph(), None),
    }


@pytest.fixture(scope="module", params=sorted(_oracle_graphs()))
def oracle_case(request):
    """A context and seeded random words (with inverse letters and free
    cancellations) over one graph of the oracle corpus."""
    g, coloring = _oracle_graphs()[request.param]
    ctx = build_context(g, coloring or chromatic_number(g))
    rng = random.Random(request.param)
    words = [W("")] + [
        GroupWord(
            tuple(
                (rng.choice(g.vertices), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 12))
            )
        )
        for _ in range(6)
    ]
    return ctx, words


class TestPsiOracle:
    """phi_psi, psi and phi against a replay of the token moves that keeps
    its own occupancy set."""

    @pytest.mark.parametrize("squared", [True, False])
    def test_phi_psi_matches_replay(self, oracle_case, squared):
        ctx, words = oracle_case
        for w in words:
            _, image = replay_psi(ctx.halo, w.letters, squared)
            assert list(phi_psi(w, ctx, squared).letters) == image

    @pytest.mark.parametrize("squared", [True, False])
    def test_phi_of_psi_matches_replay(self, oracle_case, squared):
        ctx, words = oracle_case
        for w in words:
            moves, image = replay_psi(ctx.halo, w.letters, squared)
            path = psi(w, ctx, squared)
            assert path.base == ctx.base
            assert [(step.edge, step.source) for step in path.steps] == moves
            assert list(phi(path, ctx).letters) == image

    @pytest.mark.parametrize("squared", [True, False])
    def test_psi_moves_pass_edge_path(self, oracle_case, squared):
        ctx, words = oracle_case
        for w in words:
            path = psi(w, ctx, squared)
            moves = [(step.edge, step.source) for step in path.steps]
            assert edge_path(ctx.halo.gamma, ctx.base, moves) == path


class TestEdgeRelationOracle:
    """The edge group's relation against closures read off the halo's edges."""

    def test_commute_on_all_pairs(self, oracle_case):
        ctx, _ = oracle_case
        edges = ctx.halo.gamma.edges
        for e in edges:
            for f in edges:
                want = e != f and edges_commute(e, f)
                assert ctx.a_gamma.commute(ctx.edge_generator(e), ctx.edge_generator(f)) == want

    def test_link_of_every_edge(self, oracle_case):
        ctx, _ = oracle_case
        edges = ctx.halo.gamma.edges
        for e in edges:
            want = {edge_generator_name(f) for f in edges if f != e and edges_commute(e, f)}
            assert ctx.a_gamma.link(ctx.edge_generator(e)) == want

    def test_cross_pairs_against_closures(self, oracle_case):
        ctx, _ = oracle_case
        for r in check_homomorphism(ctx).relators:
            a_moves, _ = replay_psi(ctx.halo, [(r.edge[0], 1)], True)
            b_moves, _ = replay_psi(ctx.halo, [(r.edge[1], 1)], True)
            want = all(
                e != f and edges_commute(e, f) for e, _ in a_moves for f, _ in b_moves
            )
            assert r.cross_pairs_commute == want


class TestContextMemory:
    def test_rand30_context_peak(self):
        """The edge group holds its O(edges x max degree) non-commuting
        pairs, not the O(edges^2) commuting ones (about 529k pairs and
        170 MB for this graph's 1,032 halo edges)."""
        g = random_connected_graph(random.Random(30), 30, 15)
        coloring = greedy_color(g)
        tracemalloc.start()
        try:
            ctx = build_context(g, coloring)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ctx.halo.gamma.n_edges == 1032
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestAltThreshold:
    """A context at the stricter "alt" threshold reads each loop off its
    further subdivided halo, which meets the axioms, as at "paper"; the
    loops match the oracle's walk, which checks every step."""

    @pytest.mark.parametrize("name", ["figure", "C6", "K4"])
    def test_loops_and_homomorphism(self, figure_delta, figure_coloring, name):
        if name == "figure":
            g, coloring = figure_delta, figure_coloring
        else:
            g = cycle_graph(6) if name == "C6" else complete_graph(4)
            coloring = chromatic_number(g)
        ctx = build_context(g, coloring, "alt")
        assert ctx.path_threshold == "alt"
        assert graphs.is_sufficiently_subdivided(ctx.halo.gamma, ctx.n, "alt").ok
        # "alt" subdivides further than "paper" on all three
        assert ctx.halo.gamma.n_vertices > build_context(g, coloring).halo.gamma.n_vertices
        for v in g.vertices:
            path = ctx.loop_path(v, 1)
            assert path.base == ctx.base
            moves, _ = replay_psi(ctx.halo, [(v, 1)], squared=False)
            assert [(step.edge, step.source) for step in path.steps] == moves
            assert len(path.steps) == len(ctx.halo.loop_of(v)) - 1
        assert check_homomorphism(ctx).ok


class TestSubdivisionChecks:
    def test_check_count_independent_of_vertex_count(self, monkeypatch):
        """The subdivision check is computed while the halo is subdivided,
        at most twice at either threshold: once on the base halo and once on
        its subdivision. The loops are read off the halo and check nothing,
        so the count does not grow with the generators."""
        computed = []
        original = graphs._subdivision_report

        def counted(*args):
            computed.append(args)
            return original(*args)

        monkeypatch.setattr(graphs, "_subdivision_report", counted)
        for path_threshold, most in (("paper", 2), ("alt", 2)):
            counts = []
            for size in (4, 6, 8, 10, 12):
                g = cycle_graph(size)
                computed.clear()
                ctx = build_context(g, chromatic_number(g), path_threshold)
                assert check_homomorphism(ctx).ok
                counts.append(len(computed))
                assert len(computed) <= most
            assert len(set(counts)) == 1

class TestSubdivisionMemo:
    """The subdivision check runs once on the graph it accepts: the halo
    graph that subdivision accepted is reused, and its report memoised."""

    @pytest.fixture
    def checked(self, monkeypatch):
        graphs_checked = []
        original = graphs._subdivision_report

        def counted(g, *args):
            graphs_checked.append(g)
            return original(g, *args)

        monkeypatch.setattr(graphs, "_subdivision_report", counted)
        return graphs_checked

    @staticmethod
    def checks_of(accepted, graphs_checked) -> int:
        assert any(g is accepted for g in graphs_checked)
        return sum(g == accepted for g in graphs_checked)

    @pytest.fixture
    def k4(self):
        # its halo needs subdividing for 4 strands
        g = complete_graph(4)
        return g, chromatic_number(g)

    def test_build_context(self, checked, k4):
        ctx = build_context(*k4)
        assert self.checks_of(ctx.halo.gamma, checked) == 1

    @pytest.mark.parametrize("subdivided", [False, True])
    def test_context_from_halo(self, checked, k4, subdivided):
        h = build_halo(*k4)
        if subdivided:
            # a fresh copy of a sufficient halo, as if read from a file
            h = halo_from_json_dict(halo_to_json_dict(subdivided_halo(h, 4)))
            checked.clear()
        ctx = context_from_halo(h)
        assert (ctx.halo is h) == subdivided
        assert self.checks_of(ctx.halo.gamma, checked) == 1

    def test_verify_suite(self, checked, k4):
        accepted = subdivided_halo(build_halo(*k4), 4).gamma
        checked.clear()
        assert verify_suite(*k4, max_len=1, sample_count=0).passed
        assert sum(g == accepted for g in checked) == 1

    def test_verify_suite_shares_the_counterexample_context(
        self, checked, figure_delta, figure_coloring
    ):
        # the figure coloring is the counterexample's own, so the
        # counterexample reuses the suite's context
        accepted = subdivided_halo(build_halo(figure_delta, figure_coloring), 3).gamma
        checked.clear()
        report = verify_suite(figure_delta, figure_coloring, max_len=1, sample_count=0)
        assert report.check("squaring-counterexample").passed
        assert sum(g == accepted for g in checked) == 1


class TestLoopReading:
    """Each halo reads its loops as vertex ids once (``halo._read_loops``),
    or not at all when ``build_halo`` filled the reading in."""

    @pytest.fixture
    def read(self, monkeypatch):
        halos = []
        original = halo_mod._read_loops

        def counted(h):
            halos.append(h)
            return original(h)

        monkeypatch.setattr(halo_mod, "_read_loops", counted)
        return halos

    def test_built_halo_is_not_read_again(self, read):
        ctx = build_context(SCALE30, Coloring.make(SCALE30, SCALE30_PARTS))
        assert check_homomorphism(ctx).ok
        assert read == []

    def test_loaded_halo_is_read_once(self, read):
        h = build_halo(SCALE30, Coloring.make(SCALE30, SCALE30_PARTS))
        loaded = halo_from_json_dict(halo_to_json_dict(h))
        ctx = context_from_halo(loaded)
        assert check_homomorphism(ctx).ok
        assert ctx.halo is loaded
        assert len(read) == 1 and read[0] is loaded


class TestAxiomChecks:
    """Every path that embeds or reports a halo checks its axioms once:
    ``build_halo`` only builds, and the caller that reads the report runs
    ``verify_halo``. The suite's own count is
    ``TestVerifySuite.test_axioms_checked_once``."""

    @pytest.fixture
    def k4(self):
        # its halo needs subdividing for 4 strands
        g = complete_graph(4)
        return g, chromatic_number(g)

    def test_build_halo(self, verified, k4):
        build_halo(*k4)
        assert verified == []

    def test_build_context(self, verified, k4):
        ctx = build_context(*k4)
        assert verified == [build_halo(*k4)]
        assert ctx.halo != verified[0]

    @pytest.mark.parametrize("from_json", [False, True])
    def test_context_from_halo(self, verified, k4, from_json):
        h = build_halo(*k4)
        if from_json:
            h = halo_from_json_dict(halo_to_json_dict(h))
        context_from_halo(h)
        assert len(verified) == 1 and verified[0] is h

    @pytest.mark.parametrize("supplied", [False, True])
    def test_verify_suite(self, verified, k4, supplied):
        h = build_halo(*k4) if supplied else None
        assert verify_suite(*k4, max_len=1, sample_count=0, halo=h).passed
        assert verified == [build_halo(*k4)]

    def test_counterexample_report(self, verified, figure_delta):
        assert counterexample_report(figure_delta).ok
        assert len(verified) == 1

    def test_cli_halo(self, verified, k4, tmp_path, capsys):
        """The command checks the subdivided halo it prints, and not the
        halo it subdivided."""
        path = tmp_path / "k4.json"
        path.write_text(dumps_canonical(graph_to_json_dict(k4[0])))
        assert main(["halo", "--input", str(path), "--exact"]) == 0
        printed = halo_from_json_dict(json.loads(capsys.readouterr().out)["halo"])
        assert verified == [printed]


class TestCheckHomomorphism:
    def test_c6_all_relators_pass(self, c6):
        ctx = build_context(c6, chromatic_number(c6))
        report = check_homomorphism(ctx)
        assert report.ok
        assert len(report.relators) == 6

    def test_single_vertex_vacuous(self):
        delta = SimpleGraph.make(["a"])
        ctx = build_context(delta, chromatic_number(delta))
        report = check_homomorphism(ctx)
        assert report.ok
        assert report.relators == ()

    def test_corrupted_halo_fails_shared_generator_assertion(self, figure_delta, figure_coloring):
        # hand-build a halo whose loops for the commuting pair share an edge
        h = build_halo(figure_delta, figure_coloring)
        loop_a = h.loop_of("a")
        # route c's loop through two consecutive vertices of a's loop
        shared_1, shared_2 = loop_a[1], loop_a[2]
        loop_c = ("x_3", shared_1, shared_2, "p~c~9", "x_3")
        gamma = SimpleGraph.make(
            list(h.gamma.vertices) + ["p~c~9"],
            list(h.gamma.edges)
            + [
                ("x_3", shared_1),
                (shared_2, "p~c~9"),
                ("p~c~9", "x_3"),
            ],
        )
        corrupted = Halo(
            gamma=gamma,
            artin_loops=tuple(
                (a, loop_c if a == "c" else loop) for a, loop in h.artin_loops
            ),
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        ctx = EmbeddingContext(subdivided_halo(corrupted, 3))
        report = self.commutators_as_piled(ctx)
        assert not report.ok
        bad = [r for r in report.relators if r.edge == ("a", "c")]
        assert bad and not bad[0].supports_disjoint

    @staticmethod
    def commutators_as_piled(ctx: EmbeddingContext):
        """The context's homomorphism report, after checking that each
        relator's verdict is what piling its commutator's squared image
        gives, and that its support verdicts are the oracle's, read off the
        full edge sets of the two loops. (The
        breadth-first oracle cannot stand in for piling here: on the
        squared commutator image of K2, 24 letters, it passes 500,000
        words before it ends.)"""
        report = check_homomorphism(ctx)
        for r in report.relators:
            a, b = r.edge
            image = phi_psi(GroupWord.from_pairs([(a, 1), (b, 1), (a, -1), (b, -1)]), ctx)
            assert r.commutator_trivial == is_trivial(image, ctx.a_gamma), r
            assert (r.supports_disjoint, r.cross_pairs_commute) == relator_supports(
                ctx.halo, a, b
            ), r
        return report

    @pytest.mark.parametrize("shared", ["edge", "vertex"])
    def test_cross_pairs_fail_on_shared_closure(self, figure_delta, figure_coloring, shared):
        # reroute c's loop through an edge, or only a vertex, of a's loop
        h = build_halo(figure_delta, figure_coloring)
        loop_a = h.loop_of("a")
        route = loop_a[1:3] if shared == "edge" else loop_a[1:2]
        loop_c = ("x_3", *route, "p~c~9", "x_3")
        gamma = SimpleGraph.make(
            list(h.gamma.vertices) + ["p~c~9"],
            list(h.gamma.edges) + list(zip(loop_c, loop_c[1:])),
        )
        corrupted = Halo(
            gamma=gamma,
            artin_loops=tuple(
                (a, loop_c if a == "c" else loop) for a, loop in h.artin_loops
            ),
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        ctx = EmbeddingContext(subdivided_halo(corrupted, 3))
        (bad,) = [r for r in self.commutators_as_piled(ctx).relators if r.edge == ("a", "c")]
        assert not bad.cross_pairs_commute
        assert bad.supports_disjoint == (shared == "vertex")
        # the loops meet, so the commutator is piled, and its image is
        # nontrivial
        assert not bad.commutator_trivial

    def test_the_halo_graph_never_gets_the_name_keyed_adjacency(self):
        """The subdivision, planarity, halo and homomorphism checks read
        Γ's integer view: a name-keyed pass over Γ fails here."""
        coloring = Coloring.make(SCALE30, SCALE30_PARTS)
        ctx = build_context(SCALE30, coloring)
        assert check_homomorphism(ctx).ok
        assert "adjacency" not in ctx.halo.gamma.__dict__
        halo = build_halo(SCALE30, coloring)
        assert verify_suite(SCALE30, coloring, max_len=2, sample_count=20, halo=halo).passed
        assert "adjacency" not in halo.gamma.__dict__

    @pytest.mark.parametrize("graph_id", sorted(GRAPHS))
    def test_loaded_halo_gives_the_same_report(self, graph_id):
        """A halo loaded from its JSON reads its loops from their names;
        the built one has them filled in. The reports are equal."""
        built = context(graph_id)
        h = build_halo(built.delta, built.coloring)
        loaded = context_from_halo(halo_from_json_dict(halo_to_json_dict(h)))
        assert (
            check_homomorphism(loaded).to_json_dict()
            == check_homomorphism(built).to_json_dict()
        )

    def test_corpus_homomorphism(self):
        contexts = [
            build_context(g, coloring)
            for g in atlas_connected(5)
            for coloring in (greedy_color(g), chromatic_number(g))
        ]
        contexts += [
            build_context(g, chromatic_number(g))
            for g in (cycle_graph(6), complete_graph(5), petersen_graph())
        ]
        for ctx in contexts:
            assert self.commutators_as_piled(ctx).ok


class TestInjectivitySpotCheck:
    def test_c6_exhaustive_len3(self, c6):
        ctx = build_context(c6, chromatic_number(c6))
        report = injectivity_spot_check(ctx, max_len=3, sample_count=100, seed=0)
        assert report.ok
        assert report.exhaustive_elements > 0
        assert report.sample_count == 100

    def test_unsquared_mode_finds_the_witness(self, figure_delta, figure_context):
        report = injectivity_spot_check(
            figure_context, max_len=8, sample_count=0, seed=0, squared=False
        )
        assert not report.ok
        assert str(counterexample_word(figure_delta)) in report.failures
        assert report.exhaustive_elements == 196416
        # the witness's cyclic conjugates and their inverses, nothing shorter
        assert len(report.failures) == 16
        for failure in report.failures:
            w = W(failure)
            assert len(w) == 8 and not is_trivial(w, figure_context.source_group)
            assert is_trivial(phi_psi(w, figure_context, squared=False), figure_context.a_gamma)

    @staticmethod
    def piles_and_classes(ctx, max_len, monkeypatch) -> tuple[int, int]:
        """The images the check piles, and the classes of the walked words
        under cyclic rotation and inversion, counted word by word."""
        p = ctx.source_group
        words = spelled(p, embedding._nontrivial_elements(p, max_len))
        inverse = {(g, s): (g, -s) for g in p.generators for s in (1, -1)}

        def rotations(w):
            return [w[i:] + w[:i] for i in range(len(w))]

        classes = {
            frozenset(rotations(w) + rotations(tuple(inverse[x] for x in reversed(w))))
            for w in words
        }
        piled = []
        original = embedding._edge_word_is_trivial

        def counted(letters, n):
            piled.append(letters)
            return original(letters, n)

        monkeypatch.setattr(embedding, "_edge_word_is_trivial", counted)
        assert injectivity_spot_check(ctx, max_len=max_len, sample_count=0).ok
        return len(piled), len(classes)

    def test_one_pile_per_conjugacy_class(self, c6, monkeypatch):
        """C6's 72 zero-sum elements up to length 4 fall into 9 classes under
        cyclic rotation and inversion, and one image is piled per class."""
        ctx = build_context(c6, chromatic_number(c6))
        assert len(embedding._nontrivial_elements(ctx.source_group, 4)) == 72
        assert self.piles_and_classes(ctx, 4, monkeypatch) == (9, 9)

    def test_one_pile_per_class_at_length_6(self, c6, monkeypatch):
        ctx = build_context(c6, chromatic_number(c6))
        piles, classes = self.piles_and_classes(ctx, 6, monkeypatch)
        assert piles == classes

    def test_max_len_zero_vacuous(self, figure_context):
        report = injectivity_spot_check(figure_context, max_len=0, sample_count=0)
        assert report.ok
        assert report.exhaustive_elements == 0

    def test_deterministic_sampling(self, figure_context):
        a = injectivity_spot_check(figure_context, max_len=2, sample_count=50, seed=9)
        b = injectivity_spot_check(figure_context, max_len=2, sample_count=50, seed=9)
        assert a == b


class TestSampleStream:
    """``_draw_samples`` draws the words ``random.Random``'s ``randint`` and
    ``choice`` draw, on every alphabet and length bound. Powers of two are
    among them: only there does ``(bound - 1).bit_length()``, a likely slip,
    differ from the ``bound.bit_length()`` bits that ``_randbelow`` draws."""

    @staticmethod
    def drawn(seed, max_length, weights, count, certified, accept=lambda codes: True):
        """The words ``_draw_samples`` reads, each with its weight sum, and
        the number it accepts."""
        read = []

        def reader(codes, weight_sum):
            read.append((codes, weight_sum))
            return accept(codes)

        accepted = embedding._draw_samples(seed, max_length, weights, count, reader, certified)
        return read, accepted

    @pytest.mark.parametrize("n_codes", range(2, 41))
    def test_matches_randint_and_choice(self, n_codes):
        weights = [3 - c * c for c in range(n_codes)]
        for max_length in range(1, 17):
            for seed in range(5):
                drawn, accepted = self.drawn(seed, max_length, weights, 60, certified=False)
                assert accepted == 60
                assert [codes for codes, _ in drawn] == reference_samples(
                    seed, n_codes, max_length, 60
                ), (seed, max_length)
                for codes, weight_sum in drawn:
                    assert weight_sum == sum(weights[c] for c in codes)

    def test_rejected_words_are_redrawn_up_to_the_cap(self):
        weights = [1, -1, 5, -5]
        drawn, accepted = self.drawn(3, 6, weights, 40, False, lambda codes: len(codes) > 2)
        reference = reference_samples(3, 4, 6, len(drawn))
        assert [codes for codes, _ in drawn] == reference
        assert accepted == 40 == sum(len(codes) > 2 for codes in reference)
        assert len(reference[-1]) > 2
        drawn, accepted = self.drawn(3, 6, weights, 7, False, lambda codes: False)
        assert accepted == 0 and len(drawn) == 700

    @pytest.mark.parametrize("k", range(1, 5))
    def test_certified_reads_only_zero_sums(self, k):
        """Over packed exponent sums, a word whose sums do not all vanish is
        accepted unread, its letters drawn all the same: one of an odd
        letter count is never built. The zero-sum words read are those of
        the stream, in its order."""
        p = RaagPresentation(SimpleGraph.make([f"g{i}" for i in range(k)]))
        reads = 0
        for max_length in range(1, 17):
            weights = embedding._pack(p, max_length)
            for seed in range(5):
                accept = lambda codes: codes[0] % 3 != 0  # noqa: E731
                drawn, accepted = self.drawn(seed, max_length, weights, 60, True, accept)
                expected_read = []
                expected_accepted = 0
                for codes in reference_sample_stream(seed, 2 * k, max_length):
                    if sum(weights[c] for c in codes):
                        expected_accepted += 1
                    else:
                        assert len(codes) % 2 == 0
                        expected_read.append((codes, 0))
                        expected_accepted += accept(codes)
                    if expected_accepted == 60:
                        break
                assert drawn == expected_read, (seed, max_length)
                assert accepted == expected_accepted
                reads += len(drawn)
        assert reads

    def test_no_samples_draw_nothing(self, figure_context, monkeypatch):
        def never(*args):
            raise AssertionError("a generator was seeded")

        monkeypatch.setattr(embedding.random, "Random", never)
        for certified in (False, True):
            assert self.drawn(5, 0, [], 0, certified) == ([], 0)
        for max_len in (0, 3):
            assert injectivity_spot_check(figure_context, max_len, 0, 5).sample_count == 0


ENUMERATION_CASES = (
    [(f"atlas{i}", g, 3) for i, g in enumerate(atlas_connected(5))]
    + [
        ("C6", cycle_graph(6), 3),
        ("K5", complete_graph(5), 3),
        ("figure", SimpleGraph.make(["a", "b", "c"], [("a", "c")]), 6),
    ]
)


def spelled(p: RaagPresentation, words) -> list:
    """The walk's words of letter codes, spelled in ``(name, sign)`` letters."""
    signed = embedding._signed_letters(p)
    return [tuple(signed[c] for c in w) for w in words]


class TestElementEnumeration:
    """The depth-first search visits exactly the spellings the piling
    reduction gives, once each, and as many as the growth series predicts."""

    @staticmethod
    def spellings(p: RaagPresentation, max_len: int) -> set:
        found = spelled(p, embedding._nontrivial_elements(p, max_len, zero_sum=False))
        assert len(found) == len(set(found))
        return set(found)

    @pytest.mark.parametrize(
        "graph, max_len",
        [case[1:] for case in ENUMERATION_CASES],
        ids=[case[0] for case in ENUMERATION_CASES],
    )
    def test_matches_free_word_reference(self, graph, max_len):
        p = RaagPresentation(graph)
        reference = free_word_spellings(p.generators, p.reduce_letters, max_len)
        assert self.spellings(p, max_len) == reference
        assert sum(p.sphere_sizes(max_len)) - 1 == len(reference)

    @pytest.mark.parametrize(
        "graph, max_len",
        [case[1:] for case in ENUMERATION_CASES],
        ids=[case[0] for case in ENUMERATION_CASES],
    )
    def test_each_length_comes_in_increasing_order(self, graph, max_len):
        """The injectivity check's memo keeps a class's verdict only under
        the words greater than the first one walked, which is sound because
        the words of one length come in increasing order of their codes."""
        p = RaagPresentation(graph)
        for zero_sum in (False, True):
            by_length: dict[int, list] = {}
            for w in embedding._nontrivial_elements(p, max_len, zero_sum):
                by_length.setdefault(len(w), []).append(w)
            for words in by_length.values():
                assert all(u < w for u, w in zip(words, words[1:]))

    def test_packing_has_no_carries(self):
        # with a base of b or less, the b + 1 letters a^-b b would pack to 0
        p = RaagPresentation(SimpleGraph.make(["a", "b"]))
        signed = embedding._signed_letters(p)
        max_len = 5
        weight = dict(zip(signed, embedding._pack(p, max_len)))
        for length in range(1, max_len + 1):
            for letters in product(signed, repeat=length):
                vanish = not any(abelianization(GroupWord(letters), p).values())
                assert (sum(weight[x] for x in letters) == 0) == vanish

    def test_deep_words(self):
        # one generator: two elements per length, walked 5000 letters deep
        delta = SimpleGraph.make(["a"])
        ctx = build_context(delta, chromatic_number(delta))
        report = injectivity_spot_check(ctx, max_len=5000)
        assert report.ok and report.exhaustive_elements == 10000

    def test_prediction_matches_report(self):
        for g in atlas_connected(5):
            ctx = build_context(g, greedy_color(g))
            report = injectivity_spot_check(ctx, max_len=3)
            assert report.exhaustive_elements == sum(ctx.source_group.sphere_sizes(3)) - 1

    def test_figure_counts(self, figure_context):
        totals = list(accumulate(figure_context.source_group.sphere_sizes(10)))
        assert [totals[n] - 1 for n in (4, 6, 8, 9, 10)] == [
            608, 10944, 196416, 832038, 3524576,
        ]
        for max_len in (4, 6):
            report = injectivity_spot_check(figure_context, max_len=max_len)
            assert report.exhaustive_elements == totals[max_len] - 1

    def test_free_and_abelian_sizes(self):
        free = RaagPresentation(SimpleGraph.make(["a", "b"]))
        assert list(free.sphere_sizes(4)) == [1, 4, 12, 36, 108]
        abelian = RaagPresentation(complete_graph(2))
        assert list(abelian.sphere_sizes(4)) == [1, 4, 8, 12, 16]


PRUNING_CASES = [case[:2] for case in ENUMERATION_CASES] + [
    (f"multipartite{seed}", random_multipartite(random.Random(seed), 3, 2, 0.6))
    for seed in range(3)
]


class TestPrunedWalk:
    """Filtering on the source exponent sums, the walk enters only the
    subtrees whose L1 norm the letters still to come can bring to zero, and
    finds every zero-sum element the full walk finds, in the same order."""

    @pytest.mark.parametrize(
        "graph",
        [case[1] for case in PRUNING_CASES],
        ids=[case[0] for case in PRUNING_CASES],
    )
    def test_pruned_walk_finds_the_unpruned_candidates(self, graph):
        p = RaagPresentation(graph)
        for max_len in range(1, 6):
            full = spelled(p, embedding._nontrivial_elements(p, max_len, zero_sum=False))
            zero_sum = [w for w in full if not any(abelianization(GroupWord(w), p).values())]
            assert spelled(p, embedding._nontrivial_elements(p, max_len)) == zero_sum, max_len


def sums_certified(ctx) -> bool:
    """Whether the injectivity check's reading of ``ctx``'s loops certifies
    that image exponent sums vanish with the source sums."""
    return embedding._sums_follow_the_source(embedding._loop_letters(ctx))


def relooped_context(delta, coloring, loops) -> EmbeddingContext:
    """The context over the canonical halo with some loops replaced by
    ``loops``, unchecked: the halo fails the axioms."""
    h = build_halo(delta, coloring)
    return EmbeddingContext(
        Halo(
            gamma=h.gamma,
            artin_loops=tuple((a, loops.get(a, loop)) for a, loop in h.artin_loops),
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
    )


def out_and_back_context(delta, coloring, gen) -> EmbeddingContext:
    """The context over the canonical halo in which ``gen``'s loop is run
    round and then back: the halo is subdivided but fails the axioms."""
    loop = build_halo(delta, coloring).loop_of(gen)
    return relooped_context(delta, coloring, {gen: loop + loop[-2::-1]})


class TestSumCertificate:
    def test_axiom_halos_are_certified(self, figure_context):
        assert sums_certified(figure_context)
        for g in atlas_connected(5) + [cycle_graph(6), complete_graph(4), petersen_graph()]:
            assert sums_certified(build_context(g, greedy_color(g)))

    @pytest.mark.parametrize("gen", ["a", "b"])
    def test_out_and_back_loop_matches_piling_every_image(
        self, figure_delta, figure_coloring, gen
    ):
        """A loop run round and then back has zero exponent sums on every
        edge, so the certificate fails: the check keeps the image sums over
        every edge generator and walks every element, and reports what
        piling every element's image reports."""
        ctx = out_and_back_context(figure_delta, figure_coloring, gen)
        assert not sums_certified(ctx)
        max_len = 5
        p = ctx.source_group
        elements = free_word_spellings(p.generators, p.reduce_letters, max_len)
        failures = sorted(
            str(GroupWord(w))
            for w in elements
            if is_trivial(phi_psi(GroupWord(w), ctx), ctx.a_gamma)
        )
        assert gen in failures
        assert injectivity_spot_check(ctx, max_len=max_len) == InjectivityReport(
            squared=True,
            max_len=max_len,
            exhaustive_elements=len(elements),
            sample_count=0,
            sample_max_len=2 * max_len,
            seed=0,
            failures=tuple(failures),
        )

    def test_out_and_back_loop_piles_every_sample(self, figure_delta, figure_coloring):
        """Without the certificate every accepted sample is piled, whatever
        its own exponent sums: the failures are the walk's and those of the
        samples ``random`` draws that are nontrivial in A(Δ)."""
        ctx = out_and_back_context(figure_delta, figure_coloring, "a")
        assert not sums_certified(ctx)
        max_len, sample_count, seed = 2, 60, 3
        p = ctx.source_group
        signed = embedding._signed_letters(p)

        def trivial_image(w):
            return is_trivial(phi_psi(w, ctx), ctx.a_gamma)

        elements = free_word_spellings(p.generators, p.reduce_letters, max_len)
        walked = {str(GroupWord(w)) for w in elements if trivial_image(GroupWord(w))}
        drawn = [
            GroupWord(tuple(signed[c] for c in codes))
            for codes in reference_samples(seed, len(signed), 2 * max_len, 100 * sample_count)
        ]
        accepted = [w for w in drawn if not is_trivial(w, p)][:sample_count]
        assert len(accepted) == sample_count
        sampled = {str(w) for w in accepted if trivial_image(w)}
        # some of them have nonzero exponent sums and are not the walk's
        assert any(any(abelianization(W(w), p).values()) for w in sampled - walked)
        assert injectivity_spot_check(
            ctx, max_len=max_len, sample_count=sample_count, seed=seed
        ) == InjectivityReport(
            squared=True,
            max_len=max_len,
            exhaustive_elements=len(elements),
            sample_count=sample_count,
            sample_max_len=2 * max_len,
            seed=seed,
            failures=tuple(sorted(walked | sampled)),
        )


#: (id, replaced loops of the figure graph's canonical halo, and the
#: check's failures at length 3 or the (exception class, message) it
#: raises): what reading the images by name, through ``loop_path`` and
#: ``phi``, gives.
BROKEN_HALOS = [
    ("non-edge", {"b": ("x_2", "j~a~b", "p~b~2", "j~b~c", "p~b~3", "x_2")},
     (UnknownVertexError, "('j~a~b', 'x_2') is not an edge of the halo graph")),
    # c's loop is a's: every edge is shared, so nothing is certified
    ("shared-edges", {"c": ("x_1", "p~a~1", "j~a~b", "p~a~2", "x_1")},
     ("a c^-1", "a^-1 c")),
    ("outside-vertex", {"c": ("x_3", "zz", "j~b~c", "p~c~2", "x_3")},
     (UnknownVertexError, "('x_3', 'zz') is not an edge of the halo graph")),
]


class TestBrokenHalos:
    """Over a halo that fails the axioms the check reports, or raises, what
    reading the letter images by name gives."""

    @pytest.mark.parametrize(
        "loops, expected", [case[1:] for case in BROKEN_HALOS], ids=[c[0] for c in BROKEN_HALOS]
    )
    @pytest.mark.parametrize("squared", [True, False])
    def test_report_or_error(self, figure_delta, figure_coloring, loops, expected, squared):
        ctx = relooped_context(figure_delta, figure_coloring, loops)
        for max_len, sample_count, seed in ((3, 30, 1), (0, 0, 0)):
            if isinstance(expected[0], type):
                with pytest.raises(expected[0]) as raised:
                    injectivity_spot_check(ctx, max_len, sample_count, seed, squared)
                assert str(raised.value) == expected[1]
            else:
                report = injectivity_spot_check(ctx, max_len, sample_count, seed, squared)
                assert report == InjectivityReport(
                    squared=squared,
                    max_len=max_len,
                    exhaustive_elements=142 if max_len else 0,
                    sample_count=sample_count,
                    sample_max_len=2 * max_len,
                    seed=seed,
                    failures=expected if max_len else (),
                )

    def test_missing_loop(self, figure_delta, figure_coloring):
        h = build_halo(figure_delta, figure_coloring)
        halo = Halo(
            gamma=h.gamma,
            artin_loops=tuple(item for item in h.artin_loops if item[0] != "b"),
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        with pytest.raises(UnknownVertexError, match="^no loop for vertex 'b'$"):
            injectivity_spot_check(EmbeddingContext(halo), 2)

    def test_name_collision_with_nothing_piled(self, figure_delta):
        """The halo the ``halo`` command prints, with vertices renamed so
        that the edges (q, r|s) and (q|r, s) share the name q|r|s."""
        coloring = greedy_color(figure_delta)
        printed = subdivided_halo(build_halo(figure_delta, coloring), coloring.color_count)
        text = json.dumps(halo_to_json_dict(printed))
        for name, new in {"j~b~c": "q", "p~b~1": "r|s", "p~a~1": "q|r", "p~a~2": "s"}.items():
            text = text.replace(f'"{name}"', f'"{new}"')
        ctx = EmbeddingContext(halo_from_json_dict(json.loads(text)))
        with pytest.raises(GraphFormatError) as raised:
            injectivity_spot_check(ctx, 0)
        assert str(raised.value) == (
            "halo edges ('q', 'r|s') and ('q|r', 's') both get the generator name 'q|r|s'"
        )


def named_edge_letters(ctx, codes) -> tuple:
    """Edge letter codes (``embedding._loop_letters``) spelled in the edge
    group's ``(name, sign)`` letters."""
    names = ctx.halo.gamma.vertices
    n = len(names)
    return tuple(
        (edge_generator_name((names[(c >> 1) // n], names[(c >> 1) % n])), -1 if c & 1 else 1)
        for c in codes
    )


def reading_contexts() -> list:
    """Contexts over the atlas up to 6 vertices, greedily and exactly
    coloured, with 4- and 5-coloured subdivided halos among them."""
    contexts = [
        build_context(g, c)
        for g in atlas_connected(6)
        for c in {greedy_color(g), chromatic_number(g)}
    ]
    subdivided = {
        ctx.n for ctx in contexts if ctx.halo != build_halo(ctx.delta, ctx.coloring)
    }
    assert {4, 5} <= subdivided
    return contexts


class TestEdgeCodeReading:
    """The injectivity check reads the letter images as edge letter codes
    off the loops' vertex ids and piles them on Γ's integer view: the codes
    spell ``letter_image``'s images, and the piling decides what the named
    edge group decides."""

    def test_codes_spell_the_letter_images(self):
        for ctx in reading_contexts():
            loops = embedding._loop_letters(ctx)
            signed = embedding._signed_letters(ctx.source_group)
            for code, (g, sign) in enumerate(signed):
                for squared in (True, False):
                    image = embedding._letter_codes(loops, code, squared)
                    assert named_edge_letters(ctx, image) == ctx.letter_image(g, sign, squared)

    def test_piling_agrees_with_the_edge_group(self):
        """On seeded words over a few edges around a few vertices, where
        some are trivial, and on products of letter images, the piling
        decides what ``ctx.a_gamma`` decides; a word times its inverse,
        conjugated by another, is trivial."""
        rng = random.Random(36)
        petersen = petersen_graph()
        for ctx in reading_contexts()[::7] + [build_context(petersen, greedy_color(petersen))]:
            loops = embedding._loop_letters(ctx)
            n = ctx.halo.gamma.n_vertices
            images = [
                embedding._letter_codes(loops, code, squared)
                for code in range(2 * len(loops))
                for squared in (True, False)
            ]
            alphabet = sorted({c >> 1 for image in images[:4] for c in image})[:6]
            words = [
                [2 * rng.choice(alphabet) + rng.randrange(2) for _ in range(rng.randrange(11))]
                for _ in range(300)
            ]
            words += [
                [c for image in rng.choices(images, k=rng.randrange(4)) for c in image]
                for _ in range(50)
            ]
            trivial = 0
            for w in words:
                verdict = embedding._edge_word_is_trivial(w, n)
                assert verdict == ctx.a_gamma.is_trivial_letters(named_edge_letters(ctx, w)), w
                trivial += verdict
                u = rng.choice(words)
                conjugate = u + w + [c ^ 1 for c in reversed(u + w)]
                assert embedding._edge_word_is_trivial(conjugate, n)
            assert trivial > len(words) // 20

    def test_commutator_images_pile_to_nothing(self):
        """The squared images of Δ's commutation relators are trivial."""
        for ctx in reading_contexts()[::5]:
            loops = embedding._loop_letters(ctx)
            index = ctx.source_group._index
            n = ctx.halo.gamma.n_vertices
            for a, b in ctx.delta.edges:
                i, j = 2 * index[a], 2 * index[b]
                w = [c for x in (i, j, i ^ 1, j ^ 1) for c in embedding._letter_codes(loops, x, True)]
                assert embedding._edge_word_is_trivial(w, n)

    def test_check_names_no_edge(self, c6, monkeypatch):
        """Over a canonical halo the check builds neither the edge group nor
        the edges' names, and maps no configuration path."""

        def never(*args, **kwargs):
            raise AssertionError("the check read a letter image by name")

        monkeypatch.setattr(EmbeddingContext, "loop_path", never)
        monkeypatch.setattr(embedding, "phi", never)
        ctx = build_context(c6, chromatic_number(c6))
        assert injectivity_spot_check(ctx, max_len=4, sample_count=50, seed=3).ok
        assert not {"a_gamma", "_edge_to_gen", "_letter_images"} & {
            k for k, v in vars(ctx).items() if v
        }

    def test_a_bar_in_a_name_builds_the_names(self, figure_delta, figure_context):
        """A vertex name holding a ``|`` could make two edges share a name,
        so the check builds the names to find out; here none is shared, and
        the report is the one over the unrenamed halo."""
        text = json.dumps(halo_to_json_dict(figure_context.halo)).replace('"j~a~b"', '"j|a|b"')
        ctx = EmbeddingContext(halo_from_json_dict(json.loads(text)))
        report = injectivity_spot_check(ctx, max_len=4, sample_count=50, seed=3)
        assert "_edge_to_gen" in vars(ctx) and "a_gamma" not in vars(ctx)
        assert report == injectivity_spot_check(figure_context, max_len=4, sample_count=50, seed=3)

    def test_walk_masks_built_once(self, c6, monkeypatch):
        """The walk and the verdict memo read one set of masks, kept on the
        presentation across checks."""
        built = []
        original = RaagPresentation._walk_masks.func

        def counted(p):
            built.append(p)
            return original(p)

        masks = cached_property(counted)
        masks.__set_name__(RaagPresentation, "_walk_masks")
        monkeypatch.setattr(RaagPresentation, "_walk_masks", masks)
        ctx = build_context(c6, chromatic_number(c6))
        for seed in range(2):
            injectivity_spot_check(ctx, max_len=4, sample_count=10, seed=seed)
        assert built == [ctx.source_group]


class TestSampleOracle:
    """The samples' count and failures are those of drawing the stream
    through ``random`` (``reference_sample_stream``), rejecting a word with
    zero exponent sums that is trivial in A(Δ), for at most 100 draws per
    sample, and piling every accepted word's image, or over a certified
    halo only those of the zero-sum words."""

    @staticmethod
    def expected(ctx, max_len, sample_count, seed, squared):
        p = ctx.source_group
        signed = embedding._signed_letters(p)
        certified = sums_certified(ctx)
        stream = reference_sample_stream(seed, len(signed), 2 * max_len)
        accepted = 0
        # the walk's own failures, which TestClassMemoOracle checks
        failures = set(injectivity_spot_check(ctx, max_len, 0, seed, squared).failures)
        for codes in islice(stream, 100 * sample_count):
            w = GroupWord(tuple(signed[c] for c in codes))
            zero_sum = not any(abelianization(w, p).values())
            if zero_sum and is_trivial(w, p):
                continue
            accepted += 1
            if (zero_sum or not certified) and is_trivial(phi_psi(w, ctx, squared), ctx.a_gamma):
                failures.add(str(w))
            if accepted == sample_count:
                break
        return accepted, tuple(sorted(failures))

    def assert_samples_match(self, ctx, max_lens, seeds, sample_count=40):
        for max_len in max_lens:
            for seed in seeds:
                for squared in (True, False):
                    report = injectivity_spot_check(ctx, max_len, sample_count, seed, squared)
                    expected = self.expected(ctx, max_len, sample_count, seed, squared)
                    assert (report.sample_count, report.failures) == expected, (
                        max_len, seed, squared,
                    )

    @pytest.mark.parametrize(
        "graph",
        atlas_connected(5) + [cycle_graph(6), complete_graph(5)],
        ids=[f"atlas{i}" for i in range(len(atlas_connected(5)))] + ["C6", "K5"],
    )
    def test_certified(self, graph):
        ctx = build_context(graph, greedy_color(graph))
        assert sums_certified(ctx)
        self.assert_samples_match(ctx, range(1, 5), (0, 1, 2))

    def test_figure_graph(self, figure_context):
        """At length 4 the samples reach 8 letters, the length of the
        unsquared figure graph's failures."""
        self.assert_samples_match(figure_context, range(1, 5), range(6), sample_count=200)

    @pytest.mark.parametrize("gen", ["a", "b"])
    def test_uncertified(self, figure_delta, figure_coloring, gen):
        ctx = out_and_back_context(figure_delta, figure_coloring, gen)
        assert not sums_certified(ctx)
        self.assert_samples_match(ctx, range(1, 4), (0, 1, 2))


class TestWalkedRotations:
    """The verdict memo keeps a class's verdict only under the rotations the
    walk reaches after the word piled, so every key kept is read and the
    memo ends empty."""

    @pytest.mark.parametrize(
        "graph, max_len",
        [case[1:] for case in ENUMERATION_CASES],
        ids=[case[0] for case in ENUMERATION_CASES],
    )
    def test_kept_rotations_are_those_walked_later(self, graph, max_len):
        p = RaagPresentation(graph)
        _, later, follow = p._walk_masks
        walked = embedding._nontrivial_elements(p, max_len, zero_sum=False)
        position = {w: i for i, w in enumerate(walked)}
        dead = 0
        for i, w in enumerate(walked):
            inverse = tuple(c ^ 1 for c in reversed(w))
            later_rotations = {
                u[j:] + u[:j] for u in (w, inverse) for j in range(len(u))
            } - {w}
            kept = embedding._walked_rotations(later, follow, w)
            assert set(kept) == {r for r in later_rotations if r in position and r > w}
            assert all(position[r] > i for r in kept)
            dead += sum(r > w and r not in position for r in later_rotations)
        if graph.n_edges:
            # with a commuting pair a < b, the rotation b a of a b is not
            # a least spelling
            assert dead


class TestClassMemoOracle:
    """The failures the class memo reports are those of deciding every
    element's image on its own (``per_element_failures``), squared and
    unsquared, over certified and uncertified halos alike."""

    @staticmethod
    def assert_memo_matches(contexts, max_len):
        """``contexts`` share one source group; its elements are listed once."""
        cases = [(ctx, squared) for ctx in contexts for squared in (True, False)]
        p = contexts[0].source_group

        def decider(ctx, squared):
            return lambda w: is_trivial(phi_psi(GroupWord(w), ctx, squared), ctx.a_gamma)

        expected = per_element_failures(
            p.generators, p.reduce_letters, max_len, *(decider(*case) for case in cases)
        )
        for (ctx, squared), failures in zip(cases, expected):
            report = injectivity_spot_check(ctx, max_len=max_len, sample_count=0, squared=squared)
            assert report.failures == tuple(sorted(str(GroupWord(w)) for w in failures))

    def test_atlas(self):
        for g in atlas_connected(5):
            colorings = {greedy_color(g), chromatic_number(g)}
            self.assert_memo_matches([build_context(g, c) for c in colorings], 4)

    def test_uncertified_halos(self, figure_delta, figure_coloring):
        contexts = [out_and_back_context(figure_delta, figure_coloring, g) for g in "ab"]
        assert not any(sums_certified(ctx) for ctx in contexts)
        self.assert_memo_matches(contexts, 5)

    def test_figure_graph(self, figure_context):
        # length 6 takes about 1 s, length 7 about 5 s
        self.assert_memo_matches([figure_context], 6)


class TestElementBudget:
    def test_over_budget_raises_before_enumerating(self, figure_context, monkeypatch):
        def never(*args):
            raise AssertionError("enumeration started over budget")

        monkeypatch.setattr(embedding, "_nontrivial_elements", never)
        with pytest.raises(SizeExceededError, match="3524576"):
            injectivity_spot_check(figure_context, max_len=10)

    def test_budget_is_inclusive(self, figure_context, monkeypatch):
        monkeypatch.setattr(errors, "DEFAULT_BUDGET", 608)
        assert injectivity_spot_check(figure_context, max_len=4).exhaustive_elements == 608
        monkeypatch.setattr(errors, "DEFAULT_BUDGET", 607)
        with pytest.raises(SizeExceededError, match="608"):
            injectivity_spot_check(figure_context, max_len=4)

    def test_sample_budget_is_inclusive(self, figure_context, monkeypatch):
        monkeypatch.setattr(errors, "DEFAULT_BUDGET", 10)
        report = injectivity_spot_check(figure_context, max_len=1, sample_count=10)
        assert report.sample_count == 10

        def never(*args):
            raise AssertionError("enumeration started over budget")

        monkeypatch.setattr(embedding, "_nontrivial_elements", never)
        with pytest.raises(SizeExceededError, match="11 samples"):
            injectivity_spot_check(figure_context, max_len=1, sample_count=11)

    def test_one_budget_bounds_every_step(
        self, figure_delta, figure_coloring, figure_context, monkeypatch
    ):
        """One setting of ``errors.DEFAULT_BUDGET``, made after import,
        bounds the exact coloring's placements, the halo's and its
        subdivision's vertices and edges, and the injectivity check's
        elements and samples alike."""
        k4 = complete_graph(4)
        k4_halo = build_halo(k4, chromatic_number(k4))  # needs subdividing
        monkeypatch.setattr(errors, "DEFAULT_BUDGET", 5)
        with pytest.raises(SizeExceededError, match="over 5 color placements"):
            chromatic_number(petersen_graph())
        with pytest.raises(SizeExceededError, match="18 edges, over the budget of 5"):
            build_halo(figure_delta, figure_coloring)
        with pytest.raises(SizeExceededError, match="edges, over the budget of 5"):
            subdivided_halo(k4_halo, 4)
        with pytest.raises(SizeExceededError, match="over the budget of 5"):
            injectivity_spot_check(figure_context, max_len=1)
        with pytest.raises(SizeExceededError, match="6 samples to draw, over the budget of 5"):
            injectivity_spot_check(figure_context, max_len=1, sample_count=6)

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({"sample_count": errors.DEFAULT_BUDGET + 1}, SizeExceededError, "1000001 samples"),
            ({"max_len": 10}, SizeExceededError, "3524576"),
            ({"sample_count": -1}, InputError, "sample_count must be >= 0"),
            ({"max_len": -1}, InputError, "max_len must be >= 0"),
            ({"max_len": 0, "sample_count": 5}, InputError, "5 samples need max_len >= 1"),
            ({"seed": -1}, InputError, "seed must be >= 0, got -1"),
        ],
    )
    def test_suite_checks_before_the_halo(
        self, figure_delta, figure_coloring, monkeypatch, kwargs, error, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("halo built before the budgets were checked")

        monkeypatch.setattr(embedding, "_assemble_halo", never)
        monkeypatch.setattr(embedding, "verify_halo", never)
        with pytest.raises(error, match=message):
            verify_suite(figure_delta, figure_coloring, **kwargs)

    def test_suite_checks_the_halo_before_the_presentation(self, monkeypatch):
        """A 3,000-vertex path's halo is over the budget: the suite says so
        before A(Δ)'s presentation lists the path's 4.5 million non-adjacent
        pairs."""
        def never(*args, **kwargs):
            raise AssertionError("presentation built before the halo's size was checked")

        monkeypatch.setattr(embedding, "RaagPresentation", never)
        g = path_graph(3000)
        with pytest.raises(SizeExceededError, match="over the budget of 1000000"):
            verify_suite(g, greedy_color(g), max_len=1, sample_count=0)

    def test_suite_checks_the_halo_input_once(self, figure_delta, figure_coloring, monkeypatch):
        """The suite predicts the halo's size in its up-front check, and
        not again when the halo-axioms check builds the halo."""
        calls = []
        original = halo_mod._halo_size

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(halo_mod, "_halo_size", counted)
        assert verify_suite(figure_delta, figure_coloring, max_len=1, sample_count=0).passed
        assert len(calls) == 1

    def test_suite_predicts_once(self, figure_delta, figure_coloring, monkeypatch):
        """The suite checks the budget before it builds the halo, and the
        injectivity check runs on that presentation, so the element count is
        predicted once."""
        calls = []
        original = RaagPresentation.sphere_sizes

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(RaagPresentation, "sphere_sizes", counted)
        assert verify_suite(figure_delta, figure_coloring, max_len=3, sample_count=20)
        assert len(calls) == 1

    def test_empty_group_stops_at_its_first_empty_sphere(self, monkeypatch):
        """A group without generators has the identity alone: the prediction
        reads no sphere past length 1, however large max_len is."""
        read = []
        original = RaagPresentation.sphere_sizes

        def counted(self, *args, **kwargs):
            for size in original(self, *args, **kwargs):
                read.append(size)
                yield size

        monkeypatch.setattr(RaagPresentation, "sphere_sizes", counted)
        p = RaagPresentation(SimpleGraph.make([], []))
        assert embedding._check_element_budget(p, 1000) == 0
        assert read == [1, 0]

    def test_clique_listing_is_budgeted(self):
        """K_30 has 2^30 cliques; the listing stops once its c-cliques show
        n_c * 2^c elements over the budget."""
        p = RaagPresentation(complete_graph(30))
        tracemalloc.start()
        try:
            with pytest.raises(SizeExceededError, match="at least"):
                embedding._check_element_budget(p, 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_clique_bound_keeps_predictions(self):
        """On K_k at max_len k the budgeted listing raises exactly when the
        predicted sizes pass the budget, and yields them unchanged below."""
        for k in range(1, 15):
            p = RaagPresentation(complete_graph(k))
            sizes = list(p.sphere_sizes(k))
            if sum(sizes) - 1 > errors.DEFAULT_BUDGET:
                with pytest.raises(SizeExceededError):
                    embedding._check_element_budget(p, k)
            else:
                assert list(p.sphere_sizes(k, errors.DEFAULT_BUDGET)) == sizes
                embedding._check_element_budget(p, k)


class TestPinchTrace:
    def test_empty_word(self, figure_context):
        trace = pinch_trace(W(""), figure_context)
        assert trace.emptied
        assert trace.events == ()

    def test_unsquared_counterexample_empties(self, figure_delta, figure_context):
        g = counterexample_word(figure_delta)
        trace = pinch_trace(g, figure_context, squared=False)
        assert trace.emptied
        assert len(trace.events) > 0
        assert trace.final_word == ""
        # events consume the whole image two letters at a time
        assert 2 * len(trace.events) == trace.initial_length

    def test_squared_generators_do_not_empty(self, figure_context):
        for gen in "abc":
            trace = pinch_trace(W(gen), figure_context, squared=True)
            assert not trace.emptied
            assert trace.final_word != ""

    def test_patterns_recorded(self, figure_delta, figure_context):
        g = counterexample_word(figure_delta)
        trace = pinch_trace(g, figure_context, squared=False)
        assert all(e.pattern in (1, 2) for e in trace.events)
        assert any(e.inner_length > 0 for e in trace.events)

    def test_conjugated_loop_image_is_a_pinch(self, figure_context):
        # e1 ... em g em^-1 ... e1^-1 with g commuting with e2 ... em: the
        # interior reduces into link(e1), so the whole conjugate pinches
        from raagbraid import GroupWord, detect_pinch

        ctx = figure_context
        loop_image = GroupWord(ctx.letter_image("a", 1, False))
        inner = GroupWord(ctx.letter_image("c", 1, False))  # commutes with all of it
        w = loop_image * inner * loop_image.inverse()
        e1 = loop_image.letters[0][0]
        witness = detect_pinch(w, e1, ctx.a_gamma)
        assert witness is not None
        assert witness.positions == (0, len(w) - 1)


class TestCounterexampleHelpers:
    def test_roles(self, figure_delta):
        assert counterexample_roles(figure_delta) == {"a": "a", "b": "b", "c": "c"}
        assert counterexample_roles(cycle_graph(6)) is None

    def test_word_respects_roles(self):
        delta = SimpleGraph.make(["x", "y", "z"], [("z", "x")])
        w = counterexample_word(delta)
        # edge is {x, z}: outer roles x and z, middle role y
        assert str(w) == "z y x y^-1 z^-1 y x^-1 y^-1"

    def test_report(self, figure_delta):
        report = counterexample_report(figure_delta)
        assert report.applicable and report.ok

    def test_not_applicable(self, c6):
        report = counterexample_report(c6)
        assert not report.applicable and not report.ok


class TestVerifySuite:
    def test_c6_passes(self, c6):
        report = verify_suite(
            c6, chromatic_number(c6), max_len=3, sample_count=50, seed=0
        )
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == [
            "halo-axioms",
            "subdivision",
            "homomorphism",
            "injectivity-spot-check",
        ]
        assert report.check("halo-axioms").details["planar"] is True

    def test_figure_includes_counterexample_section(self, figure_delta, figure_coloring):
        report = verify_suite(
            figure_delta, figure_coloring, max_len=2, sample_count=10, seed=0
        )
        assert report.passed
        assert report.check("squaring-counterexample") is not None
        assert report.check("squaring-counterexample").details["ok"] is True

    def test_corrupted_halo_fails_fast(self, c6):
        coloring = chromatic_number(c6)
        h = build_halo(c6, coloring)
        broken = Halo(
            gamma=SimpleGraph.make(
                h.gamma.vertices, [e for e in h.gamma.edges if e != h.loop_edges("a1")[0]]
            ),
            artin_loops=h.artin_loops,
            basepoints=h.basepoints,
            coloring=h.coloring,
            delta=h.delta,
        )
        report = verify_suite(c6, coloring, halo=broken, sample_count=0)
        assert not report.passed
        assert [c.name for c in report.checks] == ["halo-axioms"]

    def test_axioms_checked_once(self, figure_delta, figure_coloring, verified):
        """``build_halo`` only builds, and the suite's axiom check verifies
        the halo; the counterexample reuses the suite's context and checks
        nothing more."""
        report = verify_suite(figure_delta, figure_coloring, max_len=2, sample_count=10)
        assert report.check("squaring-counterexample").passed
        assert len(verified) == 1

    def test_supplied_halo_of_another_input_rejected(
        self, c6, figure_delta, figure_coloring, monkeypatch
    ):
        c4 = cycle_graph(4)
        c6_coloring = chromatic_number(c6)
        c6_halo = build_halo(c6, c6_coloring)
        swapped = Coloring.make(c6, {v: 3 - c for v, c in c6_coloring.assignment})
        cases = [
            # C4 and C6 both take 2 colors, so subdividing would not notice
            (c4, chromatic_number(c4), c6_halo),
            (figure_delta, figure_coloring, c6_halo),
            # the same graph and color count, the colors swapped
            (c6, c6_coloring, build_halo(c6, swapped)),
        ]

        def never(*args, **kwargs):
            raise AssertionError("halo work before the halo was matched")

        for name in ("_assemble_halo", "verify_halo", "subdivided_halo"):
            monkeypatch.setattr(embedding, name, never)
        for delta, coloring, halo in cases:
            with pytest.raises(GraphFormatError, match="another graph or coloring"):
                verify_suite(delta, coloring, max_len=1, sample_count=0, halo=halo)

    def test_checks_time_the_halo_they_check(
        self, figure_delta, figure_coloring, c6, monkeypatch
    ):
        """The halo is built inside the halo-axioms check and subdivided
        inside the subdivision check, so each check's seconds count that
        work; a supplied halo is only verified."""

        def slowed(fn):
            def wrapper(*args, **kwargs):
                time.sleep(0.05)
                return fn(*args, **kwargs)

            return wrapper

        coloring = chromatic_number(c6)
        built = build_halo(c6, coloring)
        monkeypatch.setattr(embedding, "_assemble_halo", slowed(embedding._assemble_halo))
        monkeypatch.setattr(embedding, "subdivided_halo", slowed(embedding.subdivided_halo))
        report = verify_suite(figure_delta, figure_coloring, max_len=1, sample_count=5)
        assert report.check("halo-axioms").seconds >= 0.05
        assert report.check("subdivision").seconds >= 0.05

        def never(*args, **kwargs):
            raise AssertionError("a supplied halo was built again")

        monkeypatch.setattr(embedding, "_assemble_halo", never)
        assert verify_suite(c6, coloring, max_len=1, sample_count=5, halo=built)

    def test_json_excludes_timings_by_default(self, figure_delta, figure_coloring):
        report = verify_suite(
            figure_delta, figure_coloring, max_len=1, sample_count=5, seed=0
        )
        data = report.to_json_dict()
        assert all("seconds" not in c for c in data["checks"])
        with_t = report.to_json_dict(include_timings=True)
        assert all("seconds" in c for c in with_t["checks"])
