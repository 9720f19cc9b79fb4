"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runtime bounds are asserted where stated. Oracles (subset enumeration,
rewriting closures, exhaustive colorability) live in oracles.py and share no
code with the implementations they check.
"""
import itertools
import random
import time
from contextlib import contextmanager

from raagbraid import (
    Coloring,
    GroupWord,
    Halo,
    RaagPresentation,
    SimpleGraph,
    build_context,
    build_halo,
    cell_counts,
    check_homomorphism,
    chromatic_number,
    counterexample_report,
    counterexample_word,
    detect_pinch,
    greedy_color,
    injectivity_spot_check,
    is_planar,
    is_sufficiently_subdivided,
    is_trivial,
    phi_psi,
    pinch_reduce,
    pinch_trace,
    subdivided_halo,
    verify_halo,
    verify_suite,
)
from raagbraid.halo import (
    AXIOM_BASEPOINT,
    AXIOM_EDGE_DISJOINT,
    AXIOM_SIMPLE_LOOP,
)

from oracles import (
    atlas_connected,
    brute_force_udc_counts,
    cycle_graph,
    exhaustive_k_colorable,
    trivial_closure,
)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def figure_setup():
    delta = SimpleGraph.make(["a", "b", "c"], [("a", "c")])
    coloring = Coloring.make(delta, {"a": 1, "b": 2, "c": 3})
    return delta, coloring


def test_criterion_1_counterexample_regression():
    with criterion(1, "squaring counterexample"):
        delta, coloring = figure_setup()
        start = time.perf_counter()
        ctx = build_context(delta, coloring)
        g = counterexample_word(delta)
        assert not is_trivial(g, ctx.source_group)
        assert is_trivial(phi_psi(g, ctx, squared=False), ctx.a_gamma)
        assert not is_trivial(phi_psi(g, ctx, squared=True), ctx.a_gamma)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"
        report = counterexample_report(delta)
        assert report.ok


def test_criterion_2_c6_planar_two_strands():
    with criterion(2, "planar two-strand scenario"):
        start = time.perf_counter()
        c6 = cycle_graph(6)
        coloring = chromatic_number(c6)
        assert coloring.color_count == 2
        halo = build_halo(c6, coloring)
        assert verify_halo(halo).ok
        assert is_planar(halo.gamma)
        ctx = build_context(c6, coloring)
        hom = check_homomorphism(ctx)
        assert hom.ok and len(hom.relators) == 6
        report = injectivity_spot_check(ctx, max_len=4, sample_count=500, seed=0)
        assert report.ok, report.failures
        assert report.sample_count == 500 and report.sample_max_len == 8
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s, bound is 60s"


def test_criterion_3_configspace_oracle_equivalence():
    with criterion(3, "configuration-space oracle equivalence"):
        corpus = atlas_connected(7, max_edges=9)
        assert len(corpus) >= 200
        mismatches = []
        for g in corpus:
            for n in (1, 2, 3):
                if n > g.n_vertices:
                    continue
                got = cell_counts(g, n)
                want = brute_force_udc_counts(g, n)
                if got != want:
                    mismatches.append((g, n, got, want))
        assert not mismatches, mismatches[:3]


def _presentations_up_to_4():
    """All commutation graphs on <= 3 vertices and all 11 on 4 vertices,
    up to isomorphism."""
    shapes = [
        (1, []),
        (2, []),
        (2, [("a", "b")]),
        (3, []),
        (3, [("a", "b")]),
        (3, [("a", "b"), ("b", "c")]),
        (3, [("a", "b"), ("b", "c"), ("a", "c")]),
        (4, []),
        (4, [("a", "b")]),
        (4, [("a", "b"), ("c", "d")]),
        (4, [("a", "b"), ("b", "c")]),
        (4, [("a", "b"), ("b", "c"), ("a", "c")]),
        (4, [("a", "b"), ("b", "c"), ("c", "d")]),
        (4, [("a", "b"), ("a", "c"), ("a", "d")]),
        (4, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]),
        (4, [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")]),
        (4, [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
        (4, [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]),
    ]
    out = []
    for count, edges in shapes:
        gens = ["a", "b", "c", "d"][:count]
        out.append(RaagPresentation(SimpleGraph.make(gens, edges)))
    return out


def test_criterion_4_raag_oracle_equivalence():
    with criterion(4, "word-problem oracle equivalence"):
        start = time.perf_counter()
        presentations = _presentations_up_to_4()
        assert len(presentations) == 18
        mismatches = 0
        for p in presentations:
            gens = p.generators
            closure = trivial_closure(gens, p.graph.edges, 6)
            signed = [(g, s) for g in gens for s in (1, -1)]
            for length in range(7):
                for letters in itertools.product(signed, repeat=length):
                    engine = is_trivial(GroupWord(letters), p)
                    oracle = letters in closure
                    if engine != oracle:
                        mismatches += 1
        assert mismatches == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s, bound is 600s"


def test_criterion_5_subdivision_fixtures():
    with criterion(5, "subdivision checker fixtures"):
        delta, coloring = figure_setup()
        figure_halo = subdivided_halo(build_halo(delta, coloring), 3)
        assert is_sufficiently_subdivided(figure_halo.gamma, 3).ok
        assert not is_sufficiently_subdivided(cycle_graph(3), 3).ok
        for g in atlas_connected(6):
            col = chromatic_number(g)
            sub = subdivided_halo(build_halo(g, col), col.color_count)
            assert is_sufficiently_subdivided(sub.gamma, col.color_count).ok
            assert verify_halo(sub).ok


def test_criterion_6_halo_axiom_suite():
    with criterion(6, "halo axiom suite"):
        for g in atlas_connected(6):
            for coloring in (greedy_color(g), chromatic_number(g)):
                assert verify_halo(build_halo(g, coloring)).ok

        c6 = cycle_graph(6)
        h = build_halo(c6, chromatic_number(c6))

        def rebuilt(**kwargs):
            fields = {
                "gamma": h.gamma,
                "artin_loops": h.artin_loops,
                "basepoints": h.basepoints,
                "coloring": h.coloring,
                "delta": h.delta,
            }
            fields.update(kwargs)
            return Halo(**fields)

        # deleted loop edge
        victim = h.loop_edges("a1")[0]
        broken = rebuilt(
            gamma=SimpleGraph.make(
                h.gamma.vertices, [e for e in h.gamma.edges if e != victim]
            )
        )
        report = verify_halo(broken)
        assert not report.ok and AXIOM_SIMPLE_LOOP in report.axioms_violated()

        # forced adjacent-loop intersection
        shared = h.loop_of("a1")[1]
        loop2 = list(h.loop_of("a2"))
        loop2[1] = shared
        gamma = SimpleGraph.make(
            h.gamma.vertices,
            list(h.gamma.edges)
            + [tuple(sorted((loop2[0], shared))), tuple(sorted((shared, loop2[2])))],
        )
        broken = rebuilt(
            gamma=gamma,
            artin_loops=tuple(
                (a, tuple(loop2) if a == "a2" else loop) for a, loop in h.artin_loops
            ),
        )
        report = verify_halo(broken)
        assert not report.ok and AXIOM_EDGE_DISJOINT in report.axioms_violated()

        # moved basepoint
        broken = rebuilt(
            basepoints=tuple(
                (c, v if c != 1 else h.loop_of("a1")[1]) for c, v in h.basepoints
            )
        )
        report = verify_halo(broken)
        assert not report.ok and AXIOM_BASEPOINT in report.axioms_violated()


def test_criterion_7_britton_machinery():
    with criterion(7, "britton pinch machinery"):
        delta, coloring = figure_setup()
        ctx = build_context(delta, coloring)

        # pinch_reduce fixpoints contain no detectable pinch
        rng = random.Random(0)
        source = ctx.source_group
        signed = [(g, s) for g in source.generators for s in (1, -1)]
        for _ in range(200):
            letters = tuple(rng.choice(signed) for _ in range(rng.randint(0, 10)))
            w = GroupWord(letters)
            for v in source.generators:
                out = pinch_reduce(w, v, source)
                assert detect_pinch(out, v, source) is None
        a_gamma = ctx.a_gamma
        edge_gens = a_gamma.generators
        signed_edges = [(g, s) for g in edge_gens[:6] for s in (1, -1)]
        for _ in range(50):
            letters = tuple(rng.choice(signed_edges) for _ in range(rng.randint(0, 8)))
            w = GroupWord(letters)
            v = rng.choice(edge_gens[:6])
            out = pinch_reduce(w, v, a_gamma)
            assert detect_pinch(out, v, a_gamma) is None

        # the unsquared counterexample image pinches down to nothing
        g = counterexample_word(delta)
        trace = pinch_trace(g, ctx, squared=False)
        assert trace.emptied and trace.final_word == ""

        # squared single-generator images never do
        for gen in delta.vertices:
            trace = pinch_trace(GroupWord.parse(gen), ctx, squared=True)
            assert not trace.emptied


def test_criterion_8_theorem_over_every_small_delta():
    """The whole suite passes on every connected Δ of up to 7 vertices under
    the greedy and the exact coloring, and up to 6 vertices under the "alt"
    path threshold too. The exact coloring's count is refuted one below
    only up to 6 vertices: exhaustive assignment at 7 vertices would add
    several seconds to the test."""
    with criterion(8, "theorem over every small graph"):
        def check(g, coloring, path_threshold="paper"):
            report = verify_suite(
                g, coloring, max_len=3, sample_count=50, path_threshold=path_threshold
            )
            assert report.passed, (g, coloring, report.to_json_dict())
            assert report.check("subdivision").details["n"] == coloring.color_count

        for g in atlas_connected(7):
            exact = chromatic_number(g)
            for coloring in (greedy_color(g), exact):
                check(g, coloring)
            if g.n_vertices <= 6:
                assert not exhaustive_k_colorable(g, exact.color_count - 1), g
                for coloring in (greedy_color(g), exact):
                    check(g, coloring, path_threshold="alt")
