import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagbraid import (
    Coloring,
    GraphFormatError,
    GroupWord,
    RaagPresentation,
    SimpleGraph,
    UnknownVertexError,
    WordFormatError,
    abelianization,
    build_context,
    detect_pinch,
    equal,
    greedy_color,
    in_special_subgroup,
    is_trivial,
    pinch_reduce,
    raag_reduce,
)

from oracles import (
    atlas_connected,
    bfs_is_trivial,
    complete_graph,
    cycle_graph,
    edges_commute,
    least_spelling,
    minimal_equivalent_length,
    petersen_graph,
    shortest_spellings,
    trivial_closure,
)

W = GroupWord.parse


def presentation(vertices, edges=()):
    return RaagPresentation(SimpleGraph.make(vertices, edges))


FREE_AB = presentation(["a", "b"])
COMM_AC = presentation(["a", "b", "c"], [("a", "c")])


class TestFromCliques:
    def test_generator_twice_in_one_clique(self):
        with pytest.raises(GraphFormatError, match="twice"):
            RaagPresentation.from_cliques(["a", "b"], [["a", "b", "a"]])

    def test_unknown_generator(self):
        with pytest.raises(UnknownVertexError):
            RaagPresentation.from_cliques(["a", "b"], [["a", "z"]])

    def test_relation(self):
        """Two generators commute unless a clique holds both; a generator in
        no clique commutes with all others and still cancels."""
        p = RaagPresentation.from_cliques("abcde", ["abc", "abd"])
        assert not p.commute("a", "b") and not p.commute("c", "a")
        assert p.commute("c", "d") and p.commute("e", "a")
        assert p.link("a") == {"e"}
        assert p.reduce_letters(W("e a e^-1 a^-1").letters) == ()
        assert p.reduce_letters(W("d c a b").letters) == W("c d a b").letters

    @pytest.mark.parametrize("seed", range(6))
    def test_overlapping_cliques_match_the_graph(self, seed):
        """Random cliques that share several generators give the normal
        forms of the commutation graph they define."""
        rng = random.Random(seed)
        gens = "abcdefg"
        cliques = [rng.sample(gens, rng.randint(1, 4)) for _ in range(4)]
        p = RaagPresentation.from_cliques(gens, cliques)
        blocked = {frozenset((g, h)) for c in cliques for g in c for h in c if g != h}
        graph = presentation(
            gens, [(g, h) for g, h in itertools.combinations(gens, 2) if {g, h} not in blocked]
        )
        for _ in range(200):
            w = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))]
            assert p.reduce_letters(w) == graph.reduce_letters(w)
            assert p.is_trivial_letters(w) == graph.is_trivial_letters(w)

    def test_short_word_over_a_large_group_allocates_little(self):
        """Piles exist only for the cliques a word touches: on a path of
        100,000 edges, a word of two adjacent edges allocates under 64 KiB."""
        gens = [f"e{k:06d}" for k in range(100_000)]
        p = RaagPresentation.from_cliques(gens, zip(gens, gens[1:]))
        w = [(gens[500], 1), (gens[501], -1)]
        tracemalloc.start()
        try:
            assert not p.is_trivial_letters(w)
            assert p.reduce_letters(w) == tuple(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, f"peak {peak} bytes"


class TestTwoCliqueGenerators:
    """A generator in exactly two cliques is piled by one test of its two
    piles' tops. Checked against the oracles in words that mix it with
    generators in one clique and in three or more."""

    # a in 3 cliques and g in 4; b, e, x and y in 2, e and x in the same
    # two; c, d, and f and h (in none, so each in its own) in 1
    CLIQUES = ["abcdg", "aexg", "bexyg", "agy"]
    GENS = "abcdefghxy"

    @pytest.fixture(scope="class")
    def group(self):
        p = RaagPresentation.from_cliques(self.GENS, self.CLIQUES)
        pairs = [
            (g, h)
            for g, h in itertools.combinations(self.GENS, 2)
            if not any(g in c and h in c for c in self.CLIQUES)
        ]
        kinds = {}
        for g in self.GENS:
            kinds.setdefault(min(len(p._cliques[p.index_of(g)]), 3), []).append(g)
        assert sorted(kinds) == [1, 2, 3]
        return p, pairs, kinds

    @staticmethod
    def mixed_word(rng, kinds, length):
        """A word of ``length`` letters, with one of each kind of generator."""
        gens = [rng.choice(kinds[k]) for k in (1, 2, 3)]
        gens += rng.choices([g for ks in kinds.values() for g in ks], k=length - 3)
        rng.shuffle(gens)
        return [(g, rng.choice((1, -1))) for g in gens]

    @pytest.mark.parametrize("seed", range(4))
    def test_reduction_is_the_least_geodesic(self, group, seed):
        """The reduction is a geodesic of the word's element, and the least
        spelling of that geodesic; the word is trivial exactly when it is
        empty."""
        p, pairs, kinds = group
        rng = random.Random(seed)
        for _ in range(40):
            w = self.mixed_word(rng, kinds, rng.randint(3, 8))
            r = p.reduce_letters(w)
            assert r in shortest_spellings(w, pairs), w
            assert r == least_spelling(r, pairs), w
            assert p.is_trivial_letters(w) == (r == ()), w

    @pytest.mark.parametrize("seed", range(4))
    def test_trivial_words_and_one_letter_off(self, group, seed):
        """u then u^-1 shuffled by legal swaps is trivial; with one letter
        of its second half inverted it is not, and reduces to a least
        geodesic."""
        p, pairs, kinds = group
        commuting = {frozenset(pair) for pair in pairs}
        rng = random.Random(seed)
        for _ in range(40):
            u = self.mixed_word(rng, kinds, rng.randint(3, 5))
            back = [(g, -s) for g, s in reversed(u)]
            for _ in range(10):
                t = rng.randrange(len(back) - 1)
                if frozenset((back[t][0], back[t + 1][0])) in commuting:
                    back[t], back[t + 1] = back[t + 1], back[t]
            w = u + back
            assert p.is_trivial_letters(w) and p.reduce_letters(w) == ()
            t = rng.randrange(len(back))
            back[t] = (back[t][0], -back[t][1])
            w = u + back
            assert not p.is_trivial_letters(w) and not bfs_is_trivial(w, pairs)
            r = p.reduce_letters(w)
            assert r in shortest_spellings(w, pairs)
            assert r == least_spelling(r, pairs)

    def test_halo_edges_sharing_an_end(self):
        """Over halo edges e = (u, v) and f = (v, w): in e f e^-1, e tops
        e's pile at u, but f tops the one at v, so nothing cancels; e f
        f^-1 e^-1 is trivial. Every such pair of C6's halo is tried, in
        both orders, so the blocked pile is e's first and its second."""
        c6 = cycle_graph(6)
        ctx = build_context(c6, greedy_color(c6))
        p = ctx.a_gamma
        at = {}
        for edge in ctx.halo.gamma.edges:
            for end in edge:
                at.setdefault(end, []).append(ctx.edge_generator(edge))
        blocked = set()
        for gens in at.values():
            for e, f in itertools.permutations(gens, 2):
                own = p._cliques[p.index_of(e)]
                assert len(own) == 2
                shared = set(own) & set(p._cliques[p.index_of(f)])
                blocked.add(own.index(shared.pop()))
                w = W(f"{e} {f} {e}^-1").letters
                assert p.reduce_letters(w) == w
                assert not p.is_trivial_letters(w)
                assert p.is_trivial_letters(W(f"{e} {f} {f}^-1 {e}^-1").letters)
        assert blocked == {0, 1}


class TestGroupWord:
    def test_parse_both_inverse_syntaxes(self):
        assert W("a b^-1") == W("a ~b")

    def test_str_is_canonical_syntax(self):
        assert str(W("a ~b c^-1")) == "a b^-1 c^-1"

    def test_parse_empty(self):
        assert len(W("")) == 0

    def test_parse_rejects_garbage(self):
        with pytest.raises(WordFormatError):
            W("a^2")
        with pytest.raises(WordFormatError):
            W("~")

    def test_inverse_and_power(self):
        w = W("a b^-1")
        assert str(w.inverse()) == "b a^-1"
        assert str(w * w) == "a b^-1 a b^-1"
        assert W("a b^-1 " * 2) == w * w
        assert len(W("a b^-1 " * 0)) == 0

    @pytest.mark.parametrize("other", [3, "a", ("a", 1), None], ids=repr)
    def test_product_with_a_non_word_is_a_type_error(self, other):
        w = W("a b")
        with pytest.raises(TypeError):
            w * other
        with pytest.raises(TypeError):
            other * w


class TestRaagReduce:
    def test_defining_relator_dies(self):
        assert len(raag_reduce(W("a c a^-1 c^-1"), COMM_AC)) == 0

    def test_free_commutator_survives(self):
        assert len(raag_reduce(W("a b a^-1 b^-1"), FREE_AB)) == 4

    def test_counterexample_word_nontrivial(self):
        g = W("c b a b^-1 c^-1 b a^-1 b^-1")
        assert len(raag_reduce(g, COMM_AC)) > 0
        assert not is_trivial(g, COMM_AC)

    def test_idempotent_and_equal_to_input(self):
        for text in ("a c a^-1", "b a c b^-1 c^-1", "c b a b^-1 c^-1 b a^-1 b^-1"):
            w = W(text)
            r = raag_reduce(w, COMM_AC)
            assert raag_reduce(r, COMM_AC) == r
            assert len(r) <= len(w)
            assert equal(w, r, COMM_AC)

    def test_canonical_under_shuffles(self):
        # a c vs c a commute; both reduce identically
        assert raag_reduce(W("a c"), COMM_AC) == raag_reduce(W("c a"), COMM_AC)

    def test_unknown_generator(self):
        with pytest.raises(UnknownVertexError):
            raag_reduce(W("z"), COMM_AC)


class TestIsTrivialAndEqual:
    def test_empty_trivial(self):
        assert is_trivial(W(""), COMM_AC)

    def test_single_letter_not(self):
        assert not is_trivial(W("a"), COMM_AC)

    def test_commutator_cube_trivial(self):
        # a and c generate a free abelian special subgroup, so triviality is
        # exactly a zero exponent vector; spot-checked against the BFS
        # oracle at small powers
        assert is_trivial(W("a c a^-1 c^-1 " * 3), COMM_AC)
        assert bfs_is_trivial(W("a c a^-1 c^-1").letters, [("a", "c")])
        assert bfs_is_trivial(W("a c a^-1 c^-1 " * 2).letters, [("a", "c")])

    def test_equal_basic(self):
        assert equal(W("a c"), W("c a"), COMM_AC)
        assert not equal(W("a b"), W("b a"), COMM_AC)
        w = W("c b a")
        assert equal(w, w, COMM_AC)


class TestSpecialSubgroup:
    def test_empty_in_everything(self):
        assert in_special_subgroup(W(""), [], COMM_AC)

    def test_wrong_letters(self):
        assert not in_special_subgroup(W("a"), ["b", "c"], COMM_AC)

    def test_membership_after_reduction(self):
        w = W("b a c a^-1 c^-1")
        assert in_special_subgroup(w, ["b"], COMM_AC)

    def test_unknown_generator_in_gens(self):
        with pytest.raises(UnknownVertexError):
            in_special_subgroup(W("a"), ["z"], COMM_AC)


class TestAbelianization:
    def test_empty(self):
        assert abelianization(W(""), COMM_AC) == {"a": 0, "b": 0, "c": 0}

    def test_commutator_vanishes(self):
        assert all(v == 0 for v in abelianization(W("a b a^-1 b^-1"), FREE_AB).values())

    def test_counterexample_word_in_commutator_subgroup(self):
        g = W("c b a b^-1 c^-1 b a^-1 b^-1")
        assert abelianization(g, COMM_AC) == {"a": 0, "b": 0, "c": 0}

    def test_trivial_implies_zero_but_not_conversely(self):
        w = W("a b a^-1 b^-1")
        assert abelianization(w, FREE_AB) == {"a": 0, "b": 0}
        assert not is_trivial(w, FREE_AB)


class TestPinches:
    def test_basic_pinch_found(self):
        w = W("a c a^-1")  # c is in link(a)
        witness = detect_pinch(w, "a", COMM_AC)
        assert witness is not None
        assert witness.positions == (0, 2)
        assert str(witness.inner) == "c"

    def test_no_pinch_outside_link(self):
        w = W("a b a^-1")  # b is not in link(a)
        assert detect_pinch(w, "a", COMM_AC) is None

    def test_link_is_not_listed(self, monkeypatch):
        """Membership in the link's subgroup is read off the piles of the
        stable letter's cliques; the link itself is never built."""

        def never(*args):
            raise AssertionError("link listed")

        monkeypatch.setattr(RaagPresentation, "link", never)
        assert detect_pinch(W("a c a^-1"), "a", COMM_AC) is not None
        assert detect_pinch(W("a b a^-1"), "a", COMM_AC) is None
        assert detect_pinch(W("b c"), "a", COMM_AC) is None

    def test_inner_reduction_enables_pinch(self):
        # the interior reduces into the link subgroup even though it is not
        # spelled there
        p = presentation(["v", "a", "x"], [("v", "a")])
        w = W("v x a x^-1 v^-1 x x^-1")
        inner_reducing = W("v x x^-1 a v^-1")
        assert detect_pinch(inner_reducing, "v", p) is not None
        assert detect_pinch(w, "v", p) is None  # x a x^-1 is not in <a>

    def test_pinch_reduce_simple(self):
        assert str(pinch_reduce(W("a c a^-1"), "a", COMM_AC)) == "c"

    def test_pinch_reduce_no_stable_letter(self):
        w = W("b c b^-1")
        assert pinch_reduce(w, "a", COMM_AC) == w

    def test_pinch_reduce_nested(self):
        w = W("a a c a^-1 a^-1")
        out = pinch_reduce(w, "a", COMM_AC)
        assert str(out) == "c"
        assert equal(w, out, COMM_AC)

    def test_pinch_reduce_fixpoint_has_no_pinch(self):
        words = [
            "a c a^-1 b a b^-1",
            "a b a^-1 b^-1 a c",
            "c a c^-1 a^-1 a c a^-1",
        ]
        for text in words:
            w = W(text)
            out = pinch_reduce(w, "a", COMM_AC)
            assert detect_pinch(out, "a", COMM_AC) is None
            assert equal(w, out, COMM_AC)

    def test_britton_contrapositive_small(self):
        # any trivial word containing v admits a v-pinch
        presentations = [
            presentation(["a", "b"]),
            presentation(["a", "b"], [("a", "b")]),
            presentation(["a", "b", "c"], [("a", "c")]),
            presentation(["a", "b", "c"], [("a", "b"), ("b", "c")]),
        ]
        for p in presentations:
            gens = p.generators
            commuting = list(p.graph.edges)
            closure = trivial_closure(gens, commuting, 6)
            for letters in closure:
                if not letters:
                    continue
                word = GroupWord(letters)
                for v in {g for g, _ in letters}:
                    assert detect_pinch(word, v, p) is not None, (letters, v)


class TestOracleAgreementSmall:
    def test_all_words_len4_two_generators(self):
        for edges in ([], [("a", "b")]):
            p = presentation(["a", "b"], edges)
            closure = trivial_closure(["a", "b"], edges, 4)
            signed = [(g, s) for g in "ab" for s in (1, -1)]
            for length in range(5):
                for letters in itertools.product(signed, repeat=length):
                    assert is_trivial(GroupWord(letters), p) == (letters in closure)

    def test_geodesic_length_matches_oracle(self):
        p = COMM_AC
        signed = [(g, s) for g in "abc" for s in (1, -1)]
        import random

        rng = random.Random(3)
        for _ in range(120):
            letters = tuple(rng.choice(signed) for _ in range(rng.randint(0, 6)))
            got = len(raag_reduce(GroupWord(letters), p))
            want = minimal_equivalent_length(letters, [("a", "c")])
            assert got == want, letters

    def test_canonical_form_constant_on_closure(self):
        # every word reachable by swaps and cancellations reduces to the
        # same canonical spelling
        p = COMM_AC
        start = W("b a c a^-1 c^-1 b^-1 a")
        from collections import deque

        commuting = {("a", "c"), ("c", "a")}
        seen = {start.letters}
        queue = deque([start.letters])
        target = raag_reduce(start, p)
        while queue:
            cur = queue.popleft()
            assert raag_reduce(GroupWord(cur), p) == target
            for t in range(len(cur) - 1):
                (g1, s1), (g2, s2) = cur[t], cur[t + 1]
                nxt = None
                if g1 == g2 and s1 == -s2:
                    nxt = cur[:t] + cur[t + 2 :]
                elif (g1, g2) in commuting:
                    nxt = cur[:t] + ((g2, s2), (g1, s1)) + cur[t + 2 :]
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)


def word_strategy(gens="abc", max_len=8):
    letter = st.tuples(st.sampled_from(list(gens)), st.sampled_from([1, -1]))
    return st.lists(letter, max_size=max_len).map(lambda ls: GroupWord(tuple(ls)))


@settings(max_examples=120, deadline=None)
@given(word_strategy())
def test_reduce_properties(w):
    r = raag_reduce(w, COMM_AC)
    assert len(r) <= len(w)
    assert raag_reduce(r, COMM_AC) == r
    assert equal(w, r, COMM_AC)
    assert is_trivial(w, COMM_AC) == (len(r) == 0)
    if is_trivial(w, COMM_AC):
        assert all(v == 0 for v in abelianization(w, COMM_AC).values())


@settings(max_examples=120, deadline=None)
@given(word_strategy(), st.sampled_from(["a", "b", "c"]))
def test_pinch_reduce_properties(w, v):
    out = pinch_reduce(w, v, COMM_AC)
    assert detect_pinch(out, v, COMM_AC) is None
    assert equal(w, out, COMM_AC)


def edge_group(delta, coloring=None):
    """A context's edge group with its commuting pairs, decided by the
    oracle from the halo's edge tuples."""
    ctx = build_context(delta, coloring or greedy_color(delta))
    edges = {f"{u}|{v}": (u, v) for u, v in ctx.halo.gamma.edges}
    assert set(edges) == set(ctx.a_gamma.generators)
    pairs = [
        (a, b) for a, b in itertools.combinations(edges, 2) if edges_commute(edges[a], edges[b])
    ]
    return ctx.a_gamma, pairs


FIGURE = SimpleGraph.make(["a", "b", "c"], [("a", "c")])
# the edge groups of the figure, C6 and K5 contexts, then the Delta groups of
# every connected graph on at most five vertices
GROUPS = [
    edge_group(FIGURE, Coloring.make(FIGURE, {"a": 1, "b": 2, "c": 3})),
    edge_group(cycle_graph(6)),
    edge_group(complete_graph(5)),
] + [(RaagPresentation(g), list(g.edges)) for g in atlas_connected(5)]


@st.composite
def local_words(draw, max_len=7):
    """A group of ``GROUPS`` and a word over the generators at most two
    non-commuting steps from one generator, so that letters block, commute
    and cancel alike."""
    p, pairs = draw(st.sampled_from(GROUPS))
    commuting = {frozenset(pair) for pair in pairs}

    def near(gens):
        return {h for g in gens for h in p.generators if frozenset((g, h)) not in commuting}

    pool = sorted(near(near([draw(st.sampled_from(p.generators))])))
    return p, pairs, pool, draw(word_strategy(pool, max_len))


@settings(max_examples=300, deadline=None)
@given(local_words())
def test_reduction_is_least_geodesic(case):
    p, pairs, _, w = case
    r = p.reduce_letters(w.letters)
    assert r == least_spelling(r, pairs)
    assert len(r) == minimal_equivalent_length(w.letters, pairs)


@settings(max_examples=300, deadline=None)
@given(local_words(max_len=4), st.data())
def test_special_subgroup_matches_spelling(case, data):
    """Words u s u^-1 and u s, with s over the subgroup's generators, so that
    members and non-members both occur often."""
    p, _, pool, u = case
    gens = data.draw(st.sets(st.sampled_from(pool)))
    s = data.draw(word_strategy(sorted(gens) or pool, 4))
    w = u * s * data.draw(st.sampled_from([u.inverse(), GroupWord()]))
    spelled = p.reduce_letters(w.letters)
    assert in_special_subgroup(w, gens, p) == all(g in gens for g, _ in spelled)


def test_long_petersen_words():
    """A 50,000-letter w w^-1, its second half shuffled by legal
    commutations, reduces to the empty word; with one letter of it inverted,
    its exponent sums do not vanish and it does not."""
    p, pairs = edge_group(petersen_graph())
    commuting = {frozenset(pair) for pair in pairs}
    rng = random.Random(17)
    w = [(rng.choice(p.generators), rng.choice((1, -1))) for _ in range(25_000)]
    back = [(g, -s) for g, s in reversed(w)]
    for _ in range(100_000):
        t = rng.randrange(len(back) - 1)
        if frozenset((back[t][0], back[t + 1][0])) in commuting:
            back[t], back[t + 1] = back[t + 1], back[t]
    trivial = w + back
    assert p.reduce_letters(trivial) == ()
    assert p.is_trivial_letters(trivial)
    nontrivial = list(trivial)
    t = rng.randrange(25_000, 50_000)
    g, s = nontrivial[t]
    nontrivial[t] = (g, -s)
    assert any(abelianization(GroupWord(tuple(nontrivial)), p).values())
    r = p.reduce_letters(nontrivial)
    assert r and p.reduce_letters(r) == r
    assert not p.is_trivial_letters(nontrivial)
    spelled = p.reduce_letters(w)
    assert p.reduce_letters(spelled) == spelled
    assert p.is_trivial_letters(w + list(GroupWord(spelled).inverse().letters))
