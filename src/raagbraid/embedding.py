"""The embedding pipeline and its verification suites.

From a colored graph the context assembles: the subdivided halo, the
right-angled Artin group on the halo's edges, and a fixed orientation per
halo edge (tail = smaller endpoint). Two edges fail to commute exactly when
they share an endpoint, so the edge group is presented by the stars of the
halo's vertices, one clique of edges per vertex: O(edges) entries, where the
commuting pairs number O(edges^2), and piling a letter touches the two piles
of its endpoints. The edge-forgetting map sends a configuration path to the
word of crossed edges, one letter per step, signed by the orientation;
generators of the source group map to their loop traversed twice (squaring
is what makes the composite injective, and the counterexample report
exhibits why once it is dropped). A generator's loop is read off the halo,
which meets the axioms, so its steps are legal and it closes at the
basepoints without a replay. Every letter's image is derived from that
single loop, mapped once: run backwards it is the image reversed with its
signs negated, run twice it is the image twice. The injectivity check
reads those images in integer codes straight off the loops' vertex ids and
piles them on the halo's integer view, with no edge named, and carries
only the words' source exponent sums. When each generator's image has an
edge of its own with a nonzero sum, as on every halo that meets the
axioms, an image's sums vanish exactly when the word's do, and only those
words are piled: an image with a nonzero exponent sum is nontrivial. The
walk over the elements reads zero sums off the L1 norm of the sums it
carries, and skips the subtrees that cannot reach them. Over any other
halo every image is piled. Rotations of a word and of its inverse have
conjugate or inverse images, so one word per such class is piled: its
verdict is memoized under the rotations of the word and of its inverse that
the walk reaches later, and the other words of the class read it there.

The edge group is built on first use. The homomorphism check decides a
relator [a, b] from the supports of its loops: when they share no halo
vertex, every letter of one image commutes with every letter of the other,
so the commutator of the images is trivial without piling. Only the
commutators of loops that meet are piled.
"""
from __future__ import annotations

import json
import random
import time
from collections import namedtuple
from functools import cached_property

from . import errors
from .configspace import ConfigEdgePath, Step, artin_basepoint
from .errors import (
    GraphFormatError,
    InputError,
    SizeExceededError,
    UnknownVertexError,
    VerificationError,
    WordFormatError,
)
from .graphs import (
    Coloring,
    SimpleGraph,
    is_planar,
    is_sufficiently_subdivided,
    json_value,
    normalize_edge,
)
from .halo import (
    Halo,
    _assemble_halo,
    _check_halo_input,
    build_halo,
    subdivided_halo,
    verify_halo,
)
from .raag import (
    GroupWord,
    RaagPresentation,
    detect_pinch,
    is_trivial,
)

Letter = tuple[str, int]


def edge_generator_name(edge: tuple[str, str]) -> str:
    return f"{edge[0]}|{edge[1]}"


class EmbeddingContext:
    """Everything needed to evaluate the composite map over one halo.

    The halo must meet the axioms: ``context_from_halo`` checks them, and
    so does ``verify_suite``'s ``halo-axioms`` check before it builds a
    context. They are not checked here, and the loops read off the halo
    are not replayed, so over a halo that fails them the loops may be
    illegal or open. ``self.halo`` is the halo given, subdivided if it must
    be by ``subdivided_halo``. ``source_group`` is A(Δ) when the caller has
    built it already; one of another graph than ``halo.delta`` is not used,
    and without one A(Δ) is built on first use. The edge group
    (``a_gamma``) and the edges' names (``_edge_to_gen``) are built on
    first use too, for ``phi``, ``letter_image`` and the callers that pile
    named words: the injectivity check reads the loops in integer codes
    and builds neither over a halo whose vertex names hold no ``|``."""

    def __init__(
        self,
        halo: Halo,
        path_threshold: str = "paper",
        source_group: RaagPresentation | None = None,
    ):
        halo = self.halo = subdivided_halo(halo, halo.coloring.color_count, path_threshold)
        self.delta = halo.delta
        self.coloring = halo.coloring
        self.n = halo.coloring.color_count
        self.path_threshold = path_threshold
        if source_group is not None and source_group.graph == self.delta:
            self.source_group = source_group
        self.base = artin_basepoint(halo)
        self._letter_images: dict[tuple[str, int, bool], tuple[Letter, ...]] = {}

    @cached_property
    def source_group(self) -> RaagPresentation:
        """A(Δ), unless the caller passed it in: the homomorphism check
        never reads it."""
        return RaagPresentation(self.delta)

    @cached_property
    def _edge_to_gen(self) -> dict[tuple[str, str], str]:
        """One generator name per halo edge, built on first use: only
        ``phi`` and ``a_gamma`` read it, so a homomorphism check whose
        loops never meet builds none. Raises ``GraphFormatError`` when two
        edges get one name, as ``(q, r|s)`` and ``(q|r, s)`` do: the edge
        group would merge their generators. The injectivity check builds it
        only for that check, when some vertex name holds a ``|``."""
        names: dict[tuple[str, str], str] = {}
        named: dict[str, tuple[str, str]] = {}
        for e in self.halo.gamma.edges:
            name = names[e] = edge_generator_name(e)
            other = named.setdefault(name, e)
            if other != e:
                raise GraphFormatError(
                    f"halo edges {other} and {e} both get the generator name {name!r}"
                )
        return names

    @cached_property
    def a_gamma(self) -> RaagPresentation:
        """The right-angled Artin group on the halo's edges, built on first
        use: ``check_homomorphism`` piles only the relators whose loops
        meet, so over a halo that meets the axioms it never builds it, and
        the injectivity check piles on Γ's integer view instead."""
        # two edges fail to commute exactly when they share an endpoint, so
        # the edges at each vertex form a clique and these cliques cover
        # the relation
        at: dict[str, list[str]] = {v: [] for v in self.halo.gamma.vertices}
        for (u, v), gen in self._edge_to_gen.items():
            at[u].append(gen)
            at[v].append(gen)
        return RaagPresentation.from_cliques(self._edge_to_gen.values(), at.values())

    def edge_generator(self, edge: tuple[str, str]) -> str:
        try:
            return self._edge_to_gen[edge]
        except KeyError:
            raise UnknownVertexError(f"{edge} is not an edge of the halo graph") from None

    def loop_path(self, delta_vertex: str, power: int) -> ConfigEdgePath:
        """The closed path at ``self.base`` in which the token of the
        generator's colour walks its loop ``|power|`` times, backwards for a
        negative power, while every other token rests.

        One step per edge of ``self.halo.loop_of(delta_vertex)``, read off
        as it stands: by the axioms the loop is simple, starts and ends at
        its colour's basepoint and avoids every other basepoint, so each
        step is legal and the path closes. Nothing is cached."""
        if not self.delta.has_vertex(delta_vertex):
            raise UnknownVertexError(f"unknown source generator {delta_vertex!r}")
        loop = self.halo.loop_of(delta_vertex)
        walk = loop if power > 0 else loop[::-1]
        steps = tuple(Step(normalize_edge(s, t), s) for s, t in zip(walk, walk[1:]))
        return ConfigEdgePath(base=self.base, steps=steps * abs(power))

    def letter_image(self, delta_vertex: str, sign: int, squared: bool) -> tuple[Letter, ...]:
        """Image in the edge group of one signed source letter.

        Only the loop ``loop_path(delta_vertex, 1)`` is built and mapped by
        ``phi``, once: the loop run backwards crosses the same edges in
        reverse order and the other way, so its image is the reversed image
        with every sign negated, and the loop run twice has the image twice.
        Both are legal closed loops because the loop is."""
        key = (delta_vertex, sign, squared)
        image = self._letter_images.get(key)
        if image is None:
            if sign not in (1, -1):
                raise WordFormatError(f"letter sign must be +1 or -1, got {sign!r}")
            if sign > 0 and not squared:
                image = phi(self.loop_path(delta_vertex, 1), self).letters
            else:
                image = self.letter_image(delta_vertex, 1, False)
                if sign < 0:
                    image = tuple((g, -s) for g, s in reversed(image))
                if squared:
                    image += image
            self._letter_images[key] = image
        return image


def build_context(
    delta: SimpleGraph, coloring: Coloring, path_threshold: str = "paper"
) -> EmbeddingContext:
    """The context over the canonical halo: ``context_from_halo`` of
    ``build_halo``'s halo, which checks its axioms once."""
    return context_from_halo(build_halo(delta, coloring), path_threshold)


def context_from_halo(halo: Halo, path_threshold: str = "paper") -> EmbeddingContext:
    """Context over a halo that meets the axioms: ``verify_halo`` checks
    them once, and ``VerificationError`` names those violated; the context
    then subdivides the halo if it must."""
    report = verify_halo(halo)
    if not report.ok:
        raise VerificationError(f"halo violates axioms {report.axioms_violated()}")
    return EmbeddingContext(halo, path_threshold)


def phi(path: ConfigEdgePath, ctx: EmbeddingContext) -> GroupWord:
    """Forget all resting tokens: one letter per crossed edge, sign positive
    when the move runs tail to head, from the edge's smaller endpoint, the
    one stored first."""
    letters = []
    for step in path.steps:
        gen = ctx.edge_generator(step.edge)
        letters.append((gen, 1 if step.source == step.edge[0] else -1))
    return GroupWord(tuple(letters))


def psi(w: GroupWord, ctx: EmbeddingContext, squared: bool = True) -> ConfigEdgePath:
    """Realize a source word as a based loop: each letter contributes a
    single or doubled traversal of its generator's loop.

    The letters' loops come from ``ctx.loop_path``, each legal and closed at
    ``ctx.base`` because the halo meets the axioms, so their concatenation
    is a legal loop at ``ctx.base`` and is not replayed here."""
    factor = 2 if squared else 1
    steps = []
    for gen, sign in w.letters:
        steps.extend(ctx.loop_path(gen, factor * sign).steps)
    return ConfigEdgePath(base=ctx.base, steps=tuple(steps))


def phi_psi(w: GroupWord, ctx: EmbeddingContext, squared: bool = True) -> GroupWord:
    """The composite: source word to edge-group word, equal to
    ``phi(psi(w, ctx, squared), ctx)``.

    Concatenates the cached letter images (``ctx.letter_image``), so the
    cost is linear in the image length."""
    img: list[Letter] = []
    for gen, sign in w.letters:
        img.extend(ctx.letter_image(gen, sign, squared))
    return GroupWord(tuple(img))


# --- verification suites ---------------------------------------------------


class RelatorCheck(
    namedtuple(
        "RelatorCheck", "edge commutator_trivial supports_disjoint cross_pairs_commute"
    )
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.commutator_trivial and self.supports_disjoint and self.cross_pairs_commute


class HomomorphismReport(namedtuple("HomomorphismReport", "ok relators")):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        return json_value(self)


def check_homomorphism(ctx: EmbeddingContext) -> HomomorphismReport:
    """Every commutation relator of the source must map to a trivial word,
    and more strongly the images of adjacent generators must use disjoint,
    pairwise-commuting sets of edge generators.

    A relator [a, b] whose loops share no halo vertex is decided trivial
    without piling its image: two edges commute unless they share an
    endpoint, so every letter of a's image commutes with every letter of
    b's, and the commutator of the images is 1. That holds over any halo,
    not only one that meets the axioms. Only a relator whose loops meet is
    piled, so it reports its own verdict.

    Each loop's vertices, the endpoints of the edges it crosses, are read
    off the halo's one loop reading as vertex ids (``Halo._loop_ids``),
    which ``verify_halo`` read too, or which ``build_halo`` filled in; a
    source vertex without a loop raises ``UnknownVertexError``."""
    halo = ctx.halo
    loop_ids = halo._loop_ids.ids
    generators = {v for e in ctx.delta.edges for v in e}
    if not generators <= loop_ids.keys():
        halo.loop_of(min(generators - loop_ids.keys()))  # raises
    # per generator in a relator: its loop's vertex ids, built once however
    # many relators hold it
    vertices_of = {a: set(loop_ids[a]) for a in generators}
    relators = []
    for a, b in ctx.delta.edges:
        # every cross pair commutes exactly when no endpoint is shared; a
        # shared edge shares its endpoints, so loops that share no vertex
        # share no edge, and only loops that meet need their edge sets
        cross = vertices_of[a].isdisjoint(vertices_of[b])
        disjoint = cross or set(halo.loop_edges(a)).isdisjoint(halo.loop_edges(b))
        trivial = cross or is_trivial(
            phi_psi(GroupWord.from_pairs([(a, 1), (b, 1), (a, -1), (b, -1)]), ctx, squared=True),
            ctx.a_gamma,
        )
        relators.append(
            RelatorCheck(
                edge=(a, b),
                commutator_trivial=trivial,
                supports_disjoint=disjoint,
                cross_pairs_commute=cross,
            )
        )
    return HomomorphismReport(ok=all(r.ok for r in relators), relators=tuple(relators))


class InjectivityReport(
    namedtuple(
        "InjectivityReport",
        "squared max_len exhaustive_elements sample_count sample_max_len seed failures",
    )
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, **json_value(self)}


def _check_element_budget(p: RaagPresentation, max_len: int) -> int:
    """Return the number of nontrivial elements of length at most max_len,
    predicted from the growth series, length by length, and raise before
    enumerating more than ``errors.DEFAULT_BUDGET`` of them, read when it is
    called: the count is bounded from below while its cliques are listed.
    The presentation keeps the counts within budget by (max_len, budget),
    so the prediction runs once for each."""
    budget = errors.DEFAULT_BUDGET
    key = (max_len, budget)
    total = p.within_budget.get(key)
    if total is not None:
        return total
    total = -1  # the identity is not enumerated
    for length, size in enumerate(p.sphere_sizes(max_len, budget)):
        if not size:
            # each prefix of a geodesic is one, so every longer sphere is empty too
            break
        total += size
        if total > budget:
            raise SizeExceededError(
                f"{total} nontrivial elements of length at most {length} to enumerate, "
                f"over the budget of {budget}"
            )
    p.within_budget[key] = total
    return total


def _signed_letters(p: RaagPresentation) -> list[Letter]:
    """Each generator then its inverse: letter code 2i is generator i, so
    code >> 1 is the generator and code ^ 1 the inverse letter."""
    return [(g, s) for g in p.generators for s in (1, -1)]


def _pack(p: RaagPresentation, max_len: int) -> list[int]:
    """Each letter code's source exponent sums packed into one integer, so
    that a word's packed sums are the sum over its letters: generator i
    weighs ``(max_len + 1) ** i`` and its inverse the negative of that.

    A word of at most ``max_len`` letters has exponent sums of size at most
    ``max_len``, so its packed sums are 0 exactly when all its exponent sums
    vanish: at the least i with d_i != 0, max_len + 1 would have to divide
    d_i.
    """
    base = max_len + 1
    return [s * base**i for i in range(len(p.generators)) for s in (1, -1)]


def _walked_rotations(later: list[int], follow: list[int], w: tuple[int, ...]) -> list:
    """The rotations of ``w`` and of its inverse that are greater than ``w``
    and that the walk of ``_nontrivial_elements`` spells: each letter is
    among those extending the letters before it, by the walk's own
    ``follow``/``later`` recurrence (``RaagPresentation._walk_masks``). The
    walk gives each of them after ``w``: their exponent sums vanish when
    ``w``'s do, and the walk gives the spellings of one length in
    increasing order."""
    found = []
    for u in (w, tuple(code ^ 1 for code in reversed(w))):
        for i in range(len(u)):
            r = u[i:] + u[:i]
            if r > w:
                allowed = -1  # every letter extends the empty word
                for code in r:
                    if not allowed >> code & 1:
                        break
                    allowed = follow[code] | allowed & later[code >> 1]
                else:
                    found.append(r)
    return found


def _nontrivial_elements(p: RaagPresentation, max_len: int, zero_sum: bool = True):
    """The spellings of the nontrivial elements of geodesic length at most
    max_len whose source exponent sums all vanish, or of every one of them
    when ``zero_sum`` is false, as tuples of letter codes (see
    ``_signed_letters``).

    The search runs depth first over the spellings ``p.reduce_letters``
    gives, the geodesics least in generator order, and visits each element
    once. Sets of letter codes are bit masks. A letter extends a spelling
    unless a backward scan over the suffix of letters commuting with it
    meets its inverse (the word would not be geodesic) or a larger
    generator (the spelling would not be the least).
    So after a letter x of generator g, the extending letters are those of
    generators not commuting with g, except x's inverse, and those of larger
    generators commuting with g that extended the word before x
    (``RaagPresentation._walk_masks``).

    The L1 norm of the source exponent sums is carried down the search: each
    letter moves it by exactly 1, down when the letter is ``toward`` zero on
    its generator. So an extension has zero sums exactly when the spelling's
    norm is 1 and the letter is ``toward``. Every prefix of a spelling the
    search gives is one it gives, so a spelling whose norm exceeds the
    letters that may still follow it has no zero-sum extension and, with
    ``zero_sum``, is not entered.

    The search is one loop over an explicit stack, with no call per node. A
    spelling gets a frame only when it has extensions to enter; its own
    extensions are listed when it is reached, in increasing code order, so
    the spellings of each length come in increasing order.
    """
    found: list[tuple[int, ...]] = []
    if max_len < 1:
        return found
    by_gen, later, follow = p._walk_masks
    k = len(p.generators)
    word: list[int] = []
    source_sums = [0] * k
    if not zero_sum:
        found += [(code,) for code in range(2 * k)]
    # one frame per spelling on the path from the empty word, each with
    # extensions still to enter: the letters extending it, those not yet
    # entered, its source norm and the letters that would lower that norm.
    # So word has one letter fewer than the stack has frames.
    everything = (1 << 2 * k) - 1
    stack = [[everything, everything, 0, 0]] if max_len > 1 else []
    while stack:
        frame = stack[-1]
        allowed, todo, norm, toward = frame
        if not todo:
            stack.pop()
            if word:
                code = word.pop()
                source_sums[code >> 1] += 2 * (code & 1) - 1
            continue
        low = todo & -todo
        frame[1] = todo ^ low
        code = low.bit_length() - 1
        i = code >> 1
        d = source_sums[i] + 1 - 2 * (code & 1)
        allowed = follow[code] | allowed & later[i]
        norm += -1 if toward & low else 1
        toward &= ~by_gen[i]
        if d:
            toward |= 1 << (2 * i + (d > 0))
        # the extensions of word + [code], which has len(stack) letters;
        # with zero_sum, those that lower a norm of 1 to 0
        emit = allowed if not zero_sum else allowed & toward if norm == 1 else 0
        if emit:
            prefix = (*word, code)
            while emit:
                low = emit & -emit
                found.append(prefix + (low.bit_length() - 1,))
                emit ^= low
        left = max_len - len(stack)  # the letters that may follow the extension
        if left > 1:
            # with zero_sum, an extension raising a norm that high could not
            # reach 0
            todo = allowed if not zero_sum or norm < left - 1 else allowed & toward
            if todo:
                word.append(code)
                source_sums[i] = d
                stack.append([allowed, todo, norm, toward])
    return found


def check_spot_check_args(max_len: int, sample_count: int, seed: int) -> None:
    """Check the injectivity check's arguments alone, before any work: raise
    ``InputError`` for a negative length, sample count or seed, or for
    samples with ``max_len`` 0, and ``SizeExceededError`` for more samples
    than ``errors.DEFAULT_BUDGET``. The element count, which needs the
    presentation, is ``_check_element_budget``'s."""
    if max_len < 0:
        raise InputError(f"max_len must be >= 0, got {max_len}")
    if sample_count < 0:
        raise InputError(f"sample_count must be >= 0, got {sample_count}")
    if seed < 0:  # random.Random(-s) draws what random.Random(s) draws
        raise InputError(f"seed must be >= 0, got {seed}")
    if sample_count > 0 and max_len == 0:
        raise InputError(
            f"{sample_count} samples need max_len >= 1: samples have up to 2 * max_len letters"
        )
    if sample_count > errors.DEFAULT_BUDGET:
        raise SizeExceededError(
            f"{sample_count} samples to draw, over the budget of {errors.DEFAULT_BUDGET}"
        )


def _draw_samples(
    seed: int, max_length: int, weights: list[int], count: int, read, certified: bool
) -> int:
    """Draw seeded words over the letter codes ``0 .. len(weights) - 1``
    until ``count`` are accepted or ``100 * count`` are drawn, and return the
    number accepted.

    The words are those ``rng = random.Random(seed)`` gives by
    ``rng.randint(1, max_length)`` letters of
    ``rng.choice(range(len(weights)))`` each. Both draw below a bound as
    ``Random._randbelow`` does: values of ``getrandbits(bound.bit_length())``
    until one is below the bound. A word is read by
    ``read(codes, weight_sum)``, with the sum of its codes' ``weights`` added
    as each letter is drawn, which says whether it is accepted. When
    ``certified``, the weights are packed source exponent sums (``_pack``),
    and a word whose sums do not all vanish is accepted unread: one of an
    odd letter count has an odd exponent sum, so its letters are drawn and
    not kept. Needs ``max_length`` and ``len(weights)`` at least 1 when
    ``count`` is.
    """
    if not count:
        return 0
    getrandbits = random.Random(seed).getrandbits
    n_codes = len(weights)
    length_bits = max_length.bit_length()
    code_bits = n_codes.bit_length()
    # per length drawn, the range of its letters, built once
    letters = [range(length + 1) for length in range(max_length)]
    accepted = 0
    for _ in range(100 * count):
        length = getrandbits(length_bits)
        while length >= max_length:
            length = getrandbits(length_bits)
        if certified and not length & 1:
            # length + 1 letters, an odd count
            for _ in letters[length]:
                while getrandbits(code_bits) >= n_codes:
                    pass
            accepted += 1
        else:
            codes = []
            weight_sum = 0
            for _ in letters[length]:
                code = getrandbits(code_bits)
                while code >= n_codes:
                    code = getrandbits(code_bits)
                codes.append(code)
                weight_sum += weights[code]
            if certified and weight_sum or read(codes, weight_sum):
                accepted += 1
        if accepted == count:
            break
    return accepted


def _loop_letters(ctx: EmbeddingContext) -> list[tuple[int, ...]]:
    """Per generator of ``ctx.source_group``, in its order, the unsquared
    image of the generator's letter as edge letter codes: what
    ``ctx.letter_image(g, 1, False)`` spells, read straight off the loop's
    vertex ids (``Halo._loop_ids``), with no path, step or name made.

    The halo edge between the vertices of ids i < j has code
    e = i * |V(Γ)| + j, and its letters are 2e, crossed from i to j, and
    2e + 1, crossed from j to i. Ids follow the names' order, so a step
    from the smaller id is the one ``phi`` signs +1. Raises what
    ``letter_image`` raises, in its order: ``UnknownVertexError`` for a
    generator without a loop or a step that is no edge of Γ, and
    ``_edge_to_gen``'s ``GraphFormatError`` for two edges of one name. A
    name is shared only if some vertex name holds a ``|``, so the names
    are built only when a scan of the vertex names finds one."""
    halo = ctx.halo
    gamma = halo.gamma
    n = gamma.n_vertices
    reading = halo._loop_ids
    adj = gamma._adj + ((),) * len(reading.outside)  # a vertex outside Γ has no edge
    collide = any("|" in v for v in gamma.vertices)
    loops = []
    for g in ctx.source_group.generators:
        ids = reading.ids.get(g)
        if ids is None:
            halo.loop_of(g)  # raises
        if collide and len(ids) > 1:
            ctx._edge_to_gen  # raises when two edges share a name
            collide = False
        letters = []
        for s, t in zip(ids, ids[1:]):
            if t not in adj[s]:
                names = gamma.vertices + tuple(reading.outside)
                ctx.edge_generator(normalize_edge(names[s], names[t]))  # raises
            letters.append(2 * (s * n + t) if s < t else 2 * (t * n + s) + 1)
        loops.append(tuple(letters))
    return loops


def _letter_codes(loops: list[tuple[int, ...]], code: int, squared: bool) -> tuple[int, ...]:
    """The image of source letter ``code`` (``_signed_letters``) as edge
    letter codes, as ``ctx.letter_image`` spells it: its generator's loop
    letters (``_loop_letters``), reversed with every letter inverted for an
    inverse letter, and twice when ``squared``."""
    image = loops[code >> 1]
    if code & 1:
        image = tuple(c ^ 1 for c in reversed(image))
    return image + image if squared else image


def _edge_word_is_trivial(letters, n: int) -> bool:
    """Whether a word of edge letter codes (``_loop_letters``) over a halo
    Γ of ``n`` vertices is trivial in the edge group: ``ctx.a_gamma``'s
    piling, read on Γ's integer view. The edges at each vertex form one
    clique, so edge i * n + j lies in exactly two, the stars of i and j, and
    each letter is decided as in the two-clique lane of
    ``RaagPresentation._pile``: it cancels when both piles have its inverse
    on top, and is pushed onto both otherwise."""
    piles: dict[int, list[int]] = {}  # per vertex id: the pile of its star
    ends: dict[int, tuple[list[int], list[int]]] = {}  # per edge: its two piles
    count = 0
    for code in letters:
        edge = code >> 1
        pair = ends.get(edge)
        if pair is None:
            i, j = divmod(edge, n)
            a = piles.get(i)
            if a is None:
                a = piles[i] = []
            b = piles.get(j)
            if b is None:
                b = piles[j] = []
            pair = ends[edge] = (a, b)
        a, b = pair
        inverse = code ^ 1
        if a and a[-1] == inverse and b[-1] == inverse:
            a.pop()
            b.pop()
            count -= 1
        else:
            a.append(code)
            b.append(code)
            count += 1
    return not count


def _sums_follow_the_source(loops: list[tuple[int, ...]]) -> bool:
    """Whether every source generator's unsquared image (``_loop_letters``)
    crosses an edge that no other generator's image crosses, with a nonzero
    exponent sum. Then a word's image exponent sums vanish exactly when its
    source exponent sums do: on that edge they read the word's exponent sum
    of its source generator times a nonzero constant. A halo that meets the
    axioms passes, as loops of distinct generators share no edge and each
    loop crosses each of its edges once. O(total image length)."""
    users: dict[int, int] = {}  # edge -> its one user, or -1 once two cross it
    sums: dict[int, int] = {}
    for g, letters in enumerate(loops):
        for code in letters:
            edge = code >> 1
            if users.setdefault(edge, g) != g:
                users[edge] = -1
            sums[edge] = sums.get(edge, 0) + 1 - 2 * (code & 1)
    certified = {g for edge, g in users.items() if g >= 0 and sums[edge]}
    return len(certified) == len(loops)


def injectivity_spot_check(
    ctx: EmbeddingContext,
    max_len: int,
    sample_count: int = 0,
    seed: int = 0,
    squared: bool = True,
) -> InjectivityReport:
    """Look for nontrivial source elements with trivial image.

    Exhausts every element of geodesic length up to ``max_len``, then checks
    ``sample_count`` seeded random words of length up to ``2 * max_len``:
    the words ``random.Random(seed)``'s ``randint`` and ``choice`` would
    draw, with their packed source exponent sums (``_pack``) carried as they
    are drawn (``_draw_samples``). A sample with zero sums that is trivial
    in A(Δ) is rejected and another drawn, up to 100 draws per sample. In
    squared mode any failure is an implementation bug; in unsquared mode
    failures witness the lost injectivity.

    The letter images are read once, as edge letter codes, straight off the
    loops' vertex ids (``_loop_letters``), and an image is piled on Γ's
    integer view (``_edge_word_is_trivial``): the check builds neither
    ``ctx.a_gamma`` nor the edges' names, and calls neither ``loop_path``
    nor ``phi``. When that reading certifies that the image exponent sums
    vanish exactly with the source sums (``_sums_follow_the_source``), as
    on every halo that meets the axioms, only the words whose source sums
    vanish are piled, as an image with a nonzero exponent sum is
    nontrivial, and the walk enters only the subtrees that can still reach
    zero sums. A sample with an odd letter count has an odd exponent sum,
    so over a certified halo it is drawn but never read. Otherwise every
    element and every sample is piled. The words that are cyclic rotations
    of one another or of one another's inverse have conjugate or inverse
    images under φ∘ψ, which concatenates letter images, so their images are
    trivial together: the first word of such a class to be walked is piled,
    and its verdict is kept under the rotations of the word and of its
    inverse that the walk has still to reach (``_walked_rotations``), the
    keys by which the rest of its class is found. Each key kept is read, so
    the memo ends empty.
    The walk and the check work in letter codes, and a word is named only
    when it fails. The reading raises what ``ctx.letter_image`` would over a
    halo that fails the axioms: ``UnknownVertexError`` for a loop step off
    Γ's edges, and ``GraphFormatError`` for two edges of one name.
    ``exhaustive_elements`` is the count predicted from the growth series.
    Raises ``SizeExceededError`` when that count, or the number of samples,
    exceeds ``errors.DEFAULT_BUDGET``.
    """
    p = ctx.source_group
    check_spot_check_args(max_len, sample_count, seed)
    elements = _check_element_budget(p, max_len)
    sample_max_len = 2 * max_len
    signed = _signed_letters(p)
    loops = _loop_letters(ctx)
    certified = _sums_follow_the_source(loops)
    n = ctx.halo.gamma.n_vertices
    # per letter code, its image in edge letter codes, made on first use
    images: list[tuple[int, ...] | None] = [None] * len(signed)
    _, later, follow = p._walk_masks

    def image_is_trivial(codes) -> bool:
        image: list[int] = []
        for c in codes:
            part = images[c]
            if part is None:
                part = images[c] = _letter_codes(loops, c, squared)
            image += part
        return _edge_word_is_trivial(image, n)

    failures = []

    def fail(codes) -> None:
        failures.append(str(GroupWord(tuple(signed[c] for c in codes))))

    # The walk yields each element once, and the words of one length in
    # increasing order (it enters the prefixes of a length in depth-first
    # order, which is their lexicographic order, and lists each prefix's
    # extensions in increasing code order). A class's words share a length,
    # so when w misses, the members still to come are greater than w: the
    # verdict is kept only under those rotations, and each key is dropped
    # once read. Were the order otherwise, a member would only be piled
    # again, for the same verdict.
    verdict: dict[tuple[int, ...], bool] = {}
    for w in _nontrivial_elements(p, max_len, zero_sum=certified):
        trivial = verdict.pop(w, None)
        if trivial is None:
            trivial = image_is_trivial(w)
            for r in _walked_rotations(later, follow, w):
                verdict[r] = trivial
        if trivial:
            fail(w)

    def read(codes, sums) -> bool:
        # a word whose own exponent sums do not all vanish is nontrivial
        if not sums and p.is_trivial_letters([signed[c] for c in codes]):
            return False
        if image_is_trivial(codes):
            fail(codes)
        return True

    sampled = _draw_samples(
        seed, sample_max_len, _pack(p, sample_max_len), sample_count, read, certified
    )
    return InjectivityReport(
        squared=squared,
        max_len=max_len,
        exhaustive_elements=elements,
        sample_count=sampled,
        sample_max_len=sample_max_len,
        seed=seed,
        failures=tuple(sorted(set(failures))),
    )


class PinchEvent(
    namedtuple("PinchEvent", "stable positions flank_sign pattern inner_length")
):
    """``pattern`` is 1 when the positive flank comes first, 2 when the
    negative one does."""

    __slots__ = ()


class PinchTrace(
    namedtuple("PinchTrace", "word squared initial_length events final_word emptied")
):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return json_value(self)


def _stable_candidates(ctx: EmbeddingContext, w: GroupWord) -> list[str]:
    """Stable letters to try, starting with the edges of the loop of the
    first generator occurring in the word, in traversal order."""
    seen: set[str] = set()
    order: list[str] = []
    for gen, _ in w.letters:
        for e_gen, _sign in ctx.letter_image(gen, 1, False):
            if e_gen not in seen:
                seen.add(e_gen)
                order.append(e_gen)
    for g in ctx.a_gamma.generators:
        if g not in seen:
            seen.add(g)
            order.append(g)
    return order


def pinch_trace(w: GroupWord, ctx: EmbeddingContext, squared: bool = True) -> PinchTrace:
    """Replay pinch elimination on the image word.

    Each event deletes the two flanking letters of a detected pinch, which
    preserves the element; a trivial image is driven all the way to the
    empty word, a nontrivial one gets stuck at a pinch-free spelling.
    """
    image = phi_psi(w, ctx, squared)
    current = list(image.letters)
    events: list[PinchEvent] = []
    candidates = _stable_candidates(ctx, w)
    while current:
        witness = None
        for v in candidates:
            witness = detect_pinch(GroupWord(tuple(current)), v, ctx.a_gamma)
            if witness is not None:
                break
        if witness is None:
            break
        i, j = witness.positions
        flank = current[i][1]
        events.append(
            PinchEvent(
                stable=witness.stable,
                positions=(i, j),
                flank_sign=flank,
                pattern=1 if flank > 0 else 2,
                inner_length=j - i - 1,
            )
        )
        del current[j]
        del current[i]
    return PinchTrace(
        word=str(w),
        squared=squared,
        initial_length=len(image),
        events=tuple(events),
        final_word=str(GroupWord(tuple(current))),
        emptied=not current,
    )


# --- the squaring counterexample -------------------------------------------


class CounterexampleReport(
    namedtuple(
        "CounterexampleReport",
        "applicable word nontrivial_in_source unsquared_image_trivial"
        " squared_image_nontrivial",
        defaults=("", False, False, False),
    )
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.applicable and (
            self.nontrivial_in_source
            and self.unsquared_image_trivial
            and self.squared_image_nontrivial
        )

    def to_json_dict(self) -> dict:
        return {**json_value(self), "ok": self.ok}


def counterexample_roles(delta: SimpleGraph) -> dict[str, str] | None:
    """Role map for the squaring counterexample: three vertices, exactly one
    edge. The commuting pair takes the outer roles, the free vertex the
    middle one."""
    if delta.n_vertices != 3 or delta.n_edges != 1:
        return None
    (u, v), = delta.edges
    (middle,) = [x for x in delta.vertices if x not in (u, v)]
    return {"a": u, "b": middle, "c": v}


def counterexample_word(delta: SimpleGraph) -> GroupWord:
    roles = counterexample_roles(delta)
    if roles is None:
        raise InputError(
            "the squaring counterexample needs three vertices with exactly one edge"
        )
    a, b, c = roles["a"], roles["b"], roles["c"]
    return GroupWord.from_pairs(
        [(c, 1), (b, 1), (a, 1), (b, -1), (c, -1), (b, 1), (a, -1), (b, -1)]
    )


def counterexample_coloring(delta: SimpleGraph) -> Coloring | None:
    """The 3-coloring that gives every vertex of the counterexample shape its
    own strand, so that the unsquared composite genuinely kills the witness
    word; None for any other shape."""
    roles = counterexample_roles(delta)
    if roles is None:
        return None
    return Coloring.make(delta, {roles["a"]: 1, roles["b"]: 2, roles["c"]: 3})


def counterexample_report(
    delta: SimpleGraph,
    path_threshold: str = "paper",
    ctx: EmbeddingContext | None = None,
) -> CounterexampleReport:
    """Evaluate the three booleans of the squaring counterexample over the
    canonical context of ``counterexample_coloring``; a caller already
    holding that context passes it as ``ctx``.
    """
    coloring = counterexample_coloring(delta)
    if coloring is None:
        return CounterexampleReport(applicable=False)
    if ctx is None:
        ctx = build_context(delta, coloring, path_threshold)
    g = counterexample_word(delta)
    return CounterexampleReport(
        applicable=True,
        word=str(g),
        nontrivial_in_source=not is_trivial(g, ctx.source_group),
        unsquared_image_trivial=is_trivial(phi_psi(g, ctx, squared=False), ctx.a_gamma),
        squared_image_nontrivial=not is_trivial(phi_psi(g, ctx, squared=True), ctx.a_gamma),
    )


# --- the full suite ---------------------------------------------------------


class CheckResult(namedtuple("CheckResult", "name passed details witnesses seconds")):
    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "passed path_threshold checks")):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.passed

    def check(self, name: str) -> CheckResult | None:
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def to_json_dict(self, include_timings: bool = False) -> dict:
        # timings are excluded by default so identical inputs serialize to
        # identical bytes
        out_checks = []
        for c in self.checks:
            entry = {
                "name": c.name,
                "pass": c.passed,
                "details": c.details,
                "witnesses": list(c.witnesses),
            }
            if include_timings:
                entry["seconds"] = c.seconds
            out_checks.append(entry)
        return {
            "pass": self.passed,
            "path_threshold": self.path_threshold,
            "checks": out_checks,
        }

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name} ({c.seconds:.3f}s)")
            for key, value in sorted(c.details.items()):
                # as the other commands' text output renders them; nested
                # values as the JSON report spells them, on one line
                if isinstance(value, bool):
                    value = str(value).lower()
                elif isinstance(value, (list, tuple, dict)):
                    value = json.dumps(value, sort_keys=True)
                lines.append(f"    {key}: {value}")
            for w in c.witnesses:
                lines.append(f"    witness: {w}")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def verify_suite(
    delta: SimpleGraph,
    coloring: Coloring,
    *,
    max_len: int = 4,
    sample_count: int = 500,
    seed: int = 0,
    path_threshold: str = "paper",
    halo: Halo | None = None,
) -> VerificationReport:
    """Run every pipeline check over one input and collect a report:
    halo axioms, subdivision, the homomorphism property, the injectivity
    spot check, and, for the matching shape, the squaring counterexample.

    The injectivity check's arguments, a supplied halo's Δ and coloring,
    the halo's size and the budgets are checked first, so they raise before
    any halo is built or verified, and the halo's size before A(Δ)'s
    presentation lists Δ's non-adjacent pairs; the element count is
    predicted on the presentation that the injectivity check then uses.
    The subdivision check builds the context, which subdivides the halo."""
    check_spot_check_args(max_len, sample_count, seed)
    if halo is None:
        _check_halo_input(delta, coloring)
    elif halo.delta != delta or halo.coloring != coloring:
        raise GraphFormatError("the supplied halo is of another graph or coloring")
    source = RaagPresentation(delta)
    _check_element_budget(source, max_len)
    checks: list[CheckResult] = []

    def run(name: str, fn) -> bool:
        start = time.perf_counter()
        passed, details, witnesses = fn()
        checks.append(
            CheckResult(
                name=name,
                passed=passed,
                details=details,
                witnesses=tuple(witnesses),
                seconds=time.perf_counter() - start,
            )
        )
        return passed

    # built and subdivided inside the checks, so that their time is theirs
    base_halo = halo
    ctx = None

    def check_axioms():
        nonlocal base_halo
        if base_halo is None:
            # its input was checked before the presentation was built
            base_halo = _assemble_halo(delta, coloring)
        report = verify_halo(base_halo)
        details = {
            "axioms_violated": list(report.axioms_violated()),
            "loops": len(base_halo.artin_loops),
            "planar": is_planar(base_halo.gamma),
        }
        witnesses = [v.message for v in report.violations]
        return report.ok, details, witnesses

    if not run("halo-axioms", check_axioms):
        return VerificationReport(False, path_threshold, tuple(checks))

    def check_subdivision():
        nonlocal ctx
        ctx = EmbeddingContext(base_halo, path_threshold, source)
        report = is_sufficiently_subdivided(ctx.halo.gamma, ctx.n, path_threshold)
        return report.ok, report.to_json_dict(), []

    if not run("subdivision", check_subdivision):
        return VerificationReport(False, path_threshold, tuple(checks))

    def check_hom():
        report = check_homomorphism(ctx)
        witnesses = [
            f"{r.edge[0]} {r.edge[1]}" for r in report.relators if not r.ok
        ]
        return report.ok, {"relators": len(report.relators)}, witnesses

    overall = run("homomorphism", check_hom)

    def check_injectivity():
        report = injectivity_spot_check(
            ctx, max_len=max_len, sample_count=sample_count, seed=seed, squared=True
        )
        details = report.to_json_dict()
        failures = details.pop("failures")
        return report.ok, details, failures

    overall = run("injectivity-spot-check", check_injectivity) and overall

    cx_coloring = counterexample_coloring(delta)
    if cx_coloring is not None:
        # over the canonical halo of the same coloring, the counterexample's
        # context is the suite's
        same = halo is None and coloring == cx_coloring

        def check_counterexample():
            report = counterexample_report(delta, path_threshold, ctx if same else None)
            details = report.to_json_dict()
            return report.ok, details, []

        overall = run("squaring-counterexample", check_counterexample) and overall

    return VerificationReport(overall, path_threshold, tuple(checks))
