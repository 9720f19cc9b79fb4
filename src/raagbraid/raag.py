"""Partially commutative (right-angled Artin) presentations and their words.

A presentation is a finite simple graph: vertices are generators and two
generators commute exactly when they are adjacent. The reduction reads only
the complementary relation, the pairs that do not commute, given as cliques
that cover it: two distinct generators fail to commute exactly when some
clique holds both. ``raag_reduce`` solves the word problem with the stack
("piling") normal form: every clique keeps a pile, and a pushed letter
either cancels, when the piles of all its generator's cliques have its
inverse on top, or lands on each of those piles. Cancellation is legal
exactly when no letter of a non-commuting generator separates the pair,
which is the same condition as deleting a letter pair x ... x^-1 whose
intervening letters all commute with x. Reading the piles back bottom-up,
always taking the smallest generator that heads all its piles, yields a
geodesic spelling that is identical for all words representing the same
element: the least geodesic in generator order (Hermiller & Meier,
*Algorithms and geometry for graph products of groups*, 1995).

Piling costs O(input x cliques per generator), and a pile exists only for
a clique the word touches, so a short word over a large group allocates
little. A generator in exactly two cliques, as every edge of a halo is
(the stars at its two ends), is set up with its two piles side by side,
and each of its letters cancels or is pushed after one test of the two
tops, with no loop over its piles. Reading back keeps a min-heap of the
ready generators, so each output letter costs O(cliques per generator +
log generators) rather than a scan of every pile.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from heapq import heappop, heappush
from math import comb

from .errors import (
    GraphFormatError,
    SizeExceededError,
    UnknownVertexError,
    WordFormatError,
)
from .graphs import SimpleGraph, _Value

Letter = tuple[str, int]


class GroupWord(_Value):
    """A word over signed generators; the empty word is the identity."""

    __slots__ = ("letters",)
    _fields = ("letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()):
        object.__setattr__(self, "letters", letters)

    @classmethod
    def parse(cls, text: str) -> "GroupWord":
        """Parse the whitespace-separated text format.

        An inverse letter is written with a trailing ``^-1`` or a leading
        ``~``; output always uses ``^-1``.
        """
        letters: list[Letter] = []
        for token in text.split():
            sign = 1
            if token.endswith("^-1"):
                token, sign = token[:-3], -1
            elif token.startswith("~"):
                token, sign = token[1:], -1
            if not token or "^" in token or token.startswith("~"):
                raise WordFormatError(f"bad letter token {token!r}")
            letters.append((token, sign))
        return cls(tuple(letters))

    @classmethod
    def from_pairs(cls, pairs) -> "GroupWord":
        letters = []
        for gen, sign in pairs:
            if sign not in (1, -1):
                raise WordFormatError(f"letter sign must be +1 or -1, got {sign!r}")
            letters.append((gen, sign))
        return cls(tuple(letters))

    def __str__(self) -> str:
        return " ".join(g if s == 1 else f"{g}^-1" for g, s in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if not isinstance(other, GroupWord):
            return NotImplemented
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((g, -s) for g, s in reversed(self.letters)))


class RaagPresentation:
    """Generators, and cliques that cover the non-commutation relation.

    Two distinct generators fail to commute exactly when some clique holds
    both, and every generator lies in at least one clique: one that commutes
    with all the others gets a clique of its own. ``RaagPresentation(graph)``
    reads a commutation graph, in which two distinct generators commute
    exactly when they are adjacent; its non-adjacent pairs are the cliques,
    and ``graph`` stays available as the attribute of that name.
    ``from_cliques`` takes the cliques themselves, which is the small side
    for groups whose non-commuting generators fall into few large cliques
    (the edge group of a halo: the edges at each vertex). The piling
    reduction keeps one pile per clique; ``commute``, ``link`` and
    ``sphere_sizes`` read the blockers of each generator, derived from the
    cliques on first use.
    """

    def __init__(self, graph: SimpleGraph):
        adj = graph.adjacency
        gens = graph.vertices
        self.graph: SimpleGraph | None = graph
        self._set_cliques(
            gens,
            (
                (g, h)
                for i, g in enumerate(gens)
                for h in gens[i + 1 :]
                if h not in adj[g]
            ),
        )

    @classmethod
    def from_cliques(cls, generators, cliques) -> "RaagPresentation":
        """The group on ``generators`` in which two distinct generators
        commute unless one of ``cliques`` holds both; ``graph`` is None."""
        p = cls.__new__(cls)
        p.graph = None
        p._set_cliques(tuple(sorted(set(generators))), cliques)
        return p

    def _set_cliques(self, generators: tuple[str, ...], cliques) -> None:
        self.generators = generators
        self._index = index = {g: i for i, g in enumerate(generators)}
        members: list[tuple[int, ...]] = []
        # per generator: the cliques holding it, in increasing order
        of: list[list[int]] = [[] for _ in generators]
        for clique in cliques:
            c = len(members)
            ids = []
            for g in clique:
                try:
                    i = index[g]
                except KeyError:
                    raise UnknownVertexError(f"unknown generator {g!r}") from None
                if of[i] and of[i][-1] == c:
                    raise GraphFormatError(f"generator {g!r} listed twice in one clique")
                of[i].append(c)
                ids.append(i)
            members.append(tuple(ids))
        for i, own in enumerate(of):
            if not own:
                own.append(len(members))
                members.append((i,))
        self._members: tuple[tuple[int, ...], ...] = tuple(members)
        self._cliques: tuple[tuple[int, ...], ...] = tuple(tuple(own) for own in of)
        #: (length, budget) -> the element count a caller predicted within
        #: that budget, so that it predicts the count once
        self.within_budget: dict[tuple[int, int], int] = {}

    @cached_property
    def _blockers(self) -> tuple[frozenset[int], ...]:
        """Per generator: the other generators sharing a clique with it,
        that is the generators it does not commute with."""
        members = self._members
        return tuple(
            frozenset(j for c in own for j in members[c] if j != i)
            for i, own in enumerate(self._cliques)
        )

    @cached_property
    def _walk_masks(self) -> tuple[list[int], list[int], list[int]]:
        """The bit masks of letter codes by which the injectivity check's
        walk over the least geodesics steps, built once per presentation:
        per generator, its two codes (``by_gen``) and the codes of the
        larger generators commuting with it (``later``); per letter code x,
        the codes of the generators not commuting with x's, except x's
        inverse (``follow``). Letter code 2i is generator i and 2i + 1 its
        inverse. After a letter x of generator i, the letters extending a
        least geodesic are ``follow[x] | allowed & later[i]``, where
        ``allowed`` are those that extended it before x."""
        k = len(self.generators)
        by_gen = [0b11 << 2 * i for i in range(k)]
        everything = (1 << 2 * k) - 1
        later = []
        blocking = []  # per generator: codes of itself and the non-commuting ones
        for i, blockers in enumerate(self._blockers):
            block = by_gen[i]
            for j in blockers:
                block |= by_gen[j]
            later.append((everything ^ block) >> 2 * i + 2 << 2 * i + 2)
            blocking.append(block)
        follow = [blocking[code >> 1] & ~(1 << (code ^ 1)) for code in range(2 * k)]
        return by_gen, later, follow

    def __repr__(self) -> str:
        k = len(self.generators)
        noncommuting = sum(len(b) for b in self._blockers) // 2
        return f"RaagPresentation({k} generators, {k * (k - 1) // 2 - noncommuting} relations)"

    def index_of(self, gen: str) -> int:
        try:
            return self._index[gen]
        except KeyError:
            raise UnknownVertexError(f"unknown generator {gen!r}") from None

    def commute(self, a: str, b: str) -> bool:
        """Whether the distinct generators a and b commute (False for a == b,
        as a graph has no loops)."""
        i, j = self.index_of(a), self.index_of(b)
        return i != j and j not in self._blockers[i]

    def link(self, v: str) -> frozenset[str]:
        """The generators other than v that commute with v."""
        i = self.index_of(v)
        blocked = set(self._blockers[i])
        blocked.add(i)
        return frozenset(g for j, g in enumerate(self.generators) if j not in blocked)

    def _pile(self, letters):
        """Pile the letters: return the piles of the cliques they touch,
        keyed by clique, an entry ``(code, a, b)`` per generator met, keyed
        by its name, and the number of letters left on the piles.

        A pile holds letter codes: 2i for generator i, 2i + 1 for its
        inverse. A letter cancels when every pile of its generator's
        cliques has its inverse on top, and is pushed onto each of them
        otherwise. A generator in exactly two cliques, as every edge of a
        halo is, has its two piles as ``a`` and ``b``, and one test decides
        its letter: the two are always pushed and popped together, so an
        inverse on top of ``a`` is on ``b`` too, on top unless a letter of
        ``b``'s clique alone came after it. Any other generator has its
        list of piles as ``a`` and None as ``b``."""
        piles: dict[int, list[int]] = {}
        entries: dict[str, tuple] = {}
        index = self._index
        cliques = self._cliques
        count = 0
        for gen, sign in letters:
            entry = entries.get(gen)
            if entry is None:
                try:
                    i = index[gen]
                except KeyError:
                    raise UnknownVertexError(f"unknown generator {gen!r}") from None
                own = cliques[i]
                if len(own) == 2:
                    c, d = own
                    a = piles.get(c)
                    if a is None:
                        a = piles[c] = []
                    b = piles.get(d)
                    if b is None:
                        b = piles[d] = []
                    entry = entries[gen] = (2 * i, a, b)
                else:
                    a = []
                    for c in own:
                        pile = piles.get(c)
                        if pile is None:
                            pile = piles[c] = []
                        a.append(pile)
                    entry = entries[gen] = (2 * i, a, None)
            code, a, b = entry
            if sign < 0:
                code += 1
            inverse = code ^ 1
            if b is not None:
                if a and a[-1] == inverse and b[-1] == inverse:
                    a.pop()
                    b.pop()
                    count -= 1
                else:
                    a.append(code)
                    b.append(code)
                    count += 1
                continue
            for pile in a:
                if not pile or pile[-1] != inverse:
                    break
            else:
                for pile in a:
                    pile.pop()
                count -= 1
                continue
            for pile in a:
                pile.append(code)
            count += 1
        return piles, entries, count

    def _depile(self, piles, entries, count: int) -> tuple[Letter, ...]:
        """Read ``_pile``'s piles back bottom-up, always taking the smallest
        generator that heads all of its piles.

        The piles are reversed, so a head is a pile's last item, and
        ``need`` counts per generator the piles it does not head. The
        generators it reaches 0 for, the ready ones, sit in a min-heap, each
        at most once: a generator sharing a clique with a ready one does not
        head that clique. Emitting i pops i's piles and counts one down for
        the generator each new head belongs to: O(cliques of i + log
        generators) per output letter. A sorted list is a heap.
        """
        out: list[Letter] = []
        generators = self.generators
        piles_of = {code >> 1: a if b is None else (a, b) for code, a, b in entries.values()}
        need = {i: len(own) for i, own in piles_of.items()}
        for pile in piles.values():
            if pile:
                pile.reverse()
                need[pile[-1] >> 1] -= 1
        ready = sorted(i for i, n in need.items() if not n)
        while ready:
            i = heappop(ready)
            own = piles_of[i]
            need[i] = len(own)
            for pile in own:
                code = pile.pop()
                if pile:
                    j = pile[-1] >> 1
                    n = need[j] - 1
                    need[j] = n
                    if not n:
                        heappush(ready, j)
            out.append((generators[i], -1 if code & 1 else 1))
        if len(out) != count:  # pragma: no cover - piles and count always agree
            raise AssertionError("inconsistent piles")
        return tuple(out)

    def reduce_letters(self, letters) -> tuple[Letter, ...]:
        piles, entries, count = self._pile(letters)
        if count == 0:
            return ()
        return self._depile(piles, entries, count)

    def is_trivial_letters(self, letters) -> bool:
        return self._pile(letters)[2] == 0

    def sphere_sizes(self, max_len: int, budget: int | None = None):
        """Yield the number of elements of geodesic length 0, 1, ..., max_len.

        The spherical growth series is 1/p(-2t/(1+t)), p the clique
        polynomial, whose coefficient n_c counts the sets of c pairwise
        commuting generators (Chiswell, *The growth series of a graph
        product*, 1994). Cliques of more than max_len generators do not
        reach the coefficients yielded, so only the others are listed, one
        step each. With m the largest size listed, multiplying through by
        (1+t)^m leaves f(t) * P(t) = (1+t)^m for the polynomial
        P(t) = sum_c n_c (-2t)^c (1+t)^(m-c), an order-m recurrence.

        The c-cliques alone give n_c * 2^c distinct elements of length c, one
        per choice of signs, so the listing raises ``SizeExceededError`` as
        soon as these lower bounds add up to more than ``budget`` nontrivial
        elements, before the cliques outgrow memory.
        """
        k = len(self.generators)
        # bit masks; per generator: the larger generators commuting with it
        later = [
            ((1 << k) - (2 << i)) & ~sum(1 << j for j in b)
            for i, b in enumerate(self._blockers)
        ]
        # per clique of the current size: the larger generators extending it
        frontier = [(1 << k) - 1]
        cliques = [1]
        shown = 0
        while len(cliques) <= max_len:
            signs = 1 << len(cliques)
            grown: list[int] = []
            for ext in frontier:
                shown += ext.bit_count() * signs
                if budget is not None and shown > budget:
                    raise SizeExceededError(
                        f"at least {shown} nontrivial elements of length at most "
                        f"{len(cliques)} to enumerate, over the budget of {budget}"
                    )
                while ext:
                    low = ext & -ext
                    ext ^= low
                    grown.append(ext & later[low.bit_length() - 1])
            if not grown:
                break
            frontier = grown
            cliques.append(len(frontier))
        m = len(cliques) - 1
        poly = [
            sum(n * (-2) ** c * comb(m - c, i - c) for c, n in enumerate(cliques[: i + 1]))
            for i in range(m + 1)
        ]
        sizes: list[int] = []
        for length in range(max_len + 1):
            size = comb(m, length) - sum(
                poly[i] * sizes[length - i] for i in range(1, min(length, m) + 1)
            )
            sizes.append(size)
            yield size


def raag_reduce(w: GroupWord, p: RaagPresentation) -> GroupWord:
    """The canonical geodesic representative of the element spelled by w.

    Output length is the geodesic length, and two words represent the same
    element exactly when their reductions are identical.
    """
    return GroupWord(p.reduce_letters(w.letters))


def is_trivial(w: GroupWord, p: RaagPresentation) -> bool:
    return p.is_trivial_letters(w.letters)


def equal(w1: GroupWord, w2: GroupWord, p: RaagPresentation) -> bool:
    return p.is_trivial_letters(w1.letters + w2.inverse().letters)


def in_special_subgroup(w: GroupWord, gens, p: RaagPresentation) -> bool:
    """Membership in the subgroup generated by a subset of the generators.

    An element lies in it exactly when its geodesic spelling only uses the
    given generators, that is when the piles hold no letter of another
    generator.
    """
    inside = {p.index_of(g) for g in gens}
    piles = p._pile(w.letters)[0]
    return all(code >> 1 in inside for pile in piles.values() for code in pile)


def abelianization(w: GroupWord, p: RaagPresentation) -> dict[str, int]:
    """Signed exponent sums, one entry per generator."""
    sums = {g: 0 for g in p.generators}
    for g, s in w.letters:
        if g not in sums:
            raise UnknownVertexError(f"unknown generator {g!r}")
        sums[g] += s
    return sums


class PinchWitness(namedtuple("PinchWitness", "stable positions inner")):
    """A subword v^e g v^-e whose interior g lies in the subgroup of link(v).

    ``positions`` are the letter indices of the two flanking v-letters.
    """

    __slots__ = ()


def detect_pinch(w: GroupWord, v: str, p: RaagPresentation) -> PinchWitness | None:
    """Leftmost pinch over the stable letter v, or None.

    The word is scanned as w_0 v^e1 w_1 v^e2 ... with the w_i free of v;
    a pinch is a consecutive pair of v-letters with opposite signs whose
    interior reduces into the subgroup generated by link(v). The generators
    outside link(v) are v and those sharing a clique with it, so an interior
    lies in that subgroup exactly when it leaves the piles of v's cliques
    empty.
    """
    own = p._cliques[p.index_of(v)]
    occurrences = [i for i, (g, _) in enumerate(w.letters) if g == v]
    for i, j in zip(occurrences, occurrences[1:]):
        if w.letters[i][1] != -w.letters[j][1]:
            continue
        inner = w.letters[i + 1 : j]
        piles = p._pile(inner)[0]
        if not any(piles.get(c) for c in own):
            return PinchWitness(stable=v, positions=(i, j), inner=GroupWord(inner))
    return None


def pinch_reduce(w: GroupWord, v: str, p: RaagPresentation) -> GroupWord:
    """Delete v-pinch flanks until none remain; the element is unchanged."""
    letters = list(w.letters)
    while True:
        witness = detect_pinch(GroupWord(tuple(letters)), v, p)
        if witness is None:
            return GroupWord(tuple(letters))
        i, j = witness.positions
        del letters[j]
        del letters[i]
