"""Partially commutative (right-angled Artin) presentations and their words.

A presentation is a finite simple graph: vertices are generators and two
generators commute exactly when they are adjacent. It can equally be given by
the complementary relation, the pairs that do not commute, which is all the
reduction reads. ``raag_reduce`` solves the word problem with the stack
("piling") normal form: every generator keeps a pile, a pushed letter either
cancels against the matching inverse on top of its own pile or lands there
and drops a blocker on the pile of every non-commuting generator.
Cancellation is legal exactly when no blocker separates the pair, which is
the same condition as deleting a letter pair x ... x^-1 whose intervening
letters all commute with x. Reading the piles back bottom-up, always taking
the smallest available generator, yields a geodesic spelling that is
identical for all words representing the same element: the least geodesic
in generator order (Hermiller & Meier, *Algorithms and geometry for graph
products of groups*, 1995).

Piling costs O(input x degree), where the degree is the most generators one
generator fails to commute with. Reading back keeps a head index per pile
and a min-heap of the ready generators, those whose pile head is a letter,
so each output letter costs O(degree + log generators) rather than a scan
of every pile.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import comb

from .errors import (
    GraphFormatError,
    SizeExceededError,
    UnknownVertexError,
    WordFormatError,
)
from .graphs import SimpleGraph

Letter = tuple[str, int]


@dataclass(frozen=True)
class GroupWord:
    """A word over signed generators; the empty word is the identity."""

    letters: tuple[Letter, ...] = ()

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
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((g, -s) for g, s in reversed(self.letters)))

    def power(self, k: int) -> "GroupWord":
        base = self if k >= 0 else self.inverse()
        return GroupWord(base.letters * abs(k))

    @property
    def generators(self) -> frozenset[str]:
        return frozenset(g for g, _ in self.letters)


class RaagPresentation:
    """Generators and, per generator, the generators it does not commute with.

    ``RaagPresentation(graph)`` reads a commutation graph: two distinct
    generators commute exactly when they are adjacent, and ``graph`` stays
    available as the attribute of that name. ``from_noncommuting`` takes the
    complementary relation instead, which is the sparse side for groups where
    most pairs commute (the edge group of a halo). Both keep one form, the
    sorted generators and their blockers, which is all the piling reduction,
    ``commute`` and ``link`` read.
    """

    def __init__(self, graph: SimpleGraph):
        adj = graph.adjacency
        gens = graph.vertices
        self.graph: SimpleGraph | None = graph
        self._set_blockers(
            gens,
            (
                (g, h)
                for i, g in enumerate(gens)
                for h in gens[i + 1 :]
                if h not in adj[g]
            ),
        )

    @classmethod
    def from_noncommuting(cls, generators, pairs) -> "RaagPresentation":
        """The group on ``generators`` in which two distinct generators
        commute unless they form one of ``pairs``; ``graph`` is None."""
        p = cls.__new__(cls)
        p.graph = None
        p._set_blockers(tuple(sorted(set(generators))), pairs)
        return p

    def _set_blockers(self, generators: tuple[str, ...], pairs) -> None:
        self.generators = generators
        self._index = {g: i for i, g in enumerate(generators)}
        # blockers[i] = indices of the generators that do NOT commute with i,
        # excluding i itself
        blockers: list[set[int]] = [set() for _ in generators]
        for a, b in pairs:
            i, j = self.index_of(a), self.index_of(b)
            if i == j:
                raise GraphFormatError(f"self-pair at {a!r} in the non-commutation relation")
            blockers[i].add(j)
            blockers[j].add(i)
        self._blockers: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(b)) for b in blockers
        )

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

    def _pile(self, letters) -> tuple[list[list[int]], int]:
        piles: list[list[int]] = [[] for _ in self.generators]
        index = self._index
        blockers = self._blockers
        count = 0
        for gen, sign in letters:
            try:
                i = index[gen]
            except KeyError:
                raise UnknownVertexError(f"unknown generator {gen!r}") from None
            pile = piles[i]
            if pile and pile[-1] == -sign:
                pile.pop()
                for j in blockers[i]:
                    piles[j].pop()
                count -= 1
            else:
                pile.append(sign)
                for j in blockers[i]:
                    piles[j].append(0)
                count += 1
        return piles, count

    def _depile(self, piles: list[list[int]], count: int) -> tuple[Letter, ...]:
        """Read the piles back bottom-up, always taking the smallest
        generator whose pile head is a letter rather than a blocker.

        The ready generators sit in a min-heap, each at most once: while i is
        ready the head of every blocker j of i is a 0, since a letter at j's
        head would be older than i's and would have dropped a 0 under it.
        So emitting i's head advances the heads of i and its blockers, none
        of which is in the heap, and pushes those now ready: O(degree +
        log generators) per output letter. A sorted list is a heap.
        """
        out: list[Letter] = []
        generators = self.generators
        blockers = self._blockers
        heads = [0] * len(piles)
        ready = [i for i, pile in enumerate(piles) if pile and pile[0]]
        while ready:
            i = heappop(ready)
            pile = piles[i]
            head = heads[i]
            out.append((generators[i], pile[head]))
            head += 1
            heads[i] = head
            if head < len(pile) and pile[head]:
                heappush(ready, i)
            for j in blockers[i]:
                pile = piles[j]
                head = heads[j] + 1
                heads[j] = head
                if head < len(pile) and pile[head]:
                    heappush(ready, j)
        if len(out) != count:  # pragma: no cover - piles and count always agree
            raise AssertionError("inconsistent piles")
        return tuple(out)

    def reduce_letters(self, letters) -> tuple[Letter, ...]:
        piles, count = self._pile(letters)
        if count == 0:
            return ()
        return self._depile(piles, count)

    def is_trivial_letters(self, letters) -> bool:
        _, count = self._pile(letters)
        return count == 0

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


def free_reduce(w: GroupWord) -> GroupWord:
    """Cancel adjacent inverse pairs to a fixpoint (no commutation used)."""
    stack: list[Letter] = []
    for letter in w.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return GroupWord(tuple(stack))


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
    given generators, that is when no other generator's pile holds a letter.
    """
    inside = {p.index_of(g) for g in gens}
    piles, _ = p._pile(w.letters)
    return all(i in inside or not any(pile) for i, pile in enumerate(piles))


def abelianization(w: GroupWord, p: RaagPresentation) -> dict[str, int]:
    """Signed exponent sums, one entry per generator."""
    sums = {g: 0 for g in p.generators}
    for g, s in w.letters:
        if g not in sums:
            raise UnknownVertexError(f"unknown generator {g!r}")
        sums[g] += s
    return sums


@dataclass(frozen=True)
class PinchWitness:
    """A subword v^e g v^-e whose interior g lies in the subgroup of link(v).

    ``positions`` are the letter indices of the two flanking v-letters.
    """

    stable: str
    positions: tuple[int, int]
    inner: GroupWord


def detect_pinch(w: GroupWord, v: str, p: RaagPresentation) -> PinchWitness | None:
    """Leftmost pinch over the stable letter v, or None.

    The word is scanned as w_0 v^e1 w_1 v^e2 ... with the w_i free of v;
    a pinch is a consecutive pair of v-letters with opposite signs whose
    interior reduces into the subgroup generated by link(v).
    """
    p.index_of(v)
    occurrences = [i for i, (g, _) in enumerate(w.letters) if g == v]
    lk = p.link(v)
    for i, j in zip(occurrences, occurrences[1:]):
        if w.letters[i][1] != -w.letters[j][1]:
            continue
        inner = GroupWord(w.letters[i + 1 : j])
        if in_special_subgroup(inner, lk, p):
            return PinchWitness(stable=v, positions=(i, j), inner=inner)
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
