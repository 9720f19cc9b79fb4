"""Cell counts and token paths of the unordered discretized configuration space.

A configuration is a set of n distinct vertices of the underlying graph,
one token on each, stored sorted. The configuration space's 0-cells are
the configurations, and its 1-cells are the edges crossed by one token
while the other n - 1 tokens rest off the edge's closure. The cells are
counted in closed form, never listed: only paths are built. Higher cells
are never needed here: words in the image of the edge-forgetting map are
evaluated algebraically.

A path is a base configuration and its steps, each one token crossing one
edge. ``edge_path`` is the validator: it moves tokens, checking each step
against the graph and the occupied vertices. A generator's loop is read
off a halo that meets the axioms (``EmbeddingContext.loop_path``): it
closes at the basepoints and touches no other token, so loops compose by
concatenating their steps and are not replayed.
"""
from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import GraphFormatError, IllegalStepError
from .graphs import SimpleGraph, normalize_edge
from .halo import Halo


class Configuration(namedtuple("Configuration", "cells")):
    __slots__ = ()

    @classmethod
    def make(cls, vertices) -> "Configuration":
        cells = tuple(sorted(vertices))
        for a, b in zip(cells, cells[1:]):
            if a == b:
                raise GraphFormatError(f"vertex {a!r} holds two tokens")
        return cls(cells)

    @property
    def n(self) -> int:
        return len(self.cells)


def cell_counts(gamma: SimpleGraph, n: int) -> tuple[int, int]:
    """The numbers of 0-cells and 1-cells for n strands on gamma.

    A 0-cell is a set of n vertices, C(V, n) of them; a 1-cell is an edge
    and n - 1 vertices off it, E * C(V - 2, n - 1) of them. The counts are
    closed-form, so no budget bounds them."""
    if n < 1:
        raise GraphFormatError(f"strand count must be >= 1, got {n}")
    if n > gamma.n_vertices:
        raise GraphFormatError(f"{n} strands cannot occupy {gamma.n_vertices} vertices")
    v = gamma.n_vertices
    return comb(v, n), gamma.n_edges * comb(max(v - 2, 0), n - 1)


class Step(namedtuple("Step", "edge source")):
    """One token slides across one edge while every other token rests.

    A named tuple, like the package's other plain records: value equality
    and hashing come from the tuple, so a Step also equals the plain tuple
    ``(edge, source)``."""

    __slots__ = ()


class ConfigEdgePath(namedtuple("ConfigEdgePath", "base steps")):
    __slots__ = ()

    def __len__(self) -> int:
        # the step count, so an empty path is falsy; ``_make`` and
        # ``_replace``, which check the field count with ``len``, are unusable
        return len(self.steps)


def edge_path(gamma: SimpleGraph, base: Configuration, moves) -> ConfigEdgePath:
    """Validated path: each move is (edge, source_vertex); every step must be
    a legal one-cell, i.e. the resting tokens avoid the moving edge. The
    pipeline's loops are legal by the halo axioms and never pass here: this
    checks moves that a caller supplies."""
    for cell in base.cells:
        if not isinstance(cell, str):
            raise GraphFormatError("path base must be an all-vertex configuration")
    adjacency = gamma.adjacency
    steps = []
    occupied = set(base.cells)
    for edge, source in moves:
        edge = u, v = normalize_edge(*edge)
        if v not in adjacency.get(u, ()):
            raise GraphFormatError(f"{edge} is not an edge of the graph")
        if source == u:
            target = v
        elif source == v:
            target = u
        else:
            raise IllegalStepError(f"step source {source!r} is not on edge {edge}")
        if source not in occupied:
            raise IllegalStepError(f"no token at {source!r} to move")
        if target in occupied:
            raise IllegalStepError(
                f"token collision: {target!r} is occupied while crossing {edge}"
            )
        occupied.remove(source)
        occupied.add(target)
        steps.append(Step(edge, source))
    return ConfigEdgePath(base=base, steps=tuple(steps))


def artin_basepoint(h: Halo) -> Configuration:
    return Configuration.make(h.basepoint_of.values())

