"""Cells and token paths of the unordered discretized configuration space.

A cell of the underlying graph is a vertex (a string) or a closed edge
(a sorted pair). A configuration is an unordered set of n cells with
pairwise disjoint closures, stored canonically sorted. Zero cells of the
space are all-vertex configurations; one cells contain exactly one edge and
connect the two zero cells obtained by parking the moving token at either
endpoint. Higher cells are never needed here: words in the image of the
edge-forgetting map are evaluated algebraically.

A path is a base configuration and its steps, each one token crossing one
edge. ``edge_path`` alone moves tokens, checking each step against the
graph and the occupied vertices. A generator's loop closes at the
basepoints, so loops compose by concatenating their steps.
"""
from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import (
    BaseMismatchError,
    GraphFormatError,
    IllegalStepError,
    InputError,
    InsufficientSubdivisionError,
    SizeExceededError,
)
from .graphs import SimpleGraph, is_sufficiently_subdivided, normalize_edge
from .halo import Halo

Cell = str | tuple[str, str]


def cell_key(cell: Cell):
    if isinstance(cell, str):
        return (0, cell, "")
    return (1, cell[0], cell[1])


def cell_vertices(cell: Cell) -> tuple[str, ...]:
    return (cell,) if isinstance(cell, str) else cell


def closure_disjoint(c1: Cell, c2: Cell) -> bool:
    return not set(cell_vertices(c1)) & set(cell_vertices(c2))


class Configuration(NamedTuple):
    cells: tuple[Cell, ...]

    @classmethod
    def make(cls, cells) -> "Configuration":
        cells = tuple(sorted(cells, key=cell_key))
        for i, a in enumerate(cells):
            for b in cells[i + 1 :]:
                if not closure_disjoint(a, b):
                    raise GraphFormatError(
                        f"cells {a!r} and {b!r} have intersecting closures"
                    )
        return cls(cells)

    @property
    def n(self) -> int:
        return len(self.cells)


class OneCell(NamedTuple):
    cells: Configuration
    endpoints: tuple[Configuration, Configuration]


class DiscreteConfigSpace(NamedTuple):
    n: int
    zero_cells: tuple[Configuration, ...]
    one_cells: tuple[OneCell, ...]

    def counts_json_dict(self) -> dict:
        return {
            "n": self.n,
            "zero_cells": len(self.zero_cells),
            "one_cells": len(self.one_cells),
        }


def build_udc(gamma: SimpleGraph, n: int, cell_budget: int = 1_000_000) -> DiscreteConfigSpace:
    """Enumerate the 0- and 1-cells for n strands on gamma."""
    if n < 1:
        raise GraphFormatError(f"strand count must be >= 1, got {n}")
    if n > gamma.n_vertices:
        raise GraphFormatError(
            f"{n} strands cannot occupy {gamma.n_vertices} vertices"
        )
    if cell_budget < 0:
        raise InputError(f"cell budget must be >= 0, got {cell_budget}")
    v = gamma.n_vertices
    predicted = comb(v, n) + gamma.n_edges * comb(max(v - 2, 0), n - 1)
    if predicted > cell_budget:
        raise SizeExceededError(
            f"space would have {predicted} cells, over the budget of {cell_budget}"
        )
    zero = tuple(
        Configuration(cells) for cells in combinations(gamma.vertices, n)
    )
    ones = []
    for edge in gamma.edges:
        u, w = edge
        rest_pool = tuple(x for x in gamma.vertices if x not in edge)
        for rest in combinations(rest_pool, n - 1):
            cfg = Configuration.make(rest + (edge,))
            end_u = Configuration.make(rest + (u,))
            end_w = Configuration.make(rest + (w,))
            ones.append(OneCell(cells=cfg, endpoints=(end_u, end_w)))
    return DiscreteConfigSpace(n=n, zero_cells=zero, one_cells=tuple(ones))


class Step(NamedTuple):
    """One token slides across one edge while every other token rests.

    A named tuple, like the package's other plain records: value equality
    and hashing come from the tuple, so a Step also equals the plain tuple
    ``(edge, source)``. ``edge_path`` builds one per step with
    ``tuple.__new__``, skipping the named tuple's Python-level ``__new__``."""

    edge: tuple[str, str]
    source: str


class ConfigEdgePath(NamedTuple):
    base: Configuration
    steps: tuple[Step, ...]

    def __len__(self) -> int:
        # the step count, so an empty path is falsy; ``_make`` and
        # ``_replace``, which check the field count with ``len``, are unusable
        return len(self.steps)


def edge_path(gamma: SimpleGraph, base: Configuration, moves) -> ConfigEdgePath:
    """Validated path: each move is (edge, source_vertex); every step must be
    a legal one-cell, i.e. the resting tokens avoid the moving edge."""
    for cell in base.cells:
        if not isinstance(cell, str):
            raise GraphFormatError("path base must be an all-vertex configuration")
    adjacency = gamma.adjacency
    steps = []
    occupied = set(base.cells)
    new_step = tuple.__new__  # Step(edge, source) without its Python-level __new__
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
        steps.append(new_step(Step, (edge, source)))
    return ConfigEdgePath(base=base, steps=tuple(steps))


def artin_basepoint(h: Halo) -> Configuration:
    return Configuration.make(h.basepoint_of.values())


def artin_loop_path(h: Halo, n: int, delta_vertex: str, power: int) -> ConfigEdgePath:
    """The closed path at the basepoint configuration in which the token of
    the vertex's color traverses its loop |power| times (reversed direction
    for negative power) while all other tokens rest.

    Checks first that the halo graph is sufficiently subdivided for n
    strands (the check is memoised per graph), and raises
    ``BaseMismatchError`` unless the loop ends where it starts: the other
    tokens rest, so the path closes exactly then. Every step is then
    validated by ``edge_path``."""
    if not is_sufficiently_subdivided(h.gamma, n).ok:
        raise InsufficientSubdivisionError(
            f"halo graph is not sufficiently subdivided for {n} strands"
        )
    base = artin_basepoint(h)
    if base.n != n:
        raise GraphFormatError(
            f"{n} strands but {base.n} basepoints; strand count must match colors"
        )
    if power == 0:
        return ConfigEdgePath(base=base, steps=())
    loop = h.loop_of(delta_vertex)
    if loop[0] != loop[-1]:
        raise BaseMismatchError(f"loop of {delta_vertex!r} is not closed at the basepoint")
    walk = loop if power > 0 else loop[::-1]
    # edge_path normalises each edge as it checks it
    moves = list(zip(zip(walk, walk[1:]), walk)) * abs(power)
    return edge_path(h.gamma, base, moves)
