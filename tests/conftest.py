import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every run draws the same examples, and a failure prints the blob that
# reproduces it
settings.register_profile("reproducible", derandomize=True, print_blob=True)
settings.load_profile("reproducible")

from raagbraid import Coloring, SimpleGraph, build_context


@pytest.fixture(scope="session")
def figure_delta() -> SimpleGraph:
    """Three generators, one commuting pair: the counterexample shape."""
    return SimpleGraph.make(["a", "b", "c"], [("a", "c")])


@pytest.fixture(scope="session")
def figure_coloring(figure_delta) -> Coloring:
    return Coloring.make(figure_delta, {"a": 1, "b": 2, "c": 3})


@pytest.fixture(scope="session")
def figure_context(figure_delta, figure_coloring):
    return build_context(figure_delta, figure_coloring)


@pytest.fixture(scope="session")
def c6():
    from oracles import cycle_graph

    return cycle_graph(6)
