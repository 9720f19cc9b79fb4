"""Discretized configuration spaces and loops of moving tokens.

Counts 0- and 1-cells for small graphs and strand counts, in closed form,
then realizes a halo loop as a based path in which one token walks its loop
while the other tokens rest. Loops based at the same configuration compose
by concatenating their steps, which is what psi does for a word.
"""
from raagbraid import (
    Coloring,
    EmbeddingContext,
    GroupWord,
    SimpleGraph,
    artin_loop_path,
    build_halo,
    cell_counts,
    psi,
    subdivided_halo,
)

path3 = SimpleGraph.make(["p1", "p2", "p3"], [("p1", "p2"), ("p2", "p3")])
square = SimpleGraph.make(
    ["s1", "s2", "s3", "s4"],
    [("s1", "s2"), ("s2", "s3"), ("s3", "s4"), ("s1", "s4")],
)

for g, label in ((path3, "path"), (square, "square")):
    for n in (1, 2):
        zero, one = cell_counts(g, n)
        print(f"{label}, {n} strand(s): {zero} 0-cells, {one} 1-cells")

# three tokens on the halo of <a, b, c | [a, c]>
delta = SimpleGraph.make(["a", "b", "c"], [("a", "c")])
coloring = Coloring.make(delta, {"a": 1, "b": 2, "c": 3})
halo = subdivided_halo(build_halo(delta, coloring), 3)

loop_a = artin_loop_path(halo, 3, "a", 1)
print("\nloop of a, one traversal:", len(loop_a), "steps")
print("base configuration:", loop_a.base.cells)
for step in loop_a.steps:
    print(f"  token at {step.source} crosses {step.edge}")

# the word "a b", unsquared: a's loop, then b's, both based at the basepoints
combined = psi(GroupWord.parse("a b"), EmbeddingContext(halo), squared=False)
print("loop of a then loop of b:", len(combined), "steps")
print("reverse traversal steps:", len(artin_loop_path(halo, 3, "a", -1)))
