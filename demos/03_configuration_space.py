"""Discretized configuration spaces and loops of moving tokens.

Counts 0- and 1-cells for small graphs and strand counts, in closed form,
then reads a halo loop as a based path in which one token walks its loop
while the other tokens rest. The halo meets the axioms, so the loop is
legal as read; ``edge_path``, the step-by-step validator, accepts it. Loops
based at the same configuration compose by concatenating their steps, which
is what psi does for a word.
"""
from raagbraid import (
    Coloring,
    GroupWord,
    SimpleGraph,
    build_context,
    cell_counts,
    edge_path,
    psi,
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
ctx = build_context(delta, coloring)

loop_a = ctx.loop_path("a", 1)
print("\nloop of a, one traversal:", len(loop_a), "steps")
print("base configuration:", loop_a.base.cells)
for step in loop_a.steps:
    print(f"  token at {step.source} crosses {step.edge}")

# replaying the loop's moves one token at a time gives the same path
moves = [(step.edge, step.source) for step in loop_a.steps]
print("edge_path accepts the loop:", edge_path(ctx.halo.gamma, ctx.base, moves) == loop_a)

# the word "a b", unsquared: a's loop, then b's, both based at the basepoints
combined = psi(GroupWord.parse("a b"), ctx, squared=False)
print("loop of a then loop of b:", len(combined), "steps")
print("reverse traversal steps:", len(ctx.loop_path("a", -1)))
