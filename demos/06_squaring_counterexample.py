"""Why generators map to squared loops.

Send each generator to a single traversal of its loop and the composite
stops being injective: the word g below is nontrivial, yet its image
reduces to nothing. Squaring the loops repairs it. The pinch trace replays
the collapse one deleted pinch at a time.
"""
from raagbraid import (
    Coloring,
    GroupWord,
    SimpleGraph,
    build_context,
    counterexample_report,
    counterexample_word,
    is_trivial,
    phi_psi,
    pinch_trace,
)

delta = SimpleGraph.make(["a", "b", "c"], [("a", "c")])
coloring = Coloring.make(delta, {"a": 1, "b": 2, "c": 3})
ctx = build_context(delta, coloring)

g = counterexample_word(delta)
print("g =", g)
print("g trivial in the source group:", is_trivial(g, ctx.source_group))

unsquared = phi_psi(g, ctx, squared=False)
squared = phi_psi(g, ctx, squared=True)
print(f"unsquared image ({len(unsquared)} letters) trivial:",
      is_trivial(unsquared, ctx.a_gamma))
print(f"squared image ({len(squared)} letters) trivial:",
      is_trivial(squared, ctx.a_gamma))

trace = pinch_trace(g, ctx, squared=False)
print(f"\npinch trace of the unsquared image ({trace.initial_length} letters):")
for event in trace.events:
    print(
        f"  pinch over {event.stable} at {event.positions} "
        f"(pattern {event.pattern}, interior {event.inner_length} letters)"
    )
print("emptied:", trace.emptied)

stuck = pinch_trace(GroupWord.parse("a"), ctx, squared=True)
print("\nsquared image of a single generator: pinch trace stops at",
      len(stuck.final_word.split()), "letters, emptied:", stuck.emptied)

print("\nsummary:", counterexample_report(delta).to_json_dict())
