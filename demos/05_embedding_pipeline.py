"""The full pipeline on the hexagon: two strands suffice.

The hexagon's group embeds into the braid group of two tokens on its halo,
which happens to be planar. The demo builds the context, maps some words,
and runs every verification suite.
"""
from raagbraid import (
    SimpleGraph,
    build_context,
    check_homomorphism,
    chromatic_number,
    injectivity_spot_check,
    is_planar,
    is_trivial,
    phi_psi,
    GroupWord,
    verify_suite,
)

hexagon = SimpleGraph.make(
    [f"a{i}" for i in range(1, 7)],
    [(f"a{i}", f"a{i % 6 + 1}") for i in range(1, 7)],
)
coloring = chromatic_number(hexagon)
print("strands needed:", coloring.color_count)

ctx = build_context(hexagon, coloring)
print("halo planar:", is_planar(ctx.halo.gamma))
print("edge-group generators:", len(ctx.a_gamma.generators))

w = GroupWord.parse("a1 a2 a1^-1 a2^-1")  # adjacent, so this commutator dies
image = phi_psi(w, ctx)
print(f"\n[{w}] maps to {len(image)} letters, trivial: {is_trivial(image, ctx.a_gamma)}")

w = GroupWord.parse("a1 a3 a1^-1 a3^-1")  # non-adjacent: survives
image = phi_psi(w, ctx)
print(f"[{w}] maps to {len(image)} letters, trivial: {is_trivial(image, ctx.a_gamma)}")

hom = check_homomorphism(ctx)
print("\nall", len(hom.relators), "relators map to trivial words:", hom.ok)

spot = injectivity_spot_check(ctx, max_len=4, sample_count=500, seed=0)
print(
    f"injectivity spot check: {spot.exhaustive_elements} elements exhaustively, "
    f"{spot.sample_count} samples, failures: {len(spot.failures)}"
)

report = verify_suite(hexagon, coloring, max_len=3, sample_count=100, seed=0)
print("\nfull suite:")
print(report.to_text())
