"""Graphs, colorings, and the subdivision criterion.

Builds a hexagon and a complete graph, colors them greedily and exactly,
and shows what the subdivision checker reports before and after subdividing.
Then colors the dodecahedron both ways: one color fewer means one strand
fewer, and a far smaller subdivided halo.
"""
from raagbraid import (
    SimpleGraph,
    build_halo,
    chromatic_number,
    essential_vertices,
    greedy_color,
    is_planar,
    is_sufficiently_subdivided,
    minimal_subdivision,
    subdivided_halo,
)

hexagon = SimpleGraph.make(
    [f"a{i}" for i in range(1, 7)],
    [(f"a{i}", f"a{i % 6 + 1}") for i in range(1, 7)],
)

print("hexagon:", hexagon.n_vertices, "vertices,", hexagon.n_edges, "edges")
print("greedy coloring:", greedy_color(hexagon).as_dict)
print("chromatic number:", chromatic_number(hexagon).color_count)
print("planar:", is_planar(hexagon))
print("essential vertices:", sorted(essential_vertices(hexagon)) or "none")
print()

k4 = SimpleGraph.make("abcd", [(x, y) for i, x in enumerate("abcd") for y in "abcd"[i + 1 :]])
print("K4 chromatic number:", chromatic_number(k4).color_count)

# four strands need room: arcs of 3 edges between essential vertices and no
# cycle shorter than 5
report = is_sufficiently_subdivided(k4, 4)
print("\nK4 sufficient for 4 strands?", report.ok)
for v in report.violations[:4]:
    print(f"  {v.kind} through {v.vertices}: {v.length} < {v.required}")

k4_sub = minimal_subdivision(k4, 4)[1]
print("after subdividing:", k4_sub.n_vertices, "vertices,", k4_sub.n_edges, "edges")
print("sufficient now?", is_sufficiently_subdivided(k4_sub, 4).ok)

# the dodecahedron in LCF notation: a 20-cycle plus one chord at each vertex
shifts = [10, 7, 4, -4, -7, 10, -4, 7, -7, 4]
dodecahedron = SimpleGraph.make(
    [f"v{i}" for i in range(20)],
    [(f"v{i}", f"v{(i + 1) % 20}") for i in range(20)]
    + [(f"v{i}", f"v{(i + shifts[i % 10]) % 20}") for i in range(20)],
)
print("\ndodecahedron:", dodecahedron.n_vertices, "vertices,", dodecahedron.n_edges, "edges")
for name, color in (("greedy", greedy_color), ("exact", chromatic_number)):
    coloring = color(dodecahedron)
    halo = subdivided_halo(build_halo(dodecahedron, coloring), coloring.color_count)
    vertices = halo.gamma.n_vertices
    print(f"  {name}: {coloring.color_count} colors, subdivided halo: {vertices} vertices")
