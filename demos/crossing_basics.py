"""Chord crossings on convex point sets, from the ground up."""

from outerkplanar import (
    ConvexGraph,
    chord_length,
    chords_cross,
    complete_graph,
    crossing_counts,
    is_outer_k_planar,
    outercopy,
    outercopy_crossing_counts,
)

n = 8
print("two chords cross iff their endpoints interleave around the circle:")
for e, f in [((0, 4), (2, 6)), ((0, 4), (4, 6)), ((0, 1), (2, 3))]:
    print(f"  {e} x {f} -> {chords_cross(n, e, f)}")

print("\nchord lengths on n=8 (0 = hull edge):")
for a, b in [(0, 1), (0, 2), (0, 4), (5, 7)]:
    print(f"  ({a}, {b}): length {chord_length(n, (a, b))}, "
          f"hull={chord_length(n, (a, b)) == 0}")

# every 4-subset of vertices of K_n contributes exactly one crossing pair
for x in range(5, 9):
    g = complete_graph(x)
    total = sum(crossing_counts(g).values()) // 2
    print(f"\nK_{x}: {total} crossing pairs (C({x},4) = "
          f"{x*(x-1)*(x-2)*(x-3)//24})")

g = complete_graph(6)
counts = crossing_counts(g)
print("\nper-edge crossing profile of K_6:")
for e in g.sorted_edges():
    print(f"  {e}: crossed {counts[e]} times")
print("K_6 outer 4-planar?", is_outer_k_planar(g, 4))
print("K_6 outer 3-planar?", is_outer_k_planar(g, 3))

# pushing a second copy of each diagonal outside the hull halves the load
oc = outercopy(ConvexGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                               (0, 2), (1, 3)]))
print(f"\noutercopy: {len(oc.inside_edges)} inside arcs + "
      f"{len(oc.outside_edges)} outside arcs = {oc.total_edges} total")
worst = max(outercopy_crossing_counts(oc).values())
print("max crossings on any outercopy arc:", worst)
