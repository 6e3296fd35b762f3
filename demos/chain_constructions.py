"""Dense outer k-planar graphs built by chaining complete blocks."""

from outerkplanar import (
    crossing_counts,
    degeneracy_order,
    greedy_color,
    is_bipartite,
    kx_chain,
    kxx_alternating,
    kxx_chain,
)

# chains of K_x glued along hull edges: n = blocks*(x-2)+2 vertices
print("kx_chain(x, blocks): n, m, worst crossing")
for x in (4, 5, 6, 8):
    for blocks in (1, 3, 10):
        g = kx_chain(x, blocks)
        kmax = max(crossing_counts(g).values())
        print(f"  x={x} blocks={blocks:>2}: n={g.n:>3} m={g.m:>4} k={kmax}")

# the x=4 chain realizes 2.5n-4 edges at every admissible n
for blocks in (2, 5, 20):
    g = kx_chain(4, blocks)
    assert g.m == 2.5 * g.n - 4
    print(f"kx_chain(4,{blocks}): m = {g.m} = 2.5*{g.n}-4")

# sparse structure underneath: degeneracy caps the greedy colors
g = kx_chain(4, 3)
order, degen = degeneracy_order(g)
colors, ncolors = greedy_color(g, order)
print(f"\nkx_chain(4,3): degeneracy {degen}, greedy colors {ncolors} "
      f"(<= degeneracy+1 = {degen + 1})")

# bipartite variants: K_{x,x} blocks, alternating or chained
g = kxx_alternating(3)
print(f"\nkxx_alternating(3): n={g.n} m={g.m} "
      f"coloring={g.coloring} bipartite={is_bipartite(g)}")
print("worst crossing:", max(crossing_counts(g).values()))

for x, blocks in [(3, 4), (2, 5), (5, 3)]:
    g = kxx_chain(x, blocks)
    kmax = max(crossing_counts(g).values())
    print(f"kxx_chain({x},{blocks}): n={g.n} m={g.m} k={kmax} "
          f"bipartite={is_bipartite(g)}")
