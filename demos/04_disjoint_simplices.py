"""Three vertex-disjoint rainbow triangles with a common interior point.

With 8 points per color in general position this always succeeds; the
search enumerates lexicographically, clips the triangles exactly, and
certifies the first feasible triple with the vertex average of their
common region, an exact witness strictly inside all three.
"""

import time

from rainbowdepth import (
    GeneratorSpec,
    common_interior_point,
    find_disjoint_rainbow_simplices,
    generate,
    point,
    point_in_simplex_interior,
)

cfg = generate(GeneratorSpec(seed=0, n=8, d=2))
t0 = time.time()
cert = find_disjoint_rainbow_simplices(cfg.colors, 3)
print(f"search time: {time.time() - t0:.2f}s")
print("simplices (index per color):", cert.simplices)
print("witness:", cert.witness)

for t in cert.simplices:
    verts = [cfg.colors[i][t[i]] for i in range(3)]
    assert point_in_simplex_interior(cert.witness, verts)
print("witness re-verified strictly inside all three simplices")

# the margin-LP primitive on its own: two nested triangles
outer = [point(0, 0), point(9, 0), point(0, 9)]
inner = [point(1, 1), point(3, 1), point(1, 3)]
print("\nnested triangles share interior point:", common_interior_point([outer, inner]))
far = [point(50, 50), point(51, 50), point(50, 51)]
print("disjoint triangles:", common_interior_point([outer, far]))
