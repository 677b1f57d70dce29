"""Dense equal-size subsets of a partite hypergraph.

The extraction maximizes e(S_1,S_2,S_3) / s^(3 - eps^4) exactly (every
comparison decided in integers, by cross-powering or by bounds on the
logarithms), which buys the key property:
every tuple of ceil(eps*s)-subsets of the output still spans an edge.
"""

import itertools
import random
from fractions import Fraction

from rainbowdepth import (
    averaging_identity_check,
    density_value,
    edge_count,
    extract_dense_exact,
    extract_dense_local,
    partite_hypergraph,
    verify_property_ii,
)

rng = random.Random(11)
edges = [e for e in itertools.product(range(6), repeat=3) if rng.random() < 0.5]
h = partite_hypergraph([6, 6, 6], edges)
print(f"hypergraph: parts 6/6/6, {len(h.edges)} of 216 possible edges")

full = h.full_subsets()
print("averaging identity at t=(2,2,2):", averaging_identity_check(h, full, [2, 2, 2]))

eps = Fraction(1, 3)
subsets = extract_dense_exact(h, eps)
s = len(subsets[0])
e = edge_count(h, subsets)
print(f"\nexact extraction: s={s}, edges within = {e} (of {s ** 3} possible)")
print(f"global density {Fraction(len(h.edges), 216)} vs extracted {Fraction(e, s ** 3)}")

report = verify_property_ii(h, subsets, eps)
print(f"every ceil(eps*s)-subtuple spans an edge: {report.status} "
      f"({report.combinations_checked} combinations checked)")

local = extract_dense_local(h, eps, seed=1)
print(f"\nlocal search got s={len(local[0])}, "
      f"at least as dense as the full parts: "
      f"{density_value(h, local, eps) >= density_value(h, full, eps)}")
