#!/usr/bin/env python3
"""The two set-refinement steps.

Peeling walks into non-neighborhoods until few pairs are missing; the
greedy shrink then hits an exact target size without increasing the
missing-pair density.  The independence filter buckets vertices by a
canonical superset of their neighborhood inside a maximum independent set,
trading a bounded size loss for a multiplicative drop in independence
number.
"""

import math

from cliquesub import (
    alpha_exact,
    dense_subset,
    es_filter,
    gen_gnp,
    induced,
    missing_pair_count,
    new_graph,
    peel_sequence,
)
from cliquesub.graphs import vertex_mask

print("=" * 64)
print("  dense subsets via peel + shrink")
print("=" * 64)

# two dense blocks with few edges between them: peeling walks out of the
# small block into the large one
left, right, cross = gen_gnp(300, 0.95, 7), gen_gnp(100, 0.95, 8), gen_gnp(400, 0.05, 9)
g = new_graph(
    400,
    list(left.edges())
    + [(300 + u, 300 + v) for u, v in right.edges()]
    + [(u, v) for u, v in cross.edges() if (u < 300) != (v < 300)],
)
alpha = alpha_exact(g).value
print(f"\ntwo blocks G(300, 0.95) + G(100, 0.95), cross density 0.05: alpha = {alpha}")

rho = 0.7
chain = peel_sequence(g, rho)
print(f"peel chain sizes at rho={rho}: {[len(c) for c in chain]}")
tail = chain[-1]
print(f"terminal has {missing_pair_count(g, tail)} missing pairs "
      f"(< rho*|T|^2/2 = {rho * len(tail) ** 2 / 2:.0f})")

# dense_subset promises any s up to ceil(rho^(alpha-1) * n)
s_max = math.ceil(rho ** (alpha - 1) * g.n)
print(f"sizes the contract allows: s <= ceil(rho^(alpha-1)*n) = {s_max}")
for s in (10, 25, s_max):
    out = dense_subset(g, rho, s)
    miss = missing_pair_count(g, out)
    print(f"  s={s:3d}: missing={miss:4d}  (bound rho*s^2 = {rho * s * s:.0f})")

print()
print("=" * 64)
print("  independence filter")
print("=" * 64)

g = gen_gnp(160, 0.25, 11)
res = alpha_exact(g)
i_set = res.witness
print(f"\nG(160, 0.25): alpha = {res.value} [{res.tag}]")

d = 0.5
imask = vertex_mask(i_set)
cap = d * len(i_set)
outside = [
    v
    for v in range(g.n)
    if not (imask >> v) & 1 and (g.rows[v] & imask).bit_count() <= cap
]
print(f"{len(outside)} vertices have at most d*|I| = {cap:.1f} neighbors in I")

u = es_filter(g, i_set, outside, d)
sub, _ = induced(g, u)
print(f"filtered set: {len(u)} vertices "
      f"(pigeonhole floor {(2.718 / d) ** (-d * res.value) * len(outside):.1f})")
print(f"independence inside the filtered set: {alpha_exact(sub).value} "
      f"<= d*alpha = {d * res.value:.1f}")
