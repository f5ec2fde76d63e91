#!/usr/bin/env python3
"""Dependent random choice at working scale.

Draws a dense random graph, certifies a balanced bipartition, scans every
candidate hub to pick the one maximizing |X|^2 - 40*b, and verifies that
sampled pairs of the extracted set really are joined by internally disjoint
length-4 paths avoiding the set.
"""

import time

from cliquesub import (
    count_disjoint_paths4,
    drc_partition,
    drc_select,
    edge_density,
    gen_gnp,
    paper_path_bound,
    verify_drc_certificate,
)

N, P, SEED = 3000, 0.8, 42

print("=" * 64)
print(f"  extraction on G({N}, {P}), seed {SEED}")
print("=" * 64)

t0 = time.time()
g = gen_gnp(N, P, SEED)
d = edge_density(g)
print(f"\ngenerated in {time.time() - t0:.1f}s: m={g.m}, d={float(d):.4f}")
print(f"dense-route gate d^2*n >= 1600: {d * d * N >= 1600} (d^2*n = {float(d * d * N):.1f})")

v1, v2 = drc_partition(g, SEED)
print(f"bipartition: |V1|={len(v1)}, |V2|={len(v2)}")

t0 = time.time()
cert = drc_select(g, v1, v2)
print(f"hub scan in {time.time() - t0:.1f}s")
print(f"  hub={cert.hub}, |X|={len(cert.x_set)}, bad pairs b={cert.bad_pair_count}")
print(f"  |U|={len(cert.u_set)} (needs >= d*n/50 = {float(d) * N / 50:.1f})")
print(f"  paper's guarantee of disjoint length-4 paths per pair: {paper_path_bound(g.n, g.m)}")

print("\nrecomputing every certificate invariant:")
for name, ok in verify_drc_certificate(g, cert):
    print(f"  {'ok  ' if ok else 'FAIL'} {name}")

print("\nflow checks on a few pairs of U (interiors avoid U):")
forb = set(cert.u_set)
for u, v in [(cert.u_set[0], cert.u_set[1]), (cert.u_set[5], cert.u_set[17])]:
    got = count_disjoint_paths4(g, u, v, forb - {u, v}, limit=10)
    print(f"  pair ({u},{v}): >= {got} disjoint length-4 paths")
