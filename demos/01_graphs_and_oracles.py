#!/usr/bin/env python3
"""Tour of the graph core and the exact small-scale oracles.

Builds a few named graphs, reads off exact independence, clique, chromatic
and subdivision numbers, and shows the counting certificate that bounds the
subdivision order from above.
"""

from cliquesub import (
    alpha_exact,
    chi_exact,
    complement,
    dsatur_upper,
    edge_density,
    new_graph,
    omega_exact,
    sigma_exact_value,
    sigma_upper_cert,
    turan_density_bound,
)

print("=" * 64)
print("  graphs and oracles")
print("=" * 64)

c5 = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
print(f"\n5-cycle: {c5}, density {edge_density(c5)}")
print(f"  alpha = {alpha_exact(c5).value}  (witness {alpha_exact(c5).witness})")
print(f"  omega = {omega_exact(c5).value}")
print(f"  chi   = {chi_exact(c5).value}  (dsatur gives {dsatur_upper(c5)[0]})")

val, cert = sigma_exact_value(c5)
print(f"  sigma = {val.value}: branch {cert.branch}, paths {cert.paths}")

upper = sigma_upper_cert(c5, omega_exact(c5))
print(f"  counting certificate: {upper.explain()}")

print("\ncomplement of the 5-cycle is again 2-regular:")
print(f"  edges: {sorted(complement(c5).edges())}")

petersen = new_graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)
val, cert = sigma_exact_value(petersen)
print(f"\nPetersen graph: alpha={alpha_exact(petersen).value}, "
      f"omega={omega_exact(petersen).value}, sigma={val.value}")
print(f"  subdivision witness: branch {cert.branch}")
for pair, path in sorted(cert.paths.items()):
    print(f"    {pair}: {path}")

print("\nTuran floor: a 10-vertex graph with independence number 5 has")
exact, simple = turan_density_bound(10, 5)
print(f"  density >= {exact} (simplified floor {simple})")
