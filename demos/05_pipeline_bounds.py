#!/usr/bin/env python3
"""The composed pipeline, next to the paper's hypotheses.

The hypotheses of the proven statements are a pure report on (n, m, alpha):
at desk scale they fail, and the report names which.  The pipeline checks
only the extraction gate, runs the shared extract and build steps and hands
back a verified certificate.  The pure-arithmetic calculators evaluate the
two-regime lower-bound formula and replay the ratio-bound induction step,
with the paper's constants c1, c2 and C fixed in ``cliquesub.pipeline``.
"""

from cliquesub import (
    check_ratio_induction_step,
    gen_gnp,
    paper_hypotheses,
    sigma_lower_auto,
    sigma_lower_dense,
    subdivision_bound_dispatch,
)

print("=" * 64)
print("  the paper's hypotheses fail at desk scale")
print("=" * 64)

g = gen_gnp(2000, 0.95, 1)
# the dense route searches for alpha once and reports it with its certificate
report = sigma_lower_dense(g, seed=0, alpha_budget=500_000)
alpha = report.alpha
hypotheses = paper_hypotheses(g.n, g.m, alpha.value if alpha.exact else None)
for case in ("dense", "sparse"):
    print(f"\n{case} case:")
    for entry in hypotheses[case]:
        print(f"  {entry['requirement']:20s} holds={entry['holds']}  ({entry['detail']})")

print()
print("=" * 64)
print("  the pipeline constructs")
print("=" * 64)

print(f"\nG(2000, 0.95): certified subdivision order {report.claimed_sigma_lower}")
print("transcript:")
for entry in report.transcript:
    print(f"  {entry}")

g_sparse = gen_gnp(700, 0.35, 2)
report = sigma_lower_auto(g_sparse, alpha_budget=150_000)
print(f"\nG(700, 0.35) routed via {report.transcript[0]['route']}: "
      f"order {report.claimed_sigma_lower}, flags {report.flags}")

print()
print("=" * 64)
print("  arithmetic calculators")
print("=" * 64)

for n, a in ((10**6, 1), (10**6, 10), (10**6, 100)):
    fb = subdivision_bound_dispatch(n, a)
    print(f"\nn={n:.0e}, alpha={a}: regime {fb.regime}, floor {fb.value:.3e}")

rep = check_ratio_induction_step(1e150, 1e130)
print(f"\ninduction step at n=1e150, k=1e130: branch={rep.branch}")
for name, lhs, rhs, ok in rep.checks:
    print(f"  {'ok  ' if ok else 'FAIL'} {name:38s} {lhs:.4g} vs {rhs:.4g}")
print(f"passed: {rep.passed}")
