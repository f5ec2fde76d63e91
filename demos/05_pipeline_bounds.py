#!/usr/bin/env python3
"""The composed pipeline, in both of its moods.

Paper mode checks the hypotheses of the proven statements: at desk scale
it refuses, naming the failed hypothesis.  Practical mode checks only the
extraction gate, runs the shared extract and build steps and hands back a
verified certificate.  The pure-arithmetic calculators evaluate the two-regime
lower-bound formula and replay the ratio-bound induction step, with the
paper's constants c1, c2 and C fixed in ``cliquesub.pipeline``.
"""

from cliquesub import (
    PipelineParams,
    PreconditionRefusal,
    alpha_exact,
    check_ratio_induction_step,
    gen_gnp,
    sigma_lower_auto,
    sigma_lower_dense,
    subdivision_bound_dispatch,
)

print("=" * 64)
print("  paper mode refuses at desk scale")
print("=" * 64)

g = gen_gnp(2000, 0.95, 1)
alpha = alpha_exact(g, 500_000)
try:
    sigma_lower_dense(g, alpha, PipelineParams.paper())
except PreconditionRefusal as exc:
    print(f"\ndense, paper mode: {exc}")

print()
print("=" * 64)
print("  practical mode constructs")
print("=" * 64)

report = sigma_lower_dense(g, alpha, PipelineParams.practical(), seed=0)
print(f"\nG(2000, 0.95): certified subdivision order {report.claimed_sigma_lower}")
print("transcript:")
for entry in report.transcript:
    print(f"  {entry}")

g_sparse = gen_gnp(700, 0.35, 2)
report = sigma_lower_auto(g_sparse, PipelineParams.practical(alpha_budget=150_000))
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
