"""Composition of the extraction steps into subdivision lower bounds.

Two routes follow the proof's case analysis.  The dense route extracts
straight from the graph.  The sparse route filters by degree, takes a
maximum independent set I and keeps the vertices with few neighbours in
I.  When that loses a density factor 10 it starts over on the kept
subgraph, one level down; otherwise it extracts and then applies the
independence filter.  Both routes share one extraction step (dependent
random choice: a partition, then a hub) and one build step (a ladder of
greedy length-4 builds, each verified), and every fallback is the same
verified single-vertex certificate.

The dense route owns the extraction gate d^2*n >= 1600, and both emit
machine-checked certificates for whatever order they actually achieve.
The paper's own hypotheses, which with its density constant ``C_DENSITY``
fail on every nonempty graph that fits in memory, are a pure report on
(n, m, alpha): ``paper_hypotheses``; its per-pair path guarantee after
extraction is ``paper_path_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import isqrt
from typing import Optional

from .dense import greedy_shrink_trace
from .drc import drc_partition, drc_select
from .esfilter import es_filter
from .graphs import Graph, bits, edge_density, induced, vertex_mask
from .oracles import DEFAULT_BUDGET, Tagged, alpha_exact
from .subdivision import (
    BuildFailure,
    SubdivisionCertificate,
    build_subdivision,
    relabel_certificate,
    verify_subdivision,
)

__all__ = [
    "BoundReport",
    "DRC_DENSITY_REQUIREMENT",
    "PreconditionRefusal",
    "sigma_lower_dense",
    "sigma_lower_density_cited",
    "sigma_lower_sparse",
    "sigma_lower_auto",
    "subdivision_bound_dispatch",
    "paper_hypotheses",
    "paper_path_bound",
    "FBound",
    "check_ratio_induction_step",
    "InductionStepReport",
    "REQ_DENSE_N",
    "REQ_SPARSE_ALPHA",
    "REQ_SPARSE_D",
]

PROV_CONSTRUCTIVE = "certified-constructive"
PROV_CITED = "cited-density-bound"
PROV_TRIVIAL = "trivial"

# The paper's density constant c: a dense-case floor and a sparse-case
# ceiling.  The dense hypothesis n >= 10^14*c^-5 then needs n >= 10^114.
C_DENSITY = 1e-20
# Constants of the pure-arithmetic calculators: c1 and c2 of the two regimes
# of the (n, alpha) bound, and C of the ratio bound C*sqrt(n)/log(n).
C1 = 1e-114
C2 = 1e-114
BIG_C = 1e120

# Level at which the sparse route stops with a single vertex.
MAX_DEPTH = 40
# Sizes the build ladder tries before it falls back to a single vertex.
BUILDER_RETRIES = 30

REQ_DENSE_N = "n >= 10^14 * c^-5"
REQ_SPARSE_ALPHA = "alpha <= n/2"
REQ_SPARSE_D = "d <= c"
DRC_DENSITY_REQUIREMENT = "d^2 * n >= 1600"


class PreconditionRefusal(ValueError):
    """An extraction precondition failed; the message names the inequality."""

    def __init__(self, requirement: str, detail: str = ""):
        self.requirement = requirement
        msg = f"hypothesis not met: {requirement}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass
class BoundReport:
    """One subdivision lower-bound claim with its provenance and transcript."""

    claimed_sigma_lower: int
    provenance: str
    certificate: Optional[SubdivisionCertificate] = None
    transcript: list[dict] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    # the route's own alpha_exact result, None where an empty graph skipped
    # the search; left out of the JSON, whose transcript records alpha
    alpha: Optional[Tagged] = None

    def to_json_dict(self) -> dict:
        return {
            "claimed_sigma_lower": self.claimed_sigma_lower,
            "provenance": self.provenance,
            "flags": list(self.flags),
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "transcript": self.transcript,
        }


def _single_vertex_report(g: Graph, transcript: list[dict], flags: list[str]) -> BoundReport:
    """The fallback of every route on a nonempty graph: one branch vertex."""
    cert = SubdivisionCertificate(branch=(0,), paths={})
    verify_subdivision(g, cert)
    return BoundReport(1, PROV_CONSTRUCTIVE, cert, transcript, flags)


def _cited_report(g: Graph, transcript: list[dict], flags: list[str]) -> BoundReport:
    """Order t with m >= 256*t^2*n, from the cited extraction theorem.

    Records ``t`` on the last transcript step.  Above 1 the claim carries no
    certificate and is flagged; at most 1 it is the single-vertex fallback.
    """
    t = isqrt(g.m // (256 * g.n))
    transcript[-1]["t"] = t
    if t <= 1:
        return _single_vertex_report(g, transcript, flags)
    return BoundReport(t, PROV_CITED, None, transcript, flags + ["non-certified"])


def sigma_lower_density_cited(g: Graph) -> BoundReport:
    """Order guaranteed by raw edge count alone: t with m >= 256*t^2*n.

    This route cites an external extraction theorem and is NOT constructive
    here: the report carries no certificate and is flagged accordingly.
    """
    transcript = [{"step": "density-cited", "n": g.n, "m": g.m}]
    if g.n == 0:
        return BoundReport(0, PROV_TRIVIAL, None, transcript)
    return _cited_report(g, transcript, [])


def _extract(
    h: Graph,
    labels: range | tuple[int, ...],
    seed: int,
    transcript: list[dict],
) -> tuple[int, ...]:
    """Dependent random choice on ``h``: a partition, then a hub.

    ``labels[i]`` is the host-graph label of vertex i of ``h``.  Records one
    ``partition`` and one ``hub`` step and returns U in host labels.
    """
    v1, v2 = drc_partition(h, seed)
    transcript.append({"step": "partition", "seed": seed, "v1_size": len(v1)})
    cert = drc_select(h, v1, v2)
    u_labels = tuple(sorted(labels[v] for v in cert.u_set))
    transcript.append(
        {
            "step": "hub",
            "hub": labels[cert.hub],
            "x_size": len(cert.x_set),
            "bad_pairs": cert.bad_pair_count,
            "u_size": len(u_labels),
        }
    )
    return u_labels


def _build(
    g: Graph,
    u_labels: tuple[int, ...],
    pool_mask: int,
    transcript: list[dict],
    flags: list[str],
) -> BoundReport:
    """Ladder selection: shrink the candidate set greedily, start at the
    largest size whose missing-pair load fits half the interior pool
    (3*missing <= pool/2), then retry downward on builder failure.  A
    verified length-4 certificate is the claim; when every size fails the
    claim is a single vertex."""
    gU, mapping = induced(g, u_labels)
    order, missing = greedy_shrink_trace(gU, range(gU.n))
    budget = pool_mask.bit_count() // 2
    start = 1
    for k in range(gU.n, 0, -1):
        if 3 * missing[k] <= budget:
            start = k
            break
    pool = tuple(bits(pool_mask))
    attempts = 0
    for s in range(start, 0, -1):
        attempts += 1
        if attempts > BUILDER_RETRIES:
            break
        dropped = set(order[: gU.n - s])
        s_labels = tuple(mapping[v] for v in range(gU.n) if v not in dropped)
        result = build_subdivision(g, s_labels, pool)
        if isinstance(result, BuildFailure):
            transcript.append(
                {
                    "step": "build-retry",
                    "s": s,
                    "failed_pair": list(result.failed_pair),
                    "placed": result.placed,
                }
            )
            continue
        check = verify_subdivision(g, result, exact_length=4)
        if not check.ok:
            raise AssertionError(f"builder emitted an invalid certificate: {check.clause}")
        transcript.append(
            {"step": "build", "s": s, "missing": missing[s], "attempts": attempts}
        )
        return BoundReport(result.order, PROV_CONSTRUCTIVE, result, transcript, flags)
    transcript.append({"step": "build-exhausted", "attempts": attempts})
    return _single_vertex_report(g, transcript, flags)


def sigma_lower_dense(
    g: Graph, seed: int = 0, *, alpha_budget: int = DEFAULT_BUDGET
) -> BoundReport:
    """Dense-case constructive bound: extract, then build.

    A complete graph is its own subdivision; otherwise the extraction gate
    d^2*n >= 1600 must hold, and the report carries the best certificate
    the greedy builder achieves.

    alpha is searched for once, within ``alpha_budget``, after the gate: a
    refusal searches for none.  The report carries the result as ``alpha``.
    """
    n = g.n
    d = edge_density(g)
    complete = 2 * g.m == n * (n - 1)
    # the gate reads only n and m; a complete graph takes the clique
    # shortcut below and needs no gate
    if not complete and d * d * n < 1600:
        raise PreconditionRefusal(
            DRC_DENSITY_REQUIREMENT, f"d^2*n = {float(d * d * n):.6g}"
        )
    alpha = alpha_exact(g, alpha_budget)
    flags = [] if alpha.exact else ["heuristic-alpha"]
    transcript: list[dict] = [
        {"step": "dense-entry", "n": n, "m": g.m, "alpha": alpha.value, "seed": seed}
    ]
    if n == 0:
        report = BoundReport(0, PROV_TRIVIAL, None, transcript, flags)
    elif complete:
        cert = build_subdivision(g, range(n), ())
        assert isinstance(cert, SubdivisionCertificate)
        verify_subdivision(g, cert, exact_length=4)
        transcript.append({"step": "clique-shortcut", "order": n})
        report = BoundReport(n, PROV_CONSTRUCTIVE, cert, transcript, flags)
    else:
        u_set = _extract(g, range(n), seed, transcript)
        pool_mask = g.full_mask() & ~vertex_mask(u_set)
        report = _build(g, u_set, pool_mask, transcript, flags)
    report.alpha = alpha
    return report


def _degree_filter(g: Graph) -> list[int]:
    """Vertices of degree at most 2*d*n, compared exactly."""
    n, m = g.n, g.m
    # deg <= 2*d*n  <=>  deg*(n-1) <= 4*m
    return [v for v in range(n) if g.degree(v) * (n - 1) <= 4 * m]


def sigma_lower_sparse(
    g: Graph, seed: int = 0, *, alpha_budget: int = DEFAULT_BUDGET
) -> BoundReport:
    """Sparse-case bound, one loop over levels: degree filter, independent
    set, restriction, then extract, independence-filter and build, or, when
    the restriction loses a density factor 10, the next level on it.

    Level ``depth`` is a graph h with ``labels`` mapping its vertices to
    g's (level 0 is g); it searches its own alpha within ``alpha_budget``
    and extracts with ``seed + depth``, and the loop stops ``MAX_DEPTH``
    levels down.  A certificate found below level 0 is lifted to g and
    verified against g once, with the sorted union of every level's flags.
    One transcript records every branch; ``alpha`` is g's own search.
    """
    transcript: list[dict] = []
    above: set[str] = set()  # flags of the levels the route descended from
    h, labels, g_alpha = g, range(g.n), None
    for depth in count():
        n, m = h.n, h.m
        entry = {"step": "sparse-entry", "depth": depth, "n": n, "m": m, "seed": seed + depth}
        transcript.append(entry)
        if n == 0:
            report = BoundReport(0, PROV_TRIVIAL, None, transcript, [])
            break
        alpha = alpha_exact(h, alpha_budget)
        if depth == 0:
            g_alpha = alpha
        entry["alpha"], entry["alpha_tag"] = alpha.value, alpha.tag
        d = edge_density(h)
        a_val = alpha.value
        flags = [] if alpha.exact else ["heuristic-alpha"]

        # base case: density below n^(-1/4), exactly 16*m^4 < n^3*(n-1)^4
        if 16 * m**4 < n**3 * (n - 1) ** 4:
            transcript.append({"step": "base-case", "name": "d < n^(-1/4)"})
            report = _single_vertex_report(h, transcript, flags)
            break
        # base case: independence number above n/16 -> cited density bound
        if 16 * a_val > n:
            transcript.append({"step": "base-case", "name": "alpha > n/16"})
            report = _cited_report(h, transcript, flags)
            break
        if depth >= MAX_DEPTH:
            transcript.append({"step": "depth-cap", "depth": depth})
            report = _single_vertex_report(h, transcript, flags + ["depth-cap-exceeded"])
            break

        v_prime = _degree_filter(h)
        if len(v_prime) == n:
            i_local, map_prime = alpha, v_prime
        else:
            h_prime, map_prime = induced(h, v_prime)
            i_local = alpha_exact(h_prime, alpha_budget)
        if not i_local.exact:
            flags.append("heuristic-independent-set")
        i_labels = tuple(sorted(map_prime[v] for v in i_local.witness))
        i_mask = vertex_mask(i_labels)
        i_size = len(i_labels)
        transcript.append(
            {"step": "filter", "v_prime": len(v_prime), "i_size": i_size,
             "i_tag": i_local.tag}
        )
        # X: vertices of V' with at least 8*d*|I| neighbors in I (exact compare)
        v_dprime = []
        for v in v_prime:
            if (1 << v) & i_mask:
                continue
            cnt = (h.rows[v] & i_mask).bit_count()
            if cnt * n * (n - 1) >= 16 * m * i_size:
                continue
            v_dprime.append(v)
        transcript.append({"step": "restrict", "v_dprime": len(v_dprime)})
        if len(v_dprime) < 2:
            report = _single_vertex_report(h, transcript, flags + ["filtered-set-too-small"])
            break

        h_sub, map_sub = induced(h, v_dprime)
        d_sub = edge_density(h_sub)
        transcript.append(
            {"step": "density-drop", "d": float(d), "d_sub": float(d_sub),
             "q": float(d_sub / d) if d else None}
        )
        if 10 * d_sub <= d:
            # descend to the strictly smaller filtered subgraph
            assert h_sub.n <= n - i_size < n
            transcript.append({"step": "case", "name": "density-drop-recursion"})
            above.update(flags)
            h, labels = h_sub, tuple(labels[v] for v in map_sub)
            continue

        transcript.append({"step": "case", "name": "extraction"})
        v1_labels = _extract(h_sub, map_sub, seed + depth, transcript)
        if len(v1_labels) < 2:
            report = _single_vertex_report(h, transcript, flags + ["extraction-too-small"])
            break

        # independence filter with cap 8*d (clamped into (0,1] at desk scale)
        cap = min(Fraction(8) * d, Fraction(1))
        filtered = es_filter(h, i_labels, v1_labels, cap)
        if cap < 1:
            beta = min(int(8 * d * a_val), a_val)
        else:
            beta = a_val
            flags.append("filter-cap-clamped")
        beta = max(beta, 1)
        df = float(d)
        u_target = int(math.exp(-15 * df * a_val * math.log(1 / df)) * n) if 0 < df < 1 else 0
        if u_target >= 1 and u_target < len(filtered):
            u_labels = filtered[:u_target]
        else:
            u_labels = filtered
            if u_target < 1:
                flags.append("truncation-target-below-1")
        transcript.append(
            {"step": "independence-filter", "cap": float(cap),
             "filtered": len(filtered), "u_target": u_target,
             "u_size": len(u_labels), "beta": beta}
        )
        if len(u_labels) < 1:
            report = _single_vertex_report(h, transcript, flags + ["filter-empty"])
            break

        pool_mask = vertex_mask(v_dprime) & ~vertex_mask(v1_labels)
        report = _build(h, u_labels, pool_mask, transcript, flags)
        break

    if depth > 0:
        if report.certificate is not None:
            report.certificate = relabel_certificate(report.certificate, labels)
            check = verify_subdivision(g, report.certificate)
            if not check.ok:
                raise AssertionError(f"lifted certificate invalid: {check.clause}")
        report.flags = sorted(above.union(report.flags))
    report.alpha = g_alpha
    return report


def sigma_lower_auto(
    g: Graph, seed: int = 0, *, alpha_budget: int = DEFAULT_BUDGET
) -> BoundReport:
    """Dispatch on n and m alone.  A complete graph (exactly the graphs whose
    exact alpha is at most 1) takes the dense route; so does a graph with
    d^2*n >= 1600, behind an ``auto`` transcript step; every other graph
    takes the sparse route.  The route taken searches for alpha within
    ``alpha_budget`` and reports it as ``alpha``.
    """
    n = g.n
    if n == 0:
        return BoundReport(0, PROV_TRIVIAL)
    if 2 * g.m == n * (n - 1):
        return sigma_lower_dense(g, seed, alpha_budget=alpha_budget)
    d = edge_density(g)
    if d * d * n >= 1600:
        report = sigma_lower_dense(g, seed, alpha_budget=alpha_budget)
        report.transcript.insert(0, {"step": "auto", "route": "dense"})
        return report
    report = sigma_lower_sparse(g, seed, alpha_budget=alpha_budget)
    report.transcript.insert(0, {"step": "auto", "route": "sparse"})
    return report


# ---------------------------------------------------------------------------
# pure-arithmetic bounds


@dataclass(frozen=True)
class FBound:
    """Theoretical floor for the guaranteed subdivision order at (n, alpha)."""

    regime: str  # "part-1" | "part-2"
    value: float
    part1: float
    part2: Optional[float]
    a: Optional[float]  # alpha / log(n)


def subdivision_bound_dispatch(n: int, alpha: int) -> FBound:
    """Evaluate the two-regime lower-bound formula.

    part 1: c1 * n^(alpha/(2*alpha-1)) when alpha < 2*log(n);
    part 2: c2 * sqrt(n/(a*log(a))) with a = alpha/log(n) otherwise.
    At the boundary both are reported.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= alpha <= n:
        raise ValueError(f"alpha={alpha} out of range 1..{n}")
    part1 = C1 * n ** (alpha / (2 * alpha - 1))
    if n == 1:
        return FBound("part-1", part1, part1, None, None)
    ln_n = math.log(n)
    a = alpha / ln_n
    part2 = C2 * math.sqrt(n / (a * math.log(a))) if a >= 2 else None
    if alpha < 2 * ln_n:
        return FBound("part-1", part1, part1, part2, a)
    assert part2 is not None
    return FBound("part-2", part2, part1, part2, a)


def paper_hypotheses(n: int, m: int, alpha: Optional[int] = None) -> dict[str, list[dict]]:
    """The paper's hypotheses on a graph of n vertices, m edges and
    independence number ``alpha``, per case: "dense", "sparse", and "auto"
    (the dense case exactly when the graph is complete).

    Each entry is a requirement, its detail and whether it ``holds``: True,
    False, or None when it needs an ``alpha`` that is not given.  With c =
    ``C_DENSITY`` the dense case needs n >= 10^14*c^-5, d >= c and
    alpha <= 2*log(n); the sparse case alpha <= n/2, d <= c and
    d*alpha*log(1/d) <= log(n)/100.  The report stops at n >= 10^114, which
    fails on every graph in memory, and at d <= c, which fails on every one
    with an edge and n < 10^10.  Pure arithmetic: no alpha is searched for.
    """
    if n < 0 or not 0 <= m <= n * (n - 1) // 2 or not 0 <= (alpha or 0) <= n:
        raise ValueError(f"no graph has n={n}, m={m} and alpha={alpha}")
    d = Fraction(m, n * (n - 1) // 2) if n > 1 else Fraction(0)
    dense = [
        {"requirement": REQ_DENSE_N, "detail": f"n = {n}", "holds": n >= 1e14 * C_DENSITY**-5}
    ]
    sparse = [
        {
            "requirement": REQ_SPARSE_ALPHA,
            "detail": f"alpha = {'unknown' if alpha is None else alpha}, n = {n}",
            "holds": None if alpha is None else 2 * alpha <= n,
        },
        {"requirement": REQ_SPARSE_D, "detail": f"d = {float(d):.6g}", "holds": d <= C_DENSITY},
    ]
    return {"dense": dense, "sparse": sparse, "auto": dense if 2 * m == n * (n - 1) else sparse}


def paper_path_bound(n: int, m: int) -> int:
    """The paper's per-pair guarantee after extraction on n vertices and m
    edges: ceil(1e-9*d^5*n) internally disjoint length-4 paths, d = 0 at n <= 1."""
    if n < 0 or not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no graph has n={n} and m={m}")
    d = Fraction(m, n * (n - 1) // 2) if n > 1 else Fraction(0)
    return math.ceil(d**5 * n / 10**9)


@dataclass(frozen=True)
class InductionStepReport:
    branch: str  # "trivial" | "main"
    checks: tuple[tuple[str, float, float, bool], ...]  # (name, lhs, rhs, ok)
    passed: bool

    def failed(self) -> list[str]:
        return [name for name, _, _, ok in self.checks if not ok]


def check_ratio_induction_step(n: float, k: float) -> InductionStepReport:
    """Numerically replay the induction that turns the (n, alpha) bound into
    the ratio bound C*sqrt(n)/log(n), for a given vertex count and chromatic
    number.  All inequalities are evaluated in log space so astronomically
    large inputs are fine; each check reports its two sides.  Needs
    1 <= k <= n < inf.
    """
    if not 1 <= k <= n < math.inf:
        raise ValueError(f"k={k} out of range 1..n for n={n}")
    C, c1, c2 = BIG_C, C1, C2
    e = math.e
    checks: list[tuple[str, float, float, bool]] = []

    def add(name: str, lhs: float, rhs: float, ok: bool) -> None:
        checks.append((name, lhs, rhs, ok))

    # constant identities behind the choice of C
    add("C >= e^8", C, e**8, C >= e**8)
    add("C >= 16/(c1*e)", C, 16 / (c1 * e), C >= 16 / (c1 * e))
    add("C >= 4/(c2*sqrt(e))", C, 4 / (c2 * math.sqrt(e)), C >= 4 / (c2 * math.sqrt(e)))

    branch = "trivial" if (k < C or n < C) else "main"
    if branch == "trivial":
        # chi/sigma <= k < C <= C*sqrt(n)/log(n) needs sqrt(n)/log(n) >= 1
        ratio = math.sqrt(n) / math.log(n) if n > 1 else float("inf")
        add("sqrt(n)/log(n) >= 1", ratio, 1.0, ratio >= 1.0)

    # sub-case bounds for small independence number (grid facts + chain)
    def weight(a: float) -> float:
        expo = 1 / (4 * a)
        return math.inf if expo > 700 else a * math.exp(expo)

    grid = [i / 10000 for i in range(1, 20001)]
    grid.append(0.25)
    min_a = min(weight(a) for a in grid)
    add("min a*e^(1/(4a)) >= e/4", min_a, e / 4, min_a >= e / 4 - 1e-12)
    add("min attained at a=1/4", min_a, e / 4, abs(min_a - e / 4) < 1e-6)
    add("16/(c1*e) <= C", 16 / (c1 * e), C, 16 / (c1 * e) <= C)
    grid2 = [2 * (1.01**i) for i in range(1, 1400)]
    grid2.append(e)
    max_loga_a = max(math.log(a) / a for a in grid2)
    add("max log(a)/a <= 1/e", max_loga_a, 1 / e, max_loga_a <= 1 / e + 1e-12)
    add("4/(c2*sqrt(e)) <= C", 4 / (c2 * math.sqrt(e)), C, 4 / (c2 * math.sqrt(e)) <= C)

    # deletion branch chain (evaluable whenever k > 8 and n' >= e^2)
    if k > 8:
        x = 4 / k
        log1mx = math.log1p(-x)
        add("4/k < 1/2", x, 0.5, x < 0.5)
        add("log(1-4/k) > -8/k", log1mx, -2 * x, log1mx > -2 * x)
        lhs3 = math.log(k) - math.log(k - 1) + 0.5 * log1mx
        rhs3 = math.log1p(-1 / k)
        add("(k/(k-1))*sqrt(1-4/k) <= 1-1/k", lhs3, rhs3, lhs3 <= rhs3)
        log_nprime = math.log(n) + log1mx
        add("n' >= e^2", log_nprime, 2.0, log_nprime >= 2.0)
        denom = 1 - 8 / (k * math.log(n))
        add("1 - 8/(k*log n) > 0", denom, 0.0, denom > 0.0)
        lhs6 = math.log1p(-1 / k)
        rhs6 = math.log1p(-8 / (k * math.log(n))) if denom > 0 else float("-inf")
        add("(1-1/k) <= (1-8/(k*log n))", lhs6, rhs6, lhs6 <= rhs6)

    constants_ok = all(ok for name, _, _, ok in checks[:3])
    if branch == "trivial":
        passed = constants_ok and checks[3][3]
    else:
        passed = all(ok for _, _, _, ok in checks)
    return InductionStepReport(branch, tuple(checks), passed)
