"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The large-constant
headline statements are not reproducible at desk scale, so acceptance is
property-based per extraction step plus certified small-scale facts.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cliquesub.dense import dense_subset, missing_pair_count
from cliquesub.drc import (
    count_disjoint_paths4,
    drc_partition,
    drc_select,
    verify_drc_certificate,
)
from cliquesub.esfilter import es_filter
from cliquesub.experiments import (
    OPTIMAL_P,
    SweepBudgets,
    find_certified_ratio_violation,
    run_ratio_sweep,
)
from cliquesub.graphs import edge_density, gen_gnp, induced, new_graph, vertex_mask
from cliquesub.oracles import (
    alpha_exact,
    chi_exact,
    omega_exact,
    sigma_exact_tiny,
    sigma_exact_value,
)
from cliquesub.pipeline import (
    PreconditionRefusal,
    paper_path_bound,
    sigma_lower_dense,
    sigma_lower_sparse,
)
from cliquesub.subdivision import (
    BuildFailure,
    SubdivisionCertificate,
    build_subdivision,
    verify_subdivision,
)
from conftest import (
    brute_alpha,
    brute_chi,
    brute_omega,
    cycle,
    lexicographic_product_c5_k3,
    petersen,
    random_graph,
)


@contextmanager
def criterion(number: int, name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.time() - start:.1f}s)")


def all_four_vertex_graphs():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for mask in range(64):
        yield new_graph(4, [pairs[i] for i in range(6) if (mask >> i) & 1])


def test_criterion_1_oracle_ground_truth():
    with criterion(1, "oracle ground truth vs exhaustive enumeration"):
        for g in all_four_vertex_graphs():
            assert alpha_exact(g).value == brute_alpha(g)
            assert omega_exact(g).value == brute_omega(g)
            assert chi_exact(g).value == brute_chi(g)
        rng = random.Random(101)
        for _ in range(10_000):
            g = random_graph(rng, rng.randint(1, 9))
            assert alpha_exact(g).value == brute_alpha(g)
            assert omega_exact(g).value == brute_omega(g)
            assert chi_exact(g).value == brute_chi(g)


def test_criterion_2_dense_subset_contract():
    with criterion(2, "dense-subset bound on every valid size"):
        rng = random.Random(202)
        for _ in range(10_000):
            g = random_graph(rng, rng.randint(1, 12))
            a = alpha_exact(g).value
            for rho in (0.3, 0.6):
                smax = min(g.n, max(1, math.ceil(rho ** (a - 1) * g.n)))
                for s in range(1, smax + 1):
                    out = dense_subset(g, rho, s)
                    assert len(out) == s
                    assert missing_pair_count(g, out) <= rho * s * s


def test_criterion_3_independence_filter_contract():
    with criterion(3, "independence filter size and alpha drop"):
        rng = random.Random(303)
        done = 0
        while done < 1_000:
            g = random_graph(rng, rng.randint(4, 14))
            res = alpha_exact(g)
            i_set = res.witness
            alpha = len(i_set)
            d = rng.choice((0.3, 0.5, 0.7))
            cap = Fraction(d) * alpha
            imask = vertex_mask(i_set)
            v1 = [
                v
                for v in range(g.n)
                if not (imask >> v) & 1
                and (g.rows[v] & imask).bit_count() <= cap
            ]
            if not v1:
                continue
            out = es_filter(g, i_set, v1, d)
            assert len(out) >= (math.e / d) ** (-d * alpha) * len(v1) - 1e-9
            sub, _ = induced(g, out)
            assert alpha_exact(sub).value <= int(cap)
            done += 1


def test_criterion_4_extraction_at_scale():
    with criterion(4, "common-neighbor extraction at n=6400"):
        n, p = 6400, 0.55
        for seed in range(5):
            g = gen_gnp(n, p, seed)
            d = edge_density(g)
            v1, v2 = drc_partition(g, seed)
            cert = drc_select(g, v1, v2)
            x = len(cert.x_set)
            assert Fraction(50 * len(cert.u_set)) >= d * n
            assert Fraction(10 * x) >= d * n
            assert Fraction(40 * cert.bad_pair_count) <= Fraction(x * x)
            need = paper_path_bound(g.n, g.m)
            assert need == 1  # ceil(1e-9 * d^5 * n) at this density
            forb = set(cert.u_set)
            pairs = [
                (cert.u_set[i], cert.u_set[j])
                for i in range(0, 40, 2)
                for j in range(i + 1, min(i + 7, len(cert.u_set)))
            ][:100]
            assert len(pairs) == 100
            for u, v in pairs:
                got = count_disjoint_paths4(g, u, v, forb - {u, v}, limit=need)
                assert got >= need


def test_criterion_5_subdivision_soundness():
    with criterion(5, "builder certificates verify; tampers fail"):
        rng = random.Random(505)
        built = 0
        while built < 1_000:
            n = rng.randint(50, 400)
            g = random_graph(rng, n, rng.uniform(0.5, 0.9))
            k = rng.randint(3, 9)
            s_set = rng.sample(range(n), k)
            pool = [v for v in range(n) if v not in set(s_set)]
            cert = build_subdivision(g, s_set, pool)
            if isinstance(cert, BuildFailure):
                continue
            assert verify_subdivision(g, cert, exact_length=4).ok
            built += 1
            if cert.paths and built % 25 == 0:
                pairs = sorted(cert.paths)
                # mutation class 1: interior overlap between two paths
                if len(pairs) >= 2:
                    tampered = dict(cert.paths)
                    (u, v) = pairs[1]
                    a, _, c = tampered[pairs[1]][1:-1]
                    donor = tampered[pairs[0]][2]
                    tampered[(u, v)] = (u, a, donor, c, v)
                    bad = SubdivisionCertificate(cert.branch, tampered)
                    assert not verify_subdivision(g, bad).ok
                # mutation class 2: break a used edge
                (u, v) = pairs[0]
                path = cert.paths[(u, v)]
                drop = (min(path[1], path[2]), max(path[1], path[2]))
                g2 = new_graph(g.n, [e for e in g.edges() if e != drop])
                assert verify_subdivision(g2, cert).clause == "non-edge on path"
                # mutation class 3: route a path through a branch vertex
                other = next(w for w in cert.branch if w not in (u, v))
                tampered = dict(cert.paths)
                tampered[(u, v)] = (u, path[1], other, path[3], v)
                bad = SubdivisionCertificate(cert.branch, tampered)
                assert not verify_subdivision(g, bad).ok
        # small instances: verified order never exceeds the exact value
        small = 0
        while small < 200:
            n = rng.randint(4, 12)
            g = random_graph(rng, n, rng.uniform(0.4, 0.95))
            k = rng.randint(2, min(6, n))
            s_set = rng.sample(range(n), k)
            pool = [v for v in range(n) if v not in set(s_set)]
            cert = build_subdivision(g, s_set, pool)
            if isinstance(cert, BuildFailure):
                continue
            assert verify_subdivision(g, cert).ok
            assert sigma_exact_tiny(g, cert.order).status == "yes"
            small += 1


def test_criterion_6_greedy_safety():
    with criterion(6, "3M+1 disjoint paths imply greedy success"):
        rng = random.Random(606)
        done = 0
        while done < 1_000:
            n = rng.randint(45, 80)
            g = random_graph(rng, n, rng.uniform(0.7, 0.92))
            k = rng.randint(3, 5)
            s_set = rng.sample(range(n), k)
            ss = sorted(s_set)
            missing = [
                (u, v)
                for i, u in enumerate(ss)
                for v in ss[i + 1 :]
                if not g.has_edge(u, v)
            ]
            if not (1 <= len(missing) <= 3):
                continue
            need = 3 * len(missing) + 1
            if (n - k) // 3 < need + 2:
                continue
            if any(
                count_disjoint_paths4(g, u, v, set(ss) - {u, v}, limit=need) < need
                for u, v in missing
            ):
                continue
            pool = [v for v in range(n) if v not in set(ss)]
            cert = build_subdivision(g, ss, pool)
            assert isinstance(cert, SubdivisionCertificate), str(cert)
            done += 1


def test_criterion_7_known_certified_values():
    with criterion(7, "certified sigma(C5)=3, sigma(Petersen)=4, chi=8 product"):
        val, cert = sigma_exact_value(cycle(5))
        assert val.exact and val.value == 3
        assert verify_subdivision(cycle(5), cert).ok
        assert sigma_exact_tiny(cycle(5), 4).status == "no"

        g = petersen()
        val, cert = sigma_exact_value(g)
        assert val.exact and val.value == 4
        assert verify_subdivision(g, cert).ok
        assert sigma_exact_tiny(g, 5).status == "no"

        res = chi_exact(lexicographic_product_c5_k3())
        assert res.exact and res.value == 8


def _lex_prefix_edges(n, m):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if len(edges) == m:
                return edges
            edges.append((u, v))
    return edges


def test_criterion_8_mode_fidelity():
    with criterion(8, "hypothesis gates refuse exactly at their boundaries"):
        # extraction gate d^2*n: n=1681 with m=1,377,600 sits exactly at 1600
        n, m_at = 1681, 1_377_600
        assert 4 * m_at**2 == 1600 * n * (n - 1) ** 2
        g_at = new_graph(n, _lex_prefix_edges(n, m_at))
        rep = sigma_lower_dense(g_at, seed=0)
        assert rep.claimed_sigma_lower >= 1
        g_below = new_graph(n, _lex_prefix_edges(n, m_at - 1))
        with pytest.raises(PreconditionRefusal, match="1600"):
            sigma_lower_dense(g_below, seed=0)

        # sparse branch boundaries: alpha vs n/16 (32 vertices, alpha 2 vs 3)
        from test_pipeline import cocktail_party, triple_free_complement

        g2 = cocktail_party(16)
        rep = sigma_lower_sparse(g2)
        names = [e.get("name") for e in rep.transcript if "name" in e]
        assert "alpha > n/16" not in names
        g3 = triple_free_complement()
        rep = sigma_lower_sparse(g3)
        names = [e.get("name") for e in rep.transcript if "name" in e]
        assert "alpha > n/16" in names

        # density boundary d = n^(-1/4): 16 vertices, 60 vs 59 edges
        from test_pipeline import lex_prefix_graph

        rep = sigma_lower_sparse(lex_prefix_graph(16, 59))
        names = [e.get("name") for e in rep.transcript if "name" in e]
        assert "d < n^(-1/4)" in names
        rep = sigma_lower_sparse(lex_prefix_graph(16, 60))
        names = [e.get("name") for e in rep.transcript if "name" in e]
        assert "d < n^(-1/4)" not in names

        # constant identities behind the ratio-bound constant
        from cliquesub.pipeline import check_ratio_induction_step

        rep = check_ratio_induction_step(1e150, 1e130)
        by_name = {name: ok for name, _, _, ok in rep.checks}
        assert by_name["C >= e^8"]
        assert by_name["C >= 16/(c1*e)"]
        assert by_name["C >= 4/(c2*sqrt(e))"]
        assert rep.passed


def test_criterion_9_ratio_sweep_exhibit():
    with criterion(9, "ratio trend and certified-gap search"):
        budgets = SweepBudgets(alpha_nodes=4_000_000, omega_nodes=400_000)
        records = run_ratio_sweep([200, 1000], OPTIMAL_P, 3, budgets)
        by_n = {}
        for r in records:
            by_n.setdefault(r.n, []).append(r.ratio_point)
        avg200 = sum(by_n[200]) / len(by_n[200])
        avg1000 = sum(by_n[1000]) / len(by_n[1000])
        print(f"  seed-averaged ratio_point: n=200 -> {avg200:.3f}, n=1000 -> {avg1000:.3f}")
        assert avg1000 > avg200, "ratio trend is not increasing"

        # certified chi > sigma needs the counting certificate to drop below
        # ceil(n/alpha); escalate n and report the achieved gap when no size
        # within budget certifies (the clique-number oracle caps feasibility)
        rec, log = find_certified_ratio_violation(
            [80, 120, 1000, 2000],
            seeds_per_n=1,
            budgets=SweepBudgets(alpha_nodes=6_000_000, omega_nodes=1_500_000),
        )
        for line in log:
            print(f"  {line}")
        if rec is None:
            assert any(
                "best gap" in line or "not exact" in line for line in log
            ), "downgrade path must be explicitly logged"
            print("  downgraded: no certified violation within desk-scale budgets")
        else:
            assert rec.chi_lower > rec.sigma_upper_t
