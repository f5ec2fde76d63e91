import hashlib
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquesub import pipeline
from cliquesub.experiments import OPTIMAL_P
from cliquesub.graphs import complement, edge_density, gen_gnp, new_graph
from cliquesub.oracles import alpha_exact, sigma_exact_value
from cliquesub.pipeline import (
    REQ_DENSE_N,
    REQ_SPARSE_ALPHA,
    REQ_SPARSE_D,
    BoundReport,
    PreconditionRefusal,
    check_ratio_induction_step,
    paper_hypotheses,
    paper_path_bound,
    sigma_lower_auto,
    sigma_lower_dense,
    sigma_lower_density_cited,
    sigma_lower_sparse,
    subdivision_bound_dispatch,
)
from cliquesub.subdivision import verify_subdivision
from conftest import complete, cycle, random_graph


def cert_sha(rep: BoundReport) -> str:
    return hashlib.sha256(rep.certificate.to_json().encode()).hexdigest()


# sha256 of certificate.to_json() for the single branch vertex 0
SINGLE_VERTEX_SHA = "0535c09c4e3b49abde3cf83d146a0fa0e48e364b87a99117427cb6716913a0dc"


def lex_prefix_graph(n: int, m: int):
    """The first m edges in lexicographic order."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if len(edges) == m:
                return new_graph(n, edges)
            edges.append((u, v))
    return new_graph(n, edges)


def hub_periphery_graph():
    """100 universal hubs over 400 periphery vertices tiled by cliques:
    the degree filter removes the hubs and the remaining graph is a tenth
    as dense, which drives the recursion branch."""
    edges = []
    for i in range(100):
        for j in range(i + 1, 100):
            edges.append((i, j))
        for v in range(100, 500):
            edges.append((i, v))
    base = 100
    sizes = [15] * 26 + [10]
    for size in sizes:
        for a in range(size):
            for b in range(a + 1, size):
                edges.append((base + a, base + b))
        base += size
    assert base == 500
    return new_graph(500, edges)


def cocktail_party(half: int):
    """Complete multipartite with parts of size 2: alpha = 2 exactly."""
    n = 2 * half
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not (u % half == v % half)
    ]
    return new_graph(n, edges)


def triple_free_complement(n: int = 32):
    """Complement of ten disjoint triangles plus an edge: alpha = 3."""
    blocks = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(10)] + [(30, 31)]
    banned = set()
    for blk in blocks:
        for i, a in enumerate(blk):
            for b in blk[i + 1 :]:
                banned.add((a, b))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in banned
    ]
    return new_graph(n, edges)


def first_failing(entries: list[dict]) -> tuple[str, str]:
    """The requirement of the first hypothesis that fails, with the message
    a refusal on it gives."""
    entry = next(e for e in entries if e["holds"] is False)
    req = entry["requirement"]
    return req, f"hypothesis not met: {req} ({entry['detail']})"


@pytest.fixture(scope="module")
def route_reports():
    """(graph, report) on the frozen regression seeds, one per route."""
    sparse_g, dense_g = gen_gnp(900, 0.4, 2), gen_gnp(1800, 0.98, 11)
    recursion_g = hub_periphery_graph()
    return {
        "sparse": (sparse_g, sigma_lower_sparse(sparse_g, seed=1, alpha_budget=120_000)),
        "recursion": (recursion_g, sigma_lower_sparse(recursion_g)),
        "dense": (dense_g, sigma_lower_dense(dense_g, seed=5, alpha_budget=500_000)),
    }


class TestDense:
    def test_paper_mode_refuses_small_n(self):
        g = gen_gnp(300, 0.9, 1)
        dense = paper_hypotheses(g.n, g.m, 3)["dense"]
        assert dense == [{"requirement": REQ_DENSE_N, "detail": "n = 300", "holds": False}]

    def test_clique_shortcut(self):
        g = complete(80)
        rep = sigma_lower_dense(g)
        assert rep.claimed_sigma_lower == 80
        assert rep.certificate.verified and rep.certificate.order == 80

    def test_practical_gate(self):
        g = gen_gnp(200, 0.5, 1)  # d^2*n ~ 50, far below the gate
        with pytest.raises(PreconditionRefusal, match="1600"):
            sigma_lower_dense(g)

    def test_practical_gate_refuses_before_alpha(self, monkeypatch):
        calls = []

        def counted(g, *args):
            calls.append(g.n)
            return alpha_exact(g, *args)

        monkeypatch.setattr(pipeline, "alpha_exact", counted)
        with pytest.raises(PreconditionRefusal, match="1600"):
            sigma_lower_dense(gen_gnp(200, 0.5, 1))
        assert calls == []
        # a complete graph below the gate still takes the clique shortcut
        rep = sigma_lower_dense(complete(30))
        assert rep.claimed_sigma_lower == 30 and calls == [30]

    def test_practical_end_to_end_regression(self, route_reports):
        g, rep = route_reports["dense"]
        assert rep.provenance == "certified-constructive"
        assert rep.certificate.verified
        assert verify_subdivision(g, rep.certificate, exact_length=4).ok
        assert rep.claimed_sigma_lower >= 3
        # regression baseline for the frozen seed
        assert rep.claimed_sigma_lower == 175
        assert rep.flags == []
        assert cert_sha(rep) == (
            "ea391d5422b0e16207dffb412a9467e99ddc7262e3db34ba315dc634590e8c45"
        )

    def test_deterministic_reports(self):
        g = gen_gnp(1800, 0.98, 11)
        a = sigma_lower_dense(g, seed=5, alpha_budget=500_000)
        b = sigma_lower_dense(g, seed=5, alpha_budget=500_000)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


class TestDensityCited:
    def test_sparse_graph_trivial(self):
        g = cycle(9)  # m < 256*n
        rep = sigma_lower_density_cited(g)
        assert rep.claimed_sigma_lower == 1

    def test_complete_graph_formula(self):
        for n in (2000, 4000):
            g_m = n * (n - 1) // 2
            t = math.isqrt(g_m // (256 * n))
            assert t == math.isqrt((n - 1) // 512)
            rep_t = sigma_lower_density_cited(complete(n)).claimed_sigma_lower
            assert rep_t == max(t, 1)

    def test_never_exceeds_exact_sigma(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 9))
            rep = sigma_lower_density_cited(g)
            assert rep.claimed_sigma_lower <= max(1, sigma_exact_value(g)[0].value)

    def test_cited_reports_have_no_certificate(self):
        g = gen_gnp(600, 0.9, 3)
        rep = sigma_lower_density_cited(g)
        if rep.provenance == "cited-density-bound":
            assert rep.certificate is None
            assert "non-certified" in rep.flags


class TestSparseBranches:
    def test_below_quarter_root_density_is_trivial(self):
        g = lex_prefix_graph(16, 59)  # d^4*n just below 1
        rep = sigma_lower_sparse(g)
        assert rep.claimed_sigma_lower == 1
        assert any(
            e.get("name") == "d < n^(-1/4)" for e in rep.transcript if "name" in e
        )

    def test_at_quarter_root_density_proceeds(self):
        g = lex_prefix_graph(16, 60)  # d^4*n = 1 exactly
        rep = sigma_lower_sparse(g)
        names = [e.get("name") for e in rep.transcript if "name" in e]
        assert "d < n^(-1/4)" not in names

    def test_alpha_above_sixteenth_takes_cited_branch(self):
        g = triple_free_complement()  # n=32, alpha=3 > 2
        assert alpha_exact(g).value == 3
        rep = sigma_lower_sparse(g)
        names = [e.get("name") for e in rep.transcript if "name" in e]
        assert "alpha > n/16" in names

    def test_alpha_at_sixteenth_proceeds(self):
        g = cocktail_party(16)  # n=32, alpha=2 == n/16
        assert alpha_exact(g).value == 2
        rep = sigma_lower_sparse(g)
        names = [e.get("name") for e in rep.transcript if "name" in e]
        assert "alpha > n/16" not in names
        assert rep.certificate is not None and rep.certificate.verified

    def test_case1_density_drop_recursion(self, route_reports):
        _, rep = route_reports["recursion"]
        names = [e.get("name") for e in rep.transcript if "name" in e]
        assert "density-drop-recursion" in names
        # the recursed subgraph is far too sparse and bottoms out trivially
        assert "d < n^(-1/4)" in names
        assert rep.claimed_sigma_lower == 1
        assert rep.provenance == "certified-constructive"
        assert rep.flags == []
        assert cert_sha(rep) == (
            "252fef5315e4125e7559975dd8f422ea75a2349e61dec39cba6758db81a869c0"
        )

    def test_case2_extraction_end_to_end(self, route_reports):
        g, rep = route_reports["sparse"]
        names = [e.get("name") for e in rep.transcript if "name" in e]
        assert "extraction" in names
        assert rep.certificate is not None and rep.certificate.verified
        assert verify_subdivision(g, rep.certificate, exact_length=4).ok
        # regression baseline for the frozen seed
        assert rep.claimed_sigma_lower == 25
        assert rep.provenance == "certified-constructive"
        assert rep.flags == [
            "heuristic-alpha",
            "heuristic-independent-set",
            "filter-cap-clamped",
            "truncation-target-below-1",
        ]
        assert cert_sha(rep) == (
            "0674f808014937af8cc42d32d1c2642d91e623166d71311a0f36cd0c8e011a9e"
        )

    def test_paper_mode_refusals(self):
        # alpha > n/2: a perfect matching plus one isolated pair broken
        matching = new_graph(16, [(2 * i, 2 * i + 1) for i in range(7)])
        assert alpha_exact(matching).value == 9  # > 8 = n/2
        sparse = paper_hypotheses(matching.n, matching.m, 9)["sparse"]
        assert first_failing(sparse) == (
            REQ_SPARSE_ALPHA, "hypothesis not met: alpha <= n/2 (alpha = 9, n = 16)"
        )
        # density above the paper ceiling on any desk-scale graph
        full_matching = new_graph(16, [(2 * i, 2 * i + 1) for i in range(8)])
        assert alpha_exact(full_matching).value == 8
        sparse = paper_hypotheses(full_matching.n, full_matching.m, 8)["sparse"]
        assert [e["holds"] for e in sparse] == [True, False]
        assert first_failing(sparse)[0] == REQ_SPARSE_D

    def test_given_alpha_still_searches_a_smaller_filtered_graph(self, monkeypatch):
        # the route searches g at entry, then the smaller filtered graph
        g = hub_periphery_graph()  # the degree filter keeps 400 of 500
        searched = []

        def counted(h, budget):
            searched.append(h.n)
            return alpha_exact(h, budget)

        monkeypatch.setattr(pipeline, "alpha_exact", counted)
        rep = sigma_lower_sparse(g)
        assert searched[:2] == [500, 400] and searched.count(500) == 1
        assert rep.alpha == alpha_exact(g)

    def test_recursion_terminates_with_depth_cap(self, monkeypatch):
        g = gen_gnp(900, 0.4, 4)
        monkeypatch.setattr(pipeline, "MAX_DEPTH", 0)
        rep = sigma_lower_sparse(g, seed=0, alpha_budget=120_000)
        assert "depth-cap-exceeded" in rep.flags
        assert rep.claimed_sigma_lower == 1
        assert rep.provenance == "certified-constructive"
        assert rep.certificate.verified
        assert verify_subdivision(g, rep.certificate).ok
        assert cert_sha(rep) == SINGLE_VERTEX_SHA


class TestAuto:
    def test_routes_dense_when_gate_holds(self):
        g = gen_gnp(1800, 0.98, 3)
        rep = sigma_lower_auto(g, alpha_budget=500_000)
        assert rep.transcript[0] == {"step": "auto", "route": "dense"}

    def test_routes_sparse_otherwise(self):
        g = gen_gnp(300, 0.5, 3)
        rep = sigma_lower_auto(g)
        assert rep.transcript[0] == {"step": "auto", "route": "sparse"}

    def test_complete_graph_takes_the_dense_route_without_an_auto_step(self):
        rep = sigma_lower_auto(complete(30))
        assert rep.transcript[0]["step"] == "dense-entry"
        assert rep.claimed_sigma_lower == 30

    def test_small_graph_bounds_respect_exact_sigma(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 12))
            rep = sigma_lower_auto(g)
            exact, _ = sigma_exact_value(g)
            assert rep.claimed_sigma_lower <= max(1, exact.value)


OWNERSHIP_GRAPHS = {
    "K30": lambda: complete(30),
    "C5": lambda: cycle(5),
    **{f"G200-{s}": (lambda s=s: gen_gnp(200, OPTIMAL_P, s)) for s in range(3)},
    "hub-periphery": hub_periphery_graph,
    "G2000-0.95": lambda: gen_gnp(2000, 0.95, 0),
}


class TestAlphaOwnership:
    """Each route searches for alpha once on its graph, within its own
    budget, and reports that result; a smaller filtered graph and a
    lower level's subgraph get searches of their own."""

    BUDGET = 500_000

    @pytest.mark.parametrize("name", list(OWNERSHIP_GRAPHS))
    def test_report_carries_the_routes_one_search(self, monkeypatch, name):
        g = OWNERSHIP_GRAPHS[name]()
        expected = alpha_exact(g, self.BUDGET)
        searched = []

        def counted(h, budget):
            searched.append(h)
            return alpha_exact(h, budget)

        monkeypatch.setattr(pipeline, "alpha_exact", counted)
        d = edge_density(g)
        below_gate = 2 * g.m != g.n * (g.n - 1) and d * d * g.n < 1600
        for route in (sigma_lower_dense, sigma_lower_sparse, sigma_lower_auto):
            searched.clear()
            if route is sigma_lower_dense and below_gate:
                with pytest.raises(PreconditionRefusal, match="1600"):
                    route(g, alpha_budget=self.BUDGET)
                assert searched == []
                continue
            rep = route(g, alpha_budget=self.BUDGET)
            # the first search is on g, and no later one is
            assert [h is g for h in searched] == [True] + [False] * (len(searched) - 1)
            assert rep.alpha == expected
            if name == "G200-0":
                assert next(e["alpha"] for e in rep.transcript if "alpha" in e) == 5


# sigma_lower_auto on G(n, p, graph_seed) with the route seed: claim,
# flags, certificate sha256 (None for the single vertex) and the first
# paper hypothesis that fails.  Every claim is certified-constructive.
RANDOM_PINS = [
    (6, 0.3, 100, 0, 1, [], None, REQ_SPARSE_ALPHA),
    (8, 0.6, 101, 1, 1, [], None, REQ_SPARSE_D),
    (10, 0.9, 102, 2, 1, [], None, REQ_SPARSE_D),
    (12, 0.97, 103, 0, 1, [], None, REQ_SPARSE_D),
    (14, 0.3, 104, 1, 1, [], None, REQ_SPARSE_D),
    (16, 0.6, 105, 2, 1, [], None, REQ_SPARSE_D),
    (18, 0.9, 106, 0, 1, [], None, REQ_SPARSE_D),
    (20, 0.97, 107, 1, 1, [], None, REQ_SPARSE_D),
    (22, 0.3, 108, 2, 1, [], None, REQ_SPARSE_D),
    (24, 0.6, 109, 0, 1, [], None, REQ_SPARSE_D),
    (26, 0.9, 110, 1, 1, [], None, REQ_SPARSE_D),
    (28, 0.97, 111, 2, 1, [], None, REQ_SPARSE_D),
    (30, 0.3, 112, 0, 1, [], None, REQ_SPARSE_D),
    (32, 0.6, 113, 1, 1, [], None, REQ_SPARSE_D),
    (34, 0.9, 114, 2, 1, [], None, REQ_SPARSE_D),
    (36, 0.97, 115, 0, 4, ["filter-cap-clamped"],
     "0bfad1dc1918fc20f49ec7c0235194bb02a6017721f9a5afd9db8c66b137a34e", REQ_SPARSE_D),
    (38, 0.3, 116, 1, 1, [], None, REQ_SPARSE_D),
    (40, 0.6, 117, 2, 1, [], None, REQ_SPARSE_D),
    (44, 0.9, 118, 0, 1, [], None, REQ_SPARSE_D),
    (45, 0.97, 119, 1, 5, ["filter-cap-clamped"],
     "1c0145bfc9ec21d7a67adb503cb47b578fd2528b95eb0b5154b064a20c579021", REQ_SPARSE_D),
]


# sha256 of json.dumps(report.to_json_dict()) for each route_reports
# fixture: claim, provenance, flags in order, certificate and transcript
REPORT_SHA = {
    "sparse": "f979fe6ef5df0bbcc53638687fb327b05780514f866354cffc35abc4c23d685d",
    "recursion": "b2bc8ce2acc1a5927f453fbbbd224d52d170558b7e7263e30384fb23ee28843e",
    "dense": "f083eb965f699e78f69d46f4c282047f53b473a2b768719cd136e2d86796c2b4",
}


class TestPinnedReports:
    @pytest.mark.parametrize("name", list(REPORT_SHA))
    def test_whole_report(self, route_reports, name):
        _, rep = route_reports[name]
        text = json.dumps(rep.to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA[name]

    def test_both_routes_record_the_same_extraction_steps(self, route_reports):
        def keys(rep, step):
            return [sorted(e) for e in rep.transcript if e["step"] == step]

        (_, sparse), (_, dense) = route_reports["sparse"], route_reports["dense"]
        for step in ("partition", "hub"):
            assert len(keys(dense, step)) == 1
            assert keys(sparse, step) == keys(dense, step)

    @pytest.mark.parametrize(
        "n, p, graph_seed, seed, claim, flags, sha, refusal", RANDOM_PINS
    )
    def test_random_graphs(self, n, p, graph_seed, seed, claim, flags, sha, refusal):
        g = gen_gnp(n, p, graph_seed)
        rep = sigma_lower_auto(g, seed)
        assert rep.claimed_sigma_lower == claim
        assert rep.provenance == "certified-constructive"
        assert rep.flags == flags
        assert rep.certificate.verified
        assert cert_sha(rep) == (sha or SINGLE_VERTEX_SHA)
        hypotheses = paper_hypotheses(g.n, g.m, alpha_exact(g).value)
        assert first_failing(hypotheses["auto"])[0] == refusal


class TestPaperModeRefuses:
    # (auto, sparse) first failing hypotheses over the 300 graphs below, and
    # the sha256 of every graph's (auto, dense, sparse) requirement and
    # message, both measured when the pipeline routes refused in paper mode
    # after searching for alpha; the report on the exact alpha reproduces them
    REASONS = {
        (REQ_SPARSE_D, REQ_SPARSE_D): 162,
        (REQ_SPARSE_ALPHA, REQ_SPARSE_ALPHA): 72,
        (REQ_DENSE_N, REQ_SPARSE_D): 61,
        (REQ_DENSE_N, REQ_SPARSE_ALPHA): 5,
    }
    REASONS_SHA = "9237d4e2a563b0ca98e3115335b0486babb53a7cced238b268bd3f87aad5b166"

    def test_every_small_random_graph(self):
        reasons = []
        for n in range(1, 61):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                g = gen_gnp(n, p, n)
                alpha = alpha_exact(g)
                assert alpha.exact
                hypotheses = paper_hypotheses(g.n, g.m, alpha.value)
                reasons.append(
                    [first_failing(hypotheses[case]) for case in ("auto", "dense", "sparse")]
                )
        assert Counter((a[0], s[0]) for a, _, s in reasons) == self.REASONS
        assert hashlib.sha256(repr(reasons).encode()).hexdigest() == self.REASONS_SHA

    def test_refused_on_density_without_searching_for_alpha(self, monkeypatch):
        # the report searches for no alpha: on G(200, 0.03) a paper-mode
        # route once spent over 30 s in an alpha search only to name d <= c
        def refuse(*args):
            raise AssertionError("alpha searched for")

        monkeypatch.setattr(pipeline, "alpha_exact", refuse)
        g = gen_gnp(200, 0.03, 0)
        hypotheses = paper_hypotheses(g.n, g.m)
        alpha_entry, d_entry = hypotheses["sparse"]
        assert hypotheses["auto"] == hypotheses["sparse"]
        assert alpha_entry == {
            "requirement": REQ_SPARSE_ALPHA, "detail": "alpha = unknown, n = 200", "holds": None
        }
        assert d_entry["requirement"] == REQ_SPARSE_D and d_entry["holds"] is False
        assert first_failing(hypotheses["sparse"]) == (
            REQ_SPARSE_D, f"hypothesis not met: {REQ_SPARSE_D} (d = {float(edge_density(g)):.6g})"
        )

    def test_cocktail_party_refused_on_density(self):
        # alpha = 2 passes the alpha check; d is far above the paper's c
        g = cocktail_party(900)
        hypotheses = paper_hypotheses(g.n, g.m, 2)
        for case in ("auto", "sparse"):
            assert [e["holds"] for e in hypotheses[case]] == [True, False]
            assert first_failing(hypotheses[case])[0] == REQ_SPARSE_D

    def test_complete_graph_refused_on_n_without_an_exact_alpha(self):
        # a complete graph is the dense case, whose hypothesis reads n alone
        hypotheses = paper_hypotheses(12, 66)
        assert hypotheses["auto"] == hypotheses["dense"]
        assert first_failing(hypotheses["auto"]) == (
            REQ_DENSE_N, f"hypothesis not met: {REQ_DENSE_N} (n = 12)"
        )

    @pytest.mark.parametrize(
        "n, m, alpha", [(-1, 0, None), (3, 4, None), (3, 3, 4), (3, -1, None), (2, 1, -1)]
    )
    def test_impossible_graph_rejected(self, n, m, alpha):
        with pytest.raises(ValueError, match="no graph"):
            paper_hypotheses(n, m, alpha)


class TestPaperPathBound:
    @pytest.mark.parametrize(
        "n, want", [(10**9, 1), (10**9 + 1, 2), (2 * 10**9, 2)]
    )
    def test_complete_graphs(self, n, want):
        # d = 1, so the bound is ceil(n / 10^9)
        assert paper_path_bound(n, n * (n - 1) // 2) == want

    def test_n_at_most_one_has_density_zero(self):
        assert paper_path_bound(0, 0) == paper_path_bound(1, 0) == 0

    @pytest.mark.parametrize("n, m", [(-1, 0), (3, 4), (3, -1), (1, 1)])
    def test_impossible_graph_rejected(self, n, m):
        with pytest.raises(ValueError, match="no graph"):
            paper_path_bound(n, m)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return new_graph(n, [pair for pair, kept in zip(pairs, keep) if kept])


class TestSmallGraphProperty:
    @given(small_graphs(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_certificates_and_refusals(self, g, seed):
        exact, _ = sigma_exact_value(g)
        assert exact.tag == "exact"
        for rep in (sigma_lower_auto(g, seed=seed), sigma_lower_sparse(g, seed=seed)):
            cert = rep.certificate
            if cert is not None and cert.verified:
                assert verify_subdivision(g, cert).ok
                assert cert.order <= exact.value

        # the paper's first failing hypothesis, from the exact alpha
        alpha = alpha_exact(g).value
        sparse = REQ_SPARSE_ALPHA if 2 * alpha > g.n else REQ_SPARSE_D
        is_complete = 2 * g.m == g.n * (g.n - 1)
        hypotheses = paper_hypotheses(g.n, g.m, alpha)
        for case, requirement in (
            ("dense", REQ_DENSE_N),
            ("sparse", sparse),
            ("auto", REQ_DENSE_N if is_complete else sparse),
        ):
            assert first_failing(hypotheses[case])[0] == requirement


class TestDispatch:
    def test_alpha_one_is_linear(self):
        fb = subdivision_bound_dispatch(1000, 1)
        assert fb.regime == "part-1"
        assert fb.value == pytest.approx(1e-114 * 1000)

    def test_spec_regression_value(self):
        fb = subdivision_bound_dispatch(10**6, 10)
        assert fb.regime == "part-1"
        assert fb.value == pytest.approx(1e-114 * (10**6) ** (10 / 19))

    def test_boundary_reports_both(self):
        n = 1000
        alpha = math.ceil(2 * math.log(n))
        fb = subdivision_bound_dispatch(n, alpha)
        assert fb.part1 > 0 and fb.part2 is not None and fb.part2 > 0
        assert fb.regime == "part-2"

    def test_large_alpha_part2(self):
        fb = subdivision_bound_dispatch(10**6, 100)
        a = 100 / math.log(10**6)
        assert fb.regime == "part-2"
        assert fb.value == pytest.approx(1e-114 * math.sqrt(10**6 / (a * math.log(a))))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            subdivision_bound_dispatch(10, 11)
        with pytest.raises(ValueError):
            subdivision_bound_dispatch(0, 1)


class TestInductionStep:
    def test_constant_identities_for_paper_constants(self):
        rep = check_ratio_induction_step(1e150, 1e130)
        names = {name: ok for name, _, _, ok in rep.checks}
        assert names["C >= e^8"]
        assert names["C >= 16/(c1*e)"]
        assert names["C >= 4/(c2*sqrt(e))"]

    def test_trivial_branch(self):
        rep = check_ratio_induction_step(1000, 50)
        assert rep.branch == "trivial"
        assert rep.passed

    def test_main_branch_chain_holds(self):
        rep = check_ratio_induction_step(1e150, 1e130)
        assert rep.branch == "main"
        assert rep.passed, rep.failed()

    def test_log_space_magnitude(self):
        # n = e^100 with k = n/2: every chain inequality holds numerically
        n = math.exp(100)
        rep = check_ratio_induction_step(n, n / 2)
        deletion = [c for c in rep.checks if "k" in c[0] or "n'" in c[0]]
        assert deletion and all(ok for _, _, _, ok in deletion)

    @pytest.mark.parametrize(
        "n, k", [(1, 10), (0.5, 10), (100, 0), (100, 101), (math.inf, 10)]
    )
    def test_k_outside_one_to_n_rejected(self, n, k):
        with pytest.raises(ValueError, match="out of range"):
            check_ratio_induction_step(n, k)

    def test_grid_minimum_location(self):
        rep = check_ratio_induction_step(1e150, 1e130)
        by_name = {name: (lhs, rhs, ok) for name, lhs, rhs, ok in rep.checks}
        lhs, rhs, ok = by_name["min attained at a=1/4"]
        assert ok and lhs == pytest.approx(math.e / 4, abs=1e-6)
