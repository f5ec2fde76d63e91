import gc
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from cliquesub import oracles
from cliquesub.experiments import OPTIMAL_P
from cliquesub.graphs import complement, edge_density, gen_gnp, induced, new_graph
from cliquesub.oracles import (
    DEFAULT_BUDGET,
    Tagged,
    _key_scale,
    _max_clique_core,
    _SaturationOrder,
    alpha_exact,
    chi_exact,
    dsatur_upper,
    graph_stats,
    greedy_clique_lower,
    omega_exact,
    sigma_exact_tiny,
    sigma_exact_value,
    sigma_upper_cert,
    turan_density_bound,
)
from cliquesub.subdivision import verify_subdivision
from conftest import (
    brute_alpha,
    brute_chi,
    brute_independent,
    brute_min_vertex_cover,
    brute_omega,
    complete,
    cycle,
    empty,
    lexicographic_product_c5_k3,
    path_graph,
    petersen,
    random_graph,
    reference_dsatur,
    reference_max_clique_core,
)


def all_four_vertex_graphs():
    """All 64 labeled graphs on 4 vertices (covers the 11 isomorphism classes)."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for mask in range(64):
        yield new_graph(4, [pairs[i] for i in range(6) if (mask >> i) & 1])


class TestAlphaOmega:
    def test_alpha_k7(self):
        assert alpha_exact(complete(7)).value == 1

    def test_alpha_c5(self):
        # brute force over all 2^5 subsets gives 2
        assert brute_alpha(cycle(5)) == 2
        res = alpha_exact(cycle(5))
        assert res.value == 2 and res.exact
        assert brute_independent(cycle(5), res.witness)

    def test_alpha_petersen(self):
        # exhaustive enumeration over 2^10 subsets gives 4
        assert brute_alpha(petersen()) == 4
        res = alpha_exact(petersen())
        assert res.value == 4 and len(res.witness) == 4

    def test_omega_k7(self):
        assert omega_exact(complete(7)).value == 7

    def test_omega_c5(self):
        assert omega_exact(cycle(5)).value == brute_omega(cycle(5)) == 2

    def test_omega_petersen_triangle_free(self):
        assert omega_exact(petersen()).value == 2

    def test_witness_is_valid(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10))
            a = alpha_exact(g)
            assert brute_independent(g, a.witness)
            assert len(a.witness) == a.value
            o = omega_exact(g)
            assert brute_independent(complement(g), o.witness)

    def test_four_vertex_graphs_exhaustive(self):
        for g in all_four_vertex_graphs():
            assert alpha_exact(g).value == brute_alpha(g)
            assert omega_exact(g).value == brute_omega(g)
            assert alpha_exact(g).value == 4 - brute_min_vertex_cover(g)

    def test_random_small_agreement(self, rng):
        for _ in range(1500):
            g = random_graph(rng, rng.randint(1, 8))
            a = alpha_exact(g).value
            assert a == brute_alpha(g)
            assert omega_exact(g).value == alpha_exact(complement(g)).value
            assert a == g.n - brute_min_vertex_cover(g)

    def test_budget_exhaustion_is_flagged(self):
        g = gen_gnp(60, 0.5, 1)
        res = alpha_exact(g, budget=10)
        assert res.tag == "heuristic"
        assert brute_independent(g, res.witness)  # still a valid lower bound

    def test_returns_without_holding_the_rows(self, gc_off):
        g = gen_gnp(40, 0.5, 1)
        before = sys.getrefcount(g.rows)
        omega_exact(g)
        after = sys.getrefcount(g.rows)  # outside the assert, which holds its operands
        assert after == before

    def test_matches_reference_core(self, rng):
        # whole-Tagged equality: value, witness, tag and node count
        for _ in range(300):
            n = rng.randint(0, 60)
            g = random_graph(rng, n)
            for rows in (g.rows, complement(g).rows):
                for budget in (5, 50, DEFAULT_BUDGET):
                    got = _max_clique_core(rows, n, budget)
                    assert got == reference_max_clique_core(rows, n, budget), (n, budget)

    def test_matches_reference_core_at_mid_scale(self):
        for g in (gen_gnp(300, OPTIMAL_P, 2), gen_gnp(150, 0.9, 3)):
            for rows in (g.rows, complement(g).rows):
                got = _max_clique_core(rows, g.n, 40_000)
                assert got == reference_max_clique_core(rows, g.n, 40_000)

    def test_pinned_searches_at_n1000(self):
        # values and node counts of the search that lists every candidate
        g = gen_gnp(1000, OPTIMAL_P, 3)
        omega = omega_exact(g, 30_000)
        assert (omega.value, omega.tag, omega.nodes) == (44, "heuristic", 30_001)
        assert brute_independent(complement(g), omega.witness)
        alpha = alpha_exact(g)
        assert (alpha.value, alpha.tag, alpha.nodes) == (6, "exact", 12_791)
        assert brute_independent(g, alpha.witness) and len(alpha.witness) == 6

    def test_greedy_clique_lower_sound(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 9))
            got = greedy_clique_lower(g)
            assert brute_independent(complement(g), got.witness)
            assert got.value <= brute_omega(g)


class TestFrames:
    """The clique search on compact, order-reversed frames gives the trees of
    the search that works on original labels."""

    def test_matches_reference_core_at_n2000(self):
        g = gen_gnp(2000, 0.95, 0)
        alpha = alpha_exact(g)
        assert alpha == reference_max_clique_core(complement(g).rows, g.n, DEFAULT_BUDGET)
        g = gen_gnp(2000, OPTIMAL_P, 0)
        omega = omega_exact(g, 30_000)
        assert omega == reference_max_clique_core(g.rows, g.n, 30_000)

    def test_witness_found_in_a_compact_frame(self):
        # the best clique improves after a frame switch here, so its labels
        # come through a compact frame's label map
        g = gen_gnp(400, OPTIMAL_P, 0)
        omega = omega_exact(g, 40_000)
        assert omega == reference_max_clique_core(g.rows, g.n, 40_000)
        assert (omega.value, omega.tag) == (39, "heuristic")

    def test_frame_switches(self, monkeypatch):
        switches = []

        def counted(frame, keep):
            switches.append((len(frame.rows), keep.bit_count()))
            return compact_frame(frame, keep)

        compact_frame = oracles._compact_frame
        monkeypatch.setattr(oracles, "_compact_frame", counted)
        g = gen_gnp(1000, OPTIMAL_P, 3)
        assert omega_exact(g, 30_000).nodes == 30_001
        # each switch leaves a frame at least four times wider than the set
        assert len(switches) == 4 and all(w >= 4 * k for w, k in switches)
        counts = []
        for g in (gen_gnp(300, OPTIMAL_P, 2), gen_gnp(150, 0.9, 3)):
            for rows in (g.rows, complement(g).rows):
                switches.clear()
                _max_clique_core(rows, g.n, 40_000)
                counts.append(len(switches))
        assert counts == [216, 0, 0, 0]


def networkx_clique_number(g) -> int:
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.max_weight_clique(h, weight=None)[1]


class TestAgainstNetworkx:
    CASES = [(60, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    CASES += [(n, p) for n in (100, 150) for p in (0.3, 0.5, 0.7)]

    @pytest.mark.parametrize("n,p", CASES)
    def test_alpha_and_omega(self, n, p):
        g = gen_gnp(n, p, n)
        alpha, omega = alpha_exact(g), omega_exact(g)
        assert alpha.exact and omega.exact
        assert alpha.value == networkx_clique_number(complement(g))
        assert omega.value == networkx_clique_number(g)
        assert brute_independent(g, alpha.witness) and len(alpha.witness) == alpha.value
        assert brute_independent(complement(g), omega.witness)
        assert len(omega.witness) == omega.value


class TestChi:
    def test_k5(self):
        assert chi_exact(complete(5)).value == 5

    def test_c5_odd_cycle(self):
        assert brute_chi(cycle(5)) == 3
        assert chi_exact(cycle(5)).value == 3

    def test_bipartite(self):
        assert chi_exact(path_graph(6)).value == 2

    def test_catlin_graph(self):
        # independence number 2 forces chi >= ceil(15/2) = 8, and an
        # 8-coloring exists; the exact search must land exactly there
        g = lexicographic_product_c5_k3()
        assert brute_alpha(g) == 2
        res = chi_exact(g)
        assert res.exact and res.value == 8

    def test_coloring_witness_proper(self, rng):
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 9))
            res = chi_exact(g)
            assert res.exact
            assert res.chi_lower == brute_chi(g)
            for u, v in g.edges():
                assert res.coloring[u] != res.coloring[v]

    def test_chi_bounds(self, rng):
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 9))
            chi = chi_exact(g).value
            assert chi >= omega_exact(g).value
            a = alpha_exact(g).value
            assert chi * a >= g.n

    def test_odd_cycle_deeper_than_recursion_limit(self):
        # refuting a 2-colouring colours 1500 vertices on one search path,
        # past Python's default limit of 1000 frames
        res = chi_exact(cycle(1501))
        assert res.exact and res.value == 3

    def test_returns_without_keeping_the_search_state(self, gc_off):
        chi_exact(gen_gnp(30, 0.5, 1))
        assert not any(isinstance(o, _SaturationOrder) for o in gc.get_objects())

    def test_budget_exceeded_interval(self):
        g = gen_gnp(40, 0.5, 3)
        res = chi_exact(g, budget=5)
        assert res.tag in ("exceeded", "exact")
        assert res.chi_lower <= res.chi_upper

    def test_pinned_search_trees_on_the_coloring_batch(self):
        # (chi_lower, chi_upper, tag, nodes) on G(50, 1/2, s), s = 0..9: a
        # change to the saturation order's arithmetic must leave the
        # backtracking tree, and so the node count, as it is
        pinned = [
            (9, 9, "exact", 1865),
            (9, 9, "exact", 13698),
            (10, 10, "exact", 3538),
            (9, 9, "exact", 18922),
            (9, 9, "exact", 1817),
            (10, 10, "exact", 5675),
            (9, 9, "exact", 12007),
            (9, 9, "exact", 13204),
            (10, 10, "exact", 7844),
            (9, 9, "exact", 1325),
        ]
        for seed, expected in enumerate(pinned):
            res = chi_exact(gen_gnp(50, 0.5, seed))
            assert (res.chi_lower, res.chi_upper, res.tag, res.nodes) == expected, seed


class TestSaturationOrder:
    @staticmethod
    def round_trip(g, steps):
        """Colour (v, c) for each step, checking every pick, then undo the
        steps in LIFO order, checking that each restores key and seen."""
        order = _SaturationOrder(g)
        snapshots, undos, coloured = [], [], set()
        for v, c in steps:
            snapshots.append((order.key.copy(), order.seen.copy()))
            undos.append(order.colour(v, c))
            coloured.add(v)
            if len(coloured) < g.n:
                assert order.pick() not in coloured
        assert all(order.key[v] < 0 for v in coloured)
        for undo in reversed(undos):
            order.uncolour(undo)
            key, seen = snapshots.pop()
            assert np.array_equal(order.key, key)
            assert np.array_equal(order.seen, seen)

    @staticmethod
    def proper_steps(g, rng, vertices):
        """A random proper colouring of ``vertices`` in their order, each
        colour at most the maximum degree."""
        max_deg = max(g.degree(v) for v in range(g.n))
        colour = {}
        steps = []
        for v in vertices:
            taken = {colour[w] for w in g.neighbors(v) if w in colour}
            c = rng.choice([c for c in range(max_deg + 1) if c not in taken])
            colour[v] = c
            steps.append((v, c))
        return steps

    def test_round_trip_on_random_graphs(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 25))
            if not g.m:
                continue
            vertices = rng.sample(range(g.n), rng.randint(1, g.n))
            self.round_trip(g, self.proper_steps(g, rng, vertices))

    def test_round_trip_on_complete_graphs(self, rng):
        for n in range(2, 12):
            g = complete(n)
            vertices = rng.sample(range(n), n)
            self.round_trip(g, self.proper_steps(g, rng, vertices))

    def test_round_trip_at_full_depth(self, rng):
        # every vertex coloured, so keys climb to their largest saturations
        # and back; a key scale that is not a power of two rounds here
        for g in (gen_gnp(300, 0.95, 4), complete(40)):
            vertices = rng.sample(range(g.n), g.n)
            self.round_trip(g, self.proper_steps(g, rng, vertices))

    def test_key_scale_is_exact_up_to_its_ceiling(self):
        assert _key_scale(3000, 2999) == 24
        assert _key_scale(10**7, 10**4) == 37
        # a complete graph on 2**17 - 1 vertices is the largest one accepted
        assert _key_scale(2**17 - 1, 2**17 - 2) == 34
        with pytest.raises(ValueError, match=r"n=131072, maximum degree D=131071"):
            _key_scale(2**17, 2**17 - 1)
        with pytest.raises(ValueError, match="float64"):
            _key_scale(10**9, 10**4)

    def test_centre_of_a_star_takes_every_bump(self):
        # the centre is coloured first, then its D leaves take D distinct
        # new colours, so the centre's key is bumped D times while the
        # isolated last vertex, of key 0, is still uncoloured
        for leaves in (1, 2, 5, 30):
            g = new_graph(leaves + 2, [(0, i) for i in range(1, leaves + 1)])
            steps = [(0, 0)] + [(i, i) for i in range(1, leaves + 1)]
            self.round_trip(g, steps)
            order = _SaturationOrder(g)
            for v, c in steps:
                order.colour(v, c)
            assert order.pick() == leaves + 1


class TestDsatur:
    def test_k6(self):
        assert dsatur_upper(complete(6))[0] == 6

    def test_exact_on_random_bipartite(self, rng):
        for _ in range(100):
            left = rng.randint(1, 6)
            right = rng.randint(1, 6)
            edges = [
                (i, left + j)
                for i in range(left)
                for j in range(right)
                if rng.random() < 0.5
            ]
            g = new_graph(left + right, edges)
            k, coloring = dsatur_upper(g)
            expected = 2 if g.m else 1
            assert k == expected
            for u, v in g.edges():
                assert coloring[u] != coloring[v]

    def test_c5(self):
        assert dsatur_upper(cycle(5))[0] == chi_exact(cycle(5)).value == 3

    def test_never_below_chi(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 9))
            assert dsatur_upper(g)[0] >= brute_chi(g)

    def test_matches_reference_loop(self, rng):
        isolated = new_graph(9, [(0, 3), (3, 5), (5, 0), (6, 7)])
        graphs = [empty(0), empty(1), empty(7), complete(6), cycle(5), petersen(), isolated]
        graphs += [random_graph(rng, rng.randint(0, 30)) for _ in range(100)]
        graphs += [gen_gnp(300, p, s) for s, p in enumerate((0.1, 0.5, OPTIMAL_P, 0.95))]
        for g in graphs:
            assert dsatur_upper(g) == reference_dsatur(g), g

    def test_pinned_colour_count_at_n1000(self):
        # 267 colours is the count of the saturation/degree/index tie-break
        # order; another tie-break order gives another count.
        g = gen_gnp(1000, OPTIMAL_P, 0)
        k, coloring = dsatur_upper(g)
        assert k == 267
        assert max(coloring) == k - 1
        assert all(coloring[u] != coloring[v] for u, v in g.edges())


class TestSigmaTiny:
    def test_k6(self):
        assert sigma_exact_tiny(complete(6), 6).status == "yes"
        assert sigma_exact_tiny(complete(6), 7).status == "no"
        assert sigma_exact_value(complete(6))[0].value == 6

    def test_c5(self):
        # max degree 2 forbids a K4 branch vertex; a triangle subdivision
        # exists around the cycle
        val, cert = sigma_exact_value(cycle(5))
        assert val.value == 3 and val.exact
        assert verify_subdivision(cycle(5), cert).ok

    def test_petersen(self):
        # 3-regular forbids K5 branch vertices; a K4-subdivision exists
        g = petersen()
        assert sigma_exact_tiny(g, 5).status == "no"
        res = sigma_exact_tiny(g, 4)
        assert res.status == "yes"
        assert verify_subdivision(g, res.certificate).ok
        assert sigma_exact_value(g)[0].value == 4

    def test_certificates_verify(self, rng):
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 8))
            val, cert = sigma_exact_value(g)
            assert val.exact
            assert cert is not None and verify_subdivision(g, cert).ok

    def test_monotone_in_t(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 8))
            answers = [sigma_exact_tiny(g, t).status for t in range(1, g.n + 1)]
            # once "no", always "no"
            seen_no = False
            for status in answers:
                if status == "no":
                    seen_no = True
                else:
                    assert not seen_no

    def test_induced_monotone(self, rng):
        for _ in range(150):
            n = rng.randint(2, 8)
            g = random_graph(rng, n)
            sub = rng.sample(range(n), rng.randint(1, n))
            h, _ = induced(g, sub)
            assert sigma_exact_value(h)[0].value <= sigma_exact_value(g)[0].value

    def test_returns_without_holding_the_graph(self, gc_off):
        h = gen_gnp(8, 0.6, 2)
        before = sys.getrefcount(h)
        assert sigma_exact_tiny(h, 4).status == "yes"
        assert sigma_exact_tiny(h, 5).status == "no"
        after = sys.getrefcount(h)
        assert after == before

    def test_deep_packing_beyond_recursion_limit(self):
        # K_{46,1100}: the 46 branch vertices form 1035 non-adjacent pairs,
        # one packing level each, routed through distinct far-side vertices
        a, b = 46, 1100
        g = new_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        res = sigma_exact_tiny(g, a)
        assert res.status == "yes" and len(res.certificate.paths) == 1035
        assert verify_subdivision(g, res.certificate).ok

    def test_budget_third_state(self):
        g = gen_gnp(12, 0.5, 0)
        res = sigma_exact_tiny(g, 5, budget=3)
        assert res.status in ("exceeded", "yes", "no")


class TestSigmaUpperCert:
    def test_c5(self):
        cert = sigma_upper_cert(cycle(5), omega_exact(cycle(5)))
        assert cert.t == 4
        assert cert.total_required == 6
        # consistent with the exact value sigma(C5) = 3
        assert sigma_exact_value(cycle(5))[0].value < cert.t

    def test_complete_graph_has_no_cert(self):
        for n in (3, 6, 10):
            assert sigma_upper_cert(complete(n), n) is None

    def test_heuristic_omega_rejected(self):
        bad = Tagged(2, (0, 1), "heuristic")
        with pytest.raises(ValueError, match="exact"):
            sigma_upper_cert(cycle(5), bad)

    def test_never_contradicts_exact_sigma(self, rng):
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 8))
            cert = sigma_upper_cert(g, omega_exact(g))
            if cert is not None:
                assert sigma_exact_value(g)[0].value < cert.t

    def test_random_graph_cross_check(self):
        g = gen_gnp(40, 0.3, 11)
        om = omega_exact(g)
        assert om.exact
        cert = sigma_upper_cert(g, om)
        assert cert is not None
        # any constructive lower bound must sit strictly below t
        assert om.value < cert.t


class TestTuranBound:
    def test_alpha_one_forces_complete(self):
        exact, simple = turan_density_bound(10, 1)
        assert exact == 1
        assert simple == Fraction(1, 2)

    def test_spec_values(self):
        exact, simple = turan_density_bound(10, 5)
        assert exact == Fraction(1, 9)
        assert simple == Fraction(1, 10)
        assert exact >= simple

    def test_alpha_equals_half_n(self):
        for n in (6, 10, 14):
            _, simple = turan_density_bound(n, n // 2)
            assert simple == Fraction(1, n)

    def test_out_of_domain(self):
        with pytest.raises(ValueError, match="hypothesis"):
            turan_density_bound(10, 6)

    def test_bound_holds_on_samples(self, rng):
        # graphs on 10 vertices with alpha <= 5 have density >= the exact bound
        checked = 0
        while checked < 400:
            g = random_graph(rng, 10, rng.uniform(0.3, 0.9))
            a = alpha_exact(g).value
            if a > 5:
                continue
            exact, simple = turan_density_bound(10, a)
            d = edge_density(g)
            assert d >= exact >= simple
            checked += 1


class TestGraphStats:
    def test_c5_stats(self):
        st = graph_stats(cycle(5))
        assert (st.alpha.value, st.omega.value, st.dsatur) == (2, 2, 3)
        assert st.chi.value == 3
        assert not st.notes

    def test_each_search_runs_once(self, monkeypatch):
        g = gen_gnp(12, 0.5, 1)
        chi = chi_exact(g)
        calls = []
        for name in ("dsatur_upper", "_max_clique_core"):
            original = getattr(oracles, name)

            def counted(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(oracles, name, counted)
        st = graph_stats(g)
        # one clique search each for alpha and omega, one DSATUR run
        assert sorted(calls) == ["_max_clique_core"] * 2 + ["dsatur_upper"]
        assert st.chi == chi

    def test_chi_equals_chi_exact(self, rng):
        for budget in (DEFAULT_BUDGET, 300, 5):
            for _ in range(40):
                g = random_graph(rng, rng.randint(0, 14))
                assert graph_stats(g, budget).chi == chi_exact(g, budget)

    def test_invariants_on_randoms(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 10))
            st = graph_stats(g)
            assert st.omega.value <= st.chi.chi_lower
            assert st.chi.chi_upper <= st.dsatur
            assert st.alpha.value * st.chi.chi_upper >= g.n
            assert not st.notes
