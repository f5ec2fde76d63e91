import sys
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from cliquesub import drc
from cliquesub.drc import (
    _SCAN_BLOCK,
    DrcCertificate,
    PartitionError,
    count_disjoint_paths4,
    _bad_pairs_per_hub,
    crossing_edges,
    drc_partition,
    drc_select,
    verify_drc_certificate,
)
from cliquesub.experiments import OPTIMAL_P
from cliquesub.graphs import Graph, _pack_rows, edge_density, gen_gnp, new_graph
from cliquesub.pipeline import sigma_lower_auto
from conftest import complete, cycle, empty, random_graph, reference_drc_select


def brute_max_disjoint_paths4(g, u, v, forbidden=()):
    """Independent oracle: enumerate all length-4 u-v paths, then try every
    packing by recursion."""
    banned = set(forbidden) | {u, v}
    candidates = []
    for a in range(g.n):
        for b in range(g.n):
            for c in range(g.n):
                trio = {a, b, c}
                if len(trio) < 3 or trio & banned:
                    continue
                if g.has_edge(u, a) and g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, v):
                    candidates.append((a, b, c))

    def best(idx, used):
        top = 0
        for i in range(idx, len(candidates)):
            trio = set(candidates[i])
            if trio & used:
                continue
            top = max(top, 1 + best(i + 1, used | trio))
        return top

    return best(0, set())


class TestPartition:
    def test_k4_bound(self):
        v1, v2 = drc_partition(complete(4), seed=0)
        assert len(v1) == 2 and len(v2) == 2
        assert crossing_edges(complete(4), v1, v2) == 4  # >= (1/2)*6 = 3

    def test_empty_graph_any_split(self):
        v1, v2 = drc_partition(empty(6), seed=5)
        assert len(v1) == 3 and crossing_edges(empty(6), v1, v2) == 0

    def test_odd_n_sizes(self):
        v1, v2 = drc_partition(cycle(7), seed=1)
        assert len(v1) == 4 and len(v2) == 3

    def test_deterministic(self):
        g = gen_gnp(100, 0.5, 3)
        assert drc_partition(g, seed=9) == drc_partition(g, seed=9)

    def test_bound_holds_on_randoms(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 30))
            v1, v2 = drc_partition(g, seed=rng.randrange(1 << 30))
            assert 2 * crossing_edges(g, v1, v2) >= g.m

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            drc_partition(empty(1), seed=0)

    def test_partition_error_type_carries_best(self):
        err = PartitionError(3, ((0,), (1,)), 0)
        assert err.best_partition == ((0,), (1,))
        assert err.best_crossing == 0


class TestSelect:
    def test_certifies_below_the_dense_gate(self):
        # d = 1 so d^2*n = 1599 < 1600: extraction has no gate of its own
        g = complete(1599)
        v1, v2 = drc_partition(g, seed=0)
        cert = drc_select(g, v1, v2)
        assert isinstance(cert, DrcCertificate)
        for name, ok in verify_drc_certificate(g, cert):
            assert ok, name

    def test_practical_mode_runs_below_gate(self):
        g = gen_gnp(60, 0.6, 2)
        v1, v2 = drc_partition(g, seed=0)
        cert = drc_select(g, v1, v2)
        assert len(cert.u_set) >= 1

    def test_complete_graph_no_bad_pairs(self):
        g = complete(1600)
        v1, v2 = drc_partition(g, seed=0)
        cert = drc_select(g, v1, v2)
        assert cert.bad_pair_count == 0
        # U is the ceil(|X|/5) lowest-labelled vertices of X
        want = -(-len(cert.x_set) // 5)
        assert cert.u_set == cert.x_set[:want]
        assert all(ok for _, ok in verify_drc_certificate(g, cert))

    def test_invariants_on_mid_scale_random(self):
        g = gen_gnp(2200, 0.9, 4)  # d^2*n ~ 1780
        v1, v2 = drc_partition(g, seed=1)
        cert = drc_select(g, v1, v2)
        d = edge_density(g)
        n = g.n
        assert Fraction(10 * len(cert.x_set)) >= d * n
        assert Fraction(40 * cert.bad_pair_count) <= len(cert.x_set) ** 2
        assert Fraction(50 * len(cert.u_set)) >= d * n
        for name, ok in verify_drc_certificate(g, cert):
            assert ok, name

    def test_deterministic_given_partition(self):
        g = gen_gnp(300, 0.8, 7)
        v1, v2 = drc_partition(g, seed=2)
        a = drc_select(g, v1, v2)
        b = drc_select(g, v1, v2)
        assert a == b

    def test_wrong_partition_rejected(self):
        g = complete(8)
        with pytest.raises(ValueError, match="partition"):
            drc_select(g, (0, 1, 2), (3, 4, 5))

    @staticmethod
    def _count_path_calls(monkeypatch):
        calls = []
        original = drc.count_disjoint_paths4

        def counted(g, *args, **kw):
            calls.append(g.n)
            return original(g, *args, **kw)

        monkeypatch.setattr(drc, "count_disjoint_paths4", counted)
        return calls

    def test_practical_mode_probes_no_paths(self, monkeypatch):
        calls = self._count_path_calls(monkeypatch)
        g = gen_gnp(220, 0.85, 3)
        v1, v2 = drc_partition(g, seed=0)
        cert = drc_select(g, v1, v2)
        assert len(cert.u_set) >= 2
        assert calls == []

    def test_practical_hub_probes_no_paths_on_a_sweep_graph(self, monkeypatch):
        # the pipeline's hub step on a sweep graph, where the old probe
        # sampled 100 pairs of U
        calls = self._count_path_calls(monkeypatch)
        g = gen_gnp(1000, OPTIMAL_P, 56)
        report = sigma_lower_auto(g, 56)
        (hub,) = [step for step in report.transcript if step["step"] == "hub"]
        assert hub["u_size"] >= 2
        assert calls == []


class TestTiledScan:
    """The tiled hub scan against the full-matrix scan it replaced."""

    @pytest.mark.parametrize(
        "n, p, seed",
        [
            (600, 0.95, 1),  # |V1| = 300, not a multiple of the block
            (1024, 0.95, 2),  # |V1| = 512, two whole blocks
            (601, OPTIMAL_P, 3),  # odd n: |V1| = 301, |V2| = 300
            (201, OPTIMAL_P, 4),  # |V1| = 101, below the block
            (777, OPTIMAL_P, 5),  # |V1| = 389
            (2000, 0.95, 0),  # the pipeline-dense benchmark graph
        ],
    )
    def test_certificate_equals_full_matrix_scan(self, n, p, seed):
        g = gen_gnp(n, p, seed)
        v1, v2 = drc_partition(g, seed)
        assert len(v1) - len(v2) == n % 2
        got = drc_select(g, v1, v2)
        assert got == reference_drc_select(g, v1, v2)

    def test_bad_pairs_equal_full_matrix_scan(self):
        # on G(n, p) no pair has at most tau common neighbours; here w's only
        # far-side neighbour is h, and h sees all of V1, so with tau = 1 X(h)
        # holds |X| - 1 bad pairs, and w sits in the first block of the
        # recount while its partners run on into the later ones
        g0 = gen_gnp(1700, 0.7, 11)
        v1, v2 = drc_partition(g0, 11)
        h, w = v2[0], v1[10]
        mat = g0.bool_matrix().copy()
        mat[h, list(v1)] = mat[list(v1), h] = True
        mat[w, list(v2)] = mat[list(v2), w] = False
        mat[w, h] = mat[h, w] = True
        g = Graph(g0.n, _pack_rows(mat))
        got = drc_select(g, v1, v2)
        assert (got.good_threshold, got.hub, got.bad_pair_count) == (1, h, len(v1) - 1)
        assert w in got.x_set and w not in got.u_set
        assert got == reference_drc_select(g, v1, v2)

    def test_float32_scan_equals_full_matrix_scan_from_2897(self):
        # |V1| = 2897 is the least size with |V1|^2 >= 2^23, past which
        # whole-matrix float32 sums could lose exactness; here a hub h sees
        # all of V1 and w's only far-side neighbour is h, so X(h) = V1 holds
        # |V1| - 1 bad pairs
        g0 = gen_gnp(5794, 0.7, 12)
        v1, v2 = drc_partition(g0, 12)
        assert len(v1) == 2897
        h, w = v2[0], v1[10]
        mat = g0.bool_matrix().copy()
        del g0
        mat[h, list(v1)] = mat[list(v1), h] = True
        mat[w, list(v2)] = mat[list(v2), w] = False
        mat[w, h] = mat[h, w] = True
        g = Graph(len(mat), _pack_rows(mat))
        del mat
        got = drc_select(g, v1, v2)
        assert (got.hub, got.bad_pair_count) == (h, len(v1) - 1)
        assert got == reference_drc_select(g, v1, v2)

    @staticmethod
    def full_matrix_counts(a: np.ndarray, tau: int) -> np.ndarray:
        """Bad pairs inside each X_j by exact integer arithmetic."""
        ai = a.astype(np.int64)
        bad = (ai @ ai.T <= tau).astype(np.int64)
        np.fill_diagonal(bad, 0)
        return np.einsum("ij,ij->j", ai, bad @ ai) // 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 5, 101, 300])
    def test_counts_equal_exact_arithmetic(self, dtype, k):
        # tau at the median common-neighbour count makes half the pairs bad,
        # so every tile takes the second product; row densities from 0.02 to
        # 0.5 give some rows a degree <= tau, whose diagonal entry the scan
        # must skip
        rng = np.random.default_rng(k)
        a = (rng.random((k, 90)) < rng.uniform(0.02, 0.5, (k, 1))).astype(dtype)
        common = a @ a.T
        tau = int(np.median(common[np.triu_indices(k, 1)])) if k > 1 else 0
        want = self.full_matrix_counts(a, tau)
        assert k == 1 or want.sum() > 0
        for block in (1, 7, 64, _SCAN_BLOCK):
            got = _bad_pairs_per_hub(a, tau, block)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), block


class TestCountDisjointPaths:
    def test_single_path(self):
        g = new_graph(5, [(0, 2), (2, 3), (3, 4), (4, 1)])
        assert count_disjoint_paths4(g, 0, 1) == 1

    def test_two_disjoint_then_forbid(self):
        g = new_graph(
            8, [(0, 2), (2, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7), (7, 1)]
        )
        assert count_disjoint_paths4(g, 0, 1) == 2
        assert count_disjoint_paths4(g, 0, 1, [3]) == 1

    def test_c5_adjacent_pair_uses_long_way(self):
        # the only length-4 route between adjacent cycle vertices is the
        # complementary arc
        assert count_disjoint_paths4(cycle(5), 0, 1) == 1

    def test_shared_vertex_blocks_second_path(self):
        # two path templates sharing one interior vertex: answer is 1,
        # although u and v each have two neighbours to start a path from
        g = new_graph(
            7,
            [(0, 2), (2, 3), (3, 4), (4, 1), (0, 5), (5, 2), (2, 6), (6, 1)],
        )
        assert brute_max_disjoint_paths4(g, 0, 1) == 1
        assert count_disjoint_paths4(g, 0, 1) == 1

    def test_limit_short_circuits(self):
        g = complete(30)
        assert count_disjoint_paths4(g, 0, 1, limit=3) == 3

    def test_matches_brute_force(self, rng):
        for _ in range(250):
            n = rng.randint(4, 10)
            g = random_graph(rng, n, rng.uniform(0.2, 0.9))
            u, v = rng.sample(range(n), 2)
            forb = [w for w in range(n) if w not in (u, v) and rng.random() < 0.2]
            assert count_disjoint_paths4(g, u, v, forb) == brute_max_disjoint_paths4(
                g, u, v, forb
            )

    def test_deep_packing_beyond_recursion_limit(self):
        # the search goes one level deeper per packed path; 1332 levels is
        # past Python's default limit of 1000 frames
        g = gen_gnp(4000, 0.99, 0)
        assert count_disjoint_paths4(g, 0, 1) == 1332

    def test_returns_without_holding_the_graph(self, gc_off):
        g = gen_gnp(40, 0.5, 1)
        before = sys.getrefcount(g)
        count_disjoint_paths4(g, 0, 1)
        after = sys.getrefcount(g)
        assert after == before

    def test_endpoint_validations(self):
        g = complete(5)
        with pytest.raises(ValueError, match="differ"):
            count_disjoint_paths4(g, 1, 1)
        with pytest.raises(ValueError, match="forbidden"):
            count_disjoint_paths4(g, 0, 1, [1])
