import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cliquesub import graphs
from cliquesub.graphs import (
    Graph,
    bits,
    complement,
    edge_density,
    gen_gnp,
    induced,
    new_graph,
)
from conftest import (
    complete,
    cycle,
    empty,
    random_graph,
    reference_gen_gnp,
    reference_induced,
)

# the benchmark's graphs at seed 0, (n, p) -> sha256 of their rows
BENCHMARK_GNP_SHA256 = {
    (1000, 1 - math.exp(-2)): "4658bcccb9abbbb76c73a9b5c5eea75f170270e2a9c5522df2b37aa1a8bd3df7",
    (2000, 0.95): "fdfb4db1512550e164414a55c5c702db85bc0091ca7d3a9ca60433ce5ba21a99",
    (3000, 1 - math.exp(-2)): "9f82044664d53bd5337148ee4660fc5a99d7dcfbaf32c9001afcba458c3b6db4",
}


def rows_sha256(g: Graph) -> str:
    h = hashlib.sha256()
    for row in g.rows:
        h.update(row.to_bytes((g.n + 7) // 8, "little"))
    return h.hexdigest()


class TestNewGraph:
    def test_triangle(self):
        g = new_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.m == 3
        assert all(g.has_edge(a, b) for a, b in [(0, 1), (1, 2), (0, 2)])

    def test_empty(self):
        g = new_graph(4, [])
        assert g.m == 0
        assert edge_density(g) == 0

    def test_c5(self):
        g = cycle(5)
        assert g.m == 5
        assert [g.degree(v) for v in range(5)] == [2] * 5

    def test_dedup_and_symmetrize(self):
        g = new_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.has_edge(1, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            new_graph(3, [(0, 3)])

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            new_graph(3, [(1, 1)])

    def test_fuzz_invariants(self, rng):
        # symmetry and loop-freeness after every constructor
        for _ in range(10_000):
            n = rng.randint(0, 8)
            k = rng.randint(0, max(0, n * (n - 1) // 2))
            edges = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(k) if n >= 2
            ]
            edges = [(u, v) for u, v in edges if u != v]
            g = new_graph(n, edges)
            for u in range(n):
                assert not g.has_edge(u, u)
                for v in bits(g.rows[u]):
                    assert g.has_edge(v, u)


class TestDensity:
    def test_complete(self):
        assert edge_density(complete(4)) == 1

    def test_single_vertex(self):
        assert edge_density(empty(1)) == 0

    def test_c5_is_half(self):
        assert edge_density(cycle(5)) == Fraction(1, 2)

    def test_complement_sums_to_one(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 10))
            total = edge_density(g) + edge_density(complement(g))
            assert total == 1


class TestComplement:
    def test_k5_to_empty(self):
        assert complement(complete(5)).m == 0

    def test_empty3_to_k3(self):
        assert complement(empty(3)) == complete(3)

    def test_involution(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 9))
            assert complement(complement(g)) == g

    def test_c5_self_complementary(self):
        # direct check: complement of the 5-cycle is the pentagram,
        # again 2-regular with 5 edges
        h = complement(cycle(5))
        assert h.m == 5
        assert sorted(h.edges()) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


class TestInduced:
    def test_triangle_of_k5(self):
        h, mapping = induced(complete(5), [1, 2, 4])
        assert h == complete(3)
        assert mapping == (1, 2, 4)

    def test_path_from_c5(self):
        h, _ = induced(cycle(5), [0, 1, 2])
        assert sorted(h.edges()) == [(0, 1), (1, 2)]

    def test_empty_selection(self):
        h, mapping = induced(cycle(5), [])
        assert h.n == 0 and mapping == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            induced(cycle(5), [7])

    def test_functorial(self, rng):
        # induced(induced(g, A), B') == induced(g, B) for B' reindexing B <= A
        for _ in range(300):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            a = sorted(rng.sample(range(n), rng.randint(1, n)))
            ga, amap = induced(g, a)
            bprime = sorted(rng.sample(range(ga.n), rng.randint(1, ga.n)))
            b = [amap[i] for i in bprime]
            left, _ = induced(ga, bprime)
            right, _ = induced(g, b)
            assert left == right

    def test_large_selection_leaves_the_matrix_uncached(self):
        g = gen_gnp(400, 0.3, 5)
        sel = list(range(0, 400, 1))[:300]
        h, mapping = induced(g, sel)
        assert h.n == 300
        assert g._mat is None
        probe = random.Random(1)
        for _ in range(200):
            i, j = probe.randrange(300), probe.randrange(300)
            if i != j:
                assert h.has_edge(i, j) == g.has_edge(mapping[i], mapping[j])

    @pytest.mark.parametrize("k", [0, 1, 2, 255, 256, 257, 300, 400])
    def test_equals_reference_across_the_old_cutover(self, k):
        # the reference switches from a bit loop to a matrix slice above 256
        g = gen_gnp(400, 0.5, k)
        sel = random.Random(k).sample(range(400), k)
        got = induced(g, sel)
        assert g._mat is None
        assert got == reference_induced(g, sel)

    def test_equals_reference_on_random_graphs(self, rng):
        for _ in range(300):
            n = rng.randint(0, 40)
            g = random_graph(rng, n)
            sel = rng.sample(range(n), rng.randint(0, n))
            assert induced(g, sel) == reference_induced(g, sel)


class TestGnp:
    def test_p_zero(self):
        assert gen_gnp(30, 0.0, 1).m == 0

    def test_p_one(self):
        assert gen_gnp(30, 1.0, 1) == complete(30)

    def test_edge_count_moments(self):
        # Binomial(C(1000,2), 1/2): mean 249750, sd ~353.4; assert +-5 sd
        for seed in (1, 2, 3):
            g = gen_gnp(1000, 0.5, seed)
            assert abs(g.m - 249_750) <= 5 * 354

    def test_seed_determinism(self):
        a = gen_gnp(200, 0.37, 99)
        b = gen_gnp(200, 0.37, 99)
        assert a == b

    def test_different_seeds_differ(self):
        assert gen_gnp(50, 0.5, 1) != gen_gnp(50, 0.5, 2)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            gen_gnp(5, 1.5, 0)

    @staticmethod
    def assert_matches_reference(sizes, ps, seeds):
        for n in sizes:
            for p in ps:
                for seed in seeds:
                    assert gen_gnp(n, p, seed).rows == reference_gen_gnp(n, p, seed).rows

    def test_matches_per_row_draws(self):
        self.assert_matches_reference(range(71), (0, 0.3, 0.5, 1), (0, 1))

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_matches_per_row_draws_at_every_block_boundary(self, monkeypatch, block):
        # blocks shorter than a row, straddling rows and holding several
        monkeypatch.setattr(graphs, "GNP_DRAW_BLOCK", block)
        self.assert_matches_reference(range(71), (0.3, 0.5), (2,))

    @pytest.mark.parametrize("n, p", list(BENCHMARK_GNP_SHA256))
    def test_benchmark_graphs_pinned(self, n, p):
        g = gen_gnp(n, p, 0)
        assert g.rows == reference_gen_gnp(n, p, 0).rows
        assert rows_sha256(g) == BENCHMARK_GNP_SHA256[n, p]


class TestGraphBasics:
    def test_matrix_matches_rows(self):
        g = gen_gnp(100, 0.4, 3)
        mat = g.bool_matrix()
        for u in range(100):
            for v in range(100):
                assert bool(mat[u, v]) == g.has_edge(u, v)

    def test_asymmetric_rows_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, [0b10, 0b00])

    def test_asymmetric_rows_rejected_at_any_size(self):
        # one-way edges in the first 8 x 8 block, on either side of a block
        # edge and in the last, partial blocks, named as the whole-matrix
        # check names them
        cases = [(600, 0, 1), (700, 300, 650), (700, 650, 300), (700, 8, 7),
                 (700, 7, 8), (700, 699, 0), (700, 0, 699)]
        for n, u, v in cases:
            rows = [0] * n
            rows[u] = 1 << v
            with pytest.raises(ValueError, match=rf"symmetric at \({u},{v}\)"):
                Graph(n, rows)
        # two one-way edges: the first in row-major order is named, where
        # column-major order would name (650, 9)
        rows = list(gen_gnp(700, 0.5, 5).rows)
        for u, v in [(650, 9), (13, 200)]:
            rows[u] |= 1 << v
            rows[v] &= ~(1 << u)
        mat = graphs._unpack_rows(700, rows)
        assert tuple(np.argwhere(mat > mat.T)[0]) == (13, 200)
        with pytest.raises(ValueError, match=r"symmetric at \(13,200\)"):
            Graph(700, rows)

    def test_check_leaves_the_matrix_uncached(self):
        g = gen_gnp(600, 0.5, 1)
        h = Graph(600, g.rows)
        assert h == g and h.m == g.m
        assert h._mat is None

    def test_trusted_constructors_give_checked_graphs(self):
        g = gen_gnp(300, 0.3, 4)
        for h in (g, complement(g), induced(g, range(0, 300, 2))[0],
                  new_graph(5, [(0, 1), (3, 1)])):
            assert Graph(h.n, h.rows) == h

    def test_hashable(self):
        assert len({complete(3), complete(3), empty(3)}) == 2

    def test_construction_makes_no_transposed_copy(self):
        n = 2000
        tracemalloc.start()
        try:
            g = gen_gnp(n, 0.5, 2)
            gen_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            Graph(n, g.rows)
            check_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # generation frees its n x n bool matrix before it mirrors the
        # packed bits, about 1.16 n^2; the check never unpacks the matrix,
        # about 0.53 n^2 with the generated rows; mirroring the bool matrix
        # read 1.28 n^2 and 1.13 n^2
        assert gen_peak < 1.25 * n * n
        assert check_peak < 0.7 * n * n


def _packed(m: np.ndarray) -> np.ndarray:
    return np.packbits(m, axis=1, bitorder="little")


@pytest.mark.parametrize(
    "n", [0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257, 700]
)
def test_bit_transpose_equals_matrix_transpose(n):
    rand = np.random.default_rng(n).random((n, n)) < 0.3
    upper = np.triu(rand, 1)
    sym = rand | rand.T
    cases = [rand, upper, upper.T, sym]
    # one entry flipped in the last block row, the last block column (each
    # a partial 8 x 8 block unless 8 divides n) and the last diagonal block
    for u, v in [(n - 1, 0), (0, n - 1), (n - 1, n - 2)] if n >= 2 else []:
        flipped = sym.copy()
        flipped[u, v] ^= True
        cases.append(flipped)
    for m in cases:
        t = graphs._transpose_bits(_packed(m))
        assert np.array_equal(t, _packed(m.T))
        # the constructor's check: the entries set in m and clear in m.T
        assert np.array_equal(_packed(m) & ~t, _packed(m > m.T))
        assert graphs._symmetric_rows(_packed(m)) == graphs._pack_rows(m | m.T)
