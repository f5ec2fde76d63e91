"""Shared test fixtures: named graphs and independent brute-force oracles.

The brute oracles enumerate subsets or assignments directly and share no
code with the solvers under test; expected values in the test modules were
computed with these.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable

import numpy as np
import pytest

from cliquesub.drc import DrcCertificate, crossing_edges
from cliquesub.graph_io import _GRAPH6_HEADER, ParseError, _g6_decode_n, _g6_encode_n
from cliquesub.graphs import Graph, _pack_rows, bits, edge_density, new_graph
from cliquesub.oracles import (
    TAG_EXACT,
    TAG_HEURISTIC,
    Tagged,
    _greedy_clique,
    _improve_swaps,
)


def complete(n: int) -> Graph:
    return new_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty(n: int) -> Graph:
    return new_graph(n, [])


def cycle(n: int) -> Graph:
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return new_graph(10, outer + spokes + inner)


def lexicographic_product_c5_k3() -> Graph:
    """Vertices (i, j) for i on a 5-cycle, j in a triangle; (i,j)~(i',j')
    iff i~i' on the cycle, or i=i' and j != j'."""
    edges = []
    for i in range(5):
        for j in range(3):
            a = 3 * i + j
            for j2 in range(j + 1, 3):
                edges.append((a, 3 * i + j2))
            for j2 in range(3):
                b = 3 * ((i + 1) % 5) + j2
                edges.append((a, b))
    return new_graph(15, edges)


def random_graph(rng: random.Random, n: int, p: float | None = None) -> Graph:
    if p is None:
        p = rng.random()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return new_graph(n, edges)


# ---------------------------------------------------------------------------
# brute-force oracles (subset scans, no shared code with the solvers)


def brute_alpha(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        ok = True
        mm = mask
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            if g.rows[v] & mask:
                ok = False
                break
            mm ^= low
        if ok:
            best = max(best, mask.bit_count())
    return best


def brute_omega(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if (mask >> v) & 1]
        if all(g.has_edge(a, b) for a, b in combinations(vs, 2)):
            best = max(best, len(vs))
    return best


def brute_min_vertex_cover(g: Graph) -> int:
    edges = list(g.edges())
    best = g.n
    for mask in range(1 << g.n):
        if all((mask >> u) & 1 or (mask >> v) & 1 for u, v in edges):
            best = min(best, mask.bit_count())
    return best


def brute_chi(g: Graph) -> int:
    n = g.n
    if n == 0:
        return 0
    if g.m == 0:
        return 1

    def colorable(k: int) -> bool:
        color = [-1] * n

        def go(v: int) -> bool:
            if v == n:
                return True
            seen = {color[w] for w in bits(g.rows[v]) if w < v}
            for c in range(k):
                if c not in seen:
                    color[v] = c
                    if go(v + 1):
                        return True
            color[v] = -1
            return False

        return go(0)

    for k in range(2, n + 1):
        if colorable(k):
            return k
    return n


def reference_dsatur(g: Graph) -> tuple[int, tuple[int, ...]]:
    """DSATUR as a plain loop over per-vertex sets of neighbour colours.

    Picks the uncoloured vertex with the most distinct neighbour colours,
    then the highest degree, then the lowest index; gives it the smallest
    colour no neighbour has.  ``dsatur_upper`` must match it exactly.
    """
    n = g.n
    if n == 0:
        return 0, ()
    color = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    used = 0
    for _ in range(n):
        best = -1
        key = (-1, -1, 0)
        for v in range(n):
            if color[v] >= 0:
                continue
            cand = (len(neighbor_colors[v]), g.degree(v), -v)
            if cand > key:
                key = cand
                best = v
        c = 0
        while c in neighbor_colors[best]:
            c += 1
        color[best] = c
        used = max(used, c + 1)
        for w in g.neighbors(best):
            neighbor_colors[w].add(c)
    return used, tuple(color)


def reference_max_clique_core(rows: tuple[int, ...], n: int, budget: int) -> Tagged:
    """Branch-and-bound maximum clique with greedy-coloring pruning: the
    search that ``_max_clique_core`` replaced, which colours and lists every
    candidate at every node.  ``_max_clique_core`` must return the same
    ``Tagged``, node count and witness included."""
    full = (1 << n) - 1
    if n == 0:
        return Tagged(0, (), TAG_EXACT, 0)
    incumbent = _improve_swaps(rows, _greedy_clique(rows, full), full)
    best_size = incumbent.bit_count()
    best_mask = incumbent
    nodes = 0
    exhausted = True

    def color_sort(cand: int) -> tuple[list[int], list[int]]:
        order: list[int] = []
        colors: list[int] = []
        uncolored = cand
        c = 0
        while uncolored:
            c += 1
            avail = uncolored
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order.append(v)
                colors.append(c)
                avail &= ~rows[v]
                avail ^= low
                uncolored ^= low
        return order, colors

    def expand(rmask: int, rsize: int, cand: int) -> None:
        nonlocal best_size, best_mask, nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = False
            return
        order, colors = color_sort(cand)
        prefix = 0
        prefixes = []
        for v in order:
            prefixes.append(prefix)
            prefix |= 1 << v
        for i in range(len(order) - 1, -1, -1):
            if not exhausted:
                return
            if rsize + colors[i] <= best_size:
                return
            v = order[i]
            new_cand = prefixes[i] & rows[v]
            if rsize + 1 > best_size:
                best_size = rsize + 1
                best_mask = rmask | (1 << v)
            if new_cand:
                expand(rmask | (1 << v), rsize + 1, new_cand)

    expand(0, 0, full)
    # expand calls itself through its closure cell, a reference cycle that
    # would keep ``rows`` alive until the next full gc; unbind it now.
    del expand
    tag = TAG_EXACT if exhausted else TAG_HEURISTIC
    return Tagged(best_size, tuple(bits(best_mask)), tag, nodes)


def reference_common_neighbor_matrix(g: Graph, v1: tuple[int, ...], v2: tuple[int, ...]):
    """(A12, common): bipartite adjacency and pairwise common-neighbor counts
    of V1 vertices on the V2 side, exact integers."""
    mat = g.bool_matrix()
    a12 = mat[np.ix_(v1, v2)]
    # float32 matmul is exact for integer counts below 2^24
    dtype = np.float32 if len(v1) * max(len(v1), 1) < (1 << 23) else np.float64
    a = a12.astype(dtype)
    common = a @ a.T
    return a12, a, common


def reference_drc_select(g: Graph, v1: Iterable[int], v2: Iterable[int]) -> DrcCertificate:
    """Derandomized hub selection with the full V1 x V1 pair matrix: the
    scan that the tiled ``drc_select`` replaced.  ``drc_select`` must return
    the same ``DrcCertificate``.

    Scans every candidate hub, computes X = N(hub) in V1 and the exact bad
    pair count b inside X, and keeps the maximizer of |X|^2 - 40*b (ties to
    the lowest hub label).  Vertices of X that form bad pairs with at least
    |X|/4 of X are discarded; the first ceil(|X|/5) survivors in label order
    form U.
    """
    n = g.n
    d = edge_density(g)
    v1 = tuple(sorted(v1))
    v2 = tuple(sorted(v2))
    if set(v1) & set(v2) or set(v1) | set(v2) != set(range(n)):
        raise ValueError("v1, v2 must partition the vertex set")
    crossing = crossing_edges(g, v1, v2)
    if 2 * crossing < g.m:
        raise ValueError("partition does not meet its crossing-edge contract")
    if not v2:
        raise ValueError("empty far side")

    tau = int(d * d * n // 800)  # floor(d^2*n/800)
    a12, a, common = reference_common_neighbor_matrix(g, v1, v2)
    bad = common <= tau
    np.fill_diagonal(bad, False)
    badf = bad.astype(a.dtype)
    # b per hub j: half the number of ordered bad pairs inside X_j
    mm = badf @ a
    b_per_hub = np.einsum("ij,ij->j", a, mm) / 2.0
    x_sizes = a12.sum(axis=0).astype(np.int64)
    scores = x_sizes * x_sizes - 40 * b_per_hub.astype(np.int64)
    j = int(np.argmax(scores))  # first maximum = lowest hub label
    hub = v2[j]
    score = int(scores[j])
    # existence is guaranteed by the expectation argument whenever the
    # partition met its contract; a miss here is a bug, not an input error
    if Fraction(score) < d * d * n * n / 80:
        raise AssertionError(
            "no hub met the derandomization bound; partition contract violated"
        )
    x_idx = np.nonzero(a12[:, j])[0]
    x_set = tuple(int(v1[i]) for i in x_idx)
    x_size = len(x_set)
    bad_sub = bad[np.ix_(x_idx, x_idx)]
    bad_counts = bad_sub.sum(axis=1).astype(np.int64)
    b = int(bad_counts.sum()) // 2
    if b != int(b_per_hub[j]):
        raise AssertionError("bad-pair recount disagrees with the scan")
    # a vertex is bad if it forms bad pairs with >= |X|/4 of X
    is_bad_vertex = 4 * bad_counts >= x_size
    survivors = [x_set[i] for i in range(x_size) if not is_bad_vertex[i]]
    u_size = -(-x_size // 5)  # ceil(|X|/5)
    if len(survivors) < u_size:
        raise AssertionError("more than |X|/5 bad vertices; b bound violated")
    u_set = tuple(survivors[:u_size])
    return DrcCertificate(
        v1=v1,
        v2=v2,
        hub=hub,
        x_set=x_set,
        bad_pair_count=b,
        u_set=u_set,
        good_threshold=tau,
    )


def reference_induced(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph by the two paths that ``induced`` replaced: a slice of
    the cached n x n matrix above 256 vertices, a Python bit loop below.
    ``induced`` must return the same graph and mapping."""
    sel = sorted(set(s))
    for v in sel:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    k = len(sel)
    if k > 256:
        rows = _pack_rows(g.bool_matrix()[np.ix_(sel, sel)])
    else:
        rows = [0] * k
        for i, u in enumerate(sel):
            ru = g.rows[u]
            acc = 0
            for j, v in enumerate(sel):
                acc |= ((ru >> v) & 1) << j
            rows[i] = acc
    return Graph._trusted(k, rows), tuple(sel)


def reference_gen_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) by one generator call per row, as ``gen_gnp`` drew it before
    it drew blocks of rows; ``gen_gnp`` must return the same graph."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} outside [0,1]")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    mat = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        mat[i, i + 1 :] = rng.random(n - 1 - i) < p
    mat |= mat.T
    return Graph._trusted(n, _pack_rows(mat))


def reference_to_graph6(g: Graph) -> str:
    """graph6 encoding one bit per step; ``to_graph6`` must match it byte for byte."""
    out = bytearray(_g6_encode_n(g.n))
    acc = 0
    nbits = 0
    for v in range(1, g.n):
        row = g.rows[v]
        for u in range(v):
            acc = (acc << 1) | ((row >> u) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def reference_from_graph6(text: str) -> Graph:
    """graph6 decoding one bit per step; ``from_graph6`` must give the same
    graph, and the same ``ParseError`` text and position on bad input."""
    s = text.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER) :]
    data = s.encode("ascii", errors="strict")
    n, off = _g6_decode_n(data)
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    body = data[off:]
    if len(body) != need:
        raise ParseError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}",
            byte=off + min(len(body), need),
        )
    rows = [0] * n
    idx = 0
    for b in body:
        val = b - 63
        if val < 0 or val > 63:
            raise ParseError(f"bad graph6 byte {b}", byte=off + idx // 6)
        for k in range(5, -1, -1):
            if idx >= npairs:
                if (val >> k) & 1:
                    raise ParseError("nonzero padding bits", byte=off + idx // 6)
                continue
            if (val >> k) & 1:
                # column-major upper triangle: pair index -> (u, v)
                v = _col_of(idx)
                u = idx - v * (v - 1) // 2
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            idx += 1
    return Graph(n, rows)


def _col_of(idx: int) -> int:
    # smallest v with v(v+1)/2 > idx, i.e. the column of pair index idx
    v = int(((8 * idx + 1) ** 0.5 - 1) / 2) + 1
    while v * (v - 1) // 2 > idx:
        v -= 1
    while (v + 1) * v // 2 <= idx:
        v += 1
    return v


def brute_independent(g: Graph, vertices) -> bool:
    vs = list(vertices)
    return all(not g.has_edge(a, b) for a, b in combinations(vs, 2))


@pytest.fixture
def gc_off():
    """The cycle collector stays off for the test, so anything kept alive
    only by a reference cycle still shows in refcounts and ``gc.get_objects``."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC11A)
