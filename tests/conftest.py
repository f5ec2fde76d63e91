"""Shared test fixtures: named graphs and independent brute-force oracles.

The brute oracles enumerate subsets or assignments directly and share no
code with the solvers under test; expected values in the test modules were
computed with these.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from cliquesub.graphs import Graph, bits, new_graph


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


def brute_independent(g: Graph, vertices) -> bool:
    vs = list(vertices)
    return all(not g.has_edge(a, b) for a, b in combinations(vs, 2))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC11A)
