"""Tests of the benchmark's own checkers: each must pass a good output and
reject the broken ones.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import math

import numpy as np
import pytest

import checks

# Branch vertices 0, 1, 2 are pairwise non-adjacent; the good certificate
# joins them through the interiors 3-4-5, 6-7-8 and 9-10-11.  The extra
# edges 3-7, 2-6 and 2-9 make the broken paths below real edge paths.
GOOD_PATHS = {(0, 1): (0, 3, 4, 5, 1), (0, 2): (0, 6, 7, 8, 2), (1, 2): (1, 9, 10, 11, 2)}
EXTRA_EDGES = [(3, 7), (2, 6), (2, 9)]


def graph(n: int, edges) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def subdivision_graph() -> np.ndarray:
    edges = [e for path in GOOD_PATHS.values() for e in zip(path, path[1:])]
    return graph(12, edges + EXTRA_EDGES)


def with_path(pair, path):
    return {**GOOD_PATHS, pair: path}


def test_adjacency_matches_rows_and_rejects_one_way_rows():
    rows = [0b110, 0b001, 0b001]  # 0-1 and 0-2
    assert checks.adjacency(3, rows).tolist() == graph(3, [(0, 1), (0, 2)]).tolist()
    with pytest.raises(ValueError):
        checks.adjacency(3, [0b010, 0b000, 0b000])


def test_good_certificate_passes():
    assert checks.check_subdivision(subdivision_graph(), (0, 1, 2), GOOD_PATHS) == []


def test_certificate_with_overlapping_interior_is_rejected():
    paths = with_path((0, 2), (0, 3, 7, 8, 2))  # 3 is also on the 0-1 path
    problems = checks.check_subdivision(subdivision_graph(), (0, 1, 2), paths)
    assert any("shares an interior vertex" in p for p in problems)


def test_certificate_with_non_edge_is_rejected():
    paths = with_path((0, 1), (0, 3, 4, 10, 1))  # 4-10 and 10-1 are not edges
    problems = checks.check_subdivision(subdivision_graph(), (0, 1, 2), paths)
    assert any("non-edge" in p for p in problems)


def test_certificate_through_branch_vertex_is_rejected():
    paths = with_path((0, 1), (0, 6, 2, 9, 1))  # all edges, but 2 is a branch vertex
    problems = checks.check_subdivision(subdivision_graph(), (0, 1, 2), paths)
    assert any("runs through a branch vertex" in p for p in problems)


def test_certificate_missing_a_pair_or_of_wrong_length_is_rejected():
    adj = subdivision_graph()
    missing = {k: v for k, v in GOOD_PATHS.items() if k != (1, 2)}
    assert checks.check_subdivision(adj, (0, 1, 2), missing)
    short = graph(3, [(0, 2), (2, 1)])
    assert checks.check_subdivision(short, (0, 1), {(0, 1): (0, 2, 1)})


def test_colorings():
    triangle = graph(3, [(0, 1), (1, 2), (0, 2)])
    assert checks.check_coloring(triangle, [0, 1, 2], 3) == []
    assert any("improper" in p for p in checks.check_coloring(triangle, [0, 0, 1], 2))
    assert any("uses 3 colours" in p for p in checks.check_coloring(triangle, [0, 1, 2], 4))
    assert checks.check_coloring(triangle, [0, 1], 2)


def test_witnesses():
    adj = subdivision_graph()
    assert checks.check_independent(adj, (0, 1, 2), 3) == []
    assert any("spans 1 edges" in p for p in checks.check_independent(adj, (0, 3), 2))
    assert checks.check_independent(adj, (0, 1), 3)  # size disagrees with the claim
    assert checks.check_clique(adj, (0, 3), 2) == []
    assert any("misses an edge" in p for p in checks.check_clique(adj, (0, 3, 4), 3))


def test_sweep_records():
    adj = graph(12, [(u, (u + 1) % 12) for u in range(12)])  # a 12-cycle, max degree 2
    good = {"n": 12, "chi_lower": 2, "chi_upper": 2, "sigma_lower": 3,
            "ratio_point": 2 / 3, "reference": math.sqrt(12) / math.log(12)}  # fmt: skip
    assert checks.check_sweep_record(adj, good) == []
    for change in ({"chi_upper": 4, "ratio_point": 4 / 3}, {"chi_lower": 3},
                   {"ratio_point": 1.0}, {"reference": 1.0}):  # fmt: skip
        assert checks.check_sweep_record(adj, {**good, **change}), change
