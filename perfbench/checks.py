"""Output checkers for the benchmark, written apart from the library.

They import nothing from ``cliquesub``: a graph is the benchmark's own dense
boolean adjacency matrix, built from the rows of the graph the benchmark
generated, and every certificate, colouring, witness and sweep record is
checked against it.  Each checker returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np


def adjacency(n: int, rows: Sequence[int]) -> np.ndarray:
    """n x n boolean matrix from bitset rows (bit v of rows[u] is edge uv)."""
    nbytes = (n + 7) // 8
    packed = np.frombuffer(
        b"".join(row.to_bytes(nbytes, "little") for row in rows), dtype=np.uint8
    ).reshape(n, nbytes)
    adj = np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(bool)
    if adj.diagonal().any() or not np.array_equal(adj, adj.T):
        raise ValueError("rows do not describe a simple undirected graph")
    return adj


def _vertices_ok(adj: np.ndarray, vertices: Sequence[int]) -> bool:
    n = adj.shape[0]
    in_range = all(isinstance(v, (int, np.integer)) and 0 <= v < n for v in vertices)
    return in_range and len(set(vertices)) == len(vertices)


def check_subdivision(
    adj: np.ndarray,
    branch: Sequence[int],
    paths: Mapping[tuple[int, int], Sequence[int]],
) -> list[str]:
    """A clique subdivision with one length-4 path per non-adjacent branch pair.

    ``paths`` maps (u, v), u < v, to the whole path u, a, b, c, v.
    """
    if not _vertices_ok(adj, list(branch)):
        return ["branch vertices repeat or fall outside the graph"]
    problems = []
    branch_set = set(branch)
    needed = {(u, v) for u, v in combinations(sorted(branch), 2) if not adj[u, v]}
    if needed - set(paths):
        problems.append(f"{len(needed - set(paths))} non-adjacent branch pairs have no path")
    if set(paths) - needed:
        problems.append("a path is stored for an adjacent or non-branch pair")
    used: set[int] = set()
    for (u, v), path in sorted(paths.items()):
        path = list(path)
        if len(path) != 5 or path[0] != u or path[-1] != v:
            problems.append(f"path {u}-{v} is not a length-4 path between its pair")
            continue
        if not _vertices_ok(adj, path):
            problems.append(f"path {u}-{v} repeats a vertex or leaves the graph")
            continue
        if not all(adj[a, b] for a, b in zip(path, path[1:])):
            problems.append(f"path {u}-{v} uses a non-edge")
        interior = set(path[1:-1])
        if interior & branch_set:
            problems.append(f"path {u}-{v} runs through a branch vertex")
        if interior & used:
            problems.append(f"path {u}-{v} shares an interior vertex with another path")
        used |= interior
    return problems


def check_coloring(adj: np.ndarray, colors: Sequence[int], count: int) -> list[str]:
    """Proper colouring of every vertex that uses exactly ``count`` colours."""
    c = np.asarray(colors)
    if c.shape != (adj.shape[0],) or (c < 0).any():
        return ["colouring does not give every vertex a colour"]
    problems = []
    u, v = np.nonzero(np.triu(adj, 1))
    clashes = int(np.count_nonzero(c[u] == c[v]))
    if clashes:
        problems.append(f"colouring is improper on {clashes} edges")
    used = len(np.unique(c))
    if used != count:
        problems.append(f"colouring uses {used} colours, {count} reported")
    return problems


def _check_set(adj: np.ndarray, witness: Sequence[int], size: int, clique: bool) -> list[str]:
    kind = "clique" if clique else "independent set"
    w = list(witness)
    if not _vertices_ok(adj, w):
        return [f"{kind} witness repeats a vertex or leaves the graph"]
    problems = []
    if len(w) != size:
        problems.append(f"{kind} witness has {len(w)} vertices, {size} reported")
    sub = adj[np.ix_(w, w)]
    edges = int(np.count_nonzero(sub)) // 2
    if clique and edges != len(w) * (len(w) - 1) // 2:
        problems.append("clique witness misses an edge")
    if not clique and edges:
        problems.append(f"independent-set witness spans {edges} edges")
    return problems


def check_independent(adj: np.ndarray, witness: Sequence[int], size: int) -> list[str]:
    return _check_set(adj, witness, size, clique=False)


def check_clique(adj: np.ndarray, witness: Sequence[int], size: int) -> list[str]:
    return _check_set(adj, witness, size, clique=True)


def check_sweep_record(adj: np.ndarray, record: Mapping) -> list[str]:
    """Bounds and derived fields of one ratio-sweep record."""
    n = adj.shape[0]
    problems = []
    if record["n"] != n:
        problems.append(f"record n={record['n']} for a graph on {n} vertices")
    max_degree = int(adj.sum(axis=1).max()) if n else 0
    if not 1 <= record["chi_lower"] <= record["chi_upper"] <= max_degree + 1:
        problems.append(
            f"expected 1 <= chi_lower {record['chi_lower']} <= chi_upper "
            f"{record['chi_upper']} <= max degree + 1 = {max_degree + 1}"
        )
    if record["sigma_lower"] < 1 or not math.isclose(
        record["ratio_point"], record["chi_upper"] / record["sigma_lower"], rel_tol=1e-12
    ):
        problems.append("ratio_point is not chi_upper / sigma_lower")
    if not math.isclose(record["reference"], math.sqrt(n) / math.log(n), rel_tol=1e-12):
        problems.append("reference is not sqrt(n) / log(n)")
    return problems
