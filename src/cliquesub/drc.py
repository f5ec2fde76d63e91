"""Dependent random choice: extract a vertex set in which every pair is
joined by many internally disjoint length-4 paths.

The partition step redraws a balanced bipartition until the crossing-edge
bound e(V1,V2) >= (d/2)*C(n,2) holds (an expectation argument guarantees a
satisfying draw exists).  The hub step is derandomized: it scans every
candidate hub in V2, scoring |X|^2 - 40*b exactly, so certificates are
reproducible.  Pair common-neighbor counts come from dense matrix products
over square tiles of V1 x V1, so the scan is feasible at n ~ 6400 while only
one tile of the pair matrix exists at a time.  Extraction has no density
gate: the dense route owns d^2*n >= 1600.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .graphs import Graph, _unpack_rows, edge_density, vertex_mask
from .subdivision import _path_interiors

__all__ = [
    "DrcCertificate",
    "PartitionError",
    "drc_partition",
    "drc_select",
    "count_disjoint_paths4",
    "verify_drc_certificate",
]


class PartitionError(RuntimeError):
    """All redraw attempts missed the crossing bound (pathological rounding)."""

    def __init__(self, attempts: int, best: tuple[tuple[int, ...], tuple[int, ...]], crossing: int):
        super().__init__(
            f"no bipartition met the crossing bound in {attempts} attempts"
        )
        self.best_partition = best
        self.best_crossing = crossing


@dataclass(frozen=True)
class DrcCertificate:
    """Transcript of one derandomized extraction.

    ``good_threshold`` is floor(d^2*n/800): a pair is bad iff its
    common-neighbor count on the far side is <= this cutoff.  The
    certificate records no path count: the routes' evidence is the verified
    length-4 subdivision built on U.
    """

    v1: tuple[int, ...]
    v2: tuple[int, ...]
    hub: int
    x_set: tuple[int, ...]
    bad_pair_count: int
    u_set: tuple[int, ...]
    good_threshold: int


# Bipartition draws before drc_partition gives up.
PARTITION_ATTEMPTS = 64


def drc_partition(g: Graph, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Balanced bipartition with e(V1,V2) >= (d/2)*C(n,2), i.e. >= m/2.

    Deterministic given the seed; redraws until the bound holds and raises
    :class:`PartitionError` carrying the best draw if attempts run out.
    """
    n = g.n
    if n < 2:
        raise ValueError("partition needs n >= 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    half = (n + 1) // 2
    best = None
    best_crossing = -1
    for _ in range(PARTITION_ATTEMPTS):
        perm = rng.permutation(n)
        v1 = tuple(sorted(int(x) for x in perm[:half]))
        v2 = tuple(sorted(int(x) for x in perm[half:]))
        crossing = crossing_edges(g, v1, v2)
        if 2 * crossing >= g.m:
            return v1, v2
        if crossing > best_crossing:
            best, best_crossing = (v1, v2), crossing
    raise PartitionError(PARTITION_ATTEMPTS, best, best_crossing)


def crossing_edges(g: Graph, v1: Iterable[int], v2: Iterable[int]) -> int:
    v2mask = vertex_mask(v2)
    return sum((g.rows[v] & v2mask).bit_count() for v in v1)


# rows and columns of one tile of the V1 x V1 pair matrix in the hub scan
_SCAN_BLOCK = 256


def _bad_pairs_per_hub(a: np.ndarray, tau: int, block: int = _SCAN_BLOCK) -> np.ndarray:
    """Bad pairs inside X_j for every hub column j, as int64.

    ``a`` is the 0/1 adjacency between V1 (rows) and V2 (columns) as floats.
    A pair of V1 is bad iff its common-neighbor count a @ a.T is <= tau.
    The pair matrix is symmetric, so only the tiles on and above its
    diagonal are formed, one ``block`` x ``block`` tile at a time; a tile
    with no bad pair costs no second product.  Tile sums are at most
    block^2, so every float is an exact integer.
    """
    k = a.shape[0]
    ordered = np.zeros(a.shape[1], dtype=np.int64)  # ordered bad pairs per hub
    for lo in range(0, k, block):
        rows = a[lo : lo + block]
        for lo2 in range(lo, k, block):
            cols = a[lo2 : lo2 + block]
            bad = rows @ cols.T <= tau
            if lo2 == lo:
                np.fill_diagonal(bad, False)
            if not bad.any():
                continue
            tile = np.einsum("ij,ij->j", rows, bad.astype(a.dtype) @ cols)
            # an off-diagonal tile stands for itself and its transpose
            ordered += (1 if lo2 == lo else 2) * tile.astype(np.int64)
    return ordered // 2


def drc_select(g: Graph, v1: Iterable[int], v2: Iterable[int]) -> DrcCertificate:
    """Derandomized hub selection over all of V2.

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
    # float32 is exact for integers below 2^24, and no count or sum in this
    # scan exceeds max(|V1|, _SCAN_BLOCK^2).  Only the V1 rows are unpacked:
    # the scan builds and caches no n x n matrix.
    a = _unpack_rows(n, [g.rows[v] for v in v1])[:, v2].astype(np.float32)
    b_per_hub = _bad_pairs_per_hub(a, tau)
    x_sizes = a.sum(axis=0).astype(np.int64)
    scores = x_sizes * x_sizes - 40 * b_per_hub
    j = int(np.argmax(scores))  # first maximum = lowest hub label
    hub = v2[j]
    score = int(scores[j])
    # existence is guaranteed by the expectation argument whenever the
    # partition met its contract; a miss here is a bug, not an input error
    if Fraction(score) < d * d * n * n / 80:
        raise AssertionError(
            "no hub met the derandomization bound; partition contract violated"
        )
    x_idx = np.nonzero(a[:, j])[0]
    x_set = tuple(int(v1[i]) for i in x_idx)
    x_size = len(x_set)
    # recount inside X alone, in row blocks, as a check on the scan
    bad_counts = np.empty(x_size, dtype=np.int64)
    for lo in range(0, x_size, _SCAN_BLOCK):
        bad = (a[x_idx[lo : lo + _SCAN_BLOCK]] @ a.T)[:, x_idx] <= tau
        np.fill_diagonal(bad[:, lo:], False)
        bad_counts[lo : lo + _SCAN_BLOCK] = bad.sum(axis=1)
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


# ---------------------------------------------------------------------------
# internally disjoint length-4 path packing


def count_disjoint_paths4(
    g: Graph,
    u: int,
    v: int,
    forbidden: Iterable[int] = (),
    limit: Optional[int] = None,
) -> int:
    """Maximum number of internally vertex-disjoint u-v paths with exactly
    4 edges whose interiors avoid ``forbidden``.

    Exact: a complete backtracking packing search, cut by a counting bound
    (each path uses a neighbour of u, a neighbour of v and three interior
    vertices).  With ``limit`` the search stops as soon as ``limit``
    disjoint paths are found and returns ``min(maximum, limit)``, which is
    how callers should use it on large graphs.
    """
    if u == v:
        raise ValueError("endpoints must differ")
    fmask = vertex_mask(forbidden)
    if (fmask >> u) & 1 or (fmask >> v) & 1:
        raise ValueError("endpoints may not be forbidden")
    avail0 = g.full_mask() & ~fmask & ~(1 << u) & ~(1 << v)
    rows = g.rows

    def ub(avail: int) -> int:
        return min(
            (rows[u] & avail).bit_count(),
            (rows[v] & avail).bit_count(),
            avail.bit_count() // 3,
        )

    target = ub(avail0)
    if limit is not None:
        target = min(target, limit)
    if target <= 0:
        return 0

    # Depth-first packing search on an explicit stack, so the depth (one
    # level per packed path, up to ``target``) is not bounded by Python's
    # recursion limit.  A packing is searched in increasing order of its
    # paths' first interior vertices, which differ as the paths are
    # disjoint.  Frame i holds the vertices still available after i paths
    # and the iterator over the (a, b, c) interiors to try next; a frame
    # pushed after the interior (a, b, c) starts its paths above a.
    best = 0
    stack = [(avail0, _path_interiors(rows, u, v, avail0))]
    while stack:
        avail, interiors = stack[-1]
        step = next(interiors, None)
        if step is None:
            stack.pop()
            continue
        a, b, c = step
        count = len(stack)
        child = avail & ~((1 << a) | (1 << b) | (1 << c))
        if count > best:
            best = count
            if best >= target:
                break
        if count + ub(child) > best:
            stack.append((child, _path_interiors(rows, u, v, child, lo=a + 1)))
    return best


def verify_drc_certificate(g: Graph, cert: DrcCertificate) -> list[tuple[str, bool]]:
    """Recompute every certificate invariant exactly; returns (name, ok) pairs."""
    n = g.n
    d = edge_density(g)
    checks: list[tuple[str, bool]] = []
    v1, v2 = cert.v1, cert.v2
    checks.append(
        ("partition", set(v1) | set(v2) == set(range(n)) and not set(v1) & set(v2))
    )
    crossing = crossing_edges(g, v1, v2)
    checks.append(("crossing >= (d/2)*C(n,2)", 2 * crossing >= g.m))
    checks.append(("threshold = floor(d^2*n/800)", cert.good_threshold == d * d * n // 800))
    v2mask = vertex_mask(v2)
    x_expected = tuple(sorted(w for w in v1 if g.has_edge(cert.hub, w)))
    checks.append(("x = N(hub) in v1", x_expected == cert.x_set))
    xs = len(cert.x_set)
    # recount bad pairs inside X on the far side
    bad_counts = {}
    b = 0
    for i, w in enumerate(cert.x_set):
        cnt = 0
        for w2 in cert.x_set:
            if w2 == w:
                continue
            cn = (g.rows[w] & g.rows[w2] & v2mask).bit_count()
            if cn <= cert.good_threshold:
                cnt += 1
        bad_counts[w] = cnt
        b += cnt
    b //= 2
    checks.append(("bad-pair count", b == cert.bad_pair_count))
    score = Fraction(xs * xs - 40 * b)
    checks.append(("|X|^2 - 40b >= d^2*n^2/80", score >= d * d * n * n / 80))
    checks.append(("|X| >= d*n/10", Fraction(10 * xs) >= d * n))
    checks.append(("b <= |X|^2/40", Fraction(40 * b) <= Fraction(xs * xs)))
    checks.append(
        ("u members not bad", all(4 * bad_counts[w] < xs for w in cert.u_set))
    )
    survivors = [w for w in cert.x_set if 4 * bad_counts[w] < xs]
    u_size = -(-xs // 5)
    checks.append(("u = first ceil(|X|/5) survivors", cert.u_set == tuple(survivors[:u_size])))
    checks.append(("|U| >= d*n/50", Fraction(50 * len(cert.u_set)) >= d * n))
    return checks
