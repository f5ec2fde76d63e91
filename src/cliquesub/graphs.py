"""Immutable bitset graphs: constructors, induced-subgraph algebra, G(n,p)."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "new_graph",
    "edge_density",
    "complement",
    "induced",
    "gen_gnp",
    "bits",
    "vertex_mask",
]

# doubles per generator call in ``gen_gnp``: a 512 KB temporary
GNP_DRAW_BLOCK = 1 << 16

# side of the square blocks in which the symmetric-matrix passes walk an
# n x n matrix: a block and its transposed mirror both stay in cache, where
# a whole-matrix transpose reads one of them with stride n
_TILE = 256


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Adjacency is stored as one Python int per vertex (bit v of ``rows[u]``
    set iff uv is an edge), so common-neighbor counts are word-parallel
    popcounts.  Instances are immutable and safe to share.
    """

    __slots__ = ("n", "rows", "m", "_mat")

    def __init__(self, n: int, rows: Sequence[int]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        rows = tuple(rows)
        for v, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {v} has bits beyond vertex range")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        # the matrix is not cached: a caller that never needs it should not
        # hold n^2 bytes for the check, which peaks at that one matrix plus
        # its n^2/8 packed bytes and makes no transposed copy
        mat = _unpack_rows(n, rows)
        if not _is_symmetric(mat):
            u, v = np.argwhere(mat > mat.T)[0]
            raise ValueError(f"adjacency not symmetric at ({u},{v})")
        self._set(n, rows)

    @classmethod
    def _trusted(cls, n: int, rows: Sequence[int]) -> "Graph":
        """A graph on rows that are in range, loop-free and symmetric by
        construction; skips the constructor's checks."""
        g = cls.__new__(cls)
        g._set(n, tuple(rows))
        return g

    def _set(self, n: int, rows: tuple[int, ...]) -> None:
        self.n = n
        self.rows = rows
        self.m = sum(r.bit_count() for r in rows) // 2
        self._mat = None

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    yield (u, v)
                row >>= 1
                v += 1

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def bool_matrix(self) -> np.ndarray:
        """Dense n x n boolean adjacency matrix (cached).

        The cache holds n^2 bytes for the life of the graph: 9 MB at
        n = 3000, 41 MB at n = 6400.
        """
        if self._mat is None:
            mat = _unpack_rows(self.n, self.rows)
            self._mat = mat.astype(bool)
            self._mat.setflags(write=False)
        return self._mat

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _unpack_rows(n: int, rows: Sequence[int]) -> np.ndarray:
    """len(rows) x n uint8 matrix whose entry (i, j) is bit j of ``rows[i]``."""
    nbytes = (n + 7) // 8
    buf = bytearray(len(rows) * nbytes)
    for v, row in enumerate(rows):
        buf[v * nbytes : (v + 1) * nbytes] = row.to_bytes(nbytes, "little")
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(arr, axis=1, bitorder="little", count=n)


def _tile_pairs(n: int) -> Iterator[tuple[tuple[slice, slice], tuple[slice, slice]]]:
    """Yield the index of each ``_TILE`` x ``_TILE`` block of an n x n matrix
    on or above the diagonal, with the index of its mirror block."""
    for lo in range(0, n, _TILE):
        rows = slice(lo, lo + _TILE)
        for col in range(lo, n, _TILE):
            cols = slice(col, col + _TILE)
            yield (rows, cols), (cols, rows)


def _mirror(mat: np.ndarray) -> None:
    """``mat |= mat.T`` in place, one tile pair at a time: no n x n temporary."""
    for up, low in _tile_pairs(len(mat)):
        both = mat[up] | mat[low].T
        mat[up] = both
        mat[low] = both.T


def _is_symmetric(mat: np.ndarray) -> bool:
    """Whether ``mat`` equals its transpose, checked one tile pair at a time."""
    return all(np.array_equal(mat[up], mat[low].T) for up, low in _tile_pairs(len(mat)))


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; edges are deduplicated and symmetrized."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u},{v}) with n={n}")
        if u == v:
            raise ValueError(f"loop edge ({u},{u}) not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._trusted(n, rows)


def edge_density(g: Graph) -> Fraction:
    """Edge density |E| / C(n,2), exactly."""
    if g.n <= 1:
        return Fraction(0)
    return Fraction(g.m, g.n * (g.n - 1) // 2)


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    rows = [(full ^ row) & ~(1 << v) for v, row in enumerate(g.rows)]
    return Graph._trusted(g.n, rows)


def _pack_rows(mat: np.ndarray) -> list[int]:
    """Adjacency rows of a k x k bool matrix: bit j of row i is ``mat[i, j]``."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def induced(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``s``.

    Returns ``(h, mapping)`` where ``mapping[i]`` is the vertex of ``g``
    that vertex ``i`` of ``h`` came from (ascending label order).  Only the
    selected rows are unpacked, so this costs k rows of width n and never
    fills ``g``'s n x n matrix cache.
    """
    sel = sorted(set(s))
    for v in sel:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    rows = _pack_rows(_unpack_rows(g.n, [g.rows[v] for v in sel])[:, sel])
    return Graph._trusted(len(sel), rows), tuple(sel)


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n,p); deterministic for a given 64-bit seed.

    Fills one n x n bool matrix and mirrors it in place, with no transposed
    copy: it peaks at the matrix, its packed rows and the draw block, about
    1.3 n^2 bytes (5 MB) at n = 2000.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} outside [0,1]")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    mat = np.zeros((n, n), dtype=bool)
    # Row i takes the next n-1-i doubles of one stream, drawn at most
    # GNP_DRAW_BLOCK at a time: the same doubles as one draw per row.
    left = n * (n - 1) // 2
    drawn, at = np.empty(0, dtype=bool), 0
    for i in range(n - 1):
        j = i + 1
        while j < n:
            if at == drawn.size:
                size = min(GNP_DRAW_BLOCK, left)
                drawn, at, left = rng.random(size) < p, 0, left - size
            take = min(n - j, drawn.size - at)
            mat[i, j : j + take] = drawn[at : at + take]
            j += take
            at += take
    _mirror(mat)
    return Graph._trusted(n, _pack_rows(mat))
