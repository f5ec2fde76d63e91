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

# (mask, shift) of the three delta swaps that transpose an 8 x 8 bit block
# held in a uint64, byte r holding row r: 2 x 2, then 4 x 4, then 8 x 8
_BLOCK_SWAPS = (
    (np.uint64(0x00AA00AA00AA00AA), np.uint64(7)),
    (np.uint64(0x0000CCCC0000CCCC), np.uint64(14)),
    (np.uint64(0x00000000F0F0F0F0), np.uint64(28)),
)


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
        # packed bits only, n^2/8 bytes per array: the check peaks at about
        # 0.4 n^2 bytes above the rows it is given (tracemalloc, n = 2000)
        # and never unpacks the matrix
        packed = _row_bytes(n, rows)
        one_way = _transpose_bits(packed)
        np.invert(one_way, out=one_way)
        one_way &= packed
        if one_way.any():
            u = int(np.flatnonzero(one_way.any(axis=1))[0])
            v = int(np.flatnonzero(np.unpackbits(one_way[u], bitorder="little"))[0])
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


def _row_bytes(n: int, rows: Sequence[int]) -> np.ndarray:
    """len(rows) x ceil(n/8) uint8 array: row i holds ``rows[i]``'s bytes,
    least significant first, so bit j of row i is bit j % 8 of byte j // 8."""
    nbytes = (n + 7) // 8
    buf = bytearray(len(rows) * nbytes)
    for v, row in enumerate(rows):
        buf[v * nbytes : (v + 1) * nbytes] = row.to_bytes(nbytes, "little")
    return np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)


def _unpack_rows(n: int, rows: Sequence[int]) -> np.ndarray:
    """len(rows) x n uint8 matrix whose entry (i, j) is bit j of ``rows[i]``."""
    return np.unpackbits(_row_bytes(n, rows), axis=1, bitorder="little", count=n)


def _rows_of(packed: np.ndarray) -> list[int]:
    """Adjacency rows of a packed matrix laid out as ``_row_bytes`` lays it."""
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _transpose_bits(packed: np.ndarray) -> np.ndarray:
    """Transpose of an n x n bit matrix packed as ``_row_bytes`` packs it.

    Each 8 x 8 block (rows 8i..8i+7, byte column j) is gathered into one
    uint64, transposed there by three delta swaps and written back as block
    (j, i).  Every temporary has about n^2/8 bytes, as ``packed`` has; bits
    past column n - 1 must be clear, and stay clear in the result.
    """
    n, nb = packed.shape
    q, r = divmod(n, 8)
    # blocks[i, j, k] is byte j of row 8i + k; rows from n on are zero
    blocks = np.zeros((nb, nb, 8), dtype=np.uint8)
    blocks[:q].transpose(0, 2, 1)[...] = packed[: 8 * q].reshape(q, 8, nb)
    if r:
        blocks[q, :, :r] = packed[8 * q :].T
    x = blocks.view("<u8")[..., 0]
    t = np.empty_like(x)
    for mask, shift in _BLOCK_SWAPS:
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    del t
    # byte k of word (i, j) is now bit row 8j + k of byte column i
    out = np.ascontiguousarray(blocks.transpose(1, 2, 0)).reshape(8 * nb, nb)
    return out[:n]


def _symmetric_rows(packed: np.ndarray) -> list[int]:
    """Rows of ``M | M.T`` for the n x n bit matrix M packed in ``packed``,
    such as one triangle of an undirected graph's adjacency."""
    both = _transpose_bits(packed)
    both |= packed
    return _rows_of(both)


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
    return _rows_of(np.packbits(mat, axis=1, bitorder="little"))


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

    Fills the upper triangle of one n x n bool matrix, packs it, frees it
    and mirrors the packed bits: it peaks at the matrix, its packed rows and
    the draw block, about 1.16 n^2 bytes (4.6 MB, tracemalloc) at n = 2000.
    Filling it in row blocks peaked lower but made glibc trim and regrow
    its heap, about 500 minor page faults per G(3000) where this makes none.
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
    packed = np.packbits(mat, axis=1, bitorder="little")
    del mat
    return Graph._trusted(n, _symmetric_rows(packed))
