"""Graph file formats: plain edge lists and graph6 byte encoding.

Edge-list format: optional header line ``n <count>`` declaring the vertex
count, then one ``u v`` pair per line (0-indexed).  graph6 follows the
standard 6-bit byte encoding with upper-triangle bits in column-major
order.  Both formats round-trip exactly.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Union

import numpy as np

from .graphs import Graph, _symmetric_rows, _unpack_rows, new_graph

__all__ = ["ParseError", "read_graph", "write_graph", "to_graph6", "from_graph6"]

_GRAPH6_HEADER = ">>graph6<<"

# rows of the adjacency matrix that the graph6 codec holds unpacked at a
# time, one byte per entry: 128 n bytes
_ROW_BLOCK = 128


class ParseError(ValueError):
    """Malformed graph input; carries a line or byte position."""

    def __init__(self, message: str, *, line: int | None = None, byte: int | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if byte is not None:
            where.append(f"byte {byte}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.line = line
        self.byte = byte


def _parse_edge_list(text: str) -> Graph:
    declared = None
    edges = []
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if lineno != 1 and edges:
                raise ParseError("header line after edges", line=lineno)
            if declared is not None:
                raise ParseError("second header line", line=lineno)
            if len(parts) != 2:
                raise ParseError("header must be 'n <count>'", line=lineno)
            try:
                count = int(parts[1])
            except ValueError:
                count = -1
            if count < 0:
                raise ParseError(f"bad vertex count {parts[1]!r}", line=lineno)
            declared = count
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", line=lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex in {line!r}", line=lineno)
        if u == v:
            raise ParseError(f"loop edge ({u},{u})", line=lineno)
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    if declared is None:
        declared = max_seen + 1
    if max_seen >= declared:
        raise ParseError(f"endpoint {max_seen} exceeds declared vertex count {declared}")
    return new_graph(declared, edges)


def _emit_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _g6_encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126]) + bytes(((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0))
    raise ValueError("graph too large for graph6")


def _g6_decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed)."""
    if not data:
        raise ParseError("empty graph6 data", byte=0)
    if data[0] != 126:
        n = data[0] - 63
        if n < 0:
            raise ParseError(f"bad graph6 size byte {data[0]}", byte=0)
        return n, 1
    # 126 then three size bytes, or 126 126 then six
    start, end = (2, 8) if len(data) >= 2 and data[1] == 126 else (1, 4)
    if len(data) < end:
        raise ParseError("truncated graph6 size", byte=len(data))
    n = 0
    for b in data[start:end]:
        if not 63 <= b <= 126:
            raise ParseError("bad graph6 size byte", byte=start)
        n = (n << 6) | (b - 63)
    return n, end


def _sextets(trios: np.ndarray) -> np.ndarray:
    """k x 4 array of the 6-bit groups of a k x 3 array of bytes, most
    significant bit first: each row's 24 bits, cut in four."""
    b0, b1, b2 = trios.T
    out = np.empty((len(trios), 4), dtype=np.uint8)
    out[:, 0] = b0 >> 2
    out[:, 1] = ((b0 & 3) << 4) | (b1 >> 4)
    out[:, 2] = ((b1 & 15) << 2) | (b2 >> 6)
    out[:, 3] = b2 & 63
    return out


def _trios(sextets: np.ndarray) -> np.ndarray:
    """Inverse of ``_sextets``: the k x 3 bytes whose bits the k x 4 6-bit
    groups hold, in order."""
    s0, s1, s2, s3 = sextets.T
    out = np.empty((len(sextets), 3), dtype=np.uint8)
    out[:, 0] = (s0 << 2) | (s1 >> 4)
    out[:, 1] = (s1 << 4) | (s2 >> 2)
    out[:, 2] = (s2 << 6) | s3
    return out


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 string (no trailing newline).

    Reads ``g.rows`` directly and does not fill the graph's cached
    ``bool_matrix``.  It peaks at about 0.63 n^2 bytes (tracemalloc,
    n = 2000): the n(n-1)/2 pair bits, one byte each, and a block of
    ``_ROW_BLOCK`` unpacked rows.
    """
    n = g.n
    npairs = n * (n - 1) // 2
    # column v of the upper triangle is bits 0..v-1 of row v, so the pair
    # bits are each row's first v bits in turn; padded to whole groups of
    # 24 bits, three bytes or four graph6 characters
    stream = np.zeros(-(-npairs // 24) * 24, dtype=np.uint8)
    for lo in range(0, n, _ROW_BLOCK):
        block = _unpack_rows(n, g.rows[lo : lo + _ROW_BLOCK])
        for v in range(lo, lo + len(block)):
            stream[v * (v - 1) // 2 : v * (v + 1) // 2] = block[v - lo, :v]
    trios = np.packbits(stream).reshape(-1, 3)
    del stream
    body = _sextets(trios).ravel()[: (npairs + 5) // 6]
    body += 63
    return (_g6_encode_n(n) + body.tobytes()).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string (optional ``>>graph6<<`` header allowed).

    Fills the lower triangle ``_ROW_BLOCK`` rows at a time, packs each block
    and mirrors the packed bits, so it never holds an n x n byte matrix.  It
    peaks at about 0.75 n^2 bytes (tracemalloc, n = 2000) while it fills:
    n^2/2 for the unpacked bit string, n^2/8 for the packed rows and one
    block; the input's copies and the 6-bit groups are freed before.
    Positions in a ``ParseError`` count bytes after surrounding whitespace
    and the header.
    """
    s = text.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER) :]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ParseError(
            f"non-ASCII character {s[exc.start]!r} in graph6 data", byte=exc.start
        ) from None
    del s
    n, off = _g6_decode_n(data)
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    size = len(data) - off
    if size != need:
        raise ParseError(
            f"graph6 body has {size} bytes, expected {need} for n={n}",
            byte=off + min(size, need),
        )
    # whole groups of four 6-bit characters, three bytes of the bit string;
    # bytes below 63 wrap to 193..255, so one compare finds every bad byte
    chars = np.zeros((-(-need // 4), 4), dtype=np.uint8)
    vals = chars.reshape(-1)[:need]
    vals[:] = np.frombuffer(data, dtype=np.uint8, offset=off)
    vals -= np.uint8(63)
    bad = np.flatnonzero(vals > 63)
    if bad.size:
        i = int(bad[0])
        raise ParseError(f"bad graph6 byte {data[off + i]}", byte=off + i)
    del data, vals
    trios = _trios(chars)
    del chars
    bits = np.unpackbits(trios.ravel())
    del trios
    if bits[npairs:].any():
        raise ParseError("nonzero padding bits", byte=off + npairs // 6)
    # column v of the upper triangle is row v's first v entries, written
    # contiguously; the packed mirror fills the upper triangle from them
    packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    for lo in range(0, n, _ROW_BLOCK):
        block = np.zeros((min(_ROW_BLOCK, n - lo), n), dtype=bool)
        for v in range(lo, lo + len(block)):
            block[v - lo, :v] = bits[v * (v - 1) // 2 : v * (v + 1) // 2]
        packed[lo : lo + len(block)] = np.packbits(block, axis=1, bitorder="little")
    del bits
    return Graph._trusted(n, _symmetric_rows(packed))


PathOrFile = Union[str, Path, io.TextIOBase]


def read_graph(source: PathOrFile, fmt: str = "edge-list") -> Graph:
    """Read a graph from a path or text stream in the given format.  The
    input alone sets n: an edge list's ``n <count>`` header, else one more
    than its largest endpoint; a graph6 string's size bytes."""
    if fmt not in ("edge-list", "graph6"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    if fmt == "edge-list":
        return _parse_edge_list(text)
    return from_graph6(text)


def write_graph(g: Graph, dest: PathOrFile, fmt: str = "edge-list") -> None:
    """Write a graph to a path or text stream; inverse of :func:`read_graph`."""
    if fmt == "edge-list":
        payload = _emit_edge_list(g)
    elif fmt == "graph6":
        payload = to_graph6(g) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(payload)
    else:
        dest.write(payload)
