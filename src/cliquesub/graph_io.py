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

from .graphs import Graph, _mirror, _pack_rows, new_graph

__all__ = ["ParseError", "read_graph", "write_graph", "to_graph6", "from_graph6"]

_GRAPH6_HEADER = ">>graph6<<"


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


def _parse_edge_list(text: str, n: int | None) -> Graph:
    declared = n
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
            if len(parts) != 2:
                raise ParseError("header must be 'n <count>'", line=lineno)
            try:
                declared = int(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex count {parts[1]!r}", line=lineno) from None
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


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 string (no trailing newline).

    Reads ``g.rows`` directly and does not fill the graph's cached
    ``bool_matrix``.  Its temporaries are the n(n-1)/2 pair bits, one byte
    each, held twice while they are joined: about n^2 bytes.
    """
    n = g.n
    cols = []
    for v in range(1, n):
        # column v of the upper triangle is bits 0..v-1 of row v
        low = (g.rows[v] & ((1 << v) - 1)).to_bytes((v + 7) // 8, "little")
        cols.append(np.unpackbits(np.frombuffer(low, np.uint8), bitorder="little", count=v))
    cols.append(np.zeros(-(n * (n - 1) // 2) % 6, dtype=np.uint8))
    bits = np.concatenate(cols).reshape(-1, 6)
    body = (np.packbits(bits, axis=1)[:, 0] >> 2) + 63
    return (_g6_encode_n(n) + body.tobytes()).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string (optional ``>>graph6<<`` header allowed).

    Builds the graph through a temporary dense n x n bool matrix, mirrored
    in place.  It peaks at about 1.75 n^2 bytes (tracemalloc), 7 MB at
    n = 2000, while it fills the matrix: n^2 for the matrix, n^2/2 for the
    unpacked bit string, the rest for copies of the input.  The bit string
    is freed before the mirror and the packing.  Positions in a
    ``ParseError`` count bytes after surrounding whitespace and the header.
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
    n, off = _g6_decode_n(data)
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    body = data[off:]
    if len(body) != need:
        raise ParseError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}",
            byte=off + min(len(body), need),
        )
    # bytes below 63 wrap to 193..255, so one compare finds every bad byte
    vals = np.frombuffer(body, dtype=np.uint8) - np.uint8(63)
    bad = np.flatnonzero(vals > 63)
    if bad.size:
        i = int(bad[0])
        raise ParseError(f"bad graph6 byte {body[i]}", byte=off + i)
    bits = np.unpackbits((vals << 2)[:, None], axis=1, count=6).ravel()
    if bits[npairs:].any():
        raise ParseError("nonzero padding bits", byte=off + npairs // 6)
    mat = np.zeros((n, n), dtype=bool)
    # column v of the upper triangle is row v's first v entries, written
    # contiguously; the mirror fills the upper triangle from them
    for v in range(1, n):
        mat[v, :v] = bits[v * (v - 1) // 2 : v * (v + 1) // 2]
    del bits, vals  # the mirror and the packing need only the matrix
    _mirror(mat)
    return Graph._trusted(n, _pack_rows(mat))


PathOrFile = Union[str, Path, io.TextIOBase]


def read_graph(source: PathOrFile, fmt: str = "edge-list", n: int | None = None) -> Graph:
    """Read a graph from a path or text stream in the given format."""
    if fmt not in ("edge-list", "graph6"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    if fmt == "edge-list":
        return _parse_edge_list(text, n)
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
