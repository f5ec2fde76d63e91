"""Clique-subdivision certificates: greedy construction and verification.

A certificate lists the branch vertices and, for every nonadjacent branch
pair, one explicit path whose interior avoids the branch set and all other
path interiors.  A verified certificate is a sound witness for
sigma(g) >= order no matter how it was produced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import Graph, vertex_mask

__all__ = [
    "SubdivisionCertificate",
    "BuildFailure",
    "VerifyResult",
    "build_subdivision",
    "verify_subdivision",
    "sigma_lower_from_cert",
    "relabel_certificate",
]


@dataclass
class SubdivisionCertificate:
    """Branch set plus one replacement path per nonadjacent branch pair.

    ``paths`` maps (u, v) with u < v to the full vertex sequence of the
    path, endpoints included.  The greedy builder always emits length-4
    paths; the tiny exact oracle may emit other lengths (soundness for the
    subdivision order does not depend on path length).
    """

    branch: tuple[int, ...]
    paths: dict[tuple[int, int], tuple[int, ...]]
    _verified: bool = field(default=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.branch)

    @property
    def verified(self) -> bool:
        return self._verified

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "branch": list(self.branch),
            "paths": [
                {"pair": [u, v], "via": list(self.paths[(u, v)][1:-1])}
                for (u, v) in sorted(self.paths)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(", ", ": "))

    @classmethod
    def from_json_dict(cls, data: dict) -> "SubdivisionCertificate":
        """Inverse of ``to_json_dict``; a missing or malformed field raises
        ``ValueError`` naming it."""

        def ints(obj, key: str, where: str = "") -> tuple[int, ...]:
            try:
                return tuple(int(x) for x in obj[key])
            except (KeyError, TypeError, ValueError):
                raise ValueError(
                    f"certificate field {where}{key} is missing or not a list of ints"
                ) from None

        if not isinstance(data, dict):
            raise ValueError("certificate is not a JSON object")
        branch = ints(data, "branch")
        try:
            order = int(data.get("order", len(branch)))
        except (TypeError, ValueError):
            raise ValueError("certificate field order is not an integer") from None
        if order != len(branch):
            raise ValueError("certificate order disagrees with branch size")
        entries = data.get("paths")
        if not isinstance(entries, list):
            raise ValueError("certificate field paths is missing or not a list")
        paths = {}
        for i, entry in enumerate(entries):
            pair = ints(entry, "pair", f"paths[{i}].")
            if len(pair) != 2:
                raise ValueError(f"certificate field paths[{i}].pair is not 2 vertices")
            u, v = sorted(pair)
            via = ints(entry, "via", f"paths[{i}].")
            paths[(u, v)] = (u,) + via + (v,)
        return cls(branch=branch, paths=paths)

    @classmethod
    def from_json(cls, text: str) -> "SubdivisionCertificate":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class BuildFailure:
    """Structured builder failure: the first unroutable pair and progress."""

    failed_pair: tuple[int, int]
    placed: int
    missing_total: int

    def __str__(self) -> str:
        return (
            f"no length-4 path for pair {self.failed_pair} "
            f"after placing {self.placed}/{self.missing_total} paths"
        )


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    clause: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def build_subdivision(
    g: Graph, s_set: Iterable[int], pool: Iterable[int]
) -> SubdivisionCertificate | BuildFailure:
    """Greedily route one length-4 path per nonadjacent pair of ``s_set``.

    Pairs are processed in lexicographic order; each takes the
    lexicographically smallest interior (a, b, c) drawn from ``pool`` minus
    previously used vertices.  Failure is a result, not an exception, so the
    caller can retry with a smaller branch set.
    """
    branch = tuple(sorted(set(s_set)))
    for v in branch:
        if not 0 <= v < g.n:
            raise ValueError(f"branch vertex {v} out of range")
    pool_mask = vertex_mask(set(pool))
    if pool_mask >> g.n:
        raise ValueError("pool vertex out of range")
    smask = vertex_mask(branch)
    if pool_mask & smask:
        raise ValueError("pool overlaps the branch set")
    missing = _missing_pairs(g.rows, branch)
    avail = pool_mask
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for idx, (u, v) in enumerate(missing):
        found = next(_path_interiors(g.rows, u, v, avail), None)
        if found is None:
            return BuildFailure((u, v), idx, len(missing))
        a, b, c = found
        paths[(u, v)] = (u, a, b, c, v)
        avail &= ~((1 << a) | (1 << b) | (1 << c))
    return SubdivisionCertificate(branch=branch, paths=paths)


def _missing_pairs(rows: tuple[int, ...], branch: Sequence[int]) -> list[tuple[int, int]]:
    """The nonadjacent pairs (u, v), u < v, of the ascending, distinct
    vertices ``branch``, in lexicographic order: one AND of u's non-neighbours
    with the branch vertices above u per vertex u."""
    above = vertex_mask(branch)
    missing = []
    for u in branch:
        above ^= 1 << u
        gaps = above & ~rows[u]
        while gaps:  # bits(gaps) inlined
            low = gaps & -gaps
            missing.append((u, low.bit_length() - 1))
            gaps ^= low
    return missing


def _path_interiors(
    rows: tuple[int, ...], u: int, v: int, avail: int, length: int = 4, lo: int = 0
) -> Iterator[tuple[int, ...]]:
    """Interiors of the u-v paths with ``length`` >= 2 edges whose
    ``length - 1`` interior vertices all lie in ``avail``, which must hold
    neither u nor v.  Interiors come in lexicographic order, and the first
    interior vertex is at least ``lo``.

    Each neighbour a of u in ``avail`` is followed by the interiors of the
    a-v paths with one edge fewer inside ``avail`` without a; at length 2
    the candidates are the common neighbours of u and v, the last hop.
    """
    cand = rows[u] & avail
    if lo:
        cand = cand >> lo << lo
    if length == 2:
        cand &= rows[v]
    while cand:  # bits(cand) inlined, one generator fewer per level
        low = cand & -cand
        a = low.bit_length() - 1
        cand ^= low
        if length == 2:
            yield (a,)
        else:
            for rest in _path_interiors(rows, a, v, avail ^ low, length - 1):
                yield (a, *rest)


def verify_subdivision(
    g: Graph, cert: SubdivisionCertificate, exact_length: Optional[int] = None
) -> VerifyResult:
    """Check a certificate bit-by-bit against ``g``.

    Returns pass/fail with the first violated clause.  ``exact_length``
    additionally pins every stored path to that many edges (the greedy
    builder contract uses 4).  A pass marks the certificate verified.
    """

    def fail(clause: str) -> VerifyResult:
        return VerifyResult(False, clause)

    seen = set()
    for v in cert.branch:
        if not (isinstance(v, int) and 0 <= v < g.n):
            return fail("branch vertex out of range")
        if v in seen:
            return fail("duplicate branch vertex")
        seen.add(v)
    smask = vertex_mask(cert.branch)
    expected = set(_missing_pairs(g.rows, sorted(cert.branch)))
    stored = set(cert.paths)
    if stored - expected:
        return fail("path stored for a pair that is adjacent or outside the branch set")
    if expected - stored:
        return fail("missing path for nonadjacent branch pair")
    used_interior = 0
    for (u, v) in sorted(cert.paths):
        path = cert.paths[(u, v)]
        if len(path) < 3:
            return fail("path too short")
        if path[0] != u or path[-1] != v:
            return fail("path endpoints disagree with pair")
        if exact_length is not None and len(path) - 1 != exact_length:
            return fail(f"path length is not {exact_length}")
        if len(set(path)) != len(path):
            return fail("path repeats a vertex")
        for w in path:
            if not (0 <= w < g.n):
                return fail("path vertex out of range")
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                return fail("non-edge on path")
        interior = vertex_mask(path[1:-1])
        if interior & smask:
            return fail("path interior touches the branch set")
        if interior & used_interior:
            return fail("interior overlap")
        used_interior |= interior
    cert._verified = True
    return VerifyResult(True)


def sigma_lower_from_cert(cert: SubdivisionCertificate) -> int:
    """The subdivision order witnessed by a previously verified certificate."""
    if not cert.verified:
        raise ValueError("certificate has not been verified against a graph")
    return cert.order


def relabel_certificate(
    cert: SubdivisionCertificate, mapping: tuple[int, ...]
) -> SubdivisionCertificate:
    """Lift a certificate from an induced subgraph back to parent labels.

    ``mapping`` is the index map returned by :func:`cliquesub.graphs.induced`.
    The result is unverified; re-verify against the parent graph.
    """
    branch = tuple(sorted(mapping[v] for v in cert.branch))
    paths = {}
    for (u, v), path in cert.paths.items():
        pu, pv = mapping[u], mapping[v]
        lifted = tuple(mapping[w] for w in path)
        if pu > pv:
            pu, pv = pv, pu
            lifted = tuple(reversed(lifted))
        paths[(pu, pv)] = lifted
    return SubdivisionCertificate(branch=branch, paths=paths)
