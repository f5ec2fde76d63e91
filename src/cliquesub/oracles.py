"""Exact small-scale oracles: independence/clique/chromatic numbers, tiny
exact subdivision search, and the counting-based subdivision upper bound.

Every oracle returns a tagged result; downstream code must check the tag
before treating a value as exact.  Budgets are node-expansion counts, not
wall time, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .graphs import (
    Graph,
    _pack_rows,
    _unpack_rows,
    bits,
    complement,
    edge_density,
    vertex_mask,
)
from .subdivision import SubdivisionCertificate, _missing_pairs, _path_interiors

__all__ = [
    "Tagged",
    "ColoringResult",
    "SigmaSearchResult",
    "SigmaUpperCert",
    "GraphStats",
    "alpha_exact",
    "greedy_clique_lower",
    "omega_exact",
    "chi_exact",
    "dsatur_upper",
    "sigma_exact_tiny",
    "sigma_exact_value",
    "sigma_upper_cert",
    "turan_density_bound",
    "graph_stats",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 2_000_000

TAG_EXACT = "exact"
TAG_HEURISTIC = "heuristic"
TAG_EXCEEDED = "exceeded"


@dataclass(frozen=True)
class Tagged:
    """An oracle value with its witness and exactness tag."""

    value: int
    witness: tuple[int, ...]
    tag: str
    nodes: int = 0

    @property
    def exact(self) -> bool:
        return self.tag == TAG_EXACT


def _greedy_clique(rows: tuple[int, ...], cand: int) -> int:
    """Greedy max-degree clique inside ``cand``; returns a vertex mask."""
    clique = 0
    while cand:
        best_v, best_deg = -1, -1
        for v in bits(cand):
            dv = (rows[v] & cand).bit_count()
            if dv > best_deg:
                best_v, best_deg = v, dv
        clique |= 1 << best_v
        cand &= rows[best_v]
    return clique


def _improve_swaps(rows: tuple[int, ...], clique: int, full: int) -> int:
    """(1,2)-swap local search: drop one clique vertex, add two outsiders."""
    improved = True
    while improved:
        improved = False
        for v in bits(clique):
            rest = clique & ~(1 << v)
            # candidates adjacent to every remaining clique vertex
            cand = full & ~clique
            for w in bits(rest):
                cand &= rows[w]
            cand &= ~(1 << v)
            for a in bits(cand):
                second = cand & rows[a]
                if second:
                    b = (second & -second).bit_length() - 1
                    clique = rest | (1 << a) | (1 << b)
                    improved = True
                    break
            if improved:
                break
    return clique


# _BYTE_REVERSED[b] is the byte b with its eight bits in reverse order
_BYTE_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class _Frame:
    """A vertex set relabelled for the clique search.

    Position q of a k-vertex frame holds ``labels[q]``, the (k-1-q)-th
    lowest of its original labels, so the lowest label of a set is its
    highest bit and is found with ``bit_length``.  ``rows[q]`` is q's
    neighbourhood inside the frame as a k-bit int, and ``nrows[q]`` is the
    complement of q's closed neighbourhood, so one AND drops q and its
    neighbours from a colour class.
    """

    __slots__ = ("rows", "nrows", "labels")

    def __init__(self, rows: list[int], labels: list[int]):
        full = (1 << len(rows)) - 1
        self.rows = rows
        self.nrows = [full ^ (row | 1 << q) for q, row in enumerate(rows)]
        self.labels = labels


def _root_frame(rows: Sequence[int], n: int) -> _Frame:
    """The frame of the whole graph: row v bit-reversed into position n-1-v,
    one row at a time, through a byte-reversal table."""
    nbytes = (n + 7) // 8
    shift = 8 * nbytes - n
    frows = [
        int.from_bytes(row.to_bytes(nbytes, "little").translate(_BYTE_REVERSED), "big")
        >> shift
        for row in reversed(rows)
    ]
    return _Frame(frows, list(range(n - 1, -1, -1)))


def _compact_frame(frame: _Frame, keep: int) -> tuple[_Frame, dict[int, int]]:
    """The frame of the positions in ``keep``, in the same order, and the map
    from their old positions to their new ones.

    Ascending old positions become 0, 1, ..., so label order is kept.  The
    rows of ``keep`` are unpacked, their ``keep`` columns selected and the
    result packed again, which costs k rows of the old width in numpy.
    """
    pos = list(bits(keep))
    width = len(frame.rows)
    rows = _pack_rows(_unpack_rows(width, [frame.rows[p] for p in pos])[:, pos])
    labels = frame.labels
    return _Frame(rows, [labels[p] for p in pos]), {p: i for i, p in enumerate(pos)}


def _max_clique_core(rows: Sequence[int], n: int, budget: int) -> Tagged:
    """Branch-and-bound maximum clique with greedy-coloring pruning.

    A node colours its candidates greedily, lowest label first, one colour
    class at a time, and branches on them from the highest colour down
    until rsize + colour <= best_size.  Only vertices coloured above
    kmin = best_size - rsize at node entry are listed for branching
    (Konc & Janezic, MaxCliqueDyn, 2007): best_size never falls, so the
    branching loop would stop at the first vertex at or below kmin, and
    skipping them leaves the search tree, the node count and the witness
    unchanged.  A branch on v gets v's neighbours among the candidates
    ordered before v, unlisted ones included: ``remaining`` is ``cand``
    without v and the vertices listed after it.

    Vertex sets are ints over a ``_Frame`` whose positions reverse label
    order (the bitboard layout of San Segundo et al., BBMC, 2011), so a
    node picks the lowest label with ``bit_length`` and drops it with one
    XOR.  The root frame is the whole graph.  A node whose candidate set
    has k vertices moves ``remaining`` and its pending branches into a
    compact frame of ``remaining`` once its subtree has expanded k nodes,
    if its frame is at least 4k wide, so the deep nodes, where the search
    spends its time, work on ints of a few digits.  Relabelling keeps
    label order, so the tree is the one the whole-graph frame would give.
    Beyond the root, each level of the recursion path holds at most one
    frame of at most k k-bit ints.
    """
    if n == 0:
        return Tagged(0, (), TAG_EXACT, 0)
    full = (1 << n) - 1
    incumbent = _improve_swaps(rows, _greedy_clique(rows, full), full)
    best_size = incumbent.bit_count()
    best_clique = tuple(bits(incumbent))
    nodes = 0
    exhausted = True
    bit = [1 << q for q in range(n)]
    path: list[int] = []  # labels of the current clique

    def expand(rsize: int, cand: int, frame: _Frame) -> None:
        nonlocal best_size, best_clique, nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = False
            return
        start = nodes
        frows, nrows = frame.rows, frame.nrows
        kmin = best_size - rsize
        order: list[int] = []
        colors: list[int] = []
        uncolored = cand
        c = 0
        while uncolored:
            c += 1
            avail = uncolored
            if c > kmin:
                while avail:
                    q = avail.bit_length() - 1
                    order.append(q)
                    colors.append(c)
                    avail &= nrows[q]
                    uncolored ^= bit[q]
            else:
                while avail:
                    q = avail.bit_length() - 1
                    avail &= nrows[q]
                    uncolored ^= bit[q]
        k = cand.bit_count()
        movable = len(frows) >= 4 * k
        remaining = cand
        for i in range(len(order) - 1, -1, -1):
            if not exhausted:
                return
            if rsize + colors[i] <= best_size:
                return
            if movable and nodes - start >= k:
                movable = False
                frame, moved = _compact_frame(frame, remaining)
                frows = frame.rows
                order = [moved[q] for q in order[: i + 1]]
                remaining = (1 << len(frows)) - 1
            q = order[i]
            remaining ^= bit[q]
            new_cand = remaining & frows[q]
            v = frame.labels[q]
            if rsize + 1 > best_size:
                best_size = rsize + 1
                best_clique = (*path, v)
            if new_cand:
                path.append(v)
                expand(rsize + 1, new_cand, frame)
                path.pop()

    expand(0, full, _root_frame(rows, n))
    # expand calls itself through its closure cell, a reference cycle that
    # would keep the frames alive until the next full gc; unbind it now.
    del expand
    tag = TAG_EXACT if exhausted else TAG_HEURISTIC
    return Tagged(best_size, tuple(sorted(best_clique)), tag, nodes)


def greedy_clique_lower(g: Graph) -> Tagged:
    """Cheap clique witness; always a sound chromatic lower bound."""
    mask = _greedy_clique(g.rows, g.full_mask()) if g.n else 0
    mask = _improve_swaps(g.rows, mask, g.full_mask()) if mask else mask
    return Tagged(mask.bit_count(), tuple(bits(mask)), TAG_HEURISTIC)


def alpha_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> Tagged:
    """Independence number with witness; heuristic lower bound on budget exhaustion."""
    return _max_clique_core(complement(g).rows, g.n, budget)


def omega_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> Tagged:
    """Clique number with witness; independence oracle applied to the complement."""
    return _max_clique_core(g.rows, g.n, budget)


def _key_scale(n: int, max_deg: int) -> int:
    """Exponent s of the DSATUR key's tie-break scale 2**-s.

    The tie-break deg*n + (n-1-v) is below n*(D+1) < 2**s, and every key,
    before or after a bump, lies within D+2 of zero, so it is i * 2**-s for
    an integer |i| < 2**(s + bit_length(D+2)).  Float64 holds each such
    value exactly when i has at most 53 bits; requiring at most 52 leaves
    one bit of headroom.  Larger (n, D) raise ``ValueError``.
    """
    s = (n * (max_deg + 1)).bit_length()
    if s + (max_deg + 2).bit_length() + 1 > 53:
        raise ValueError(
            f"DSATUR key exceeds float64 precision at n={n}, maximum degree D={max_deg}"
        )
    return s


class _SaturationOrder:
    """DSATUR pick order as numpy state, shared by both colouring searches.

    The next vertex is the uncoloured one with the most distinct neighbour
    colours, then the highest degree, then the lowest index.  That order is
    one float64 key per vertex, sat + (deg*n + (n-1-v)) * 2**-s, with D the
    maximum degree and s from ``_key_scale``, so a pick is an argmax and a
    saturation is the key's integer part.  Every key is a dyadic rational
    that float64 holds exactly, so adding or subtracting 1 never rounds.
    ``seen[c, w]`` records that some coloured neighbour of w has colour c.
    A smallest free colour is at most D, so D+2 rows hold every colour in
    use plus one that no vertex has.

    Colouring v with c adds 1 to the key of every neighbour of v that had
    not seen c, coloured neighbours included, and sets v's own key to the
    sentinel -(D+2).  A coloured vertex takes at most one bump per
    neighbour, at most D, so its key stays at most -2, below every
    uncoloured key, and the bump needs no mask.  Uncolouring subtracts the
    same bumps, so undo in LIFO order restores ``key`` and ``seen``
    exactly.

    A step costs four n-length passes (the ``newly`` row, its OR into
    ``seen``, its add into ``key`` and the argmax of a pick) plus, for a
    vertex that has not seen every colour in use, the free-colour lookup
    in one column of ``seen``.  Memory: the graph's cached n x n bool
    matrix, n**2 bytes, the zeroed (D+2) x n bool table, of which a run
    writes only the rows of the colours it uses, and one n-length bool row
    per coloured vertex whose undo is kept.
    """

    def __init__(self, g: Graph):
        n = g.n
        deg = np.fromiter((row.bit_count() for row in g.rows), dtype=np.int64, count=n)
        max_deg = int(deg.max())
        tie = deg * n + np.arange(n - 1, -1, -1, dtype=np.int64)
        self.key = np.ldexp(tie.astype(np.float64), -_key_scale(n, max_deg))
        self.coloured_key = float(-(max_deg + 2))
        self.mat = g.bool_matrix()
        self.seen = np.zeros((max_deg + 2, n), dtype=bool)

    def pick(self) -> int:
        return int(self.key.argmax())

    def saturation(self, v: int) -> int:
        return int(self.key[v])

    def colour(self, v: int, c: int):
        """Colour v with c; returns what ``uncolour`` needs to undo it."""
        key, seen_c = self.key, self.seen[c]
        old = key.item(v)
        key[v] = self.coloured_key
        newly = np.greater(self.mat[v], seen_c)
        seen_c |= newly
        key += newly
        return v, old, newly, seen_c

    def uncolour(self, undo) -> None:
        v, old, newly, seen_c = undo
        key = self.key
        key -= newly
        seen_c ^= newly
        key[v] = old


def dsatur_upper(g: Graph) -> tuple[int, tuple[int, ...]]:
    """DSATUR coloring: proper, count >= chi(g); exact on bipartite inputs.

    Each step colours the uncoloured vertex with the most distinct
    neighbour colours, then the highest degree, then the lowest index, with
    the smallest colour no neighbour has.  The colouring matches, vertex for
    vertex, the set-based loop that the tests keep as a reference.

    A step costs four n-length numpy passes, and one column read unless
    the vertex has seen every colour in use and so takes a new one (see
    ``_SaturationOrder``).  Memory: the graph's cached n x n bool matrix,
    n**2 bytes, plus a zeroed (D+2) x n bool table, D the maximum degree,
    of which only the rows of the colours used are written.  Raises
    ``ValueError`` where the float64 key cannot be exact (``_key_scale``),
    which is never below n = 2**17, where the matrix alone takes 17 GB.
    """
    n = g.n
    if n == 0:
        return 0, ()
    order = _SaturationOrder(g)
    key, seen, colour = order.key, order.seen, order.colour
    color = [-1] * n
    used = 0
    for _ in range(n):
        v = int(key.argmax())
        if key.item(v) >= used:
            # v has seen every colour in use: the smallest free one is new
            c = used
            used += 1
        else:
            c = int(seen[:used, v].argmin())
        color[v] = c
        colour(v, c)
    return used, tuple(color)


@dataclass(frozen=True)
class ColoringResult:
    chi_lower: int
    chi_upper: int
    coloring: tuple[int, ...]
    tag: str
    nodes: int = 0

    @property
    def exact(self) -> bool:
        return self.tag == TAG_EXACT and self.chi_lower == self.chi_upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("chromatic number not exact; check the tag")
        return self.chi_lower


def _try_k_coloring(g: Graph, k: int, budget: list[int]) -> Optional[tuple[int, ...]] | str:
    """Backtracking k-colorability with dynamic saturation order.

    Returns a coloring, None if proven impossible, or "exceeded".  The
    search runs on an explicit stack with one frame per coloured vertex,
    so its depth, up to n, is not bounded by Python's recursion limit.
    """
    n = g.n
    color = [-1] * n
    order = _SaturationOrder(g)
    pick, saturation, colour, uncolour = order.pick, order.saturation, order.colour, order.uncolour
    # frame: [vertex, colours left to try (last first), colours in use
    # before it, undo of its current colour]
    stack: list[list] = []
    used = 0
    while len(stack) < n:
        v = pick()
        sat = saturation(v)
        if sat < k:
            # allow at most one brand-new color index (class symmetry breaking)
            if sat >= used:
                # v has seen every colour in use, so only the new one is left
                untried = [used]
            else:
                limit = min(k, used + 1)
                taken = order.seen[:limit, v].tolist()
                untried = [c for c in range(limit - 1, -1, -1) if not taken[c]]
            stack.append([v, untried, used, None])
        # give the top vertex its next colour, backtracking while none is left
        while stack:
            frame = stack[-1]
            v, untried, used, undo = frame
            if undo is not None:
                uncolour(undo)
                color[v] = -1
            if not untried:
                stack.pop()
                continue
            c = untried.pop()
            budget[0] -= 1
            if budget[0] < 0:
                return "exceeded"
            color[v] = c
            frame[3] = colour(v, c)
            if c == used:
                used += 1
            break
        else:
            return None
    return tuple(color)


def chi_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> ColoringResult:
    """Exact chromatic number for small graphs (intended n <= ~20).

    Proves optimality by exhausting (k-1)-colorability; on budget
    exhaustion returns a flagged [chi_lower, chi_upper] interval.
    """
    ub, coloring = dsatur_upper(g)
    clique = _max_clique_core(g.rows, g.n, min(budget, 200_000))
    return _chi_from_bounds(g, ub, coloring, clique.value, budget)


def _chi_from_bounds(
    g: Graph, ub: int, coloring: tuple[int, ...], lb: int, budget: int
) -> ColoringResult:
    """Exhaust k-colorability for k = lb, lb+1, ... below ``ub``, the size
    of the DSATUR ``coloring``; ``lb`` is a clique size."""
    spent = [budget]
    for k in range(lb, ub):
        res = _try_k_coloring(g, k, spent)
        if res == "exceeded":
            return ColoringResult(k, ub, coloring, TAG_EXCEEDED, budget - spent[0])
        if res is not None:
            return ColoringResult(k, k, res, TAG_EXACT, budget - spent[0])
    return ColoringResult(ub, ub, coloring, TAG_EXACT, budget - spent[0])


# ---------------------------------------------------------------------------
# exact subdivision search at tiny scale


@dataclass(frozen=True)
class SigmaSearchResult:
    status: str  # "yes" | "no" | "exceeded"
    certificate: Optional[SubdivisionCertificate] = None
    nodes: int = 0


def sigma_exact_tiny(g: Graph, t: int, budget: int = DEFAULT_BUDGET) -> SigmaSearchResult:
    """Decide whether g contains a t-clique subdivision (intended n <= ~12).

    Positive answers carry a checkable certificate; negative answers mean
    the search over branch sets and path packings was exhausted.  Branch
    sets are the t-subsets of the vertices of degree >= t-1, in
    combination order over those vertices sorted by falling degree.  For
    each, one path per nonadjacent pair is packed depth first, pairs in
    lexicographic order;
    a pair's paths avoid the branch set and the interiors already taken,
    and come shortest first, each length in the lexicographic order of
    the builder's enumerator ``_path_interiors``.
    """
    if t < 1:
        raise ValueError("subdivision order must be >= 1")
    n = g.n
    if t > n:
        return SigmaSearchResult("no")
    if t == 1:
        cert = SubdivisionCertificate(branch=(0,), paths={})
        return SigmaSearchResult("yes", cert)
    # a branch vertex of K_t needs degree >= t-1
    eligible = [v for v in range(n) if g.degree(v) >= t - 1]
    if len(eligible) < t:
        return SigmaSearchResult("no")
    eligible.sort(key=lambda v: (-g.degree(v), v))
    nodes = 0

    def pair_paths(pair: tuple[int, int], avail: int):
        # every u-v path through avail, shortest first
        u, v = pair
        for length in range(2, avail.bit_count() + 2):
            for interior in _path_interiors(g.rows, u, v, avail, length):
                yield (u, *interior, v)

    def pack(pairs: list[tuple[int, int]], avail: int, chosen: list[tuple[int, ...]]):
        """Depth first over one path per pair, on an explicit stack: level i
        holds the paths left for ``pairs[i]`` and the vertices they may use,
        and ``chosen`` the path taken at each level below the top."""
        nonlocal nodes
        if not pairs:
            return True
        stack = [(pair_paths(pairs[0], avail), avail)]
        while stack:
            paths, avail = stack[-1]
            path = next(paths, None)
            if path is None:
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            nodes += 1
            if nodes > budget:
                return "exceeded"
            chosen.append(path)
            if len(chosen) == len(pairs):
                return True
            for w in path[1:-1]:
                avail &= ~(1 << w)
            stack.append((pair_paths(pairs[len(chosen)], avail), avail))
        return False

    full = g.full_mask()
    for S in combinations(eligible, t):
        nodes += 1
        if nodes > budget:
            return SigmaSearchResult("exceeded", nodes=nodes)
        smask = vertex_mask(S)
        pairs = _missing_pairs(g.rows, sorted(S))
        chosen: list[tuple[int, ...]] = []
        res = pack(pairs, full & ~smask, chosen)
        if res == "exceeded":
            return SigmaSearchResult("exceeded", nodes=nodes)
        if res is True:
            cert = SubdivisionCertificate(
                branch=tuple(sorted(S)),
                paths=dict(zip(pairs, chosen)),
            )
            return SigmaSearchResult("yes", cert, nodes)
    return SigmaSearchResult("no", nodes=nodes)


def sigma_exact_value(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[Tagged, Optional[SubdivisionCertificate]]:
    """Largest certified subdivision order, scanning t upward until refuted."""
    if g.n == 0:
        return Tagged(0, (), TAG_EXACT), None
    best = 1
    best_cert = SubdivisionCertificate(branch=(0,), paths={})
    cap = max(g.degree(v) for v in range(g.n)) + 1 if g.n else 0
    spent = 0
    for t in range(2, min(g.n, cap) + 1):
        res = sigma_exact_tiny(g, t, budget - spent)
        spent += res.nodes
        if res.status == "exceeded":
            return Tagged(best, best_cert.branch, TAG_EXCEEDED, spent), best_cert
        if res.status == "no":
            return Tagged(best, best_cert.branch, TAG_EXACT, spent), best_cert
        best, best_cert = t, res.certificate
    return Tagged(best, best_cert.branch, TAG_EXACT, spent), best_cert


# ---------------------------------------------------------------------------
# counting-based upper certificate and the Turan density floor


@dataclass(frozen=True)
class SigmaUpperCert:
    """Witness that sigma(g) < t: every t-subset spans >= t(t-w)/(2w)
    nonadjacent pairs (complement Turan with clique number w), and each
    such pair consumes a private interior vertex, forcing > n vertices."""

    t: int
    omega_used: int
    forced_internal: int
    total_required: int
    n: int

    def explain(self) -> str:
        return (
            f"t={self.t}, omega={self.omega_used}: {self.t} branch vertices + "
            f"{self.forced_internal} forced interior vertices = "
            f"{self.total_required} > n={self.n}"
        )


def sigma_upper_cert(g: Graph, omega: Tagged | int) -> Optional[SigmaUpperCert]:
    """Smallest certified t with sigma(g) < t, or None if no t <= n certifies.

    Requires an exact clique number; a Tagged value must carry the exact tag.
    """
    if isinstance(omega, Tagged):
        if not omega.exact:
            raise ValueError("sigma_upper_cert needs an exact clique number")
        w = omega.value
    else:
        w = int(omega)
    n = g.n
    if w < 1 or w > n:
        raise ValueError(f"clique number {w} out of range for n={n}")
    for t in range(w + 1, n + 1):
        forced = max(0, -((-t * (t - w)) // (2 * w)))
        if t + forced > n:
            return SigmaUpperCert(t, w, forced, t + forced, n)
    return None


def turan_density_bound(n: int, alpha: int) -> tuple[Fraction, Fraction]:
    """Minimum edge density forced by independence number <= alpha.

    Returns ``(exact, simplified)`` where exact is (n/alpha - 1)/(n - 1)
    and simplified is the weaker 1/(2*alpha) floor.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if 2 * alpha > n:
        raise ValueError(f"alpha={alpha} > n/2 with n={n}: bound hypothesis fails")
    if n <= 1:
        raise ValueError("need n >= 2")
    exact = Fraction(n - alpha, alpha * (n - 1))
    return exact, Fraction(1, 2 * alpha)


# ---------------------------------------------------------------------------
# aggregated stats


@dataclass
class GraphStats:
    n: int
    m: int
    density: Fraction
    alpha: Optional[Tagged] = None
    omega: Optional[Tagged] = None
    chi: Optional[ColoringResult] = None
    dsatur: Optional[int] = None
    notes: list[str] = field(default_factory=list)


def graph_stats(g: Graph, budget: int = DEFAULT_BUDGET) -> GraphStats:
    """Oracle bounds for a graph; chi is searched for only when n <= 20."""
    stats = GraphStats(n=g.n, m=g.m, density=edge_density(g))
    stats.alpha = alpha_exact(g, budget)
    stats.omega = omega_exact(g, budget)
    k, coloring = dsatur_upper(g)
    stats.dsatur = k
    if g.n <= 20:
        # omega is chi_exact's clique bound: at n <= 20 its search ends
        # within a few hundred nodes, far inside chi_exact's 200 000 cap
        stats.chi = _chi_from_bounds(g, k, coloring, stats.omega.value, budget)
    if stats.alpha.exact and stats.omega.exact:
        # consistency: omega <= dsatur and n <= alpha * dsatur
        if stats.omega.value > stats.dsatur:
            stats.notes.append("omega exceeds dsatur bound (bug)")
        if stats.alpha.value * stats.dsatur < g.n:
            stats.notes.append("covering bound violated (bug)")
    return stats
