"""Random-graph ratio sweeps: certified chromatic lower bounds against
certified subdivision bounds, at the edge probability that maximizes the
coloring-to-subdivision gap.

Each (n, seed) cell produces one record.  A sound chromatic lower bound
needs the exact independence number (ceil(n/alpha)); when the oracle budget
runs out the record falls back to a greedy clique, which is always sound,
and tags itself heuristic.  A cell searches for alpha once, within
``SweepBudgets.alpha_nodes``, and hands the result to the pipeline, whose
alpha budget is the same.  A cell searches for neither the
clique number nor a subdivision upper bound: a record carries one
(``sigma_upper_t``, and with it ``ratio_lower``) only when the certified-gap
search, which computes the clique-counting certificate from an exact clique
number, passes its certificate in.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Optional, Sequence

from .graphs import gen_gnp
from .oracles import (
    DEFAULT_BUDGET,
    SigmaUpperCert,
    Tagged,
    alpha_exact,
    dsatur_upper,
    greedy_clique_lower,
    omega_exact,
    sigma_exact_value,
    sigma_upper_cert,
)
from .pipeline import sigma_lower_auto

__all__ = [
    "ExperimentRecord",
    "SweepBudgets",
    "run_ratio_sweep",
    "emit_report",
    "records_from_json",
    "find_certified_ratio_violation",
    "OPTIMAL_P",
]

OPTIMAL_P = 1 - math.exp(-2)

# Cells up to this order also take the exact subdivision number as their
# lower bound, when its search ends within the node budget.
TINY_SIGMA_MAX_N = 12
TINY_SIGMA_NODES = 200_000


@dataclass(frozen=True)
class SweepBudgets:
    """Oracle node budgets.  ``alpha_nodes`` bounds the one alpha search of
    a graph, in the sweep and in the pipeline alike.  ``omega_nodes`` bounds
    the clique-number search of :func:`find_certified_ratio_violation` only;
    sweep cells never search for the clique number."""

    alpha_nodes: int = DEFAULT_BUDGET
    omega_nodes: int = 300_000


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep cell.  ``sigma_upper_t`` is a certified subdivision upper
    bound (sigma < t), present only when the cell was given one;
    ``ratio_lower`` is a certified lower bound on the coloring/subdivision
    ratio (present only when both sides are exact);
    ``ratio_point`` compares the achieved coloring to the certified
    subdivision, and ``reference`` is sqrt(n)/log(n)."""

    n: int
    p: float
    seed: int
    chi_upper: int
    chi_lower: int
    chi_lower_tag: str
    sigma_lower: int
    sigma_upper_t: Optional[int]
    ratio_lower: Optional[float]
    ratio_point: float
    reference: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _cell(
    n: int,
    p: float,
    seed: int,
    budgets: SweepBudgets,
    alpha: Optional[Tagged] = None,
    sigma_upper: Optional[SigmaUpperCert] = None,
) -> ExperimentRecord:
    """The record of G(n, p, seed).  ``alpha``, when given, is this graph's
    ``alpha_exact`` result within ``budgets.alpha_nodes``; ``sigma_upper``
    is a subdivision upper certificate for this graph, the only source of
    ``sigma_upper_t``.  The pipeline runs with the same alpha budget, so it
    takes this alpha as its own."""
    g = gen_gnp(n, p, seed)
    chi_upper, _ = dsatur_upper(g)
    if alpha is None:
        alpha = alpha_exact(g, budgets.alpha_nodes)
    if alpha.exact:
        chi_lower = -(-n // alpha.value)
        chi_tag = "exact"
    else:
        # ceil(n/alpha) is unsound for a heuristic alpha; a found clique
        # is always a valid chromatic lower bound
        chi_lower = max(1, greedy_clique_lower(g).value)
        chi_tag = "heuristic"
    sigma_upper_t = None if sigma_upper is None else sigma_upper.t
    report = sigma_lower_auto(g, seed, alpha, alpha_budget=budgets.alpha_nodes)
    if report.certificate is not None and report.certificate.verified:
        sigma_lower = max(1, report.certificate.order)
    else:
        # cited or trivial bounds stay out of the point ratio
        sigma_lower = 1
    if n <= TINY_SIGMA_MAX_N:
        tiny, _ = sigma_exact_value(g, TINY_SIGMA_NODES)
        if tiny.tag != "exceeded":
            sigma_lower = max(sigma_lower, tiny.value)
    if sigma_upper_t is not None and sigma_lower >= sigma_upper_t:
        raise AssertionError(
            "constructive lower bound met the counting upper certificate"
        )
    ratio_lower = (
        chi_lower / sigma_upper_t
        if (chi_tag == "exact" and sigma_upper_t is not None)
        else None
    )
    return ExperimentRecord(
        n=n,
        p=p,
        seed=seed,
        chi_upper=chi_upper,
        chi_lower=chi_lower,
        chi_lower_tag=chi_tag,
        sigma_lower=sigma_lower,
        sigma_upper_t=sigma_upper_t,
        ratio_lower=ratio_lower,
        ratio_point=chi_upper / sigma_lower,
        reference=math.sqrt(n) / math.log(n) if n > 1 else 0.0,
    )


def run_ratio_sweep(
    ns: Sequence[int],
    p: float,
    seeds_per_n: int,
    budgets: SweepBudgets | None = None,
    base_seed: int = 0,
) -> list[ExperimentRecord]:
    """One record per (n, seed), in (n, seed) order; deterministic."""
    _check_sizes(ns, seeds_per_n)
    budgets = budgets or SweepBudgets()
    return [
        _cell(n, p, base_seed + i, budgets)
        for n in sorted(set(ns))
        for i in range(seeds_per_n)
    ]


def _check_sizes(ns: Sequence[int], seeds_per_n: int) -> None:
    if not ns:
        raise ValueError("need at least one n")
    if min(ns) < 1:
        raise ValueError(f"every n must be >= 1, got {min(ns)}")
    if seeds_per_n < 1:
        raise ValueError(f"seeds per n must be >= 1, got {seeds_per_n}")


_CSV_FIELDS = [f.name for f in fields(ExperimentRecord)]


def emit_report(records: Iterable[ExperimentRecord], format: str = "csv") -> str:
    """Stable CSV (header + one row per record) or JSON array."""
    records = list(records)
    if format == "csv":
        out = io.StringIO()
        out.write(",".join(_CSV_FIELDS) + "\n")
        for r in records:
            row = []
            for name in _CSV_FIELDS:
                val = getattr(r, name)
                row.append("" if val is None else repr(val) if isinstance(val, float) else str(val))
            out.write(",".join(row) + "\n")
        return out.getvalue()
    if format == "json":
        return json.dumps([r.to_json_dict() for r in records], indent=1)
    raise ValueError(f"unknown format {format!r}")


def records_from_json(text: str) -> list[ExperimentRecord]:
    return [ExperimentRecord(**entry) for entry in json.loads(text)]


def find_certified_ratio_violation(
    ns: Sequence[int],
    p: float = OPTIMAL_P,
    seeds_per_n: int = 1,
    budgets: SweepBudgets | None = None,
    base_seed: int = 0,
) -> tuple[Optional[ExperimentRecord], list[str]]:
    """Search for a fully certified chi > sigma instance: exact ceil(n/alpha)
    strictly above the counting certificate's threshold.

    Escalates through ``ns`` and returns (record, log).  The record is the
    sweep cell of the certified graph, built with this search's alpha and
    counting certificate, so it carries ``sigma_upper_t``.  When no instance
    certifies within budget the record is None and the log reports the best
    achieved gap instead; the caller is expected to surface that log.
    """
    _check_sizes(ns, seeds_per_n)
    budgets = budgets or SweepBudgets()
    log: list[str] = []
    best_gap: Optional[float] = None
    best_desc = ""
    for n in sorted(ns):
        for i in range(seeds_per_n):
            seed = base_seed + i
            g = gen_gnp(n, p, seed)
            alpha = alpha_exact(g, budgets.alpha_nodes)
            if not alpha.exact:
                log.append(f"n={n} seed={seed}: alpha not exact within budget")
                continue
            chi_lower = -(-n // alpha.value)
            omega = omega_exact(g, budgets.omega_nodes)
            if not omega.exact:
                log.append(f"n={n} seed={seed}: omega not exact within budget")
                continue
            cert = sigma_upper_cert(g, omega)
            if cert is None:
                log.append(f"n={n} seed={seed}: no counting certificate below n")
                continue
            gap = chi_lower / cert.t
            if best_gap is None or gap > best_gap:
                best_gap = gap
                best_desc = (
                    f"n={n} seed={seed}: chi >= {chi_lower} vs sigma < {cert.t} "
                    f"(ratio {gap:.3f})"
                )
            if chi_lower > cert.t:
                log.append(f"CERTIFIED chi > sigma at {best_desc}")
                return _cell(n, p, seed, budgets, alpha, cert), log
    if best_gap is not None:
        log.append(f"no certified violation within budget; best gap {best_desc}")
    else:
        log.append("no (n, seed) produced both exact alpha and exact omega")
    return None, log
