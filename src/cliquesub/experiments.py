"""Random-graph ratio sweeps: certified chromatic lower bounds against
certified subdivision bounds, at the edge probability that maximizes the
coloring-to-subdivision gap.

Each (n, seed) cell is a function of its graph and produces one record.
A sound chromatic lower bound needs the exact independence number
(ceil(n/alpha)); when the oracle budget runs out the record falls back to a
greedy clique, which is always sound, and tags itself heuristic.  alpha is
searched for once per graph, by the pipeline within
``SweepBudgets.alpha_nodes``, and the cell reads it from the pipeline's
report.  A cell searches for neither the clique number nor a subdivision
upper bound: only the certified-gap search, which computes the
clique-counting certificate from an exact clique number, adds one
(``sigma_upper_t``, and with it ``ratio_lower``) to a cell's record.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Optional, Sequence

from .graphs import Graph, gen_gnp
from .oracles import (
    DEFAULT_BUDGET,
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
    a graph, which its cell's pipeline runs.  ``omega_nodes`` bounds
    the clique-number search of :func:`find_certified_ratio_violation` only;
    sweep cells never search for the clique number."""

    alpha_nodes: int = DEFAULT_BUDGET
    omega_nodes: int = 300_000


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep cell.  ``sigma_upper_t`` is a certified subdivision upper
    bound (sigma < t), present only when the gap search certified one;
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


def _cell(g: Graph, p: float, seed: int, budgets: SweepBudgets) -> ExperimentRecord:
    """The record of ``g``, drawn as G(n, p, seed): DSATUR's colouring above,
    the pipeline's certificate below, and ceil(n/alpha) from the alpha that
    the pipeline searched for within ``budgets.alpha_nodes`` and reports.
    The record carries no subdivision upper bound."""
    n = g.n
    chi_upper, _ = dsatur_upper(g)
    report = sigma_lower_auto(g, seed, alpha_budget=budgets.alpha_nodes)
    if report.alpha.exact:
        chi_lower = -(-n // report.alpha.value)
        chi_tag = "exact"
    else:
        # ceil(n/alpha) is unsound for a heuristic alpha; a found clique
        # is always a valid chromatic lower bound
        chi_lower = max(1, greedy_clique_lower(g).value)
        chi_tag = "heuristic"
    if report.certificate is not None and report.certificate.verified:
        sigma_lower = max(1, report.certificate.order)
    else:
        # cited or trivial bounds stay out of the point ratio
        sigma_lower = 1
    if n <= TINY_SIGMA_MAX_N:
        tiny, _ = sigma_exact_value(g, TINY_SIGMA_NODES)
        if tiny.tag != "exceeded":
            sigma_lower = max(sigma_lower, tiny.value)
    return ExperimentRecord(
        n=n,
        p=p,
        seed=seed,
        chi_upper=chi_upper,
        chi_lower=chi_lower,
        chi_lower_tag=chi_tag,
        sigma_lower=sigma_lower,
        sigma_upper_t=None,
        ratio_lower=None,
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
        _cell(gen_gnp(n, p, base_seed + i), p, base_seed + i, budgets)
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

    Escalates through ``ns`` and returns (record, log).  Each graph's record
    is its sweep cell, whose alpha is the only alpha searched for; where
    that alpha is exact, the search adds the counting certificate from an
    exact clique number, and a certificate at or below the cell's
    constructive lower bound raises.  The returned record is the certified
    graph's cell with ``sigma_upper_t`` and ``ratio_lower`` set.  When no
    instance certifies within budget the record is None and the log reports
    the best achieved gap instead; the caller is expected to surface that
    log.
    """
    _check_sizes(ns, seeds_per_n)
    budgets = budgets or SweepBudgets()
    log: list[str] = []
    best_gap: Optional[float] = None
    best_desc = ""
    for n in sorted(set(ns)):
        for i in range(seeds_per_n):
            seed = base_seed + i
            g = gen_gnp(n, p, seed)
            record = _cell(g, p, seed, budgets)
            if record.chi_lower_tag != "exact":
                log.append(f"n={n} seed={seed}: alpha not exact within budget")
                continue
            chi_lower = record.chi_lower
            omega = omega_exact(g, budgets.omega_nodes)
            if not omega.exact:
                log.append(f"n={n} seed={seed}: omega not exact within budget")
                continue
            cert = sigma_upper_cert(g, omega)
            if cert is None:
                log.append(f"n={n} seed={seed}: no counting certificate below n")
                continue
            if record.sigma_lower >= cert.t:
                raise AssertionError(
                    "constructive lower bound met the counting upper certificate"
                )
            gap = chi_lower / cert.t
            if best_gap is None or gap > best_gap:
                best_gap = gap
                best_desc = (
                    f"n={n} seed={seed}: chi >= {chi_lower} vs sigma < {cert.t} "
                    f"(ratio {gap:.3f})"
                )
            if chi_lower > cert.t:
                log.append(f"CERTIFIED chi > sigma at {best_desc}")
                return replace(record, sigma_upper_t=cert.t, ratio_lower=gap), log
    if best_gap is not None:
        log.append(f"no certified violation within budget; best gap {best_desc}")
    else:
        log.append("no (n, seed) produced both exact alpha and exact omega")
    return None, log
