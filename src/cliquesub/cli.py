"""Command-line front end.

Subcommands: ``gen`` (write a random graph), ``stats`` (oracle bounds),
``pipeline`` (subdivision lower bound with certificate JSON), ``verify``
(check a certificate against a graph), ``sweep`` (ratio sweep to CSV/JSON),
``bounds`` (the pure-arithmetic calculators).  Exit status: 0 success,
1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .experiments import OPTIMAL_P, SweepBudgets, emit_report, run_ratio_sweep
from .graph_io import ParseError, read_graph, write_graph
from .graphs import gen_gnp
from .oracles import DEFAULT_BUDGET, graph_stats
from .pipeline import (
    PreconditionRefusal,
    check_ratio_induction_step,
    paper_hypotheses,
    sigma_lower_auto,
    sigma_lower_dense,
    sigma_lower_sparse,
    subdivision_bound_dispatch,
)
from .subdivision import SubdivisionCertificate, verify_subdivision

__all__ = ["cli_main", "main"]


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cliquesub",
        description="clique-subdivision extraction, oracles, and certificates",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate G(n,p) and write it to a file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=["edge-list", "graph6"], default="edge-list")
    gen.add_argument("--out", type=Path, required=True)

    stats = sub.add_parser("stats", help="oracle bounds for a graph file")
    stats.add_argument("graph", type=Path)
    stats.add_argument("--format", choices=["edge-list", "graph6"], default="edge-list")
    stats.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET)

    pipe = sub.add_parser("pipeline", help="run the subdivision pipeline")
    pipe.add_argument("graph", type=Path)
    pipe.add_argument("--format", choices=["edge-list", "graph6"], default="edge-list")
    pipe.add_argument("--case", choices=["dense", "sparse", "auto"], default="auto")
    pipe.add_argument("--seed", type=int, default=0)
    pipe.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET)
    pipe.add_argument("--out", type=Path, help="write the report JSON here")
    pipe.add_argument("--cert-out", type=Path, help="write the certificate JSON here")

    ver = sub.add_parser("verify", help="check a subdivision certificate")
    ver.add_argument("graph", type=Path)
    ver.add_argument("certificate", type=Path)
    ver.add_argument("--format", choices=["edge-list", "graph6"], default="edge-list")
    ver.add_argument(
        "--exact-length",
        type=int,
        default=None,
        help="additionally require every path to have this many edges",
    )

    sweep = sub.add_parser("sweep", help="ratio sweep over random graphs")
    sweep.add_argument("--n", type=str, required=True, help="comma-separated sizes")
    sweep.add_argument("--p", type=float, default=OPTIMAL_P)
    sweep.add_argument("--seeds", type=int, default=1, help="seeds per size")
    sweep.add_argument("--seed", type=int, default=0, help="base seed")
    sweep.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET)
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep.add_argument("--out", type=Path)

    bounds = sub.add_parser("bounds", help="pure-arithmetic bound calculators")
    bounds.add_argument("--n", type=float, required=True)
    bounds.add_argument("--alpha", type=int)
    bounds.add_argument("--k", type=float, help="chromatic number for the induction check")
    return top


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help
        return int(exc.code or 0)

    try:
        if args.command == "gen":
            g = gen_gnp(args.n, args.p, args.seed)
            write_graph(g, args.out, args.format)
            print(f"wrote G({args.n}, {args.p}) seed={args.seed} to {args.out}")
            return 0

        if args.command == "stats":
            g = read_graph(args.graph, args.format)
            st = graph_stats(g, args.budget_nodes)
            payload = {
                "n": st.n,
                "m": st.m,
                "density": float(st.density),
                "alpha": st.alpha.value,
                "alpha_tag": st.alpha.tag,
                "omega": st.omega.value,
                "omega_tag": st.omega.tag,
                "dsatur": st.dsatur,
                "notes": st.notes,
            }
            if st.chi is not None:
                payload["chi_lower"] = st.chi.chi_lower
                payload["chi_upper"] = st.chi.chi_upper
                payload["chi_tag"] = st.chi.tag
            alpha = st.alpha.value if st.alpha.exact else None
            payload["paper_hypotheses"] = paper_hypotheses(st.n, st.m, alpha)
            print(json.dumps(payload, indent=1))
            return 0

        if args.command == "pipeline":
            g = read_graph(args.graph, args.format)
            budget = args.budget_nodes
            try:
                if args.case == "dense":
                    report = sigma_lower_dense(g, args.seed, alpha_budget=budget)
                elif args.case == "sparse":
                    report = sigma_lower_sparse(g, args.seed, alpha_budget=budget)
                else:
                    report = sigma_lower_auto(g, args.seed, alpha_budget=budget)
            except PreconditionRefusal as exc:
                print(f"refused: {exc}", file=sys.stderr)
                return 2
            text = json.dumps(report.to_json_dict(), indent=1)
            if args.out:
                args.out.write_text(text + "\n")
            else:
                print(text)
            if args.cert_out and report.certificate is not None:
                args.cert_out.write_text(report.certificate.to_json() + "\n")
            return 0

        if args.command == "verify":
            g = read_graph(args.graph, args.format)
            cert = SubdivisionCertificate.from_json(args.certificate.read_text())
            result = verify_subdivision(g, cert, exact_length=args.exact_length)
            if result.ok:
                print(f"PASS: certificate witnesses order {cert.order}")
                return 0
            print(f"FAIL: {result.clause}")
            return 1

        if args.command == "sweep":
            try:
                ns = [int(x) for x in args.n.split(",") if x.strip()]
            except ValueError:
                print(f"bad --n list: {args.n!r}", file=sys.stderr)
                return 2
            budgets = SweepBudgets(alpha_nodes=args.budget_nodes)
            records = run_ratio_sweep(
                ns, args.p, args.seeds, budgets, base_seed=args.seed
            )
            text = emit_report(records, args.format)
            if args.out:
                args.out.write_text(text)
            else:
                sys.stdout.write(text)
            return 0

        if args.command == "bounds":
            if args.alpha is not None:
                if not (math.isfinite(args.n) and args.n.is_integer()):
                    raise ValueError(f"--n must be a whole number with --alpha, not {args.n}")
                fb = subdivision_bound_dispatch(int(args.n), args.alpha)
                print(f"regime: {fb.regime}")
                print(f"value: {fb.value:.6g}")
                print(f"part1: {fb.part1:.6g}")
                if fb.part2 is not None:
                    print(f"part2: {fb.part2:.6g}")
            if args.k is not None:
                rep = check_ratio_induction_step(args.n, args.k)
                print(f"branch: {rep.branch}")
                for name, lhs, rhs, ok in rep.checks:
                    print(f"  {'ok ' if ok else 'FAIL'} {name}: {lhs:.6g} vs {rhs:.6g}")
                print(f"passed: {rep.passed}")
                if not rep.passed:
                    return 1
            if args.alpha is None and args.k is None:
                print("nothing to do: pass --alpha and/or --k", file=sys.stderr)
                return 2
            return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
