"""The benchmark's workloads.

Each workload makes its inputs from the seed (``setup``), lists the
operations of one round (``operations``; the runner times each call and
times nothing else), turns what an operation returned or wrote into plain
data outside the timed region (``collect``), and checks a round's outputs
with the checkers in ``checks`` and the networkx figures from ``reference``
(``check``).  Every call goes through an attribute of a ``cliquesub`` module,
looked up when the call is made, so the wrappers of ``spans.Instrument``
see it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import checks
import reference
from cliquesub import cli, experiments, graph_io, graphs, oracles
from spans import graph_key

OPTIMAL_P = experiments.OPTIMAL_P


@dataclass
class Verdict:
    """What the checks of one round found."""

    attempted: int = 0
    failed: int = 0
    chi_lower_certified: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, problems: list[str]) -> None:
        """Record one checked operation and whether it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _adj(g):
    return checks.adjacency(g.n, g.rows)


def _calls_on(captured, g) -> dict[str, list]:
    """Results of the captured calls made on graph ``g``, by function."""
    found: dict[str, list] = {}
    key = graph_key(g)
    for name, arg_key, result in captured:
        if arg_key == key:
            found.setdefault(name, []).append(result)
    return found


class SweepGap:
    """Ratio-sweep cells on G(1000, 1 - e^-2); each cell generates its own
    graph from its seed, and set-up generates the same graphs for the checks.
    omega's node budget is a tenth of the sweep's default, so a cell takes
    seconds rather than a quarter of a minute and a round can hold eight
    graphs; omega still uses up its budget and still dominates the cell."""

    name = "sweep-gap"
    main = "sweep_cell"
    n, cells, omega_nodes = 1000, 8, 30_000

    def setup(self, seed: int, out: Path) -> dict:
        seeds = [seed * self.cells + i for i in range(self.cells)]
        return {
            "seeds": seeds,
            "graphs": [graphs.gen_gnp(self.n, OPTIMAL_P, s) for s in seeds],
        }

    def operations(self, inputs: dict):
        budgets = experiments.SweepBudgets(omega_nodes=self.omega_nodes)
        for s in inputs["seeds"]:
            yield "sweep_cell", lambda s=s: experiments.run_ratio_sweep(
                [self.n], OPTIMAL_P, 1, budgets, base_seed=s
            )

    def collect(self, inputs: dict, result):
        return [r.to_json_dict() for r in result]

    def reference(self, inputs: dict) -> dict:
        return {"alpha": [reference.alpha(_adj(g)) for g in inputs["graphs"]]}

    def check(self, inputs, ref, results, captured) -> Verdict:
        verdict = Verdict()
        cells = zip(inputs["seeds"], inputs["graphs"], ref["alpha"], results)
        for seed, g, alpha_ref, (_, records) in cells:
            adj, found = _adj(g), _calls_on(captured, g)
            problems = [] if len(records) == 1 else [f"{len(records)} records for one cell"]
            for rec in records:
                problems += checks.check_sweep_record(adj, rec)
                if (rec["seed"], rec["p"]) != (seed, OPTIMAL_P):
                    problems.append("record seed or p differs from the request")
                exact = rec["chi_lower_tag"] == "exact"
                if exact and rec["chi_lower"] != -(-self.n // alpha_ref):
                    problems.append(f"exact chi_lower {rec['chi_lower']}, alpha {alpha_ref}")
                problems += self._check_witnesses(adj, rec, alpha_ref, found)
                if exact and not problems:
                    verdict.chi_lower_certified += rec["chi_lower"]
            verdict.add(problems)
        return verdict

    @staticmethod
    def _check_witnesses(adj, rec, alpha_ref, found) -> list[str]:
        """The colouring, independent sets, cliques and certificate that the
        cell's oracle and pipeline calls returned."""
        problems = []
        colorings = found.get("oracles.dsatur_upper", [])
        if not colorings:
            problems.append("no colouring behind chi_upper")
        for count, colors in colorings:
            problems += checks.check_coloring(adj, colors, count)
            if count != rec["chi_upper"]:
                problems.append(f"colouring has {count} colours, record {rec['chi_upper']}")
        for alpha in found.get("oracles.alpha_exact", []):
            problems += checks.check_independent(adj, alpha.witness, alpha.value)
            if alpha.exact and alpha.value != alpha_ref:
                problems.append(f"exact alpha {alpha.value}, reference {alpha_ref}")
        for omega in found.get("oracles.omega_exact", []):
            problems += checks.check_clique(adj, omega.witness, omega.value)
        certs = [
            report.certificate
            for report in found.get("pipeline.sigma_lower_auto", [])
            if report.certificate is not None and report.certificate.verified
        ]
        if rec["sigma_lower"] > 1 and not certs:
            problems.append("no certificate behind sigma_lower")
        for cert in certs:
            problems += checks.check_subdivision(adj, cert.branch, cert.paths)
            if max(1, cert.order) != rec["sigma_lower"]:
                problems.append(f"certificate order {cert.order}, record {rec['sigma_lower']}")
        return problems


class PipelineDense:
    """``cliquesub pipeline`` run in-process on G(2000, 0.95) graph6 files
    written during set-up: the dense route."""

    name = "pipeline-dense"
    main = "pipeline"
    n, p, files = 2000, 0.95, 3

    def setup(self, seed: int, out: Path) -> dict:
        runs = []
        for s in range(seed * self.files, (seed + 1) * self.files):
            g = graphs.gen_gnp(self.n, self.p, s)
            path = out / f"{self.name}-{s}.g6"
            graph_io.write_graph(g, path, "graph6")
            run = {"seed": s, "graph": g, "path": path}
            for key in ("report", "cert"):
                run[key] = out / f"{self.name}-{s}.{key}.json"
                run[key].unlink(missing_ok=True)
            runs.append(run)
        return {"runs": runs}

    def operations(self, inputs: dict):
        for run in inputs["runs"]:
            argv = [
                "pipeline", str(run["path"]), "--format", "graph6",
                "--seed", str(run["seed"]),
                "--out", str(run["report"]), "--cert-out", str(run["cert"]),
            ]  # fmt: skip
            yield "pipeline", lambda run=run, argv=argv: (run, cli.cli_main(argv))

    def collect(self, inputs: dict, result):
        run, code = result
        texts = []
        for key in ("report", "cert"):
            path = run[key]
            texts.append(path.read_text() if path.exists() else None)
            path.unlink(missing_ok=True)
        return code, *texts

    def reference(self, inputs: dict) -> dict:
        return {"alpha": [reference.alpha(_adj(run["graph"])) for run in inputs["runs"]]}

    def check(self, inputs, ref, results, captured) -> Verdict:
        verdict = Verdict()
        for run, alpha_ref, (_, outputs) in zip(inputs["runs"], ref["alpha"], results):
            problems, certified = self._check_run(run["graph"], alpha_ref, *outputs, captured)
            verdict.add(problems)
            verdict.chi_lower_certified += certified
        return verdict

    def _check_run(self, g, alpha_ref, code, report_text, cert_text, captured):
        """Problems found in one CLI run's outputs, and the chi lower bound
        they certify."""
        if code != 0 or report_text is None or cert_text is None:
            return [f"pipeline exited {code} or wrote no report or certificate"], 0
        report, cert = json.loads(report_text), json.loads(cert_text)
        adj = _adj(g)  # the generated graph, not the one read back
        problems = []
        if report["certificate"] != cert:
            problems.append("certificate file differs from the report's certificate")
        if report["claimed_sigma_lower"] != cert["order"] or cert["order"] != len(cert["branch"]):
            problems.append("claimed order, certificate order and branch size disagree")
        paths = {}
        for entry in cert["paths"]:
            u, v = entry["pair"]
            paths[(u, v)] = (u, *entry["via"], v)
        problems += checks.check_subdivision(adj, cert["branch"], paths)
        alpha = next((step["alpha"] for step in report["transcript"] if "alpha" in step), None)
        if alpha is None:
            problems.append("report transcript gives no alpha")
        witnesses = _calls_on(captured, g).get("oracles.alpha_exact", [])
        for tagged in witnesses:
            problems += checks.check_independent(adj, tagged.witness, tagged.value)
            if tagged.value != alpha:
                problems.append(f"alpha oracle returned {tagged.value}, report says {alpha}")
            if tagged.exact and tagged.value != alpha_ref:
                problems.append(f"exact alpha {tagged.value}, reference {alpha_ref}")
        exact = witnesses and "heuristic-alpha" not in report["flags"]
        return problems, (-(-self.n // alpha) if exact and not problems else 0)


class Coloring:
    """DSATUR on G(3000, 1 - e^-2) and exact chromatic numbers of a batch of
    G(50, 1/2) graphs; both run the saturation-order pick loop."""

    name = "coloring"
    main = "dsatur"
    n, batch, batch_n = 3000, 10, 50

    def setup(self, seed: int, out: Path) -> dict:
        return {
            "graph": graphs.gen_gnp(self.n, OPTIMAL_P, seed),
            "batch": [
                graphs.gen_gnp(self.batch_n, 0.5, seed * self.batch + i)
                for i in range(self.batch)
            ],
        }

    def operations(self, inputs: dict):
        yield "dsatur", lambda: oracles.dsatur_upper(inputs["graph"])
        for h in inputs["batch"]:
            yield "chi_exact", lambda h=h: oracles.chi_exact(h)

    def collect(self, inputs: dict, result):
        return result

    def reference(self, inputs: dict) -> dict:
        return {"omega": [reference.omega(_adj(h)) for h in inputs["batch"]]}

    def check(self, inputs, ref, results, captured) -> Verdict:
        verdict = Verdict()
        (_, (count, colors)), *batch = results
        adj = _adj(inputs["graph"])
        problems = checks.check_coloring(adj, colors, count)
        if count > int(adj.sum(axis=1).max()) + 1:
            problems.append(f"DSATUR used {count} colours, more than max degree + 1")
        verdict.add(problems)
        for h, omega, (_, res) in zip(inputs["batch"], ref["omega"], batch):
            problems = checks.check_coloring(_adj(h), res.coloring, res.chi_upper)
            if res.chi_lower > res.chi_upper:
                problems.append(f"chi interval [{res.chi_lower}, {res.chi_upper}] is empty")
            if res.exact and res.chi_lower < omega:
                problems.append(f"exact chi {res.chi_lower} below reference omega {omega}")
            if res.exact and not problems:
                verdict.chi_lower_certified += res.chi_lower
            verdict.add(problems)
        return verdict


WORKLOADS = {w.name: w for w in (SweepGap(), PipelineDense(), Coloring())}
