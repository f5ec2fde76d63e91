"""Reference values from a solver apart from cliquesub: networkx.

``alpha`` and ``omega`` take the benchmark's boolean adjacency matrix and
return the exact independence and clique numbers from networkx's
``max_weight_clique``.  Run as a command, it makes a workload's inputs
from a seed and prints its reference values as JSON:

    python3 perfbench/reference.py --workload sweep-gap --seed 0
"""

from __future__ import annotations

import argparse
import json

import numpy as np


def omega(adj: np.ndarray) -> int:
    import networkx as nx  # imported late: it stays out of the run's memory peak

    return nx.max_weight_clique(nx.from_numpy_array(adj.astype(np.uint8)), weight=None)[1]


def alpha(adj: np.ndarray) -> int:
    comp = ~adj
    np.fill_diagonal(comp, False)
    return omega(comp)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    import run  # puts src/ on the path before the workloads import cliquesub

    workload = run.load_workloads()[args.workload]
    inputs = workload.setup(args.seed, run.output_dir())
    values = workload.reference(inputs)
    print(json.dumps({"workload": workload.name, "seed": args.seed, **values}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
