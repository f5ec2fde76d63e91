"""Clique subdivisions in graphs of bounded independence number.

A library for constructing large clique subdivisions (dependent random
choice, dense-subset extraction, independence filtering), exact small-scale
oracles for alpha/omega/chi/sigma, machine-checkable subdivision
certificates, and a sweep harness for the coloring-to-subdivision ratio.
"""

__version__ = "0.1.0"

from .dense import dense_subset, missing_pair_count, peel_sequence
from .drc import (
    DrcCertificate,
    PartitionError,
    count_disjoint_paths4,
    drc_partition,
    drc_select,
    verify_drc_certificate,
)
from .esfilter import es_filter
from .experiments import (
    OPTIMAL_P,
    ExperimentRecord,
    SweepBudgets,
    emit_report,
    run_ratio_sweep,
)
from .graph_io import ParseError, read_graph, write_graph
from .graphs import (
    Graph,
    complement,
    edge_density,
    gen_gnp,
    induced,
    new_graph,
)
from .oracles import (
    ColoringResult,
    GraphStats,
    SigmaUpperCert,
    Tagged,
    alpha_exact,
    chi_exact,
    dsatur_upper,
    graph_stats,
    greedy_clique_lower,
    omega_exact,
    sigma_exact_tiny,
    sigma_exact_value,
    sigma_upper_cert,
    turan_density_bound,
)
from .pipeline import (
    BoundReport,
    FBound,
    InductionStepReport,
    PreconditionRefusal,
    check_ratio_induction_step,
    paper_hypotheses,
    paper_path_bound,
    sigma_lower_auto,
    sigma_lower_dense,
    sigma_lower_density_cited,
    sigma_lower_sparse,
    subdivision_bound_dispatch,
)
from .subdivision import (
    BuildFailure,
    SubdivisionCertificate,
    VerifyResult,
    build_subdivision,
    relabel_certificate,
    sigma_lower_from_cert,
    verify_subdivision,
)
