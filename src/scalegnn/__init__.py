"""Single-machine toolkit for benchmarking scalable GNN training methods.

Everything runs on CPU with numpy/scipy. The package covers three ways of
making message passing cheap (mini-batch sampling, hop precomputation, label
propagation), a stage-wise ensembling trainer that avoids keeping more than
one propagated feature matrix alive at a time, and a benchmark harness with
a greedy hyperparameter search.

SCALEGNN_NUM_THREADS=<n> caps the BLAS/OpenMP thread pools. It is exported
to each pool's own variable (a variable already set wins) when this package
is imported, before any of its modules loads numpy; a process that has
loaded numpy already keeps the pools it started with. Through
OMP_NUM_THREADS it also caps the pool that splits large sparse products
into row blocks (scalegnn.graph), which reads that variable when it is
first built.
"""

import os


def _apply_thread_env() -> None:
    threads = os.environ.get("SCALEGNN_NUM_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, threads)


_apply_thread_env()  # before the imports below load numpy

from scalegnn.bundle import (
    bundle_from_csv,
    load_bundle,
    save_bundle,
    write_synthetic_bundle,
)
from scalegnn.engcn import SLEConfig
from scalegnn.graph import (
    DataSplit,
    Graph,
    LabelVector,
    add_self_loops,
    build_graph,
    induced_subgraph,
    normalize_adjacency,
    spmm,
)
from scalegnn.harness import (
    GNN_SEARCH_SPACE,
    LP_SEARCH_SPACE,
    METHODS,
    default_config,
    default_space,
    estimate_activation_memory,
    estimate_complexity,
    greedy_search,
)
from scalegnn.instrument import op_counter
from scalegnn.labelprop import DiffusionConfig, correct_and_smooth, lp_iterate
from scalegnn.nn import TrainingDiverged
from scalegnn.synth import SyntheticSpec, generate_sbm
from scalegnn.trainers import Dataset, dataset_from_sbm, run_trial

__all__ = [
    "Graph",
    "DataSplit",
    "LabelVector",
    "build_graph",
    "add_self_loops",
    "normalize_adjacency",
    "spmm",
    "induced_subgraph",
    "op_counter",
    "SyntheticSpec",
    "generate_sbm",
    "DiffusionConfig",
    "lp_iterate",
    "correct_and_smooth",
    "SLEConfig",
    "METHODS",
    "GNN_SEARCH_SPACE",
    "LP_SEARCH_SPACE",
    "default_space",
    "greedy_search",
    "estimate_activation_memory",
    "estimate_complexity",
    "Dataset",
    "dataset_from_sbm",
    "default_config",
    "run_trial",
    "TrainingDiverged",
    "save_bundle",
    "load_bundle",
    "write_synthetic_bundle",
    "bundle_from_csv",
]

__version__ = "0.1.0"
