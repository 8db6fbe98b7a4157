"""Single-machine toolkit for benchmarking scalable GNN training methods.

Everything runs on CPU with numpy/scipy. The package covers three ways of
making message passing cheap (mini-batch sampling, hop precomputation, label
propagation), a stage-wise ensembling trainer that avoids keeping more than
one propagated feature matrix alive at a time, and a benchmark harness with
a greedy hyperparameter search.
"""

from scalegnn.bundle import (
    bundle_from_csv,
    load_bundle,
    save_bundle,
    write_synthetic_bundle,
)
from scalegnn.engcn import SLEConfig, engcn_run
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
    default_space,
    estimate_activation_memory,
    estimate_complexity,
    greedy_search,
)
from scalegnn.instrument import op_counter
from scalegnn.labelprop import DiffusionConfig, correct_and_smooth, lp_iterate
from scalegnn.nn import TrainingDiverged
from scalegnn.synth import SyntheticSpec, generate_sbm
from scalegnn.trainers import Dataset, dataset_from_sbm, default_config, run_trial

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
    "engcn_run",
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
