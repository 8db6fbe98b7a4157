"""The benchmark's workloads: which graph each runs on and which calls it makes.

Plain data with no third-party imports, so the launcher can read it
without loading numpy. Every workload is a closed loop: one library call
after the previous one completes, in one process.
"""

SAMPLED_METHODS = ("graphsage", "fastgcn", "ladies", "clustergcn",
                   "saint-node", "saint-edge", "saint-rw")

# name -> graph (a key of gen.GRAPHS), single trials as (method, config
# overrides on top of default_config), greedy searches over the method's
# full default_space, and the fewest rounds a run makes (more run while
# --seconds have not passed).
WORKLOADS = {
    "sampled-50k": {
        "graph": "sbm50k-d16",
        "trials": [(m, {"epochs": 2}) for m in SAMPLED_METHODS],
        "searches": [],
        "rounds": 2,
    },
    "search-50k": {
        "graph": "sbm50k-d16",
        "trials": [],
        "searches": ["sgc", "cs"],
        "rounds": 1,
    },
    "engcn-wide-50k": {
        "graph": "sbm50k-d128",
        "trials": [(m, {"epochs": 3}) for m in ("engcn", "sign", "sagn")],
        "searches": [],
        "rounds": 3,
    },
}

# Every method some workload runs; the traced run reports a time and a
# memory peak for each of them on every workload (zero where not run).
METHODS = tuple(sorted({m for w in WORKLOADS.values()
                        for m in [t[0] for t in w["trials"]] + w["searches"]}))
