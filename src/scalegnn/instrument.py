"""Sparse-op counter.

The module-level singleton ``op_counter`` is shared by the whole package.
It is bumped by every sparse*dense product that goes through ``graph.spmm``
(and the sampler block products). Feature memory is not counted here:
tests measure it with ``tracemalloc``.
"""

from __future__ import annotations


class OpCounter:
    """Counts sparse-dense matrix products and their multiply-add volume."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spmm_calls = 0
        self.spmm_madds = 0

    def record_spmm(self, nnz: int, ncols: int) -> None:
        self.spmm_calls += 1
        self.spmm_madds += int(nnz) * int(ncols)

    def snapshot(self) -> dict:
        return {"spmm_calls": self.spmm_calls, "spmm_madds": self.spmm_madds}


op_counter = OpCounter()
