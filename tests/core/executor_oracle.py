"""Per-row reference executor of a compiled plan (test oracle).

:func:`execute_plan_attention_rows` is the pre-refactor execution shape: one
fused-kernel call per query row over the row's keys in attention-core order.
The blocked executor :func:`repro.core.plan.execute_plan_attention` must agree
with it to float accumulation tolerance — the executor equivalence tests and
``benchmarks/test_plan_compile.py`` compare against it.
"""

from __future__ import annotations

import numpy as np

from repro.attention.fused import fused_row
from repro.core.plan import ExecutionPlan


def execute_plan_attention_rows(
    plan: ExecutionPlan,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: "float | None" = None,
    subtract_max: bool = False,
) -> np.ndarray:
    """Reference executor: one fused-kernel call per query row of 2-D Q/K/V."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[1])
    output = np.empty_like(q)
    for row in range(plan.seq_len):
        indices = plan.key_indices[row, : plan.key_counts[row]]
        result = fused_row(q[row], k[indices], v[indices], scale=scale, subtract_max=subtract_max)
        output[row] = result.z
    return output
