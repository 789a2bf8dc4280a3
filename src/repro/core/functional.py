"""Precision-faithful functional model of the SWAT computation.

The cycle-accurate simulator answers *how long* the accelerator takes; this
module answers *what it computes*.  It runs the fused window/global/random
attention with every intermediate rounded to the configured datapath
precision, mimicking the hardware's FP16 (or FP32) arithmetic:

* inputs (Q, K, V rows) are stored in BRAM at the datapath precision,
* the QK dot product accumulates at datapath precision,
* the exponential and the SV products are rounded per element,
* the Z reduction and row sum accumulate at datapath precision,
* the final division is rounded once.

The hardware performs the exponential on the raw scores (no max subtraction):
the window-attention scores at the paper's scale are small enough for FP16.
The functional model follows that choice by default so that the numerics tests
measure the real datapath error against the FP64 reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SWATConfig
from repro.core.plan import compile_plan
from repro.numerics.floating import quantize

__all__ = ["swat_functional_attention"]


def swat_functional_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    config: SWATConfig,
    scale: "float | None" = None,
    subtract_max: bool = False,
) -> np.ndarray:
    """Compute SWAT's attention output at the configured datapath precision.

    Parameters
    ----------
    q, k, v:
        Input matrices of shape ``(seq_len, head_dim)``.
    config:
        The SWAT design point; its window/global/random parameters define the
        attention pattern and its precision defines the rounding.
    scale:
        Score scale, default ``1/sqrt(head_dim)``.
    subtract_max:
        When True, subtract the per-row maximum score before the exponential
        (a numerically-safer variant the hardware does not implement).

    Returns
    -------
    numpy.ndarray
        Attention output of shape ``(seq_len, head_dim)`` in float64 holding
        values representable at the datapath precision.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.ndim != 2 or q.shape != k.shape or k.shape[0] != v.shape[0]:
        raise ValueError("q, k, v must be 2-D with matching shapes for self-attention")
    if q.shape[1] != config.head_dim:
        raise ValueError(
            f"input head_dim {q.shape[1]} does not match config head_dim {config.head_dim}"
        )
    seq_len = q.shape[0]
    precision = config.precision
    if scale is None:
        scale = 1.0 / np.sqrt(config.head_dim)

    q_stored = quantize(q, precision)
    k_stored = quantize(k, precision)
    v_stored = quantize(v, precision)

    plan = compile_plan(config, seq_len)
    output = np.empty_like(q_stored)
    for row in range(seq_len):
        # Ascending key order fixes the accumulation order of the rounded
        # reductions (the plan's core order would round differently).
        keys = np.sort(plan.key_indices[row, : plan.key_counts[row]])
        k_rows = k_stored[keys]
        v_rows = v_stored[keys]
        scores = quantize((k_rows @ q_stored[row]) * scale, precision)
        if subtract_max:
            scores = quantize(scores - scores.max(), precision)
        weights = quantize(np.exp(scores), precision)
        z_unscaled = quantize(weights @ v_rows, precision)
        row_sum = float(quantize(weights.sum(), precision))
        output[row] = quantize(z_unscaled / row_sum, precision)
    return output
