"""Looped reference pricing of one row span (test oracle).

The scalar loop the shipped :class:`~repro.model.plan._RowSpanPricing`
kernel replaced: it walks the segments a span covers one by one, so every
closed-form price can be checked against an independent derivation.
"""

import numpy as np


def looped_span_cycles(plan, row_lo: int, row_hi: int, primed: bool) -> int:
    """Cycles to stream rows ``[row_lo, row_hi)`` of ``plan`` in one iteration.

    Rows are priced at their segment's initiation interval.  An interior
    geometry switch whose boundary falls in the span always pays its refill;
    the row axis's own initial fill (segment 0, or a span starting cold
    mid-segment) follows ``primed``.
    """
    if not 0 <= row_lo < row_hi <= plan.total_rows:
        raise ValueError(f"span [{row_lo}, {row_hi}) out of range [0, {plan.total_rows}]")
    first = int(np.searchsorted(plan.cum_rows, row_lo, side="right")) - 1
    last = int(np.searchsorted(plan.cum_rows, row_hi, side="left")) - 1
    cycles = 0
    start_fill_charged = False
    for layer in range(first, last + 1):
        start = int(plan.cum_rows[layer])
        end = int(plan.cum_rows[layer + 1])
        covered = min(row_hi, end) - max(row_lo, start)
        cycles += covered * int(plan.layer_ii[layer])
        fill = int(plan.switch_fill[layer])
        if not fill or start < row_lo:
            continue
        if layer == 0:
            if not primed:
                cycles += fill
                start_fill_charged = True
        else:
            cycles += fill
            if start == row_lo:
                start_fill_charged = True
    if not primed and not start_fill_charged:
        cycles += int(plan.layer_fill[first] - plan.layer_ii[first])
    return cycles


def looped_span_matrix(plan, bounds, primed: bool) -> np.ndarray:
    """Oracle for ``span_cycles_matrix``: one looped span per entry.

    Each row's first span follows ``primed``; its later spans are primed.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    return np.array(
        [
            [
                looped_span_cycles(plan, int(lo), int(hi), primed or index > 0)
                for index, (lo, hi) in enumerate(zip(row[:-1], row[1:]))
            ]
            for row in bounds
        ],
        dtype=np.int64,
    )
