"""Per-row reference schedule of the row-major dataflow (test oracle).

:func:`legacy_row_plans` is the seed's per-row schedule construction, kept
verbatim: the compiled :class:`~repro.core.plan.ExecutionPlan` arrays are
property-tested against it field by field, and
``benchmarks/test_plan_compile.py`` times the compiled build against it.
:func:`compiled_row_plans` reads the same :class:`RowPlan` fields off a
compiled plan's arrays, so the two can be compared row by row.
:func:`global_token_indices` is the seed's global-token convention the
legacy construction reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SWATConfig
from repro.core.plan import ExecutionPlan


@dataclass(frozen=True)
class RowPlan:
    """The work of one query row.

    Attributes
    ----------
    row:
        Query row index ``i``.
    window_keys:
        Key indices covered by the sliding window for this row.
    global_keys:
        Key indices of global tokens (constant across rows).
    random_keys:
        Key indices of this row's static random tokens.
    new_window_keys:
        Window keys that were not resident in the FIFO before this row and
        therefore must be loaded during this row's LOAD stage.
    reloaded_keys:
        Random keys loaded this row that the dataflow has already fetched
        (window-resident or global); these are the source of redundant
        traffic.  Random keys pointing ahead of the window are fetched too
        (see :attr:`keys_loaded`) but are first-time loads, not reloads.
    attended_keys:
        All keys attended by this row, sorted and de-duplicated.  Derived
        once at construction (from the compiled plan when available) rather
        than recomputed as a sorted-set union on every access.
    keys_loaded:
        Keys whose K/V rows are fetched from off-chip memory this row: every
        random key is refreshed every row it appears in, plus the window keys
        entering the FIFO.  Also derived once at construction.
    """

    row: int
    window_keys: "tuple[int, ...]"
    global_keys: "tuple[int, ...]"
    random_keys: "tuple[int, ...]"
    new_window_keys: "tuple[int, ...]"
    reloaded_keys: "tuple[int, ...]"
    attended_keys: "tuple[int, ...] | None" = None
    keys_loaded: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        # Direct constructions (tests, ad-hoc plans) may omit the derived
        # fields; compute them once here instead of on every property access.
        if self.attended_keys is None:
            object.__setattr__(
                self,
                "attended_keys",
                tuple(
                    sorted(set(self.window_keys) | set(self.global_keys) | set(self.random_keys))
                ),
            )
        if self.keys_loaded is None:
            object.__setattr__(
                self,
                "keys_loaded",
                tuple(sorted(set(self.new_window_keys) | set(self.random_keys))),
            )


def global_token_indices(config: SWATConfig, seq_len: int) -> "tuple[int, ...]":
    """Resolve the global-token indices for a sequence of ``seq_len`` tokens.

    By convention (Longformer/BigBird) the leading tokens are global.
    """
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    return tuple(range(min(config.num_global_tokens, seq_len)))


def legacy_row_plans(config: SWATConfig, seq_len: int) -> "list[RowPlan]":
    """The seed's per-row schedule construction, kept verbatim as reference.

    ``O(seq_len)`` numpy set operations per row for the random table plus an
    ``O(seq_len * window)`` Python loop for the plans — the cost profile the
    compiled :func:`~repro.core.plan.compile_plan` replaces.  The hypothesis
    property suite asserts field-by-field equality between this construction
    and :func:`compiled_row_plans` of the compiled plan.
    """
    if seq_len <= 0:
        raise ValueError(f"seq_len must be positive, got {seq_len}")
    global_keys = global_token_indices(config, seq_len)
    half_width = config.window_half_width

    random_table: "dict[int, tuple[int, ...]]" = {}
    if config.has_random_attention:
        rng = np.random.default_rng(config.random_seed)
        all_positions = np.arange(seq_len)
        for row in range(seq_len):
            delta = all_positions - row
            outside_window = all_positions[(delta < -half_width) | (delta >= half_width)]
            candidates = np.setdiff1d(outside_window, np.asarray(global_keys, dtype=int))
            if candidates.size == 0:
                random_table[row] = ()
                continue
            count = min(config.num_random_tokens, candidates.size)
            random_table[row] = tuple(
                int(x) for x in np.sort(rng.choice(candidates, count, replace=False))
            )

    resident: "set[int]" = set()
    plans = []
    for row in range(seq_len):
        lo = max(0, row - half_width)
        hi = min(seq_len, row + half_width)
        window = tuple(range(lo, max(hi, row + 1)))
        new_window = tuple(key for key in window if key not in resident)
        resident.update(new_window)
        random_keys = random_table.get(row, ())
        reloaded = tuple(key for key in random_keys if key in resident or key in global_keys)
        plans.append(
            RowPlan(
                row=row,
                window_keys=window,
                global_keys=global_keys,
                random_keys=random_keys,
                new_window_keys=new_window,
                reloaded_keys=reloaded,
            )
        )
    return plans


def compiled_row_plan(plan: ExecutionPlan, row: int) -> RowPlan:
    """The :class:`RowPlan` of one row, read off a compiled plan's arrays."""
    lo = int(plan.window_lo[row])
    hi = int(plan.window_hi[row])
    new_lo = int(plan.new_lo[row])
    new_hi = int(plan.new_hi[row])
    count = int(plan.random_counts[row])
    randoms = tuple(int(key) for key in plan.random_keys[row, :count])
    reloaded = tuple(
        int(key) for key in plan.random_keys[row, :count][plan.reload_mask[row, :count]]
    )
    globals_ = tuple(int(key) for key in plan.global_keys)
    g_eff = len(globals_)
    # Sorted merges, assembled from the plan's contiguous segments instead
    # of sorted-set unions: randoms behind the window sit in [g, lo) and
    # randoms ahead sit at or above max(hi, g), so ascending order is
    # globals-behind, randoms-behind, window, globals-ahead, randoms-ahead.
    behind = tuple(key for key in randoms if key < lo)
    ahead = randoms[len(behind) :]
    attended = globals_[: min(g_eff, lo)] + behind + tuple(range(lo, hi)) + globals_[hi:] + ahead
    keys_loaded = behind + tuple(range(new_lo, new_hi)) + ahead
    return RowPlan(
        row=row,
        window_keys=tuple(range(lo, hi)),
        global_keys=globals_,
        random_keys=randoms,
        new_window_keys=tuple(range(new_lo, new_hi)),
        reloaded_keys=reloaded,
        attended_keys=attended,
        keys_loaded=keys_loaded,
    )


def compiled_row_plans(plan: ExecutionPlan) -> "list[RowPlan]":
    """The :class:`RowPlan` of every row of a compiled plan."""
    return [compiled_row_plan(plan, row) for row in range(plan.seq_len)]
