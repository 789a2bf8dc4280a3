"""Cycle-accurate simulator of the SWAT accelerator.

The simulator combines the independently-tested models of this package:

* the **compiled execution plan** (:mod:`repro.core.plan`) encodes, as dense
  arrays, which keys every row attends and which K/V rows are loaded — the
  row-major, input-stationary dataflow (compiled by
  :func:`~repro.core.plan.compile_plan`, or resolved through a
  :class:`~repro.serving.cache.PlanCache`);
* the **pipeline model** (:mod:`repro.core.pipeline`) prices each row at the
  stage-level cycle counts of Table 1 and composes them into the end-to-end
  latency;
* the **FIFO buffer** (:mod:`repro.core.fifo`) models the fixed-size modulo
  eviction policy; the compiled plan guarantees the "every K/V element is
  loaded exactly once" property by construction, and the reported
  :class:`~repro.core.fifo.FifoStats` counters are derived from that
  guarantee.

Functionally, the simulator computes the fused attention equation over
exactly the keys the hardware would hold in its attention cores — in row
chunks read from the compiled plan, via contiguous K/V slab GEMMs plus an
extras gather (:func:`repro.core.plan.execute_plan_attention`) — and the result is
bit-for-bit the same attention output a software implementation of window
(+ global + random) attention produces, which is how the simulator is
validated against the dense reference in the test-suite.

Two entry points are provided: :meth:`SWATSimulator.run` performs the full
functional + timing simulation on concrete Q/K/V data, while
:meth:`SWATSimulator.estimate` produces the timing/energy report analytically
for any sequence length (used by the long-sequence benchmarks where the
functional output is irrelevant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SWATConfig
from repro.core.fifo import FifoStats
from repro.core.pipeline import SWATPipelineModel
from repro.core.plan import ExecutionPlan, compile_plan, execute_plan_attention
from repro.core.power import PowerModel
from repro.core.resources import ResourceEstimate, estimate_resources
from repro.fpga.memory import HBMModel, MemoryTrafficSummary

__all__ = ["TimingReport", "SimulationResult", "SWATSimulator"]


@dataclass(frozen=True)
class TimingReport:
    """Latency, throughput and energy of one attention computation.

    Attributes
    ----------
    seq_len, num_heads:
        Workload dimensions.
    cycles:
        Total kernel cycles.
    seconds:
        Wall-clock latency at the configured clock.
    initiation_interval:
        Cycles between consecutive query rows.
    stage_cycles:
        Per-stage latency in cycles (Table 1).
    power_w:
        Estimated board power.
    energy_joules:
        ``power_w * seconds`` — energy per attention, the Figure 9 metric.
    """

    seq_len: int
    num_heads: int
    cycles: int
    seconds: float
    initiation_interval: int
    stage_cycles: "dict[str, int]"
    power_w: float
    energy_joules: float

    @property
    def cycles_per_row(self) -> float:
        """Average cycles per query row (approaches the initiation interval)."""
        return self.cycles / (self.seq_len * max(1, self.num_heads))

    @property
    def tokens_per_second(self) -> float:
        """Query rows processed per second."""
        return self.seq_len * self.num_heads / self.seconds


@dataclass(frozen=True)
class SimulationResult:
    """Everything the cycle-accurate run produces.

    Attributes
    ----------
    output:
        The attention output ``Z`` of shape ``(seq_len, head_dim)``.
    timing:
        Latency / energy report.
    traffic:
        Off-chip traffic summary of the schedule's load/store events.
    fifo_stats:
        Load/eviction counters of the window K/V FIFO.
    resources:
        Resource estimate of the simulated configuration.
    """

    output: np.ndarray
    timing: TimingReport
    traffic: MemoryTrafficSummary
    fifo_stats: FifoStats
    resources: ResourceEstimate


class SWATSimulator:
    """Cycle-accurate, functionally-exact simulator of one SWAT instance."""

    def __init__(
        self,
        config: "SWATConfig | None" = None,
        hbm: "HBMModel | None" = None,
        plan_cache=None,
    ):
        self.config = config if config is not None else SWATConfig()
        self.pipeline = SWATPipelineModel(self.config)
        self.resources = estimate_resources(self.config)
        self.power_model = PowerModel(self.config, self.resources)
        #: Optional schedule cache (see :class:`repro.serving.cache.PlanCache`).
        #: Anything with a ``lookup(config, seq_len) -> ExecutionPlan`` method
        #: works; ``None`` recompiles the execution plan on every call.
        self.plan_cache = plan_cache
        self.hbm = hbm if hbm is not None else HBMModel(
            bandwidth_gbps=self.config.device.hbm_bandwidth_gbps,
            clock_hz=self.config.clock_hz,
        )

    def resolve_plan(self, seq_len: int) -> ExecutionPlan:
        """Resolve the compiled execution plan, through the cache when present."""
        if self.plan_cache is not None:
            return self.plan_cache.lookup(self.config, seq_len)
        return compile_plan(self.config, seq_len, pipeline=self.pipeline)

    # ------------------------------------------------------------------ #
    # Analytical timing (any sequence length)
    # ------------------------------------------------------------------ #

    def estimate(self, seq_len: int, num_heads: int = 1) -> TimingReport:
        """Analytical timing/energy report without functional execution."""
        cycles = self.pipeline.attention_cycles(seq_len, num_heads)
        seconds = cycles * self.config.clock_period_s
        power = self.power_model.total_power_w
        return TimingReport(
            seq_len=seq_len,
            num_heads=num_heads,
            cycles=cycles,
            seconds=seconds,
            initiation_interval=self.pipeline.initiation_interval,
            stage_cycles=dict(self.pipeline.timing.stage_cycles),
            power_w=power,
            energy_joules=power * seconds,
        )

    def estimate_traffic(self, seq_len: int) -> MemoryTrafficSummary:
        """Analytical off-chip traffic for one head over ``seq_len`` tokens.

        Read straight off the compiled plan's prefix sums — no per-row walk.
        """
        return self._traffic_summary(self.resolve_plan(seq_len))

    @staticmethod
    def _traffic_summary(plan: ExecutionPlan) -> MemoryTrafficSummary:
        traffic = plan.traffic_bytes()
        return MemoryTrafficSummary(
            q_bytes_loaded=traffic["q"],
            k_bytes_loaded=traffic["k"],
            v_bytes_loaded=traffic["v"],
            output_bytes_stored=traffic["output"],
            redundant_kv_bytes=traffic["redundant_kv"],
        )

    def memory_footprint_bytes(self, seq_len: int) -> int:
        """Off-chip working-set bytes for one attention head.

        SWAT streams Q/K/V and writes Z back; no intermediate score matrix is
        ever materialised off chip, so the footprint is just the four
        ``seq_len x head_dim`` matrices at the datapath precision.  This is
        the quantity plotted for SWAT in Figure 3 (right).
        """
        if seq_len <= 0:
            raise ValueError("seq_len must be positive")
        return 4 * seq_len * self.config.kv_row_bytes

    # ------------------------------------------------------------------ #
    # Full functional + timing simulation
    # ------------------------------------------------------------------ #

    def run(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        scale: "float | None" = None,
        num_heads: int = 1,
        plan: "ExecutionPlan | None" = None,
    ) -> SimulationResult:
        """Simulate one attention head on concrete data.

        The functional output is computed by the chunked plan executor
        (:func:`repro.core.plan.execute_plan_attention`): consecutive rows
        attend a contiguous K/V slab, so each chunk is two dense GEMMs with
        out-of-band scores masked off, plus a small gather for the
        global/random extras.  Traffic and FIFO counters come from the same
        plan's prefix sums; the compiled schedule guarantees every key
        streams through the window FIFO exactly once.

        Parameters
        ----------
        q, k, v:
            Arrays of shape ``(seq_len, head_dim)`` with
            ``head_dim == config.head_dim``.
        scale:
            Score scaling factor, default ``1/sqrt(head_dim)``.
        num_heads:
            Number of identical heads to account for in the timing report
            (the functional output is computed for the data of one head).
        plan:
            Optional precompiled execution plan for this shape (callers that
            already resolved it, e.g. a serving backend, skip the cache
            lookup).  Must cover exactly ``seq_len`` rows.
        """
        q = np.asarray(q, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if q.ndim != 2 or q.shape != k.shape or k.shape[0] != v.shape[0]:
            raise ValueError("q, k, v must be 2-D with matching shapes for self-attention")
        if q.shape[1] != self.config.head_dim:
            raise ValueError(
                f"head_dim {q.shape[1]} does not match config head_dim {self.config.head_dim}"
            )
        seq_len = q.shape[0]
        if scale is None:
            scale = 1.0 / np.sqrt(self.config.head_dim)

        if plan is None:
            plan = self.resolve_plan(seq_len)
        elif plan.seq_len != seq_len or plan.fingerprint != self.config.schedule_fingerprint():
            raise ValueError(
                f"supplied plan (seq_len={plan.seq_len}, "
                f"fingerprint={plan.fingerprint}) does not match this simulator "
                f"(seq_len={seq_len}, fingerprint={self.config.schedule_fingerprint()})"
            )
        output = execute_plan_attention(plan, q, k, v, scale=scale, subtract_max=False)

        timing = self.estimate(seq_len, num_heads=num_heads)
        return SimulationResult(
            output=output,
            timing=timing,
            traffic=self._traffic_summary(plan),
            fifo_stats=FifoStats.for_streamed_window(
                seq_len, capacity=max(self.config.window_tokens, 1)
            ),
            resources=self.resources,
        )
