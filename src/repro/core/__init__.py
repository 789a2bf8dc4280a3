"""The SWAT accelerator model — the paper's core contribution.

This package contains the design-time configuration (:mod:`repro.core.config`),
the microarchitectural building blocks (FIFO K/V buffers, attention cores,
pipeline stage timing), the compiled execution-plan IR (:mod:`repro.core.plan`,
the one schedule object shared by the simulator, serving, model and GPU
layers), the cycle-accurate simulator, and the resource and power estimators
that back Tables 1 and 2 and Figures 3, 8 and 9 of the paper.
"""

from repro.core.config import SWATConfig
from repro.core.fifo import KVFifoBuffer
from repro.core.attention_core import AttentionCore, CoreKind
from repro.core.pipeline import PipelineTiming, SWATPipelineModel
from repro.core.plan import ExecutionPlan, compile_plan, execute_plan_attention
from repro.core.simulator import SimulationResult, SWATSimulator, TimingReport
from repro.core.functional import swat_functional_attention
from repro.core.resources import ResourceEstimate, estimate_resources
from repro.core.power import PowerBreakdown, PowerModel

__all__ = [
    "SWATConfig",
    "KVFifoBuffer",
    "AttentionCore",
    "CoreKind",
    "PipelineTiming",
    "SWATPipelineModel",
    "ExecutionPlan",
    "compile_plan",
    "execute_plan_attention",
    "SimulationResult",
    "TimingReport",
    "SWATSimulator",
    "swat_functional_attention",
    "ResourceEstimate",
    "estimate_resources",
    "PowerBreakdown",
    "PowerModel",
]
