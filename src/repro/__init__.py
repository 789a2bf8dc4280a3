"""SWAT reproduction library.

This package reproduces "SWAT: Scalable and Efficient Window Attention-based
Transformers Acceleration on FPGAs" (DAC 2024) as a pure-Python simulation and
analytical-modelling stack.

Sub-packages
------------
attention
    Functional reference implementations of dense, sliding-window, BigBird,
    sliding-chunks and FFT/butterfly attention, plus the fused row-wise kernel.
numerics
    FP16/FP32 emulation and numerical-error metrics.
fpga
    FPGA device database, BRAM/HBM models and HLS-style latency primitives.
core
    The SWAT accelerator itself: configuration, FIFO buffers, attention cores,
    pipeline model, cycle-accurate simulator, resource and power estimation.
gpu
    Analytical model of a server-class GPU (AMD MI210) running dense and
    sliding-chunks attention.
baselines
    The Butterfly FPGA accelerator baseline and a generic dense FPGA baseline.
model
    Whole-model plan compilation and forward execution: ``ModelSpec`` ->
    compiled ``ModelPlan`` (per-shape plan dedup across layers, model-wide
    cycle/traffic prefix sums) and the stacked ``ModelExecutor`` forward,
    bit-identical to the layer-by-layer ``repro.nn`` reference.
serving
    Multi-accelerator serving layer: pluggable backend registry, a
    synchronous drain engine with dynamic batching across a shard pool,
    whole-model forward and decode requests, continuous batching on a
    simulated clock, plan/schedule caching and serving-level throughput
    accounting (``repro-serve`` CLI).
workload
    Transformer workload specifications and FLOPs/MOPs accounting.
nn
    A minimal numpy autograd and Transformer training substrate used for the
    accuracy experiments.
analysis
    Speedup/energy-efficiency metrics and table rendering helpers.
experiments
    One module per paper table/figure that regenerates its rows/series.
"""

from repro.core.config import SWATConfig
from repro.core.simulator import SWATSimulator, SimulationResult

__version__ = "1.5.0"

__all__ = [
    "SWATConfig",
    "SWATSimulator",
    "SimulationResult",
    "__version__",
]
