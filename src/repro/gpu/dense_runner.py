"""Analytical model of naive dense attention on the GPU."""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import MI210, GPUDevice
from repro.gpu.kernels import GPUKernelModel, KernelCost
from repro.gpu.memory import dense_attention_memory_bytes

__all__ = ["GPUAttentionReport", "DenseAttentionGPU"]


@dataclass(frozen=True)
class GPUAttentionReport:
    """Time, memory and energy of one attention computation on the GPU.

    Attributes
    ----------
    seq_len, head_dim:
        Workload dimensions (per attention instance, as in Figure 3).
    seconds:
        Modelled execution time (of the whole batch when ``items > 1``).
    memory_bytes:
        Peak intermediate memory (of the whole batch when ``items > 1``).
    energy_joules:
        ``board_power * seconds``.
    kernels:
        Per-kernel cost breakdown.
    items:
        Attention instances (batch x heads) priced into this report; 1 for
        the single-head, single-batch measurement of Figure 3.
    """

    seq_len: int
    head_dim: int
    seconds: float
    memory_bytes: int
    energy_joules: float
    kernels: "tuple[KernelCost, ...]"
    items: int = 1

    @property
    def kernel_count(self) -> int:
        """Number of kernel invocations in the stream (count-weighted)."""
        return sum(cost.count for cost in self.kernels)


class DenseAttentionGPU:
    """Naive dense softmax attention: full QK^T, softmax, S'V on the GPU."""

    def __init__(
        self,
        device: GPUDevice = MI210,
        precision: str = "fp32",
        head_dim: int = 64,
        kernel_model: "GPUKernelModel | None" = None,
        launch_amortisation: float = 1.0,
    ):
        if head_dim <= 0:
            raise ValueError("head_dim must be positive")
        if not 0.0 <= launch_amortisation <= 1.0:
            raise ValueError(f"launch_amortisation must be in [0, 1], got {launch_amortisation}")
        self.device = device
        self.head_dim = head_dim
        #: How much of the per-kernel launch cost batching hides: 1.0 folds a
        #: whole batch into one launch per kernel, 0.0 reprices the looped
        #: per-instance dispatch (see :meth:`GPUKernelModel.batched`).
        self.launch_amortisation = launch_amortisation
        self.kernels = kernel_model if kernel_model is not None else GPUKernelModel(
            device=device, precision=precision
        )

    def run(self, seq_len: int) -> GPUAttentionReport:
        """Model one dense attention over ``seq_len`` tokens (single head)."""
        return self.run_batch(seq_len, items=1)

    def run_batch(self, seq_len: int, items: int = 1) -> GPUAttentionReport:
        """Model ``items`` dense attentions batched into one kernel stream.

        The batch/head axes fold into the GEMM and softmax problem sizes, so
        arithmetic scales with ``items`` while launch overheads are shared
        according to :attr:`launch_amortisation`.
        """
        if seq_len <= 0:
            raise ValueError("seq_len must be positive")
        if items <= 0:
            raise ValueError("items must be positive")
        h = self.head_dim
        costs = [
            self.kernels.gemm(seq_len, seq_len, h, name="qk_gemm"),
            self.kernels.elementwise(seq_len * seq_len, name="scale"),
            self.kernels.softmax(seq_len, seq_len, name="softmax"),
            self.kernels.gemm(seq_len, h, seq_len, name="sv_gemm"),
            self.kernels.elementwise(seq_len * h, name="output_copy"),
        ]
        costs = [self.kernels.batched(cost, items, self.launch_amortisation) for cost in costs]
        seconds = self.kernels.total_seconds(costs)
        memory = items * dense_attention_memory_bytes(seq_len, h, self.kernels.element_bytes)
        return GPUAttentionReport(
            seq_len=seq_len,
            head_dim=h,
            seconds=seconds,
            memory_bytes=memory,
            energy_joules=self.device.board_power_w * seconds,
            kernels=tuple(costs),
            items=items,
        )

    def latency_seconds(self, seq_len: int) -> float:
        """Convenience accessor for the modelled execution time."""
        return self.run(seq_len).seconds
