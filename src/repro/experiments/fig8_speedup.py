"""Figure 8 — speedup of SWAT over the Butterfly accelerator (BTF-1, BTF-2).

SWAT runs every attention layer of a window-attention model; the Butterfly
accelerator runs the hybrid configurations where all but the last one or two
layers use FFT mixing and the remainder use exact softmax attention (the
configurations its accuracy requires, per Table 3).  The speedup is the ratio
of the two accelerators' attention-layer latency for the whole model at every
input length.  Paper anchors: 6.7x (BTF-1) and 12.2x (BTF-2) at 4096 tokens,
growing with length up to roughly 24x / 45x at 16384.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import speedup
from repro.analysis.report import Table
from repro.baselines.butterfly_accel import ButterflyAccelerator, ButterflyModelConfig
from repro.core.config import SWATConfig
from repro.core.plan import compile_plan

__all__ = ["INPUT_LENGTHS", "PAPER_SPEEDUP_AT_4096", "Fig8Result", "run", "main"]

#: Input lengths on the x-axis of Figure 8.
INPUT_LENGTHS = (1024, 2048, 4096, 8192, 16384)

#: Speedups the paper reports at the standard 4096-token Longformer setup.
PAPER_SPEEDUP_AT_4096 = {"BTF-1": 6.7, "BTF-2": 12.2}


@dataclass(frozen=True)
class Fig8Result:
    """The Figure 8 series plus the rendered table."""

    table: Table
    speedup_vs_btf1: "list[float]"
    speedup_vs_btf2: "list[float]"
    input_lengths: "tuple[int, ...]"


def run(
    input_lengths: "tuple[int, ...]" = INPUT_LENGTHS,
    config: "SWATConfig | None" = None,
    num_layers: int = 6,
    plan_cache=None,
) -> Fig8Result:
    """Regenerate Figure 8.

    ``num_layers`` is the depth of the compared model (both accelerators run
    the same model; only the attention mechanism of each layer differs).
    SWAT's per-layer latency is read off the compiled execution plan of each
    input length; pass ``plan_cache`` (e.g. a
    :class:`repro.serving.cache.PlanCache`) to share the compiled shapes
    across repeated sweeps.
    """
    config = config if config is not None else SWATConfig.longformer()
    butterfly = ButterflyAccelerator(head_dim=config.head_dim, clock_mhz=config.clock_mhz)
    btf1 = ButterflyModelConfig(name="BTF-1", num_layers=num_layers, num_softmax_layers=1)
    btf2 = ButterflyModelConfig(name="BTF-2", num_layers=num_layers, num_softmax_layers=2)

    speedup_vs_btf1 = []
    speedup_vs_btf2 = []
    for seq_len in input_lengths:
        if plan_cache is not None:
            plan = plan_cache.lookup(config, seq_len)
        else:
            plan = compile_plan(config, seq_len)
        swat_seconds = plan.total_cycles * config.clock_period_s * num_layers
        speedup_vs_btf1.append(speedup(butterfly.run(seq_len, btf1).seconds, swat_seconds))
        speedup_vs_btf2.append(speedup(butterfly.run(seq_len, btf2).seconds, swat_seconds))

    table = Table(
        title="Figure 8: speedup of SWAT over the Butterfly accelerator",
        columns=["input_length", "SWAT vs. BTF-1", "SWAT vs. BTF-2"],
    )
    for index, seq_len in enumerate(input_lengths):
        table.add_row(seq_len, round(speedup_vs_btf1[index], 2), round(speedup_vs_btf2[index], 2))
    return Fig8Result(
        table=table,
        speedup_vs_btf1=speedup_vs_btf1,
        speedup_vs_btf2=speedup_vs_btf2,
        input_lengths=tuple(input_lengths),
    )


def main() -> None:
    """Print the Figure 8 series."""
    result = run()
    print(result.table.render())
    print()
    print(f"Paper at 4096 tokens: {PAPER_SPEEDUP_AT_4096}")


if __name__ == "__main__":
    main()
