"""BigBird scenario: configuring SWAT's global and random attention cores.

SWAT is a parameterised design (Figure 7 of the paper): beyond the sliding
window it can dedicate attention cores to global tokens (pre-loaded K/V) and
to statically-chosen random tokens (reloaded every row).  This example builds
the paper's BigBird configuration, verifies the functional output against a
masked dense reference, and shows what the extra attention patterns cost in
off-chip traffic, resources and the LOAD-stage latency.

Run with ``python examples/bigbird_accelerator.py``.
"""

import numpy as np

from repro import SWATConfig, SWATSimulator
from repro.attention import dense_attention
from repro.workload import attention_inputs


def main() -> None:
    # Scaled-down versions of the paper's Longformer and BigBird configurations
    # (same 2:2:3 window/global/random proportions as 192/128/192 of Table 2).
    longformer = SWATConfig.longformer(window_tokens=48)
    bigbird = SWATConfig(
        head_dim=64, window_tokens=24, num_global_tokens=8, num_random_tokens=16, random_seed=7
    )

    seq_len = 256
    q, k, v = attention_inputs(seq_len, 64, seed=1)

    for name, config in (("Longformer", longformer), ("BigBird", bigbird)):
        simulator = SWATSimulator(config)
        result = simulator.run(q, k, v)

        # Rebuild the attention mask the compiled plan realised and cross-check.
        plan = simulator.resolve_plan(seq_len)
        mask = np.zeros((seq_len, seq_len), dtype=bool)
        rows, slots = np.nonzero(plan.key_indices >= 0)
        mask[rows, plan.key_indices[rows, slots]] = True
        reference = dense_attention(q, k, v, mask=mask)
        error = float(np.max(np.abs(result.output - reference)))

        print(f"== {name}: {config.describe()}")
        print(f"   functional check vs masked dense reference: max error {error:.2e}")
        print(f"   LOAD stage: {result.timing.stage_cycles['LOAD']} cycles "
              f"(window-only is 66; random attention pays for per-row gathers)")
        print(f"   pipeline II: {result.timing.initiation_interval} cycles/row")
        print(f"   K/V transfer efficiency: {result.traffic.transfer_efficiency:.0%} "
              f"({result.traffic.redundant_kv_bytes / 1e3:.1f} kB redundant)")
        usage = result.resources.utilisation_percent()
        print(f"   resources: DSP {usage['DSP']:.1f}%  LUT {usage['LUT']:.1f}%  "
              f"FF {usage['FF']:.1f}%  BRAM {usage['BRAM']:.1f}%")
        print()


if __name__ == "__main__":
    main()
