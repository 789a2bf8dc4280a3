"""Integration tests spanning multiple subsystems."""

import numpy as np
import pytest

from repro.attention.dense import dense_attention
from repro.attention.fused import fused_window_attention
from repro.attention.sliding_chunks import sliding_chunks_attention
from repro.attention.window import window_attention, window_attention_banded
from repro.core.config import SWATConfig
from repro.core.functional import swat_functional_attention
from repro.core.plan import compile_plan
from repro.core.simulator import SWATSimulator
from repro.gpu.dense_runner import DenseAttentionGPU
from repro.numerics.error import compare
from repro.workload.generator import attention_inputs


class TestAllImplementationsAgree:
    """Every window-attention implementation must compute the same function."""

    def test_window_implementations_cross_validate(self):
        q, k, v = attention_inputs(40, 16, seed=0)
        reference = window_attention(q, k, v, window=4)
        np.testing.assert_allclose(window_attention_banded(q, k, v, 4), reference, atol=1e-9)
        np.testing.assert_allclose(sliding_chunks_attention(q, k, v, 4), reference, atol=1e-9)
        np.testing.assert_allclose(fused_window_attention(q, k, v, 4), reference, atol=1e-9)

    def test_simulator_agrees_with_fp32_functional_model(self):
        config = SWATConfig.longformer(precision="fp32", head_dim=16, window_tokens=8)
        q, k, v = attention_inputs(32, 16, seed=1, scale=0.5)
        simulated = SWATSimulator(config).run(q, k, v).output
        functional = swat_functional_attention(q, k, v, config)
        assert compare(functional, simulated).max_abs < 1e-3

    def test_bigbird_simulation_matches_schedule_mask(self):
        config = SWATConfig(
            head_dim=8, window_tokens=6, num_global_tokens=2, num_random_tokens=2, random_seed=3
        )
        seq_len = 30
        q, k, v = attention_inputs(seq_len, 8, seed=2)
        result = SWATSimulator(config).run(q, k, v)
        plan = compile_plan(config, seq_len)
        mask = np.zeros((seq_len, seq_len), dtype=bool)
        rows, slots = np.nonzero(plan.key_indices >= 0)
        mask[rows, plan.key_indices[rows, slots]] = True
        np.testing.assert_allclose(result.output, dense_attention(q, k, v, mask=mask), atol=1e-9)


class TestPerformanceStory:
    """The headline performance narrative must hold end to end."""

    def test_swat_scales_linearly_while_gpu_scales_quadratically(self):
        swat = SWATSimulator(SWATConfig.longformer())
        gpu = DenseAttentionGPU()
        swat_ratio = swat.estimate(16384).seconds / swat.estimate(4096).seconds
        gpu_ratio = gpu.run(16384).seconds / gpu.run(4096).seconds
        assert swat_ratio == pytest.approx(4.0, rel=0.05)
        assert gpu_ratio > 6.0

    def test_swat_energy_advantage_at_long_context(self):
        swat = SWATSimulator(SWATConfig.longformer())
        gpu = DenseAttentionGPU()
        advantage = gpu.run(16384).energy_joules / swat.estimate(16384).energy_joules
        assert advantage > 10.0

    def test_off_chip_traffic_far_below_gpu_dense_intermediates(self):
        config = SWATConfig.longformer(head_dim=16, window_tokens=8)
        simulator = SWATSimulator(config)
        seq_len = 64
        q, k, v = attention_inputs(seq_len, 16, seed=3)
        traffic = simulator.run(q, k, v).traffic.total_bytes
        dense_intermediates = seq_len * seq_len * 4
        assert traffic < dense_intermediates

    def test_bigbird_configuration_fits_and_matches_window_ii(self):
        bigbird = SWATSimulator(SWATConfig.bigbird())
        longformer = SWATSimulator(SWATConfig.longformer())
        assert bigbird.resources.fits
        assert (
            bigbird.estimate(4096).initiation_interval
            == longformer.estimate(4096).initiation_interval
        )
