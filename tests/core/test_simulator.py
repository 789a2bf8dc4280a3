"""Tests for the cycle-accurate SWAT simulator."""

import numpy as np
import pytest

from repro.attention.dense import dense_attention
from repro.attention.masks import swat_window_mask
from repro.core.config import SWATConfig
from repro.core.simulator import SWATSimulator
from repro.workload.generator import attention_inputs


def _small_config(**overrides):
    defaults = dict(head_dim=16, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


class TestFunctionalCorrectness:
    def test_window_only_matches_masked_dense(self):
        config = _small_config()
        q, k, v = attention_inputs(48, 16, seed=0)
        result = SWATSimulator(config).run(q, k, v)
        expected = dense_attention(q, k, v, mask=swat_window_mask(48, 8))
        np.testing.assert_allclose(result.output, expected, atol=1e-9)

    def test_global_tokens_match_masked_dense(self):
        config = _small_config(num_global_tokens=2)
        q, k, v = attention_inputs(40, 16, seed=1)
        result = SWATSimulator(config).run(q, k, v)
        mask = swat_window_mask(40, 8)
        mask[:, :2] = True
        expected = dense_attention(q, k, v, mask=mask)
        np.testing.assert_allclose(result.output, expected, atol=1e-9)

    def test_random_attention_matches_masked_dense(self):
        config = _small_config(num_random_tokens=2)
        q, k, v = attention_inputs(40, 16, seed=2)
        simulator = SWATSimulator(config)
        result = simulator.run(q, k, v)
        plan = simulator.resolve_plan(40)
        mask = np.zeros((40, 40), dtype=bool)
        rows, slots = np.nonzero(plan.key_indices >= 0)
        mask[rows, plan.key_indices[rows, slots]] = True
        expected = dense_attention(q, k, v, mask=mask)
        np.testing.assert_allclose(result.output, expected, atol=1e-9)

    def test_custom_scale_respected(self):
        config = _small_config()
        q, k, v = attention_inputs(24, 16, seed=3)
        default = SWATSimulator(config).run(q, k, v).output
        scaled = SWATSimulator(config).run(q, k, v, scale=1.0).output
        assert not np.allclose(default, scaled)

    def test_input_validation(self):
        simulator = SWATSimulator(_small_config())
        q, k, v = attention_inputs(16, 16)
        with pytest.raises(ValueError):
            simulator.run(q[:, :8], k[:, :8], v[:, :8])
        with pytest.raises(ValueError):
            simulator.run(q, k[:8], v[:8])


class TestTrafficAccounting:
    def test_window_only_kv_loaded_exactly_once(self):
        config = _small_config()
        q, k, v = attention_inputs(64, 16, seed=0)
        result = SWATSimulator(config).run(q, k, v)
        assert result.traffic.k_bytes_loaded == 64 * config.kv_row_bytes
        assert result.traffic.v_bytes_loaded == 64 * config.kv_row_bytes
        assert result.traffic.transfer_efficiency == 1.0
        assert result.fifo_stats.redundant_loads == 0

    def test_random_attention_causes_redundant_traffic(self):
        config = _small_config(num_random_tokens=2)
        q, k, v = attention_inputs(48, 16, seed=1)
        result = SWATSimulator(config).run(q, k, v)
        assert result.traffic.redundant_kv_bytes > 0
        assert result.traffic.transfer_efficiency < 1.0

    def test_measured_traffic_matches_analytical_estimate(self):
        config = _small_config()
        simulator = SWATSimulator(config)
        q, k, v = attention_inputs(56, 16, seed=2)
        measured = simulator.run(q, k, v).traffic
        estimated = simulator.estimate_traffic(56)
        assert measured.k_bytes_loaded == estimated.k_bytes_loaded
        assert measured.q_bytes_loaded == estimated.q_bytes_loaded
        assert measured.output_bytes_stored == estimated.output_bytes_stored

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"num_global_tokens": 3},
            {"num_random_tokens": 2},
            {"num_global_tokens": 2, "num_random_tokens": 3},
            {"num_global_tokens": 4, "num_random_tokens": 2, "random_seed": 7},
        ],
        ids=["window", "global", "random", "bigbird", "bigbird-seed7"],
    )
    @pytest.mark.parametrize("seq_len", [40, 57])
    def test_measured_traffic_parity_field_by_field(self, overrides, seq_len):
        """run().traffic == estimate_traffic() on every field, every config.

        Locks the measured-vs-analytical invariant: the event-by-event
        accounting of the cycle-accurate run and the closed-form schedule
        traffic must agree exactly, with and without global/random attention.
        """
        config = _small_config(**overrides)
        simulator = SWATSimulator(config)
        q, k, v = attention_inputs(seq_len, 16, seed=3)
        measured = simulator.run(q, k, v).traffic
        estimated = simulator.estimate_traffic(seq_len)
        assert measured.q_bytes_loaded == estimated.q_bytes_loaded
        assert measured.k_bytes_loaded == estimated.k_bytes_loaded
        assert measured.v_bytes_loaded == estimated.v_bytes_loaded
        assert measured.output_bytes_stored == estimated.output_bytes_stored
        assert measured.redundant_kv_bytes == estimated.redundant_kv_bytes

    def test_memory_footprint_linear(self):
        simulator = SWATSimulator(SWATConfig.longformer())
        assert simulator.memory_footprint_bytes(2048) == 2 * simulator.memory_footprint_bytes(1024)

    def test_memory_footprint_invalid(self):
        with pytest.raises(ValueError):
            SWATSimulator().memory_footprint_bytes(0)


class TestTimingEstimates:
    def test_latency_linear_in_sequence_length(self):
        simulator = SWATSimulator(SWATConfig.longformer())
        t1 = simulator.estimate(4096)
        t2 = simulator.estimate(8192)
        extra_cycles = t2.cycles - t1.cycles
        assert extra_cycles == 4096 * t1.initiation_interval

    def test_fp32_slower_than_fp16(self):
        fp16 = SWATSimulator(SWATConfig.longformer()).estimate(4096)
        fp32 = SWATSimulator(SWATConfig.fp32_reference()).estimate(4096)
        assert fp32.seconds > fp16.seconds

    def test_energy_is_power_times_latency(self):
        report = SWATSimulator(SWATConfig.longformer()).estimate(2048)
        assert report.energy_joules == pytest.approx(report.power_w * report.seconds)

    def test_multiple_heads_scale_cycles(self):
        simulator = SWATSimulator(SWATConfig.longformer())
        assert simulator.estimate(1024, num_heads=4).cycles == 4 * simulator.estimate(1024).cycles

    def test_dual_pipeline_halves_two_head_latency(self):
        single = SWATSimulator(SWATConfig.longformer()).estimate(1024, num_heads=2)
        dual = SWATSimulator(SWATConfig.longformer(num_pipelines=2)).estimate(1024, num_heads=2)
        assert dual.cycles == single.cycles / 2

    def test_run_timing_matches_estimate(self):
        config = _small_config()
        simulator = SWATSimulator(config)
        q, k, v = attention_inputs(32, 16, seed=4)
        assert simulator.run(q, k, v).timing.cycles == simulator.estimate(32).cycles

    def test_report_convenience_properties(self):
        report = SWATSimulator(SWATConfig.longformer()).estimate(1024)
        assert report.cycles_per_row == pytest.approx(report.cycles / 1024)
        assert report.tokens_per_second == pytest.approx(1024 / report.seconds)

    def test_paper_scale_latency_band(self):
        """FP16 SWAT at 16K tokens should land in the ~10-12 ms band (Figure 3)."""
        report = SWATSimulator(SWATConfig.longformer()).estimate(16384)
        assert 5e-3 < report.seconds < 20e-3
