"""Tests for the precision-faithful functional model, resources and power."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.dense import dense_attention
from repro.attention.masks import swat_window_mask
from repro.core.config import SWATConfig
from repro.core.functional import swat_functional_attention
from repro.core.power import PowerModel
from repro.core.resources import estimate_resources
from repro.experiments.table2_resources import PAPER_UTILISATION, standard_configurations
from repro.numerics.error import compare
from repro.numerics.floating import precision_from_name, quantize
from repro.workload.generator import attention_inputs
from tests.core.schedule_oracle import legacy_row_plans


def _row_loop_reference(q, k, v, config, subtract_max):
    """The seed functional model: a quantized loop over the legacy row plans.

    Each row gathers its ``attended_keys`` in ascending order, which fixes
    the order every rounded reduction adds its terms in.
    """
    precision = config.precision
    scale = 1.0 / np.sqrt(config.head_dim)
    q_stored, k_stored, v_stored = (quantize(x, precision) for x in (q, k, v))
    output = np.empty_like(q_stored)
    for plan in legacy_row_plans(config, q.shape[0]):
        keys = list(plan.attended_keys)
        scores = quantize((k_stored[keys] @ q_stored[plan.row]) * scale, precision)
        if subtract_max:
            scores = quantize(scores - scores.max(), precision)
        weights = quantize(np.exp(scores), precision)
        z_unscaled = quantize(weights @ v_stored[keys], precision)
        row_sum = float(quantize(weights.sum(), precision))
        output[plan.row] = quantize(z_unscaled / row_sum, precision)
    return output


class TestFunctionalModel:
    def test_fp32_output_close_to_reference(self):
        config = SWATConfig.longformer(precision="fp32", head_dim=16, window_tokens=8)
        q, k, v = attention_inputs(32, 16, seed=0, scale=0.5)
        output = swat_functional_attention(q, k, v, config)
        reference = dense_attention(q, k, v, mask=swat_window_mask(32, 8))
        assert compare(output, reference).max_abs < 1e-4

    def test_fp16_error_larger_than_fp32(self):
        q, k, v = attention_inputs(32, 16, seed=1, scale=0.5)
        fp16_cfg = SWATConfig.longformer(head_dim=16, window_tokens=8)
        fp32_cfg = SWATConfig.longformer(precision="fp32", head_dim=16, window_tokens=8)
        reference = dense_attention(q, k, v, mask=swat_window_mask(32, 8))
        fp16_error = compare(swat_functional_attention(q, k, v, fp16_cfg), reference).max_abs
        fp32_error = compare(swat_functional_attention(q, k, v, fp32_cfg), reference).max_abs
        assert fp16_error > fp32_error

    def test_fp16_error_still_small(self):
        q, k, v = attention_inputs(48, 16, seed=2, scale=0.5)
        config = SWATConfig.longformer(head_dim=16, window_tokens=8)
        reference = dense_attention(q, k, v, mask=swat_window_mask(48, 8))
        assert compare(swat_functional_attention(q, k, v, config), reference).max_abs < 5e-2

    def test_subtract_max_variant_matches(self):
        q, k, v = attention_inputs(24, 16, seed=3, scale=0.5)
        config = SWATConfig.longformer(precision="fp32", head_dim=16, window_tokens=8)
        a = swat_functional_attention(q, k, v, config, subtract_max=False)
        b = swat_functional_attention(q, k, v, config, subtract_max=True)
        np.testing.assert_allclose(a, b, atol=1e-5)

    @pytest.mark.parametrize("subtract_max", [False, True], ids=["raw", "stable"])
    @given(
        window_tokens=st.sampled_from([2, 4, 8, 16]),
        num_global=st.integers(0, 3),
        num_random=st.integers(0, 5),
        random_seed=st.integers(0, 3),
        seq_len=st.integers(1, 40),
        precision=st.sampled_from(["fp16", "fp32"]),
        data_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_bit_identical_to_legacy_row_loop(
        self,
        subtract_max,
        window_tokens,
        num_global,
        num_random,
        random_seed,
        seq_len,
        precision,
        data_seed,
    ):
        config = SWATConfig(
            head_dim=4,
            window_tokens=window_tokens,
            num_global_tokens=num_global,
            num_random_tokens=num_random,
            random_seed=random_seed,
            precision=precision_from_name(precision),
        )
        rng = np.random.default_rng(data_seed)
        q, k = rng.choice([-1.0, 0.0, 1.0], size=(2, seq_len, 4))
        # Huge V entries of both signs cancel inside the weighted sum over
        # keys, so at fp32 the result depends on the order the keys are
        # added in; fp16 keeps them small enough not to overflow.
        huge = 2.0**8 if precision == "fp16" else 2.0**40
        v = rng.choice([-1.0, 1.0], size=(seq_len, 4)) * rng.choice([huge, 1.0], size=(seq_len, 4))
        expected = _row_loop_reference(q, k, v, config, subtract_max)
        actual = swat_functional_attention(q, k, v, config, subtract_max=subtract_max)
        assert np.array_equal(actual, expected)

    def test_head_dim_mismatch_raises(self):
        q, k, v = attention_inputs(16, 8)
        with pytest.raises(ValueError):
            swat_functional_attention(q, k, v, SWATConfig.longformer(head_dim=16, window_tokens=8))


class TestResources:
    @pytest.mark.parametrize("name", list(standard_configurations()))
    def test_table2_within_tolerance(self, name):
        estimate = estimate_resources(standard_configurations()[name])
        usage = estimate.utilisation_percent()
        for resource, paper_value in PAPER_UTILISATION[name].items():
            assert abs(usage[resource] - paper_value) <= 5.0, (
                f"{name} {resource}: measured {usage[resource]:.1f}% vs paper {paper_value}%"
            )

    def test_all_standard_configurations_fit(self):
        for config in standard_configurations().values():
            assert estimate_resources(config).fits

    def test_dual_pipeline_doubles_resources(self):
        single = estimate_resources(SWATConfig.bigbird())
        dual = estimate_resources(SWATConfig.bigbird_dual_pipeline())
        assert dual.dsp == 2 * single.dsp
        assert dual.bram == 2 * single.bram

    def test_fp32_uses_more_dsp_than_fp16(self):
        fp16 = estimate_resources(SWATConfig.longformer())
        fp32 = estimate_resources(SWATConfig.fp32_reference())
        assert fp32.dsp > 2 * fp16.dsp

    def test_bram_scales_with_core_count(self):
        small = estimate_resources(SWATConfig(window_tokens=128))
        large = estimate_resources(SWATConfig(window_tokens=512))
        assert large.bram > small.bram


class TestPower:
    def test_breakdown_sums_to_total(self):
        model = PowerModel(SWATConfig.longformer())
        breakdown = model.breakdown()
        assert breakdown.total_w == pytest.approx(breakdown.static_w + breakdown.dynamic_w)

    def test_fp32_draws_more_power_than_fp16(self):
        fp16 = PowerModel(SWATConfig.longformer()).total_power_w
        fp32 = PowerModel(SWATConfig.fp32_reference()).total_power_w
        assert fp32 > fp16

    def test_power_well_below_gpu_board_power(self):
        assert PowerModel(SWATConfig.fp32_reference()).total_power_w < 100.0

    def test_dynamic_power_scales_with_clock(self):
        slow = PowerModel(SWATConfig.longformer(clock_mhz=150.0)).breakdown()
        fast = PowerModel(SWATConfig.longformer(clock_mhz=300.0)).breakdown()
        assert fast.dsp_w == pytest.approx(2 * slow.dsp_w)
        assert fast.static_w == slow.static_w

    def test_energy_scales_with_latency(self):
        model = PowerModel(SWATConfig.longformer())
        assert model.energy_joules(2.0) == pytest.approx(2 * model.energy_joules(1.0))

    def test_negative_latency_raises(self):
        with pytest.raises(ValueError):
            PowerModel(SWATConfig.longformer()).energy_joules(-1.0)
