"""Tests for the SWAT design-time configuration."""

import pytest

from repro.core.config import SWATConfig
from repro.fpga.device import VCU128
from repro.numerics.floating import FP16, FP32, FP64


class TestDefaults:
    def test_paper_defaults(self):
        config = SWATConfig()
        assert config.head_dim == 64
        assert config.window_tokens == 512
        assert config.precision is FP16

    def test_num_attention_cores_window_only(self):
        assert SWATConfig().num_attention_cores == 512

    def test_window_half_width(self):
        assert SWATConfig(window_tokens=512).window_half_width == 256

    def test_clock_properties(self):
        config = SWATConfig(clock_mhz=250.0)
        assert config.clock_hz == pytest.approx(250e6)
        assert config.clock_period_s == pytest.approx(4e-9)

    def test_kv_row_bytes(self):
        assert SWATConfig().kv_row_bytes == 64 * 2
        assert SWATConfig(precision=FP32).kv_row_bytes == 64 * 4


class TestFactories:
    def test_longformer_factory(self):
        config = SWATConfig.longformer()
        assert config.num_global_tokens == 0 and config.num_random_tokens == 0
        assert config.num_attention_cores == 512

    def test_bigbird_factory_token_budget(self):
        config = SWATConfig.bigbird()
        assert config.window_tokens == 192
        assert config.num_global_tokens == 128
        assert config.num_random_tokens == 192
        assert config.num_attention_cores == 512

    def test_bigbird_dual_pipeline(self):
        assert SWATConfig.bigbird_dual_pipeline().num_pipelines == 2

    def test_fp32_reference(self):
        assert SWATConfig.fp32_reference().precision is FP32

    def test_factory_overrides(self):
        config = SWATConfig.longformer(head_dim=32, window_tokens=128, clock_mhz=200.0)
        assert config.head_dim == 32 and config.window_tokens == 128

    def test_precision_by_name(self):
        assert SWATConfig.longformer(precision="fp32").precision is FP32


class TestValidation:
    def test_odd_window_tokens_rejected(self):
        with pytest.raises(ValueError):
            SWATConfig(window_tokens=511)

    def test_non_positive_head_dim_rejected(self):
        with pytest.raises(ValueError):
            SWATConfig(head_dim=0)

    def test_fp64_rejected(self):
        with pytest.raises(ValueError):
            SWATConfig(precision=FP64)

    def test_negative_token_counts_rejected(self):
        with pytest.raises(ValueError):
            SWATConfig(num_global_tokens=-1)

    def test_zero_pipelines_rejected(self):
        with pytest.raises(ValueError):
            SWATConfig(num_pipelines=0)

    def test_zero_clock_rejected(self):
        with pytest.raises(ValueError):
            SWATConfig(clock_mhz=0)


class TestDerivedHelpers:
    def test_with_precision_returns_copy(self):
        base = SWATConfig()
        converted = base.with_precision("fp32")
        assert converted.precision is FP32 and base.precision is FP16

    def test_describe_mentions_configuration(self):
        text = SWATConfig.bigbird(num_pipelines=2).describe()
        assert "global=128" in text and "pipelines=2" in text

    def test_flags(self):
        assert SWATConfig.bigbird().has_random_attention
        assert SWATConfig.bigbird().has_global_attention
        assert not SWATConfig.longformer().has_random_attention

    def test_custom_device(self):
        assert SWATConfig(device=VCU128).device.name == "VCU128"
