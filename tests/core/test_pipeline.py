"""Tests for the pipeline-stage latency model (Table 1)."""

import pytest

from repro.core.config import SWATConfig
from repro.core.pipeline import STAGE_NAMES, SWATPipelineModel
from repro.experiments.table1_pipeline import PAPER_STAGE_CYCLES


class TestTable1Calibration:
    def test_fp16_defaults_reproduce_table1_exactly(self):
        model = SWATPipelineModel(SWATConfig.longformer())
        assert model.timing.stage_cycles == PAPER_STAGE_CYCLES

    def test_fp16_initiation_interval_201(self):
        assert SWATPipelineModel(SWATConfig.longformer()).initiation_interval == 201

    def test_fp32_initiation_interval_264(self):
        assert SWATPipelineModel(SWATConfig.fp32_reference()).initiation_interval == 264

    def test_random_attention_raises_load_to_195(self):
        model = SWATPipelineModel(SWATConfig.bigbird())
        assert model.timing.stage_cycles["LOAD"] == 195

    def test_random_attention_does_not_change_initiation_interval(self):
        assert SWATPipelineModel(SWATConfig.bigbird()).initiation_interval == 201

    def test_bottleneck_stage_is_qk(self):
        assert SWATPipelineModel(SWATConfig.longformer()).timing.bottleneck_stage == "QK"

    def test_all_stages_reported(self):
        timing = SWATPipelineModel(SWATConfig()).timing
        assert set(timing.stage_cycles) == set(STAGE_NAMES)

    def test_table_rows_in_dataflow_order(self):
        rows = SWATPipelineModel(SWATConfig()).timing.as_table_rows()
        assert [name for name, _ in rows] == list(STAGE_NAMES)


class TestScaling:
    def test_qk_latency_scales_with_head_dim(self):
        small = SWATPipelineModel(SWATConfig(head_dim=32))
        large = SWATPipelineModel(SWATConfig(head_dim=128))
        assert large.timing.stage_cycles["QK"] > small.timing.stage_cycles["QK"]

    def test_rowsum2_scales_with_core_count(self):
        narrow = SWATPipelineModel(SWATConfig(window_tokens=128))
        wide = SWATPipelineModel(SWATConfig(window_tokens=1024))
        assert wide.timing.stage_cycles["ROWSUM2"] > narrow.timing.stage_cycles["ROWSUM2"]

    def test_pipeline_depth_exceeds_initiation_interval(self):
        model = SWATPipelineModel(SWATConfig())
        assert model.timing.pipeline_depth_cycles > model.initiation_interval

    def test_stage_utilisation_bounded_by_one(self):
        utilisation = SWATPipelineModel(SWATConfig()).stage_utilisation()
        assert max(utilisation.values()) == pytest.approx(1.0)
        assert all(0 < value <= 1.0 for value in utilisation.values())


class TestCycleCounts:
    def test_cycles_linear_in_rows(self):
        model = SWATPipelineModel(SWATConfig.longformer())
        base = model.cycles_for_rows(1024)
        doubled = model.cycles_for_rows(2048)
        assert doubled - base == 1024 * model.initiation_interval

    def test_zero_rows_is_zero_cycles(self):
        assert SWATPipelineModel(SWATConfig()).cycles_for_rows(0) == 0

    def test_negative_rows_raise(self):
        with pytest.raises(ValueError):
            SWATPipelineModel(SWATConfig()).cycles_for_rows(-1)

    def test_heads_distributed_over_pipelines(self):
        single = SWATPipelineModel(SWATConfig.longformer())
        dual = SWATPipelineModel(SWATConfig.longformer(num_pipelines=2))
        assert dual.attention_cycles(1024, num_heads=2) == single.attention_cycles(1024, num_heads=1)

    def test_heads_serialise_within_pipeline(self):
        model = SWATPipelineModel(SWATConfig.longformer())
        assert model.attention_cycles(1024, num_heads=3) == 3 * model.attention_cycles(1024, 1)

    def test_batch_pays_fill_once(self):
        model = SWATPipelineModel(SWATConfig(head_dim=16, window_tokens=8))
        batched = model.batch_attention_cycles([(32, 1)] * 4)
        fill = model.timing.pipeline_depth_cycles
        ii = model.initiation_interval
        assert 4 * model.attention_cycles(32) - batched == 3 * (fill - ii)

    def test_latency_seconds_uses_clock(self):
        fast = SWATPipelineModel(SWATConfig(clock_mhz=600.0))
        slow = SWATPipelineModel(SWATConfig(clock_mhz=300.0))
        assert fast.attention_latency_seconds(4096) == pytest.approx(
            slow.attention_latency_seconds(4096) / 2
        )

    def test_invalid_workload_raises(self):
        model = SWATPipelineModel(SWATConfig())
        with pytest.raises(ValueError):
            model.attention_cycles(0)
        with pytest.raises(ValueError):
            model.attention_cycles(16, num_heads=0)
