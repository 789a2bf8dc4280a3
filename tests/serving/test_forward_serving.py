"""Whole-model forwards through the serving layer, end to end.

The contracts carried from the attention path to :class:`ForwardRequest`:

* **Bit-identity** — drain-served forward outputs equal the solo
  :class:`~repro.model.executor.ModelExecutor` forward (and the fused host
  backend agrees with the simulator); continuous-mode outputs equal drain.
* **Accounting** — all six backends report the same ``head_rows`` for the
  same forward batch; SWAT pricing matches the compiled
  :class:`~repro.model.plan.ModelPlan`; a solo forward's continuous-clock
  iterations sum bit-exactly to its drained cycles.
* **Scheduling** — the dynamic batcher groups forwards by spec, never mixing
  them with single attentions; admission/retirement lifecycles hold.
"""

import numpy as np
import pytest

from repro.core.config import SWATConfig
from repro.core.power import PowerModel
from repro.model import ModelExecutor, ModelSpec
from repro.serving.backends import available_backends, batch_head_rows, create_backend
from repro.serving.batcher import DynamicBatcher
from repro.serving.cache import PlanCache
from repro.serving.continuous import serve_continuous
from repro.serving.engine import ServingEngine
from repro.serving.request import ForwardRequest, make_forward_request, make_request

HEAD_DIM = 8


def _config(**overrides):
    defaults = dict(head_dim=HEAD_DIM, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


def _spec(num_layers=3, seq_len=24, **overrides):
    overrides.setdefault("window_tokens", 8)
    overrides.setdefault("num_heads", 2)
    overrides.setdefault("head_dim", HEAD_DIM)
    return ModelSpec.uniform(num_layers, seq_len, **overrides)


class TestForwardRequest:
    def test_properties_and_head_rows(self):
        spec = _spec()
        request = make_forward_request(spec, seed=1)
        assert request.is_functional
        assert request.seq_len == spec.seq_len
        assert request.num_heads == spec.num_heads
        assert request.num_layers == spec.num_layers
        assert request.head_rows == 3 * 2 * 24
        analytical = make_forward_request(spec, functional=False)
        assert not analytical.is_functional and analytical.x is None

    def test_embedding_shape_validated(self):
        spec = _spec()
        with pytest.raises(ValueError):
            ForwardRequest(spec=spec, x=np.zeros((spec.seq_len, spec.hidden_dim + 1)))
        with pytest.raises(TypeError):
            ForwardRequest(spec="not-a-spec")

    def test_attention_request_head_rows(self):
        request = make_request(16, HEAD_DIM, num_heads=3, functional=False)
        assert request.head_rows == 48


class TestDrainServing:
    def test_served_outputs_match_solo_executor(self):
        config = _config()
        spec = _spec()
        cache = PlanCache()
        requests = [make_forward_request(spec, seed=seed) for seed in range(6)]
        engine = ServingEngine(
            config=config, backend="simulator", num_shards=2, max_batch_size=4, plan_cache=cache
        )
        result = engine.serve(requests)
        executor = ModelExecutor(spec, base_config=config)
        for request, done in zip(requests, result.completed):
            assert done.request.request_id == request.request_id
            assert np.array_equal(done.output, executor.forward(request.x))

    def test_fused_backend_matches_simulator_bits(self):
        config = _config()
        requests = [make_forward_request(_spec(), seed=seed) for seed in range(3)]
        simulator = create_backend("simulator", config=config, plan_cache=PlanCache())
        fused = create_backend("fused", config=config, plan_cache=PlanCache())
        sim_out = simulator.execute_batch(list(requests)).outputs
        fused_out = fused.execute_batch(list(requests)).outputs
        for a, b in zip(sim_out, fused_out):
            assert np.array_equal(a, b)

    def test_mixed_attention_and_forward_batch(self):
        """One dispatch mixing kinds: outputs line up, accounting sums."""
        config = _config()
        spec = _spec()
        attention = make_request(16, HEAD_DIM, seed=0, num_heads=2)
        forward = make_forward_request(spec, seed=1)
        backend = create_backend("simulator", config=config, plan_cache=PlanCache())
        result = backend.execute_batch([attention, forward])
        assert result.outputs[0].shape == (16, HEAD_DIM)
        assert result.outputs[1].shape == (spec.seq_len, spec.hidden_dim)
        assert result.head_rows == attention.head_rows + forward.head_rows
        plan = backend.model_plan(forward)
        solo_attention = backend.execute_batch([attention])
        assert result.cycles == solo_attention.cycles + plan.total_cycles

    def test_head_rows_consistent_across_all_backends(self):
        config = _config()
        requests = [
            make_forward_request(_spec(), seed=1),
            make_forward_request(_spec(num_layers=2, seq_len=16), seed=2, functional=False),
        ]
        expected = batch_head_rows(requests)
        for name in available_backends():
            backend = create_backend(name, config=config, plan_cache=PlanCache())
            result = backend.execute_batch(list(requests))
            assert result.head_rows == expected, name
            assert result.device_seconds > 0 or name == "fused", name

    def test_swat_pricing_reads_the_model_plan(self):
        config = _config()
        request = make_forward_request(_spec(), functional=False)
        backend = create_backend("analytical", config=config, plan_cache=PlanCache())
        result = backend.execute(request)
        plan = backend.model_plan(request)
        assert result.cycles == plan.total_cycles
        assert result.kv_bytes_moved == plan.total_kv_bytes
        # One energy model: the serving device's power over modelled seconds.
        assert result.energy_joules == PowerModel(config).total_power_w * plan.total_seconds

    def test_model_registry_memoises_per_spec(self):
        config = _config()
        spec = _spec()
        backend = create_backend("simulator", config=config, plan_cache=PlanCache())
        a = make_forward_request(spec, seed=0)
        b = make_forward_request(spec, seed=1)
        assert backend.model_plan(a) is backend.model_plan(b)
        assert backend.model_executor(a) is backend.model_executor(b)
        other = make_forward_request(spec, seed=0, weight_seed=9)
        assert backend.model_executor(other) is not backend.model_executor(a)
        assert backend.model_plan(other) is backend.model_plan(a)


class TestContinuousServing:
    def test_continuous_outputs_match_drain(self):
        config = _config()
        requests = [make_forward_request(_spec(), seed=seed) for seed in range(5)]
        drain = ServingEngine(
            config=config, backend="simulator", num_shards=1, max_batch_size=4
        ).serve(requests)
        continuous = serve_continuous(
            requests, config=config, backend="simulator", max_batch_size=4, iteration_rows=16
        )
        for a, b in zip(drain.completed, continuous.completed):
            assert a.request.request_id == b.request.request_id
            assert np.array_equal(a.output, b.output)

    def test_solo_forward_iterations_conserve_drain_cycles(self):
        """A lone forward's priced iterations sum to its ModelPlan total."""
        config = _config()
        spec = ModelSpec(
            seq_len=24,
            layers=_spec().layers + _spec(window_tokens=16).layers,
            num_heads=2,
            head_dim=HEAD_DIM,
        )
        request = make_forward_request(spec, functional=False)
        backend = create_backend("simulator", config=config, plan_cache=PlanCache())
        plan = backend.model_plan(request)
        for iteration_rows in (7, 16, 64, 10_000):
            result = serve_continuous(
                [make_forward_request(spec, functional=False)],
                config=config,
                backend="simulator",
                max_batch_size=2,
                iteration_rows=iteration_rows,
            )
            assert sum(record.cycles for record in result.iterations) == plan.total_cycles

    def test_forward_lifecycle_and_gpu_backends(self):
        config = _config()
        requests = [
            make_forward_request(_spec(), functional=False, arrival_time=0.0),
            make_forward_request(_spec(), functional=False, arrival_time=1e-6),
        ]
        for name in ("analytical", "gpu-dense", "gpu-chunked", "dense-fpga"):
            result = serve_continuous(
                list(requests),
                config=config,
                backend=name,
                max_batch_size=2,
                iteration_rows=32,
            )
            assert len(result.completed) == 2, name
            for done in result.completed:
                assert done.finish_time >= done.admit_time >= done.arrival_time, name


class TestForwardBatching:
    def test_batcher_groups_forwards_by_spec(self):
        config = _config()
        batcher = DynamicBatcher(config, max_batch_size=4)
        spec_a, spec_b = _spec(), _spec(num_layers=2)
        attention = make_request(24, HEAD_DIM, functional=False)
        assert batcher.batch_key(make_forward_request(spec_a)) == batcher.batch_key(
            make_forward_request(spec_a)
        )
        assert batcher.batch_key(make_forward_request(spec_a)) != batcher.batch_key(
            make_forward_request(spec_b)
        )
        # Same seq_len, different kinds: never one dispatch.
        assert batcher.batch_key(make_forward_request(spec_a)) != batcher.batch_key(attention)

    def test_batch_total_rows_counts_layers(self):
        config = _config()
        batcher = DynamicBatcher(config, max_batch_size=2)
        spec = _spec()
        first = batcher.add(make_forward_request(spec, functional=False))
        assert first is None
        full = batcher.add(make_forward_request(spec, functional=False))
        assert full is not None
        assert full.total_rows == 2 * spec.head_rows
