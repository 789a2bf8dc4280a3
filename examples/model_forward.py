"""Whole-model plans: compile, execute and serve full transformer forwards.

Walks the ``repro.model`` subsystem end to end:

1. build a :class:`~repro.model.spec.ModelSpec` whose layers mix two
   attention geometries (so the plan compiler has shapes to deduplicate);
2. compile it into a :class:`~repro.model.plan.ModelPlan` and show the
   shape groups plus model-wide cycle/traffic aggregates;
3. run the stacked :class:`~repro.model.executor.ModelExecutor` forward and
   check it against the layer-by-layer :mod:`repro.nn` reference, bit for
   bit;
4. serve a batch of forward requests through the serving engine in both
   drain and continuous modes.

Run with ``PYTHONPATH=src python examples/model_forward.py``.
"""

import numpy as np

from repro.core.config import SWATConfig
from repro.core.power import PowerModel
from repro.model import LayerGeometry, ModelExecutor, ModelSpec, forward_inputs
from repro.serving import ServingEngine, make_forward_request, serve_continuous
from repro.serving.cache import PlanCache


def main() -> None:
    config = SWATConfig.longformer(window_tokens=64, head_dim=32)
    spec = ModelSpec(
        seq_len=256,
        layers=(
            LayerGeometry(window_tokens=64),
            LayerGeometry(window_tokens=64),
            LayerGeometry(window_tokens=128, num_global_tokens=4, num_random_tokens=4),
            LayerGeometry(window_tokens=64),
        ),
        num_heads=2,
        head_dim=32,
    )
    print(f"spec: {spec.describe()}")

    cache = PlanCache()
    executor = ModelExecutor(spec, base_config=config, plan_cache=cache)
    plan = executor.model_plan
    print(f"compiled {plan.num_shapes} plan(s) for {plan.num_layers} layers:")
    for group in plan.groups:
        print(
            f"  layers {group.layer_indices} share one plan "
            f"({group.config.describe()}): {group.cycles} cycles, "
            f"{group.kv_bytes} bytes"
        )
    # Every layer runs on the same board: energy is its power over the seconds.
    energy_joules = PowerModel(config).total_power_w * plan.total_seconds
    print(
        f"forward totals: {plan.total_cycles} cycles, {plan.total_seconds * 1e6:.1f} us, "
        f"{plan.total_kv_bytes} KV bytes, {energy_joules * 1e3:.3f} mJ, "
        f"{plan.mlp_flops / 1e6:.1f} MFLOP host-side MLP"
    )

    x = forward_inputs(spec, seed=0)
    fast = executor.forward(x)
    reference = executor.reference_forward(x)
    assert np.array_equal(fast, reference)
    print(f"stacked forward == layer-by-layer reference (bit-identical), output {fast.shape}")

    requests = [make_forward_request(spec, seed=seed) for seed in range(8)]
    engine = ServingEngine(
        config=config, backend="simulator", num_shards=2, max_batch_size=4, plan_cache=cache
    )
    result = engine.serve(requests)
    print()
    print(result.stats.to_table("Whole-model forwards, drain engine").render())

    continuous = serve_continuous(
        requests,
        config=config,
        backend="simulator",
        num_shards=2,
        max_batch_size=4,
        plan_cache=PlanCache(),
    )
    assert all(
        np.array_equal(a.output, b.output)
        for a, b in zip(result.completed, continuous.completed)
    )
    print()
    print(continuous.stats.to_table("Same forwards, continuous iteration clock").render())


if __name__ == "__main__":
    main()
