"""SWAT drain dispatches price as cold ``step_burst`` streams.

``execute_batch`` on the ``simulator`` and ``analytical`` backends has no
timing formula of its own: the attention rows stream as one cold burst, then
each forward, then each decode.  These tests hold it to:

* the retired drain formula (:mod:`tests.serving.drain_oracle`) — ``cycles``
  and ``device_seconds`` bit for bit over random mixed dispatches;
* one energy model — the serving device's power times each stream's modelled
  seconds, folded stream by stream — so a solo forward costs the same energy
  drained as on the continuous clock.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SWATConfig
from repro.core.power import PowerModel
from repro.model import LayerGeometry, ModelSpec
from repro.serving.backends import create_backend, split_batch
from repro.serving.cache import PlanCache
from repro.serving.continuous import serve_continuous
from repro.serving.request import make_decode_request, make_forward_request, make_request
from tests.serving.drain_oracle import drained_timing

HEAD_DIM = 16
GEOMETRIES = (LayerGeometry(window_tokens=8), LayerGeometry(window_tokens=16))


def _spec(num_layers: int, seq_len: int, alternating: bool) -> ModelSpec:
    layers = tuple(GEOMETRIES[index % 2 if alternating else 0] for index in range(num_layers))
    return ModelSpec(seq_len=seq_len, layers=layers, num_heads=2, head_dim=HEAD_DIM)


attention_strategy = st.builds(
    lambda seq_len, heads, seed, functional: make_request(
        seq_len, HEAD_DIM, seed=seed, num_heads=heads, functional=functional
    ),
    st.sampled_from([16, 24, 32, 48]),
    st.integers(1, 4),
    st.integers(0, 1000),
    st.booleans(),
)
forward_strategy = st.builds(
    lambda layers, seq_len, alternating: make_forward_request(
        _spec(layers, seq_len, alternating), functional=False
    ),
    st.integers(1, 4),
    st.sampled_from([16, 32]),
    st.booleans(),
)
decode_strategy = st.builds(
    lambda layers, alternating, new_tokens, block, adaptive: make_decode_request(
        _spec(layers, 32, alternating), new_tokens, block_size=block, adaptive=adaptive
    ),
    st.integers(1, 4),
    st.booleans(),
    st.integers(1, 12),
    st.integers(1, 4),
    st.booleans(),
)
dispatch_strategy = st.lists(
    st.one_of(attention_strategy, forward_strategy, decode_strategy), min_size=1, max_size=6
)


def _stream_seconds(backend, batch) -> "list[float]":
    """Each cold stream's modelled seconds, in drain order."""
    attentions, forwards, decodes = split_batch(batch)
    streams = []
    if attentions:
        rows = sum(backend.request_rows(request) for _, request in attentions)
        streams.append(backend.simulator.pipeline.cycles_for_rows(rows) * backend._clock_period_s)
    streams += [backend.model_plan(request).total_seconds for _, request in forwards]
    streams += [backend.decode_plan(request).total_seconds for _, request in decodes]
    return streams


class TestDrainIsColdBursts:
    @settings(deadline=None, max_examples=60)
    @given(
        batch=dispatch_strategy,
        name=st.sampled_from(["simulator", "analytical"]),
        num_pipelines=st.sampled_from([1, 2]),
    )
    def test_matches_retired_formula_and_device_power_fold(self, batch, name, num_pipelines):
        config = SWATConfig(head_dim=HEAD_DIM, window_tokens=8, num_pipelines=num_pipelines)
        backend = create_backend(name, config=config, plan_cache=PlanCache())
        result = backend.execute_batch(batch)
        cycles, seconds = drained_timing(backend, batch)
        assert result.cycles == cycles
        assert result.device_seconds == seconds
        power_w = PowerModel(config).total_power_w
        energy = 0.0
        for stream_seconds in _stream_seconds(backend, batch):
            energy += power_w * stream_seconds
        assert result.energy_joules == energy

    def test_solo_forward_energy_matches_continuous(self):
        """Drained and continuous forwards draw one device power.

        The alternating-geometry spec grafts a second window onto the base
        datapath; the retired drain formula priced that layer at a
        re-synthesised board's power, so the two engines disagreed.
        """
        config = SWATConfig(head_dim=HEAD_DIM, window_tokens=8)
        request = make_forward_request(_spec(4, 256, alternating=True), functional=False)
        drained = create_backend("analytical", config=config).execute_batch([request])
        rows = create_backend("analytical", config=config).request_rows(request)
        # One iteration covering the whole forward: the same single cold burst.
        solo = serve_continuous([request], config=config, backend="analytical", iteration_rows=rows)
        assert drained.energy_joules == solo.stats.total_energy_joules
        # At the default quantum the per-iteration energies fold in a
        # different order, so only rounding separates them.
        sliced = serve_continuous([request], config=config, backend="analytical")
        assert drained.energy_joules == pytest.approx(sliced.stats.total_energy_joules, rel=1e-12)

