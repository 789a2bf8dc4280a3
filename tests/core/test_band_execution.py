"""Band-local execution and the random-table compile, against the oracles.

The executor runs fixed-size row chunks over band-sized K/V slabs, so chunk
boundaries fall inside every sequence longer than one chunk.  The property
suite here drives the default chunk size across one to four chunks, windows
narrower and wider than a chunk, and every extras mix, and checks each case
against the per-row oracle (``tests/core/executor_oracle.py``).  The random
table is pinned bit for bit to the seed's per-row draws
(``tests/core/schedule_oracle.py``) on the edge geometries its arithmetic
index mapping has to get right.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.plan as plan_module
from repro.core.config import SWATConfig
from repro.core.plan import compile_plan, execute_plan_attention
from tests.core.executor_oracle import execute_plan_attention_rows
from tests.core.schedule_oracle import legacy_row_plans

CHUNK = plan_module._CHUNK_ROWS


def _config(window_tokens, num_global=0, num_random=0, head_dim=8, seed=0):
    return SWATConfig(
        head_dim=head_dim,
        window_tokens=window_tokens,
        num_global_tokens=num_global,
        num_random_tokens=num_random,
        random_seed=seed,
    )


def _heads(num_heads, seq_len, head_dim, seed):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((num_heads, seq_len, head_dim)) for _ in range(3))


def assert_matches_oracle(plan, q, k, v, subtract_max):
    """Stacked run: each head bit-identical to its 2-D run, within 1e-12 of the oracle."""
    stacked = execute_plan_attention(plan, q, k, v, subtract_max=subtract_max)
    assert stacked.shape == q.shape
    for head in range(q.shape[0]):
        single = execute_plan_attention(plan, q[head], k[head], v[head], subtract_max=subtract_max)
        assert np.array_equal(stacked[head], single), f"head {head} diverged from its 2-D run"
        reference = execute_plan_attention_rows(
            plan, q[head], k[head], v[head], subtract_max=subtract_max
        )
        np.testing.assert_allclose(single, reference, rtol=0, atol=1e-12)


# One to four chunks, biased towards the chunk boundaries and lengths that are
# not a multiple of the chunk size.
seq_len_strategy = st.one_of(
    st.integers(1, 4 * CHUNK),
    st.sampled_from(
        [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK + 1, 3 * CHUNK + 7, 4 * CHUNK]
    ),
)


class TestBandLocalExecutor:
    @given(
        seq_len=seq_len_strategy,
        half_width=st.integers(1, 80),
        num_global=st.sampled_from([0, 1, 5]),
        num_random=st.sampled_from([0, 3]),
        num_heads=st.sampled_from([1, 3]),
        subtract_max=st.booleans(),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_chunks_match_row_oracle(
        self, seq_len, half_width, num_global, num_random, num_heads, subtract_max, seed
    ):
        config = _config(2 * half_width, num_global, num_random, seed=seed)
        plan = compile_plan(config, seq_len)
        q, k, v = _heads(num_heads, seq_len, config.head_dim, seed)
        assert_matches_oracle(plan, q, k, v, subtract_max)

    @pytest.mark.parametrize("subtract_max", [False, True], ids=["raw", "stable"])
    def test_functional_serve_shape_matches_row_oracle(self, subtract_max):
        """BigBird w32/g4/r8 at n=512 with eight stacked heads: eight chunks."""
        config = SWATConfig.bigbird(
            head_dim=32, window_tokens=32, num_global_tokens=4, num_random_tokens=8
        )
        plan = compile_plan(config, 512)
        q, k, v = _heads(8, 512, config.head_dim, seed=11)
        assert_matches_oracle(plan, q, k, v, subtract_max)


def legacy_random_table(config, seq_len):
    """The seed's per-row random draws as a padded ``(keys, counts)`` pair."""
    rows = [plan.random_keys for plan in legacy_row_plans(config, seq_len)]
    keys = np.full((seq_len, config.num_random_tokens), -1, dtype=np.int64)
    for row, draws in enumerate(rows):
        keys[row, : len(draws)] = draws
    return keys, np.array([len(draws) for draws in rows], dtype=np.int64)


def assert_random_table_identical(config, seq_len):
    plan = compile_plan(config, seq_len)
    keys, counts = legacy_random_table(config, seq_len)
    assert plan.random_keys.shape == keys.shape
    assert np.array_equal(plan.random_keys, keys)
    assert np.array_equal(plan.random_counts, counts)
    return plan


class TestRandomTableMatchesLegacy:
    def test_rows_with_empty_ahead_range(self):
        config = _config(window_tokens=8, num_global=2, num_random=3)
        plan = assert_random_table_identical(config, 40)
        first = 40 - config.window_half_width  # rows with row + w >= seq_len
        tail = plan.random_keys[first:]
        assert plan.random_counts[first:].all()
        assert np.all(tail < plan.window_lo[first:, None])  # every draw lies behind

    def test_population_smaller_than_num_random(self):
        config = _config(window_tokens=8, num_global=2, num_random=8)
        plan = assert_random_table_identical(config, 14)
        counts = plan.random_counts
        assert np.any((counts > 0) & (counts < config.num_random_tokens))

    @pytest.mark.parametrize("num_global", [12, 20], ids=["equal", "clipped"])
    def test_globals_cover_the_sequence(self, num_global):
        config = _config(window_tokens=4, num_global=num_global, num_random=3)
        plan = assert_random_table_identical(config, 12)
        assert not plan.random_counts.any()

    @pytest.mark.parametrize("seq_len", [1, 7, 10, 16])
    def test_seq_len_within_window(self, seq_len):
        config = _config(window_tokens=16, num_global=1, num_random=3)
        assert_random_table_identical(config, seq_len)

    def test_no_random_tokens(self):
        plan = assert_random_table_identical(_config(window_tokens=8, num_global=3), 30)
        assert plan.random_keys.shape == (30, 0)
        assert not plan.random_counts.any()

    @pytest.mark.parametrize("seq_len", [128, 256, 512, 320, 383, 447])
    def test_functional_serve_lengths(self, seq_len):
        config = SWATConfig.bigbird(
            head_dim=32, window_tokens=32, num_global_tokens=4, num_random_tokens=8
        )
        assert_random_table_identical(config, seq_len)

    @given(
        half_width=st.integers(1, 40),
        num_global=st.integers(0, 40),
        num_random=st.integers(0, 12),
        seq_len=st.integers(1, 160),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_table_bit_identical(
        self, half_width, num_global, num_random, seq_len, seed
    ):
        config = _config(2 * half_width, num_global, num_random, seed=seed)
        assert_random_table_identical(config, seq_len)
