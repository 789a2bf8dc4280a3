"""Tests for the row-major dataflow schedule, read off the compiled plan arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SWATConfig
from repro.core.plan import compile_plan


def _config(window_tokens=8, num_global=0, num_random=0, head_dim=16):
    return SWATConfig(
        head_dim=head_dim,
        window_tokens=window_tokens,
        num_global_tokens=num_global,
        num_random_tokens=num_random,
    )


def _window(plan, row):
    return tuple(range(int(plan.window_lo[row]), int(plan.window_hi[row])))


def _randoms(plan, row):
    return plan.random_keys[row, : plan.random_counts[row]]


def _attended(plan, row):
    return plan.key_indices[row, : plan.key_counts[row]]


class TestWindowKeys:
    def test_interior_row_covers_2w_keys(self):
        plan = compile_plan(_config(window_tokens=8), seq_len=64)
        assert _window(plan, 32) == tuple(range(28, 36))

    def test_window_never_exceeds_2w_keys(self):
        plan = compile_plan(_config(window_tokens=8), seq_len=64)
        assert int((plan.window_hi - plan.window_lo).max()) == 8

    def test_row_always_attends_itself(self):
        plan = compile_plan(_config(window_tokens=4), seq_len=32)
        rows = np.arange(32)
        assert np.all((plan.window_lo <= rows) & (rows < plan.window_hi))

    def test_boundary_rows_clipped(self):
        plan = compile_plan(_config(window_tokens=8), seq_len=64)
        assert _window(plan, 0) == tuple(range(0, 4))
        assert _window(plan, 63) == tuple(range(59, 64))

    def test_row_arrays_cover_exactly_seq_len_rows(self):
        plan = compile_plan(_config(num_random=2), seq_len=16)
        for array in (plan.window_lo, plan.window_hi, plan.new_lo, plan.new_hi):
            assert array.shape == (16,)
        assert plan.random_keys.shape[0] == plan.key_indices.shape[0] == 16

    @given(seq_len=st.integers(4, 80), window_tokens=st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=25, deadline=None)
    def test_property_window_keys_fit_fifo_without_collision(self, seq_len, window_tokens):
        plan = compile_plan(_config(window_tokens=window_tokens), seq_len=seq_len)
        for row in range(seq_len):
            slots = [key % window_tokens for key in _window(plan, row)]
            assert len(slots) == len(set(slots))


class TestPlans:
    def test_one_new_window_key_per_row_at_steady_state(self):
        plan = compile_plan(_config(window_tokens=8), seq_len=64)
        new_keys = plan.new_hi - plan.new_lo
        assert np.all(new_keys[10:-5] == 1)

    def test_every_key_loaded_exactly_once_window_only(self):
        plan = compile_plan(_config(window_tokens=8), seq_len=48)
        loaded = [key for lo, hi in zip(plan.new_lo, plan.new_hi) for key in range(lo, hi)]
        assert sorted(loaded) == list(range(48))

    def test_attended_keys_unique(self):
        plan = compile_plan(_config(window_tokens=8, num_global=2), seq_len=32)
        for row in range(32):
            attended = _attended(plan, row)
            assert len(set(attended.tolist())) == attended.size

    def test_global_keys_in_every_plan(self):
        plan = compile_plan(_config(window_tokens=4, num_global=3), seq_len=32)
        assert plan.global_keys.tolist() == [0, 1, 2]
        for row in range(32):
            assert {0, 1, 2} <= set(_attended(plan, row).tolist())

    def test_random_keys_outside_window_and_globals(self):
        config = _config(window_tokens=8, num_global=2, num_random=3)
        plan = compile_plan(config, seq_len=64)
        for row in range(64):
            for key in _randoms(plan, row):
                assert key not in _window(plan, row)
                assert key not in plan.global_keys

    def test_random_table_deterministic_per_seed(self):
        config = _config(window_tokens=8, num_random=2)
        first = compile_plan(config, seq_len=32).random_keys
        second = compile_plan(config, seq_len=32).random_keys
        assert np.array_equal(first, second)

    def test_random_count_respected(self):
        config = _config(window_tokens=8, num_random=3)
        plan = compile_plan(config, seq_len=64)
        assert np.all(plan.random_counts == 3)

    def test_invalid_seq_len_raises(self):
        with pytest.raises(ValueError):
            compile_plan(_config(), seq_len=0)

    def test_reloaded_keys_subset_of_resident_or_global_randoms(self):
        """Reloads ⊆ random keys ∩ (resident ∪ global), row by row.

        Regression test: the schedule used to mark *all* random keys as
        reloaded, wrongly including random keys that were never resident
        (ahead of the window and not global) and therefore are first-time
        loads.
        """
        config = _config(window_tokens=8, num_global=2, num_random=3)
        plan = compile_plan(config, seq_len=64)
        global_keys = set(plan.global_keys.tolist())
        saw_first_time_random_load = False
        for row in range(64):
            count = plan.random_counts[row]
            randoms = set(_randoms(plan, row).tolist())
            reloaded = set(plan.random_keys[row, :count][plan.reload_mask[row, :count]].tolist())
            # The new-key ranges tile the sequence, so the keys resident before
            # this row's LOAD stage are exactly [0, new_lo).
            resident_before = set(range(int(plan.new_lo[row])))
            assert reloaded <= randoms & (resident_before | global_keys)
            if randoms - reloaded:
                saw_first_time_random_load = True
        # The fix is only observable if some random key ever points ahead of
        # the window: make sure this workload exercises that case.
        assert saw_first_time_random_load

    def test_reloaded_keys_empty_without_random_attention(self):
        plan = compile_plan(_config(window_tokens=8, num_global=2), seq_len=48)
        assert not plan.reload_mask.any()

    def test_keys_loaded_covers_every_fetch_of_the_row(self):
        """Per-row fetches = new window keys + every random refresh of the row.

        First-time random fetches (keys ahead of the window) are loads too,
        even though they are not *re*loads.
        """
        config = _config(window_tokens=8, num_global=2, num_random=2)
        plan = compile_plan(config, seq_len=48)
        expected = (plan.new_hi - plan.new_lo) + plan.random_counts
        np.testing.assert_array_equal(np.diff(plan.cum_kv_loads), expected)
        assert np.all(plan.random_keys[plan.reload_mask] >= 0)


class TestTraffic:
    def test_window_only_traffic_is_exactly_once(self):
        config = _config(window_tokens=8, head_dim=16)
        traffic = compile_plan(config, seq_len=128).traffic_bytes()
        assert traffic["k"] == 128 * 16 * config.element_bytes
        assert traffic["redundant_kv"] == 0

    def test_random_attention_adds_redundant_traffic(self):
        config = _config(window_tokens=8, num_random=2, head_dim=16)
        traffic = compile_plan(config, seq_len=64).traffic_bytes()
        assert traffic["redundant_kv"] > 0
        assert traffic["k"] > 64 * 16 * config.element_bytes

    def test_q_and_output_traffic(self):
        config = _config(window_tokens=8, head_dim=16)
        traffic = compile_plan(config, seq_len=32).traffic_bytes()
        assert traffic["q"] == traffic["output"] == 32 * config.kv_row_bytes
