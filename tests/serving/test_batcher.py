"""Tests for sequence-length bucketing and the dynamic batcher."""

import pytest

from repro.core.config import SWATConfig
from repro.serving.batcher import DynamicBatcher, seq_len_bucket
from repro.serving.request import AttentionRequest


def _config(**overrides):
    defaults = dict(head_dim=16, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


class TestBucketing:
    @pytest.mark.parametrize(
        "seq_len,bucket",
        [(1, 1), (2, 2), (3, 4), (500, 512), (512, 512), (513, 1024)],
    )
    def test_power_of_two_rounding(self, seq_len, bucket):
        assert seq_len_bucket(seq_len) == bucket

    def test_invalid_seq_len_raises(self):
        with pytest.raises(ValueError):
            seq_len_bucket(0)


class TestDynamicBatcher:
    def test_emits_batch_when_full(self):
        batcher = DynamicBatcher(_config(), max_batch_size=3)
        assert batcher.add(AttentionRequest(seq_len=100)) is None
        assert batcher.add(AttentionRequest(seq_len=120)) is None
        batch = batcher.add(AttentionRequest(seq_len=128))
        assert batch is not None
        assert len(batch) == 3
        assert batcher.pending_count == 0

    def test_different_buckets_do_not_mix(self):
        batcher = DynamicBatcher(_config(), max_batch_size=2)
        assert batcher.add(AttentionRequest(seq_len=100)) is None
        assert batcher.add(AttentionRequest(seq_len=1000)) is None
        assert batcher.pending_count == 2
        batch = batcher.add(AttentionRequest(seq_len=96))
        assert batch is not None
        assert [request.seq_len for request in batch.requests] == [100, 96]

    def test_flush_releases_stragglers(self):
        batcher = DynamicBatcher(_config(), max_batch_size=4)
        batcher.add(AttentionRequest(seq_len=100))
        batcher.add(AttentionRequest(seq_len=1000))
        batches = batcher.flush()
        assert len(batches) == 2
        assert batcher.pending_count == 0
        assert batcher.flush() == []

    def test_batch_ids_unique_and_increasing(self):
        batcher = DynamicBatcher(_config(), max_batch_size=1)
        ids = [batcher.add(AttentionRequest(seq_len=64)).batch_id for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_total_rows_accounts_heads(self):
        batcher = DynamicBatcher(_config(), max_batch_size=2)
        batcher.add(AttentionRequest(seq_len=64, num_heads=2))
        batch = batcher.add(AttentionRequest(seq_len=60))
        assert batch.total_rows == 2 * 64 + 60

    def test_invalid_batch_size_raises(self):
        with pytest.raises(ValueError):
            DynamicBatcher(_config(), max_batch_size=0)


class TestDrainPathEdgeCases:
    """Corners the full-batch drain flow never exercises."""

    def test_empty_bucket_flush(self):
        # Flushing with nothing pending emits nothing — and repeatedly.
        batcher = DynamicBatcher(_config(), max_batch_size=4)
        assert batcher.flush() == []
        batcher.add(AttentionRequest(seq_len=64))
        batcher.flush()
        assert batcher.flush() == []
        assert batcher.pending_count == 0

    def test_single_request_batch(self):
        # max_batch_size=1 dispatches immediately; flush then has nothing.
        batcher = DynamicBatcher(_config(), max_batch_size=1)
        batch = batcher.add(AttentionRequest(seq_len=64))
        assert batch is not None and len(batch) == 1
        assert batch.total_rows == 64
        assert batcher.flush() == []

    def test_all_requests_same_arrival(self):
        # A same-instant burst of one shape fills whole batches in submit
        # order, remainder released by flush.
        batcher = DynamicBatcher(_config(), max_batch_size=4)
        requests = [AttentionRequest(seq_len=64, arrival_time=0.0) for _ in range(10)]
        batches = [batch for batch in map(batcher.add, requests) if batch is not None]
        assert [len(batch) for batch in batches] == [4, 4]
        stragglers = batcher.flush()
        assert [len(batch) for batch in stragglers] == [2]
        served = [
            request.request_id for batch in batches + stragglers for request in batch.requests
        ]
        assert served == [request.request_id for request in requests]

    def test_cancellation_before_dispatch(self):
        batcher = DynamicBatcher(_config(), max_batch_size=3)
        first = AttentionRequest(seq_len=64)
        second = AttentionRequest(seq_len=80)
        batcher.add(first)
        batcher.add(second)
        assert batcher.cancel(first.request_id) is True
        assert batcher.pending_count == 1
        # The cancelled request no longer counts toward the batch bound.
        assert batcher.add(AttentionRequest(seq_len=72)) is None
        batch = batcher.add(AttentionRequest(seq_len=96))
        assert batch is not None
        assert first.request_id not in [request.request_id for request in batch.requests]

    def test_cancel_unknown_or_dispatched_request_is_a_noop(self):
        batcher = DynamicBatcher(_config(), max_batch_size=1)
        request = AttentionRequest(seq_len=64)
        batcher.add(request)  # dispatched immediately at size 1
        assert batcher.cancel(request.request_id) is False
        assert batcher.cancel(10**9) is False

    def test_cancel_last_request_drops_bucket(self):
        batcher = DynamicBatcher(_config(), max_batch_size=4)
        lone = AttentionRequest(seq_len=1000)
        batcher.add(lone)
        assert batcher.cancel(lone.request_id) is True
        assert batcher.pending_count == 0
        # The emptied bucket must not surface as an empty flush batch.
        assert batcher.flush() == []


class TestRequestValidation:
    def test_partial_qkv_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="together"):
            AttentionRequest(seq_len=8, q=np.zeros((8, 4)))

    def test_seq_len_mismatch_rejected(self):
        import numpy as np

        data = np.zeros((8, 4))
        with pytest.raises(ValueError, match="seq_len"):
            AttentionRequest(seq_len=16, q=data, k=data, v=data)

    def test_request_ids_monotonic(self):
        first = AttentionRequest(seq_len=8)
        second = AttentionRequest(seq_len=8)
        assert second.request_id > first.request_id
