"""Fixed-size FIFO K/V buffer with a modulo eviction pointer.

SWAT keeps the K and V rows of the current sliding window on chip in a
fixed-length FIFO (Figure 4b of the paper).  When the window advances by one
query row, exactly one new K/V row pair enters and the oldest pair is evicted;
the slot to replace is simply ``key_index mod capacity``, so no tag lookup is
needed.  Because every K/V row enters the buffer exactly once over the whole
sequence, off-chip K/V traffic is exactly ``2 * seq_len * head_dim`` elements
— the "100 % off-chip memory transfer efficiency" property the paper claims
and the simulator asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["KVFifoBuffer", "FifoStats"]


@dataclass
class FifoStats:
    """Load/eviction counters of a :class:`KVFifoBuffer`.

    Attributes
    ----------
    total_loads:
        Number of K/V row pairs written into the buffer.
    unique_loads:
        Number of distinct key indices ever written.
    evictions:
        Number of resident rows displaced by a newer row.
    """

    total_loads: int = 0
    unique_loads: int = 0
    evictions: int = 0
    _seen: set = field(default_factory=set, repr=False, compare=False)

    @property
    def redundant_loads(self) -> int:
        """Rows loaded more than once (0 under the ideal window dataflow)."""
        return self.total_loads - self.unique_loads

    @classmethod
    def for_streamed_window(cls, seq_len: int, capacity: int) -> "FifoStats":
        """Counters of streaming keys ``0 .. seq_len-1`` once each through the FIFO.

        This is exactly what the compiled row-major schedule guarantees: the
        per-row new-window ranges tile ``[0, seq_len)``, so every key is
        inserted exactly once in ascending order.  The first ``capacity``
        inserts fill empty slots; every later insert displaces the previous
        occupant of its modulo slot.  Used by the plan-backed simulator to
        report the same counters the event-by-event buffer would produce.
        """
        if seq_len < 0:
            raise ValueError(f"seq_len must be non-negative, got {seq_len}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        return cls(
            total_loads=seq_len,
            unique_loads=seq_len,
            evictions=max(0, seq_len - capacity),
        )


class KVFifoBuffer:
    """On-chip buffer holding the K/V rows of the current attention window.

    Parameters
    ----------
    capacity:
        Number of K/V row pairs the buffer can hold — ``2w`` for the window
        buffer, i.e. one slot per window attention core.
    head_dim:
        Length of each K/V row.
    """

    def __init__(self, capacity: int, head_dim: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if head_dim <= 0:
            raise ValueError(f"head_dim must be positive, got {head_dim}")
        self._capacity = capacity
        self._head_dim = head_dim
        self._k = np.zeros((capacity, head_dim), dtype=np.float64)
        self._v = np.zeros((capacity, head_dim), dtype=np.float64)
        self._key_index = np.full(capacity, -1, dtype=np.int64)
        self.stats = FifoStats()

    @property
    def capacity(self) -> int:
        """Number of row-pair slots."""
        return self._capacity

    @property
    def head_dim(self) -> int:
        """Row length."""
        return self._head_dim

    def slot_for(self, key_index: int) -> int:
        """Return the slot a key index maps to (``key_index mod capacity``)."""
        if key_index < 0:
            raise ValueError(f"key_index must be non-negative, got {key_index}")
        return key_index % self._capacity

    def contains(self, key_index: int) -> bool:
        """True when the K/V pair for ``key_index`` is resident."""
        if key_index < 0:
            return False
        return int(self._key_index[self.slot_for(key_index)]) == key_index

    def insert(self, key_index: int, k_row: np.ndarray, v_row: np.ndarray) -> int:
        """Insert the K/V rows of ``key_index``, evicting the slot's occupant.

        Returns the slot written.  Re-inserting an already-resident key is
        counted as a redundant load (it still costs off-chip bandwidth), which
        is how the random-attention reload overhead becomes visible.
        """
        k_row = np.asarray(k_row, dtype=np.float64)
        v_row = np.asarray(v_row, dtype=np.float64)
        if k_row.shape != (self._head_dim,) or v_row.shape != (self._head_dim,):
            raise ValueError(
                f"k_row and v_row must have shape ({self._head_dim},), "
                f"got {k_row.shape} and {v_row.shape}"
            )
        slot = self.slot_for(key_index)
        previous = int(self._key_index[slot])
        if previous >= 0 and previous != key_index:
            self.stats.evictions += 1
        self._k[slot] = k_row
        self._v[slot] = v_row
        self._key_index[slot] = key_index
        self.stats.total_loads += 1
        if key_index not in self.stats._seen:
            self.stats._seen.add(key_index)
            self.stats.unique_loads += 1
        return slot

    def get(self, key_index: int) -> "tuple[np.ndarray, np.ndarray]":
        """Return the resident ``(k_row, v_row)`` for ``key_index``.

        Raises ``KeyError`` when the key is not resident — a dataflow bug, as
        the scheduler must have loaded it before any core reads it.
        """
        slot = self.slot_for(key_index)
        if int(self._key_index[slot]) != key_index:
            raise KeyError(
                f"key index {key_index} is not resident (slot {slot} holds "
                f"{int(self._key_index[slot])})"
            )
        return self._k[slot].copy(), self._v[slot].copy()

    def gather(self, key_indices: "list[int]") -> "tuple[np.ndarray, np.ndarray]":
        """Return stacked K and V rows for ``key_indices`` (all must be resident)."""
        k_rows = np.empty((len(key_indices), self._head_dim), dtype=np.float64)
        v_rows = np.empty((len(key_indices), self._head_dim), dtype=np.float64)
        for position, key_index in enumerate(key_indices):
            k_rows[position], v_rows[position] = self.get(key_index)
        return k_rows, v_rows
