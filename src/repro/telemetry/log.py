"""Append-only JSONL event log: writer sink and reader/tailer.

One event per line, serialised by :func:`repro.telemetry.events.to_record`.
The writer flushes after every line so a concurrently running
``repro-trace watch`` can tail the file live, and takes a lock around each
write so that a bus emitting from several threads never interleaves lines.

Floats round-trip bit-exactly through JSON (``json.dumps`` emits ``repr``,
``json.loads`` reads it back to the same IEEE-754 bits); numpy scalars that
ride in event fields (``np.int64`` cycles, ``np.bool_`` flags) are coerced
to their exact Python equivalents by the encoder default.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.telemetry.events import Event, from_record, to_record

__all__ = ["EventLogWriter", "EventLogReader"]


def _json_default(value):
    """Coerce numpy scalars to exact Python equivalents for JSON."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)  # float64 -> float is bit-exact
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"event field of type {type(value).__name__} is not JSON-serialisable")


class EventLogWriter:
    """Thread-safe JSONL sink: one flushed line per event.

    Usable directly as an :class:`~repro.telemetry.bus.EventBus` sink
    (instances are callable) and as a context manager.
    """

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self._file = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.events_written = 0

    def __call__(self, event: Event) -> None:
        line = json.dumps(to_record(event), separators=(",", ":"), default=_json_default)
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()
            self.events_written += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EventLogReader:
    """Read a JSONL event log back as typed events."""

    def __init__(self, path: "str | Path"):
        self.path = Path(path)

    def records(self) -> "list[dict]":
        """Every line parsed to its raw dict (schema not interpreted)."""
        with open(self.path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    def __iter__(self):
        for record in self.records():
            yield from_record(record)

    def tail(self, poll_interval: float = 0.2, stop=None):
        """Yield events as they are appended (a ``tail -f`` generator).

        Starts from the beginning of the file and keeps polling for new
        lines every ``poll_interval`` seconds.  ``stop`` is an optional
        zero-argument callable checked between polls, so a console loop can
        end the tail cleanly (e.g. once a ``run_finished`` event was seen).
        """
        with open(self.path, encoding="utf-8") as handle:
            while True:
                position = handle.tell()
                line = handle.readline()
                if line and line.endswith("\n"):
                    yield from_record(json.loads(line))
                    continue
                # Partial line (writer mid-append) or end of file: rewind and poll.
                handle.seek(position)
                if stop is not None and stop():
                    return
                time.sleep(poll_interval)
