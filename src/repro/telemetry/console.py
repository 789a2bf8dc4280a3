"""Live serving console: tail an event log and render rolling metrics.

A plain-ANSI renderer over one
:class:`~repro.telemetry.aggregate.MetricsAggregator`: it re-renders the
aggregator's table in place using cursor-home escape codes, so
``repro-trace watch`` works on any terminal with no dependencies beyond the
standard library.
"""

from __future__ import annotations

import sys
import time

from repro.telemetry.aggregate import MetricsAggregator
from repro.telemetry.log import EventLogReader

__all__ = ["render_once", "watch"]

#: Clear screen + home the cursor (the plain-ANSI in-place refresh).
_ANSI_HOME = "\x1b[H\x1b[2J"


def render_once(path, window: int = 256) -> str:
    """Consume the log as it stands and return one rendered snapshot."""
    aggregator = MetricsAggregator(window=window)
    aggregator.feed_all(EventLogReader(path))
    return aggregator.to_table(title=f"Live serving metrics ({path})").render()


def watch(path, interval: float = 0.5, follow: bool = True, stream=None) -> int:
    """Watch an event log live.  Returns a process exit code.

    Re-renders the metrics table in place after each batch of events until
    the run finishes; ``follow=False`` renders one snapshot of the current
    log contents and exits (the mode CI smoke tests use).
    """
    stream = stream if stream is not None else sys.stdout
    aggregator = MetricsAggregator()
    reader = EventLogReader(path)

    def render(prefix: str = _ANSI_HOME) -> None:
        table = aggregator.to_table(title=f"Live serving metrics ({path})")
        stream.write(prefix + table.render() + "\n")
        stream.flush()

    if not follow:
        aggregator.feed_all(reader)
        render(prefix="")
        return 0

    last_render = 0.0
    try:
        for event in reader.tail(poll_interval=interval, stop=lambda: aggregator.finished):
            aggregator.feed(event)
            now = time.monotonic()
            if now - last_render >= interval:
                render()
                last_render = now
    except KeyboardInterrupt:
        pass
    render()
    return 0
