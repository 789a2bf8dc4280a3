"""Console renderers: one-shot snapshot and the plain-ANSI watch loop."""

import io
import threading

from repro.core.config import SWATConfig
from repro.serving.continuous import serve_continuous
from repro.serving.request import make_requests
from repro.telemetry import EventBus, EventLogWriter
from repro.telemetry.console import _ANSI_HOME, render_once, watch
from repro.telemetry.events import QueueDepth, RunFinished


def _write_run_log(tmp_path):
    config = SWATConfig(head_dim=16, window_tokens=8)
    requests = make_requests([24, 32, 48, 24], config.head_dim, functional=False)
    path = tmp_path / "run.jsonl"
    bus = EventBus()
    with EventLogWriter(path) as writer:
        bus.subscribe(writer)
        serve_continuous(requests, config=config, backend="analytical", bus=bus)
    return path


def test_render_once_returns_a_table(tmp_path):
    path = _write_run_log(tmp_path)
    rendered = render_once(path)
    assert "Live serving metrics" in rendered
    assert "rolling req/s" in rendered
    assert "finished" in rendered


def test_watch_once_writes_snapshot_without_ansi(tmp_path):
    path = _write_run_log(tmp_path)
    stream = io.StringIO()
    assert watch(path, follow=False, stream=stream) == 0
    output = stream.getvalue()
    assert "rolling req/s" in output
    assert _ANSI_HOME not in output


def test_watch_follow_plain_stops_on_run_finished(tmp_path):
    path = tmp_path / "live.jsonl"
    writer = EventLogWriter(path)
    writer(QueueDepth(depth=1, time=0.0))
    stream = io.StringIO()
    result = {}

    def run_watch():
        result["code"] = watch(path, interval=0.01, stream=stream)

    thread = threading.Thread(target=run_watch)
    thread.start()
    writer(QueueDepth(depth=3, time=0.5))
    writer(RunFinished(wall_seconds=1.0, stats={}))
    writer.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert result["code"] == 0
    # The final render (after the stop condition) reflects every event.
    assert "finished" in stream.getvalue()
    assert _ANSI_HOME in stream.getvalue()
