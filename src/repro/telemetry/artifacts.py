"""Benchmark headline-number artifacts (the ``BENCH_*.json`` trajectory).

Benchmarks call :func:`record_bench` with a named entry of headline numbers;
entries merge into one JSON document per artifact so a single CI run
accumulates every suite's numbers into ``BENCH_serving.json`` /
``BENCH_model.json``, which the workflow uploads — the per-PR perf
trajectory ROADMAP item 5 asked for.  Writes are atomic (tmp + rename) so a
crashed benchmark never leaves a half-written artifact behind.

The output directory defaults to :data:`DEFAULT_ARTIFACT_DIR` under the
current working directory — a git-ignored scratch directory, so a local
test run never rewrites tracked files — and is overridden by the
:data:`BENCH_ARTIFACT_ENV` environment variable (CI points it at the
directory it uploads).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["BENCH_ARTIFACT_ENV", "artifact_path", "record_bench"]

#: Environment variable naming the directory artifacts are written into.
BENCH_ARTIFACT_ENV = "BENCH_ARTIFACT_DIR"

#: Directory, relative to the working directory, used when the variable is unset.
DEFAULT_ARTIFACT_DIR = ".perfbench"


def artifact_path(name: str) -> Path:
    """Resolve an artifact file name against the configured directory."""
    base = os.environ.get(BENCH_ARTIFACT_ENV, "")
    directory = Path(base) if base else Path.cwd() / DEFAULT_ARTIFACT_DIR
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


def record_bench(artifact: str, entry: str, payload: "dict[str, object]") -> Path:
    """Merge ``payload`` under ``entry`` into the named JSON artifact.

    Returns the path written.  Existing entries of other names are
    preserved (merge-on-write), so independent benchmark modules can
    contribute to one artifact file in any order.
    """
    path = artifact_path(artifact)
    document: "dict[str, object]" = {}
    if path.exists():
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            document = {}
    if not isinstance(document, dict):
        document = {}
    document[entry] = payload
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path
