"""Where the benchmark's definitions live, and how to read them.

``BENCHMARK.json`` (repository root) is the single source of truth for
the workload names and for every metric's name, unit, direction and
regression bound.  Its schema has no room for two things this harness
also needs, so they sit beside this file:

* ``layers.json`` -- for each per-layer metric, the end-to-end metric
  it should move and the workloads it should move it on, whether it is
  host time, a count or simulated hardware, and whether it must repeat
  exactly between two runs of one commit;
* ``pinned.json`` -- the match digest of every workload at the default
  seed, so a bug shared by all backends shows across commits.
"""

from __future__ import annotations

import json
import os

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HARNESS_DIR))
#: the program under test
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(HARNESS_DIR, "results")
HISTORY_PATH = os.path.join(RESULTS_DIR, "history.jsonl")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_benchmark() -> dict:
    return _load(os.path.join(ROOT, "BENCHMARK.json"))


def load_layers() -> dict:
    return _load(os.path.join(HARNESS_DIR, "layers.json"))


def load_pinned() -> dict:
    return _load(os.path.join(HARNESS_DIR, "pinned.json"))
