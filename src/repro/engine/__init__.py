"""Table-driven streaming scan engine.

The paper's hardware achieves its throughput by *precomputing*: rule
compilation configures CAM columns, switch fabric, and module wiring
once, and the per-symbol datapath is then pure table lookups.  This
package is the software analogue of that split:

* :mod:`repro.engine.tables` -- lower a compiled network into dense
  integer transition tables (:func:`compile_tables`);
* :mod:`repro.engine.scanner` -- :class:`StreamScanner`, the scalar
  chunked streaming interpreter over those tables (``feed``/``finish``),
  and :class:`ReportColumns`, the ``(end, report index)`` columns every
  backend's ``feed`` returns;
* :mod:`repro.engine.block` -- :class:`BlockScanner`, the NumPy
  bit-parallel block scanner (optional dependency);
* :mod:`repro.engine.backends` -- the engine names (``"stream"``,
  ``"block"``, the ``"reference"`` oracle, and ``"auto"``) and the one
  function that resolves them to scanner factories, shared by the
  facade, the in-process matchers, and the CLI;
* :mod:`repro.engine.parallel` -- the in-process matcher bodies, the
  round-robin shard policy and per-shard result merge the cluster
  shares, and the serving layer's feed-offload threads.

:class:`~repro.hardware.simulator.NetworkSimulator` remains the
reference semantics; every backend's contract is exact
report-equivalence with it (see ``tests/engine/`` and
``docs/ARCHITECTURE.md``).
"""

from .backends import (
    BackendUnavailable,
    available_engines,
    engine_choices,
    resolve_backend,
)
from .block import BlockScanner
from .parallel import ShardedMatcher, merge_scan_results, shard_rules
from .scanner import ReportColumns, StreamScanner, scan_bytes
from .tables import TransitionTables, compile_tables

__all__ = [
    "TransitionTables",
    "compile_tables",
    "StreamScanner",
    "ReportColumns",
    "BlockScanner",
    "scan_bytes",
    "ShardedMatcher",
    "merge_scan_results",
    "shard_rules",
    "BackendUnavailable",
    "available_engines",
    "engine_choices",
    "resolve_backend",
]
