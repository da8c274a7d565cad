"""Pluggable execution backends for compiled transition tables.

The paper's thesis is codesign: throughput comes from matching the
execution substrate to the workload.  This package is the software
expression of that idea -- one :class:`~repro.engine.backends.base.Backend`
protocol, a process-wide registry, and three built-in strategies:

======================  =====================================================
``"stream"``            scalar bitmask interpreter; stdlib-only,
                        always available, exact stats
``"block"``             NumPy vectorized block sweeps (STE, counter and
                        bit-vector activity in-lane); optional
                        dependency, exact stats
``"reference"``         node-by-node cycle-accurate simulator; the
                        executable spec the others are tested against
======================  =====================================================

``engine="auto"`` resolves to the highest-priority available backend
that applies to the tables at hand.  For the built-ins that is one
rule: NumPy imports **and** the block scanner's static sweep analysis
accepts the tables (:meth:`repro.engine.block.BlockScanner.can_sweep`
-- module-free or module-bearing alike) -> ``"block"``; otherwise
``"stream"``; ``"reference"`` is never auto-picked.  New backends -- a
hardware-cost-model-guided dispatcher, a native extension, ... -- plug
in via :func:`register_backend` and every consumer (facade,
sharded/batch front-ends, CLI) picks them up by name.
"""

from .base import Backend, BackendInfo, BackendUnavailable
from .block import BlockBackend
from .reference import ReferenceBackend, ReferenceScanner
from .registry import (
    AUTO_ENGINE,
    available_backends,
    backend_names,
    engine_choices,
    get_backend,
    prepare_backends,
    register_backend,
    resolve_backend,
    unknown_engine_error,
    validated_backend_names,
)
from .stream import StreamBackend

__all__ = [
    "AUTO_ENGINE",
    "Backend",
    "BackendInfo",
    "BackendUnavailable",
    "BlockBackend",
    "ReferenceBackend",
    "ReferenceScanner",
    "StreamBackend",
    "available_backends",
    "backend_names",
    "engine_choices",
    "get_backend",
    "prepare_backends",
    "register_backend",
    "resolve_backend",
    "unknown_engine_error",
    "validated_backend_names",
]

# Built-ins register at import time, in auto-preference display order.
register_backend(StreamBackend())
register_backend(BlockBackend())
register_backend(ReferenceBackend())
