"""The ``"block"`` backend: NumPy vectorized block sweeps.

Wraps :class:`~repro.engine.block.BlockScanner`.  Availability is
gated on the optional NumPy dependency -- when the import fails the
registry reports the backend unavailable with the import error as the
reason, and ``engine="auto"`` quietly degrades to ``"stream"``.

The backend applies to *every* network: tables the block scanner's
static sweep analysis rejects (nested counting, multi-STE counter
bodies, STE cycles longer than a self-loop) run on its embedded scalar
interpreter.  ``auto`` asks that same analysis and nothing else --
accepted tables (STE-only or module-bearing alike) outrank
``"stream"``, rejected ones are never auto-picked; the rule is stated
in :mod:`repro.engine.backends`.
"""

from __future__ import annotations

from typing import Optional

from .. import block as block_engine
from ..tables import TransitionTables
from .base import Backend

__all__ = ["BlockBackend"]


class BlockBackend(Backend):
    name = "block"
    description = (
        "NumPy bit-parallel block scanner (vector sweeps with in-lane "
        "counter/bit-vector execution; tables the sweep analysis "
        "rejects run on the embedded scalar interpreter)"
    )
    stats_exact = True
    streaming = True

    def availability(self) -> tuple[bool, Optional[str]]:
        if block_engine.numpy_or_none() is None:
            return False, block_engine.numpy_unavailable_reason()
        return True, None

    def prepare(self, tables: TransitionTables) -> None:
        block_engine.BlockScanner.can_sweep(tables)  # builds and keeps the program

    def auto_priority(self, tables: TransitionTables) -> Optional[int]:
        # the verdict is kept on the tables: free after the first ask
        return 30 if block_engine.BlockScanner.can_sweep(tables) else None

    def make_scanner(self, tables: TransitionTables) -> "block_engine.BlockScanner":
        return block_engine.BlockScanner(tables)
