"""The ``"stream"`` backend: the scalar table-driven interpreter.

Wraps :class:`~repro.engine.scanner.StreamScanner` -- the always-on
baseline every deployment can rely on: pure standard library, exact
``ActivityStats``, streaming, applicable to every network the compiler
can emit.
"""

from __future__ import annotations

from typing import Optional

from ..scanner import StreamScanner
from ..tables import TransitionTables
from .base import Backend

__all__ = ["StreamBackend"]


class StreamBackend(Backend):
    name = "stream"
    description = (
        "scalar bitmask interpreter over precompiled transition tables "
        "(stdlib-only baseline)"
    )
    stats_exact = True
    streaming = True

    def auto_priority(self, tables: TransitionTables) -> Optional[int]:
        # the universal fallback: always willing, never the flashiest
        return 10

    def make_scanner(self, tables: TransitionTables) -> StreamScanner:
        return StreamScanner(tables)
