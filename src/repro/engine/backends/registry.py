"""Backend registry: one name -> strategy map for every consumer.

The facade (:class:`~repro.matching.RulesetMatcher`), the parallel
front-ends (:mod:`repro.engine.parallel`), and the CLI all resolve
execution engines here, so an engine name means the same thing -- and
an unknown name produces the same error -- everywhere.  Third parties
(and tests) can plug in additional backends with
:func:`register_backend`; ``"auto"`` picks the fastest available
backend that applies to the compiled tables at hand.
"""

from __future__ import annotations

from typing import Optional

from ..tables import TransitionTables
from .base import Backend, BackendInfo, BackendUnavailable

__all__ = [
    "AUTO_ENGINE",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "backend_names",
    "engine_choices",
    "available_backends",
    "validated_backend_names",
    "prepare_backends",
    "unknown_engine_error",
]

#: The pseudo-name that defers backend choice until the tables are known.
AUTO_ENGINE = "auto"

_BACKENDS: dict[str, Backend] = {}


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Register ``backend`` under its name.

    Re-registering an existing name raises unless ``replace`` is True.
    Returns the backend, so the call composes as a decorator-style
    one-liner.
    """
    if not backend.name:
        raise ValueError("backend must declare a non-empty name")
    if backend.name == AUTO_ENGINE:
        raise ValueError(f"{AUTO_ENGINE!r} is reserved for automatic selection")
    if backend.name in _BACKENDS and not replace:
        raise ValueError(f"backend name {backend.name!r} already registered")
    _BACKENDS[backend.name] = backend
    return backend


def backend_names() -> list[str]:
    """Names of all registered backends, registration order."""
    return list(_BACKENDS)


def engine_choices() -> list[str]:
    """Every accepted engine spelling: ``auto``, then the registered
    names (what the CLI ``--engine`` flag and the facade accept)."""
    return [AUTO_ENGINE, *_BACKENDS]


def available_backends() -> list[BackendInfo]:
    """Introspection snapshot of every registered backend.

    >>> from repro import available_backends
    >>> sorted(info.name for info in available_backends())
    ['block', 'reference', 'stream']
    """
    return [backend.info() for backend in _BACKENDS.values()]


def unknown_engine_error(name: object) -> ValueError:
    """The single, consistent unknown-engine error every entry point
    raises (satisfying callers who match on the message)."""
    return ValueError(
        f"unknown engine {name!r}; available engines: "
        + ", ".join(engine_choices())
    )


def get_backend(name: str) -> Backend:
    """Look up a backend by name.

    Raises the shared unknown-engine :class:`ValueError` for names that
    are not registered (``"auto"`` included -- it is not a backend; use
    :func:`resolve_backend` to let it pick one).
    """
    backend = _BACKENDS.get(name)
    if backend is None:
        raise unknown_engine_error(name)
    return backend


def resolve_backend(
    name: str, tables: Optional[TransitionTables] = None
) -> Backend:
    """Resolve an engine name to a usable backend for ``tables``.

    ``"auto"`` picks the available backend with the highest
    :meth:`~repro.engine.backends.base.Backend.auto_priority` for the
    tables (falling back over backends that decline).  Explicit names
    insist the backend is available and applicable, raising
    :class:`BackendUnavailable` (a ``ValueError``) with the reason
    otherwise.

    >>> from repro import resolve_backend
    >>> resolve_backend("stream").name
    'stream'
    """
    if name == AUTO_ENGINE:
        best: Optional[Backend] = None
        best_rank: Optional[int] = None
        for backend in _BACKENDS.values():
            if not backend.available:
                continue
            if tables is not None and not backend.applicable(tables):
                continue
            rank = (
                backend.auto_priority(tables)
                if tables is not None
                else (0 if backend.streaming else None)
            )
            if rank is None:
                continue
            if best_rank is None or rank > best_rank:
                best, best_rank = backend, rank
        if best is None:
            raise BackendUnavailable(
                "no registered backend is available for automatic selection"
            )
        return best

    backend = get_backend(name)
    available, reason = backend.availability()
    if not available:
        raise BackendUnavailable(
            f"engine {backend.name!r} is unavailable: {reason}"
        )
    if tables is not None and not backend.applicable(tables):
        raise BackendUnavailable(
            f"engine {backend.name!r} cannot execute these tables "
            "(compiled without the state it needs)"
        )
    return backend


def validated_backend_names(tables: TransitionTables) -> list[str]:
    """Names of the backends that are available *and* applicable
    to ``tables`` right now -- what compiled-ruleset cache artifacts
    record as the set the tables were validated against."""
    return [
        backend.name
        for backend in _BACKENDS.values()
        if backend.available and backend.applicable(tables)
    ]


def prepare_backends(tables: TransitionTables) -> None:
    """Fill ``tables.prepared`` for every backend validated for
    ``tables`` (:meth:`Backend.prepare`): the compile path's last step
    before a cache artifact is written, so a warm start's scanners are
    built from loaded state."""
    for name in validated_backend_names(tables):
        _BACKENDS[name].prepare(tables)
