"""Explicit runtime: execution contexts and the session facade.

``repro.runtime.context`` is the foundation (imported by the
primitives and graphs layers, so it stays dependency-light); ``repro.runtime.session``
pulls in the experiment registry and is loaded lazily so importing the
context layer never drags the full algorithm suite along.
"""

from repro.runtime.context import ExecutionContext, current_context, root_context

__all__ = [
    "ExecutionContext",
    "current_context",
    "root_context",
    "ConnectivityService",
    "Session",
    "execute_profiled",
]

_SESSION_EXPORTS = ("ConnectivityService", "Session", "execute_profiled")


def __getattr__(name: str) -> object:
    if name in _SESSION_EXPORTS:
        from repro.runtime import session

        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
