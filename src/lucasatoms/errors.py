__all__ = ["InternalConsistencyError"]


class InternalConsistencyError(RuntimeError):
    """Two independent computation routes disagreed: an implementation bug, not bad input."""
