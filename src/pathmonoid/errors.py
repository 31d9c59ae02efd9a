"""Shared exception types."""


class ResourceRefused(Exception):
    """Raised when a request exceeds a fixed resource bound.

    The bound is enforced up front and the work is refused outright rather
    than degraded; the CLI maps this to exit code 3.
    """
