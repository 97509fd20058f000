"""Exceptions shared across the package, and the rule for a JSON integer.

The CLI maps these onto its exit codes: DomainError -> 2, ResourceGuardError -> 3.
Parse/IO failures stay ordinary ValueError/KeyError/json errors (exit 1).
"""


class DomainError(ValueError):
    """Invalid parameters for an operation (bad n, k out of range, ...)."""


class ResourceGuardError(RuntimeError):
    """A size guard tripped (matrix dimension, simulator width)."""


def json_int(v, what: str, error: type[Exception] = TypeError) -> int:
    """v, which must be an int (not a bool), as read from JSON; else error: a
    TypeError for the spec readers (exit 1), a DomainError for Circuit.from_dict."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise error(f"{what} must be an integer, got {v!r}")
    return v
