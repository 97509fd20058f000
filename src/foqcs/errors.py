"""Exceptions shared across the package, and the rule for a JSON integer.

The CLI maps these onto its exit codes: DomainError -> 2, ResourceGuardError -> 3.
Parse/IO failures stay ordinary ValueError/KeyError/json errors (exit 1).
"""


class DomainError(ValueError):
    """Invalid parameters for an operation (bad n, k out of range, ...)."""


class ResourceGuardError(RuntimeError):
    """An array over the entry budget, refused by check_entries before it is allocated."""


# The one resource budget: 2**24 entries per array, 24 qubits or a 2^12 x 2^12 matrix.
ENTRY_BUDGET_BITS = 24


def check_entries(what: str, count: int, bits: int = 0) -> None:
    """Refuse an array of count * 2**bits entries over the budget, before it is
    allocated. bits is compared as an exponent, so an n of 10**20 costs nothing."""
    if bits > ENTRY_BUDGET_BITS or count << bits > 1 << ENTRY_BUDGET_BITS:
        raise ResourceGuardError(f"{what} is over the budget of 2^{ENTRY_BUDGET_BITS} entries")


def json_int(v, what: str, error: type[Exception] = TypeError) -> int:
    """v, which must be an int (not a bool), as read from JSON; else error: a
    TypeError for the spec readers (exit 1), a DomainError for Circuit.from_dict."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise error(f"{what} must be an integer, got {v!r}")
    return v
