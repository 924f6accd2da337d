"""Error taxonomy shared by the library and the command line tool.

The CLI maps these onto exit codes: InputError -> 2, ResourceLimitError -> 3,
InternalError (including CalibrationError) -> 4.
"""


class StarprodError(Exception):
    """Base class for all errors raised by this package."""


class InputError(StarprodError):
    """Bad user input: parse errors, dimension mismatches, violated preconditions."""


class ResourceLimitError(StarprodError):
    """A configured work or size cap was exceeded before the computation finished."""


class InternalError(StarprodError):
    """An internal invariant failed; indicates a bug, not bad input."""


class CalibrationError(InternalError):
    """The propagator/vertex weight calibration produced inconsistent constants."""


def require_int(value, what: str, low: int = 0, high: int | None = None) -> int:
    """value if it is an int in low..high (a bool is not), else InputError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low \
            or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise InputError(f"{what} must be an integer {bound}")
    return value
