"""Exception types shared across the package, and the one range rule that raises them.

All derive from ValueError so callers that do not care about the distinction
can catch a single class. ``field`` names the input field at fault, where one
is, so that a front end can name its own option for it.
"""

import numbers

import numpy as np


class _FieldError(ValueError):
    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class InvalidGeometryError(_FieldError):
    """Link geometry with non-finite, negative, or otherwise impossible fields."""


class DomainError(_FieldError):
    """Numeric argument outside the domain of the requested operation."""


class InvalidSpecError(_FieldError):
    """Sweep or scenario specification that cannot produce a valid run."""


class InvalidRangeError(InvalidSpecError):
    """Search range or grid parameters that define no usable grid."""


# the scalar types of each kind; the concrete type first, as the abstract check is slower
_SCALARS = {float: (float, numbers.Real), int: (int, numbers.Integral)}


def _bound(b) -> str:
    return f"{b:g}" if isinstance(b, float) else str(b)


def _inside(value, lo, hi, ends: str):
    # elementwise on arrays; every comparison with a NaN is false
    return (((lo < value) if ends[0] == "(" else (lo <= value))
            & ((value < hi) if ends[1] == ")" else (value <= hi)))


def check_in(value, lo, hi, field: str, what: str, unit: str = "", ends: str = "[]", *,
             kind=float, error=DomainError):
    """Return ``value`` if it lies in the interval from ``lo`` to ``hi``; else raise ``error``.

    ``ends`` holds the interval's brackets, "[" or "(" and "]" or ")". ``kind``
    is ``float`` for a real number, ``int`` for a count (numpy integers are
    counts) or ``np.ndarray`` for a numpy array whose every element must lie in
    the interval. A bool is neither a number nor a count, and a NaN lies in no
    interval. The error reads "<what> must lie in [lo, hi] <unit>, got <value>",
    with an array's first value outside, and carries ``field``.
    """
    if kind is np.ndarray:
        inside = _inside(value, lo, hi, ends)
        if inside.all():
            return value
        value = value[~inside][0]
    elif type(value) is bool or not isinstance(value, _SCALARS[kind]):
        value = repr(value)  # a value of another type shows as what it is
    elif _inside(value, lo, hi, ends):
        return value
    raise error(f"{what} must lie in {ends[0]}{_bound(lo)}, {_bound(hi)}{ends[1]}"
                f"{' ' + unit if unit else ''}, got {value}", field=field)
