"""The library's one refusal type, and the one range rule that raises it.

The model holds only on bounded inputs. Every input the library refuses raises
``InputError``, a ValueError whose ``field`` names the input at fault, so that
a front end can name its own option for it. The one exception is
``channel.builtin_environment``: an unknown name is a failed lookup, a KeyError.
"""

import numbers

import numpy as np


class InputError(ValueError):
    """An input outside the domain of the model; ``field`` names it."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field

    def __reduce__(self):
        # pickle and copy rebuild an exception from its args, which lack the field
        return type(self), (*self.args, self.field)


# the scalar types of each kind; the concrete type first, as the abstract check is slower
_SCALARS = {float: (float, numbers.Real), int: (int, numbers.Integral)}


def _bound(b) -> str:
    return f"{b:g}" if isinstance(b, float) else str(b)


def _inside(value, lo, hi, ends: str):
    # elementwise on arrays; every comparison with a NaN is false
    return (((lo < value) if ends[0] == "(" else (lo <= value))
            & ((value < hi) if ends[1] == ")" else (value <= hi)))


def check_in(value, lo, hi, field: str, what: str, unit: str = "", ends: str = "[]", *,
             kind=float):
    """Return ``value`` if it lies in the interval from ``lo`` to ``hi``; else raise InputError.

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
    raise InputError(f"{what} must lie in {ends[0]}{_bound(lo)}, {_bound(hi)}{ends[1]}"
                     f"{' ' + unit if unit else ''}, got {value}", field=field)
