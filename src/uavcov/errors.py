"""Exception types shared across the package.

All derive from ValueError so callers that do not care about the distinction
can catch a single class. ``field`` names the input field at fault, where one
is, so that a front end can name its own option for it.
"""


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
