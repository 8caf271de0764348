"""Exception types shared across the package.

All derive from ValueError so callers that do not care about the distinction
can catch a single class.
"""


class InvalidGeometryError(ValueError):
    """Link geometry with non-finite, negative, or otherwise impossible fields."""


class DomainError(ValueError):
    """Numeric argument outside the domain of the requested operation."""


class InvalidSpecError(ValueError):
    """Sweep or scenario specification that cannot produce a valid run.

    ``field`` names the specification field at fault, where one is, so that a
    front end can name its own option for it.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class InvalidRangeError(InvalidSpecError):
    """Search range or grid parameters that define no usable grid."""
