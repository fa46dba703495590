"""Exception hierarchy shared across the package.

Every domain error is a HandposeError, and every HandposeError is a
ValueError, so one `except ValueError` catches them all. Only the
failures that a caller tells apart keep a subclass.
"""


class HandposeError(ValueError):
    """Base class for all domain errors."""


class SchemaViolation(HandposeError):
    """A cascade document is well-formed XML but not a valid cascade."""


class RectOutOfWindow(HandposeError):
    """A cascade feature's rect lies outside the detection window."""


class ImageTooSmall(HandposeError):
    """A frame is smaller than the cascade's window."""


class PatchOutOfFrame(HandposeError):
    """A tracked frame's size differs from the frame the tracker started on."""
