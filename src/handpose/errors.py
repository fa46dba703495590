"""Exception hierarchy shared across the package."""


class HandposeError(Exception):
    """Base class for all domain errors."""


# imaging
class MalformedHeader(HandposeError):
    pass


class TruncatedBody(HandposeError):
    pass


class UnsupportedMaxval(HandposeError):
    pass


class WrongChannelCount(HandposeError):
    pass


class ZeroDimension(HandposeError):
    pass


# tensor / network
class ShapeMismatch(HandposeError):
    pass


class OddDimension(HandposeError):
    pass


class LabelOutOfRange(HandposeError):
    pass


# dataset
class WrongSize(HandposeError):
    pass


class EmptyClass(HandposeError):
    pass


class NonContiguousLabels(HandposeError):
    pass


# weight files
class BadMagic(HandposeError):
    pass


class VersionMismatch(HandposeError):
    pass


class ChecksumMismatch(HandposeError):
    pass


# skin model
class EmptyInput(HandposeError):
    pass


# cascade
class XmlSyntax(HandposeError):
    pass


class SchemaViolation(HandposeError):
    pass


class RectOutOfWindow(HandposeError):
    pass


class ImageTooSmall(HandposeError):
    pass


# tracker
class BoxOutOfFrame(HandposeError):
    pass


class DegenerateBox(HandposeError):
    pass


class PatchOutOfFrame(HandposeError):
    pass


# pipeline / cli
class EmptyHistory(HandposeError):
    pass


class ConfigLoadError(HandposeError):
    pass
