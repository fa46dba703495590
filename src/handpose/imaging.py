"""Raster containers, PNM I/O, color conversion, resizing and integral images."""

from __future__ import annotations

import numpy as np

from .errors import (
    MalformedHeader,
    TruncatedBody,
    UnsupportedMaxval,
    WrongChannelCount,
    ZeroDimension,
)


class Image:
    """8-bit raster, 1 (gray) or 3 (RGB) interleaved channels, row-major."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels, dtype=np.uint8)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise WrongChannelCount(f"expected 1 or 3 channels, got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ZeroDimension("image dimensions must be positive")
        self.pixels = arr

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    def __eq__(self, other):
        return (
            isinstance(other, Image)
            and self.pixels.shape == other.pixels.shape
            and bool(np.array_equal(self.pixels, other.pixels))
        )

    def __repr__(self):
        return f"Image({self.width}x{self.height}x{self.channels})"


class BinaryMask:
    """Boolean raster, one bit per pixel."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.asarray(bits).astype(bool)
        if arr.ndim != 2:
            raise ZeroDimension(f"mask must be 2-D, got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ZeroDimension("mask dimensions must be positive")
        self.bits = arr

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, BinaryMask)
            and self.bits.shape == other.bits.shape
            and bool(np.array_equal(self.bits, other.bits))
        )

    def to_image(self) -> Image:
        """Export as grayscale with 0/255 values."""
        return Image(np.where(self.bits, 255, 0).astype(np.uint8))

    @staticmethod
    def from_image(img: Image, threshold: int = 128) -> "BinaryMask":
        if img.channels != 1:
            raise WrongChannelCount("mask source must be grayscale")
        return BinaryMask(img.pixels[:, :, 0] >= threshold)

    def __repr__(self):
        return f"BinaryMask({self.width}x{self.height})"


class IntegralTable:
    """Summed-area tables (plain and squared) with a zero top row/column;
    `sqsum` is None when it was not built."""

    __slots__ = ("sum", "sqsum")

    def __init__(self, sum_table: np.ndarray, sqsum_table: np.ndarray | None):
        self.sum = sum_table
        self.sqsum = sqsum_table

    @property
    def width(self) -> int:
        return self.sum.shape[1] - 1

    @property
    def height(self) -> int:
        return self.sum.shape[0] - 1

    def rect_sum(self, x: int, y: int, w: int, h: int) -> int:
        s = self.sum
        return int(s[y + h, x + w] - s[y, x + w] - s[y + h, x] + s[y, x])

    def rect_sqsum(self, x: int, y: int, w: int, h: int) -> int:
        s = self.sqsum
        return int(s[y + h, x + w] - s[y, x + w] - s[y + h, x] + s[y, x])


def _read_header_token(data: bytes, pos: int, allow_comments: bool) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif allow_comments and c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise MalformedHeader("unexpected end of header")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def load_pnm(data: bytes) -> Image:
    """Parse a binary PGM (P5) or PPM (P6) with maxval 255."""
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise MalformedHeader(f"unsupported magic {magic!r}")
    channels = 1 if magic == b"P5" else 3
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_header_token(data, pos, allow_comments=True)
        if not token.isdigit():
            raise MalformedHeader(f"non-numeric header field {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise MalformedHeader("non-positive dimensions")
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval {maxval} not supported")
    # exactly one whitespace byte separates maxval from the body
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedHeader("missing separator after maxval")
    pos += 1
    expected = width * height * channels
    body = data[pos : pos + expected]
    if len(body) < expected:
        raise TruncatedBody(f"expected {expected} body bytes, got {len(body)}")
    arr = np.frombuffer(body, dtype=np.uint8).reshape(height, width, channels)
    return Image(arr)


def save_pnm(img: Image) -> bytes:
    """Serialize to binary PGM/PPM; round-trips bit-exactly through load_pnm."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    return header + img.pixels.tobytes()


_YCBCR = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)


def rgb_to_ycbcr(img: Image) -> Image:
    """BT.601 full-range conversion, rounding half away from zero."""
    if img.channels != 3:
        raise WrongChannelCount(f"need 3 channels, got {img.channels}")
    rgb = img.pixels.astype(np.float64)
    # Y, Cb + 128 and Cr + 128 are >= 0 for every 8-bit RGB triple, so
    # half away from zero is floor(v + 0.5)
    ycc = rgb @ _YCBCR.T + (0.0, 128.0, 128.0)
    return Image(np.clip(np.floor(ycc + 0.5), 0, 255).astype(np.uint8))


def luma(img: Image) -> Image:
    """Grayscale view: channel 0 of the BT.601 conversion (identity on gray)."""
    if img.channels == 1:
        return img
    return Image(rgb_to_ycbcr(img).pixels[:, :, 0])


def _nearest_indices(dst: int, src: int) -> np.ndarray:
    idx = np.floor((np.arange(dst) + 0.5) * src / dst).astype(np.intp)
    return np.clip(idx, 0, src - 1)


def resize_nearest(obj, w: int, h: int):
    """Nearest-neighbor resize; preserves the kind (Image or BinaryMask)."""
    if w <= 0 or h <= 0:
        raise ZeroDimension("target dimensions must be positive")
    if isinstance(obj, BinaryMask):
        ys = _nearest_indices(h, obj.height)
        xs = _nearest_indices(w, obj.width)
        return BinaryMask(obj.bits[np.ix_(ys, xs)])
    ys = _nearest_indices(h, obj.height)
    xs = _nearest_indices(w, obj.width)
    return Image(obj.pixels[np.ix_(ys, xs)])


def integral_image(gray: Image, squared: bool = True) -> IntegralTable:
    """Summed-area tables with 64-bit accumulators; the squared table is
    None unless `squared` (only the cascade's variance normalization reads it)."""
    if gray.channels != 1:
        raise WrongChannelCount(f"need 1 channel, got {gray.channels}")
    px = gray.pixels[:, :, 0].astype(np.int64)
    h, w = px.shape
    s = np.zeros((h + 1, w + 1), dtype=np.int64)
    s[1:, 1:] = px.cumsum(axis=0).cumsum(axis=1)
    q = None
    if squared:
        q = np.zeros((h + 1, w + 1), dtype=np.int64)
        q[1:, 1:] = (px * px).cumsum(axis=0).cumsum(axis=1)
    return IntegralTable(s, q)
