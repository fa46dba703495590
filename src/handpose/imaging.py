"""Raster containers, PNM I/O, color conversion, resizing, integral images,
a square box's placement in the frame and the union of linked index pairs."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import HandposeError


class Image:
    """8-bit raster, 1 (gray) or 3 (RGB) interleaved channels, row-major."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels, dtype=np.uint8)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise HandposeError(f"expected 1 or 3 channels, got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise HandposeError("image dimensions must be positive")
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
            raise HandposeError(f"mask must be 2-D, got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise HandposeError("mask dimensions must be positive")
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

    def __repr__(self):
        return f"BinaryMask({self.width}x{self.height})"


class IntegralTable:
    """Summed-area tables (plain and squared) with a zero top row/column;
    `sqsum` is None when it was not built."""

    __slots__ = ("sum", "sqsum")

    def __init__(self, sum_table: np.ndarray, sqsum_table: np.ndarray | None):
        self.sum = sum_table
        self.sqsum = sqsum_table

    def rect_sum(self, x: int, y: int, w: int, h: int) -> int:
        s = self.sum
        return int(s[y + h, x + w] - s[y, x + w] - s[y + h, x] + s[y, x])

    def corners(self, x, y, w, h):
        """Flat indices (tl, tr, bl, br) of a rect's corners in the raveled
        tables, y * row + x; ints or int arrays alike."""
        row = self.sum.shape[1]
        tl = y * row + x
        bl = tl + h * row
        return tl, tl + w, bl, bl + w

    def rect_sums(self, locs: np.ndarray):
        """Reader (x, y, w, h) -> (c, n) of the exact sums of c rects, int
        arrays of offsets from each of the n locations `locs` (n, 2). Reads
        blocks when the locations fill at least half the square they span
        (a block read touches all of it, a gather each location twice)."""
        dense = len(locs) and np.prod(np.ptp(locs, axis=0) + 1) <= 2 * len(locs)
        return (_block_rect_sums if dense else _gathered_rect_sums)(self, locs)


def gathered_sums(flat: np.ndarray, base, corners) -> np.ndarray:
    """Exact sums br - tr - bl + tl of the raveled table `flat` in its dtype,
    each corner taken at its offset from the flat indices `base`: corners
    (tl, tr, bl, br) of `IntegralTable.corners` are ints for one box, or
    (c, 1) arrays for c boxes at each base. Built in place."""
    tl, tr, bl, br = corners
    out = flat.take(base + br)
    out -= flat.take(base + tr)
    out -= flat.take(base + bl)
    out += flat.take(base + tl)
    return out


def _gathered_rect_sums(table: IntegralTable, locs: np.ndarray):
    """Rect-sum reader for scattered locations: `gathered_sums` of each
    rect at every location's flat index."""
    flat = table.sum.ravel()
    base, *_ = table.corners(locs[:, 0], locs[:, 1], 0, 0)  # each location's flat index

    def rect_sums(x, y, w, h):
        return gathered_sums(flat, base, [c[:, None] for c in table.corners(x, y, w, h)])

    return rect_sums


def _block_rect_sums(table: IntegralTable, locs: np.ndarray):
    """Rect-sum reader for dense locations: each rect corner is read as one
    block of the table over the square the locations span, and the
    locations' sums are picked from the block of differences."""
    # the square the locations span, empty for no locations
    lo, end = (locs.min(axis=0), locs.max(axis=0) + 1) if len(locs) else (np.zeros(2, np.intp),) * 2
    nx, ny = end - lo
    blocks = sliding_window_view(table.sum[lo[1] :, lo[0] :], (ny, nx))
    pick = (locs[:, 1] - lo[1]) * nx + (locs[:, 0] - lo[0])

    def rect_sums(x, y, w, h):
        diff = blocks[y + h, x + w] - blocks[y, x + w] - blocks[y + h, x] + blocks[y, x]
        return diff.reshape(len(x), nx * ny).take(pick, axis=1)

    return rect_sums


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise HandposeError("unexpected end of header")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def load_pnm(data: bytes) -> Image:
    """Parse a binary PGM (P5) or PPM (P6) with maxval 255."""
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise HandposeError(f"unsupported magic {magic!r}")
    channels = 1 if magic == b"P5" else 3
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_header_token(data, pos)
        if not token.isdigit():
            raise HandposeError(f"non-numeric header field {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise HandposeError("non-positive dimensions")
    if maxval != 255:
        raise HandposeError(f"maxval {maxval} not supported")
    # exactly one whitespace byte separates maxval from the body
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise HandposeError("missing separator after maxval")
    pos += 1
    expected = width * height * channels
    body = data[pos : pos + expected]
    if len(body) < expected:
        raise HandposeError(f"expected {expected} body bytes, got {len(body)}")
    arr = np.frombuffer(body, dtype=np.uint8).reshape(height, width, channels)
    return Image(arr)


def save_pnm(img: Image) -> bytes:
    """Serialize to binary PGM/PPM; round-trips bit-exactly through load_pnm."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    return header + img.pixels.tobytes()


# BT.601 full range in exact integer arithmetic, equal on every 8-bit triple
# to the float64 matmul with floor(v + 0.5) rounding that the recorded
# sessions were made with; _Y_LOW_TIES holds the Y ties it rounds down.


def _y_low_ties() -> np.ndarray:
    """Sorted packed keys (R << 16 | G << 8 | B) of the exact Y ties
    299R + 587G + 114B = 1000k + 500 where fma(B, 0.114, fma(G, 0.587,
    R * 0.299)), the FMA chain of the OpenBLAS dgemm kernel, falls below
    k + 0.5. A plain left-to-right float64 sum differs at 2,965 of the 16,782
    ties: the table follows whatever BLAS is loaded at import. A tie needs
    114B = 500 - 299R - 587G (mod 1000): 57 is invertible mod 500, so each
    (R, G) has at most one B. Built 32 values of R at a time, so no transient
    array reaches 128 KB."""
    ycbcr = np.array(
        [
            [0.299, 0.587, 0.114],
            [-0.168736, -0.331264, 0.5],
            [0.5, -0.418688, -0.081312],
        ]
    )
    keys = []
    for r0 in range(0, 256, 32):
        rg = np.arange(r0 << 8, (r0 + 32) << 8)
        r, g = rg >> 8, rg & 255
        rhs = (500 - 299 * r - 587 * g) % 1000
        b = (rhs // 2) * pow(57, -1, 500) % 500
        tie = (rhs % 2 == 0) & (b < 256)
        r, g, b = r[tie], g[tie], b[tie]
        y_float = np.floor((np.stack([r, g, b], axis=-1).astype(np.float64) @ ycbcr.T)[:, 0] + 0.5)
        low = y_float < (299 * r + 587 * g + 114 * b + 500) // 1000
        keys.append(((r << 16) | (g << 8) | b)[low])
    return np.concatenate(keys).astype(np.int32)


_Y_LOW_TIES = _y_low_ties()


def _planes(img: Image):
    """R, G and B of an RGB image as int32 planes."""
    px = img.pixels
    return px[:, :, 0].astype(np.int32), px[:, :, 1].astype(np.int32), px[:, :, 2].astype(np.int32)


def _luma_plane(r, g, b) -> np.ndarray:
    """Y = (299R + 587G + 114B + 500) // 1000 over int32 planes, one less
    at the ties in _Y_LOW_TIES."""
    num = 299 * r + 587 * g + 114 * b + 500
    y = num // 1000
    ty, tx = np.nonzero(y * 1000 == num)
    if ty.size:
        keys = (r[ty, tx] << 16) | (g[ty, tx] << 8) | b[ty, tx]
        at = np.minimum(np.searchsorted(_Y_LOW_TIES, keys), len(_Y_LOW_TIES) - 1)
        low = _Y_LOW_TIES[at] == keys
        y[ty[low], tx[low]] -= 1
    return y.astype(np.uint8)


def rgb_to_ycbcr(img: Image) -> Image:
    """BT.601 full-range conversion, rounding half up (Y: down at _Y_LOW_TIES)."""
    if img.channels != 3:
        raise HandposeError(f"need 3 channels, got {img.channels}")
    r, g, b = _planes(img)
    out = np.empty(img.pixels.shape, dtype=np.uint8)
    out[:, :, 0] = _luma_plane(r, g, b)
    # Cb + 128 and Cr + 128 rounded half up; both lie in 1..256 for every triple
    out[:, :, 1] = np.minimum((-168736 * r - 331264 * g + 500000 * b + 128_500_000) // 1_000_000, 255)
    out[:, :, 2] = np.minimum((500000 * r - 418688 * g - 81312 * b + 128_500_000) // 1_000_000, 255)
    return Image(out)


def luma(img: Image) -> Image:
    """Grayscale view: Y of the BT.601 conversion (identity on gray)."""
    if img.channels == 1:
        return img
    return Image(_luma_plane(*_planes(img)))


def _nearest_indices(dst: int, src: int) -> np.ndarray:
    idx = np.floor((np.arange(dst) + 0.5) * src / dst).astype(np.intp)
    return np.clip(idx, 0, src - 1)


def resize_nearest(obj, w: int, h: int):
    """Nearest-neighbor resize; preserves the kind (Image or BinaryMask)."""
    if w <= 0 or h <= 0:
        raise HandposeError("target dimensions must be positive")
    ys = _nearest_indices(h, obj.height)
    xs = _nearest_indices(w, obj.width)
    if isinstance(obj, BinaryMask):
        return BinaryMask(obj.bits[np.ix_(ys, xs)])
    return Image(obj.pixels[np.ix_(ys, xs)])


def integral_image(gray: Image, squared: bool = True) -> IntegralTable:
    """Summed-area tables; the squared table is None unless `squared`
    (only the cascade's variance normalization reads it).

    The sum table is int32 when 2 * 255 * h * w < 2**31, else int64; the
    squared table is int64. int32 is exact there: every entry lies in
    [0, M] with M = 255 * h * w, so every partial result of a rect sum
    a - b - c + d lies in [-2M, 2M]."""
    if gray.channels != 1:
        raise HandposeError(f"need 1 channel, got {gray.channels}")
    px = gray.pixels[:, :, 0]
    h, w = px.shape
    dt = np.int32 if 2 * 255 * h * w < 2**31 else np.int64
    s = np.zeros((h + 1, w + 1), dtype=dt)
    np.cumsum(px, axis=0, dtype=dt, out=s[1:, 1:])
    np.cumsum(s[1:, 1:], axis=1, out=s[1:, 1:])
    q = None
    if squared:
        q = np.zeros((h + 1, w + 1), dtype=np.int64)
        np.cumsum(np.square(px, dtype=np.int64), axis=0, out=q[1:, 1:])
        np.cumsum(q[1:, 1:], axis=1, out=q[1:, 1:])
    return IntegralTable(s, q)


def square_in_frame(cx: float, cy: float, side: int, frame_w: int, frame_h: int):
    """The side x side box centred on (cx, cy), its corner rounded and
    clamped so the box lies inside the frame (side fits the frame)."""
    x = min(max(int(round(cx - side / 2.0)), 0), frame_w - side)
    y = min(max(int(round(cy - side / 2.0)), 0), frame_h - side)
    return x, y, side, side


def hook_min_roots(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the sets linked by each pair (a[i], b[i]) in the flat forest
    `root` (every entry points at its set's smallest member): hook the
    larger root of every link onto the smaller, then flatten every entry
    onto its root, until each link joins two equal roots. May update
    `root` in place; returns the flat forest."""
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            return root
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
