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

    @staticmethod
    def corners(row, x, y, w, h):
        """Flat indices (tl, tr, bl, br) of a rect's corners in a raveled
        table of `row` entries a row; ints or int arrays alike."""
        tl = y * row + x
        bl = tl + h * row
        return tl, tl + w, bl, bl + w

    def rect_sums(self, locs: np.ndarray, size, reads: int):
        """Reader (x, y, w, h) -> (c, n) of the exact sums of c rects, int
        arrays of offsets inside a size = (w, h) patch, at each of the n
        locations `locs` (n, 2); `reads` is how many rects the caller reads
        in all. Of three readers it takes the one that touches the fewest
        table entries:
        - blocks (a stride-1 lattice), when the locations fill at least
          half the square they span (a block read touches all of it, a
          gather each location twice);
        - patches, when a (w+1)(h+1) patch holds no more entries than the
          4 * reads corners read at each location;
        - a gather at the locations' flat indices otherwise."""
        n = len(locs)
        xs, ys = locs[:, 0], locs[:, 1]
        if n:
            lo = (int(xs.min()), int(ys.min()))
            span = (int(xs.max()) + 1 - lo[0], int(ys.max()) + 1 - lo[1])
            if span[0] * span[1] <= 2 * n:
                return _block_rect_sums(self, locs, lo, span)
            if (size[0] + 1) * (size[1] + 1) <= 4 * reads:
                return _patch_rect_sums(self, locs, size)
        return _gathered_rect_sums(self, xs, ys)


def gathered_sums(table: np.ndarray, corners) -> np.ndarray:
    """Exact sums br - tr - bl + tl of a summed-area table in its dtype,
    each corner (tl, tr, bl, br) an int or an int array of indices along
    axis 0: over a raveled table, (n,) or (c, n) flat indices give n or
    (c, n) sums; over a (P, n) table of n patches, the ints or (c,) arrays
    of `IntegralTable.corners` give n or (c, n) sums. Built in place."""
    tl, tr, bl, br = corners
    out = table.take(br, axis=0)
    out -= table.take(tr, axis=0)
    out -= table.take(bl, axis=0)
    out += table.take(tl, axis=0)
    return out


def lattice_sums(table: np.ndarray, origin, ny: int, nx: int, stride: int):
    """Reader (x, y, w, h) -> exact sums of the rect at every point of the
    ny x nx lattice whose first point lies at table entry origin = (x, y),
    `stride` apart both ways, in the table's dtype: (ny, nx) for an int
    rect, (c, ny, nx) for int arrays of c rects. Every corner is read from
    one read-only view v[dy, dx, i, j] = table[oy + dy + i * stride,
    ox + dx + j * stride] (a slice of it for an int rect, a fancy index
    for arrays), and the sum is taken in `gathered_sums`' order, so each
    is the same integer."""
    t = np.ascontiguousarray(table)
    (ox, oy), (rs, cs) = origin, t.strides
    shape = (t.shape[0] - oy - (ny - 1) * stride, t.shape[1] - ox - (nx - 1) * stride, ny, nx)
    view = np.ndarray(shape, t.dtype, t, oy * rs + ox * cs, (rs, cs, rs * stride, cs * stride))
    # an int rect's corners are views of the table: read-only, so no write
    # reaches it, and the reader tells them from an array's copies by it
    view.flags.writeable = False

    def rect_sums(x, y, w, h):
        # an array of rects gathers each corner as a fresh, writable copy:
        # the first difference goes into it, one (c, ny, nx) temporary fewer
        out = view[y + h, x + w]
        out = np.subtract(out, view[y, x + w], out=out if out.flags.writeable else None)
        out -= view[y + h, x]
        out += view[y, x]
        return out

    return rect_sums


def _gathered_rect_sums(table: IntegralTable, xs: np.ndarray, ys: np.ndarray):
    """Rect-sum reader at the n locations (xs, ys) of the sum table:
    `gathered_sums` of an int rect (n,), or of int arrays of c rects
    (c, n), each corner at its offset from every location's flat index."""
    flat, row = table.sum.ravel(), table.sum.shape[1]
    base, *_ = table.corners(row, xs, ys, 0, 0)

    def rect_sums(x, y, w, h):
        return gathered_sums(flat, [base + np.asarray(c)[..., None] for c in table.corners(row, x, y, w, h)])

    return rect_sums


def _patch_rect_sums(table: IntegralTable, locs: np.ndarray, size):
    """Rect-sum reader for sparse locations with small patches: the
    (h+1) x (w+1) patch of the table at each location is copied once, as
    one column of a (P, n) array, so each rect corner is the row of the
    raveled patch that every location shares."""
    pw, ph = size[0] + 1, size[1] + 1
    patches = sliding_window_view(table.sum, (ph, pw))[locs[:, 1], locs[:, 0]].reshape(len(locs), ph * pw)
    patches = np.ascontiguousarray(patches.T)
    return lambda x, y, w, h: gathered_sums(patches, table.corners(pw, x, y, w, h))


def _block_rect_sums(table: IntegralTable, locs: np.ndarray, lo, span):
    """Rect-sum reader for dense locations in the span = (nx, ny) square at
    lo = (x, y): each rect is read at every point of the square as a
    stride-1 lattice, and the locations' sums are picked from it."""
    nx, ny = span
    sums = lattice_sums(table.sum, lo, ny, nx, 1)
    pick, *_ = table.corners(nx, locs[:, 0] - lo[0], locs[:, 1] - lo[1], 0, 0)
    return lambda x, y, w, h: sums(x, y, w, h).reshape(len(x), nx * ny).take(pick, axis=1)


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
    squared table is int64, summed from uint16 squares (255**2 fits).
    int32 is exact there: every entry lies in [0, M] with M = 255 * h * w,
    so every partial result of a rect sum a - b - c + d lies in [-2M, 2M]."""
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
        # the squares are copied into the table and summed there in place:
        # a cumsum that casts them would first build an int64 copy
        q[1:, 1:] = np.square(px, dtype=np.uint16)
        np.cumsum(q[1:, 1:], axis=0, out=q[1:, 1:])
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
