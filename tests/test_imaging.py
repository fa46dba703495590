import numpy as np
import pytest

from handpose import haar_cascade, imaging, mil_tracker, rand
from handpose.errors import HandposeError
from handpose.gesture_net import binarize
from handpose.haar_cascade import CascadeModel, Stage, Tree, TreeNode, WeightedRect
from handpose.imaging import (
    BinaryMask,
    Image,
    IntegralTable,
    integral_image,
    load_pnm,
    luma,
    resize_nearest,
    rgb_to_ycbcr,
    save_pnm,
)
from helpers import brute_rect_sum, forced_reader, rect_sqsum, rgb_to_ycbcr_oracle


class TestLoadPnm:
    def test_p5_basic(self):
        img = load_pnm(b"P5 2 2 255 " + bytes([0, 1, 2, 3]))
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        assert img.pixels[:, :, 0].tolist() == [[0, 1], [2, 3]]

    def test_p6_single_red_pixel(self):
        img = load_pnm(b"P6 1 1 255 " + bytes([255, 0, 0]))
        assert img.channels == 3
        assert img.pixels[0, 0].tolist() == [255, 0, 0]

    def test_header_comments(self):
        img = load_pnm(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([9, 8]))
        assert img.pixels[0].ravel().tolist() == [9, 8]

    def test_truncated_body(self):
        with pytest.raises(HandposeError, match="expected 16 body bytes"):
            load_pnm(b"P5 4 4 255 " + bytes(15))

    def test_bad_magic(self):
        with pytest.raises(HandposeError, match="unsupported magic"):
            load_pnm(b"P3 1 1 255 0 0 0")

    def test_bad_maxval(self):
        with pytest.raises(HandposeError, match="maxval 65535 not supported"):
            load_pnm(b"P5 1 1 65535 " + bytes(2))

    def test_nonnumeric_header(self):
        with pytest.raises(HandposeError, match="non-numeric header field"):
            load_pnm(b"P5 x 2 255 " + bytes(4))


class TestSavePnm:
    def test_single_gray_pixel_bytes(self):
        img = Image(np.array([[7]], dtype=np.uint8))
        assert save_pnm(img) == b"P5\n1 1\n255\n" + bytes([7])

    def test_round_trip_random_rgb(self):
        rng = rand.generator(1, 0)
        for _ in range(20):
            img = Image(rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8))
            assert load_pnm(save_pnm(img)) == img

    def test_round_trip_random_gray(self):
        rng = rand.generator(2, 0)
        for _ in range(20):
            img = Image(rng.integers(0, 256, size=(5, 7)).astype(np.uint8))
            assert load_pnm(save_pnm(img)) == img

    def test_mask_round_trip_via_p5(self):
        rng = rand.generator(3, 0)
        mask = BinaryMask(rng.random((9, 6)) < 0.5)
        reloaded = load_pnm(save_pnm(mask.to_image()))
        assert binarize(reloaded.pixels[:, :, 0], "fixed") == mask


class TestRgbToYcbcr:
    def test_white(self):
        img = Image(np.full((1, 1, 3), 255, dtype=np.uint8))
        assert rgb_to_ycbcr(img).pixels[0, 0].tolist() == [255, 128, 128]

    def test_gray_fixed_point(self):
        img = Image(np.full((1, 1, 3), 128, dtype=np.uint8))
        assert rgb_to_ycbcr(img).pixels[0, 0].tolist() == [128, 128, 128]

    def test_pure_red(self):
        # direct evaluation: Y=76.245->76, Cb=84.97->85, Cr=255.5->clamp 255
        img = Image(np.array([[[255, 0, 0]]], dtype=np.uint8))
        assert rgb_to_ycbcr(img).pixels[0, 0].tolist() == [76, 85, 255]

    def test_grayscale_inputs_map_to_neutral_chroma(self):
        vals = np.arange(256, dtype=np.uint8)
        img = Image(np.stack([vals, vals, vals], axis=-1)[None])
        out = rgb_to_ycbcr(img).pixels
        assert np.all(out[:, :, 1] == 128)
        assert np.all(out[:, :, 2] == 128)
        assert np.array_equal(out[:, :, 0], vals[None])

    def test_rejects_grayscale(self):
        with pytest.raises(HandposeError, match="need 3 channels"):
            rgb_to_ycbcr(Image(np.zeros((2, 2), dtype=np.uint8)))

    def test_range_random(self):
        rng = rand.generator(4, 0)
        img = Image(rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8))
        out = rgb_to_ycbcr(img).pixels
        assert out.min() >= 0 and out.max() <= 255

    def test_all_rgb_triples_match_two_sided_rounding(self):
        # rgb_to_ycbcr rounds half up in integer arithmetic (Y: down at
        # _Y_LOW_TIES), the oracle half away from zero in float64: no 8-bit
        # triple may tell the two apart
        for start in range(0, 1 << 24, 1 << 20):
            code = np.arange(start, start + (1 << 20))
            px = np.stack([code >> 16, (code >> 8) & 255, code & 255], axis=-1).astype(np.uint8)
            px = px.reshape(4096, 256, 3)
            assert np.array_equal(rgb_to_ycbcr(Image(px)).pixels, rgb_to_ycbcr_oracle(px)), start


    def test_y_low_tie_table(self):
        # the exact Y ties (299R + 587G + 114B = 1000k + 500) where float64
        # rounds down, as sorted packed R << 16 | G << 8 | B keys
        keys = imaging._Y_LOW_TIES.astype(np.int64)
        assert len(keys) == 3791
        assert np.all(np.diff(keys) > 0)
        r, g, b = keys >> 16, (keys >> 8) & 255, keys & 255
        assert np.all((299 * r + 587 * g + 114 * b) % 1000 == 500)


class TestLuma:
    def test_gray_is_identity(self):
        img = Image(np.arange(12, dtype=np.uint8).reshape(3, 4))
        assert luma(img) is img

    def test_all_rgb_triples_match_float_oracle(self):
        for start in range(0, 1 << 24, 1 << 20):
            code = np.arange(start, start + (1 << 20))
            px = np.stack([code >> 16, (code >> 8) & 255, code & 255], axis=-1).astype(np.uint8)
            px = px.reshape(4096, 256, 3)
            gray = luma(Image(px))
            assert gray.channels == 1
            assert np.array_equal(gray.pixels[:, :, 0], rgb_to_ycbcr_oracle(px)[:, :, 0]), start


class TestResizeNearest:
    def test_identity_at_same_size(self):
        rng = rand.generator(5, 0)
        img = Image(rng.integers(0, 256, size=(6, 9, 3)).astype(np.uint8))
        assert resize_nearest(img, 9, 6) == img

    def test_mask_block_replication(self):
        mask = BinaryMask(np.array([[1, 0], [0, 1]], dtype=bool))
        out = resize_nearest(mask, 4, 4)
        expect = np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=bool
        )
        assert np.array_equal(out.bits, expect)

    def test_downscale_picks_odd_offsets(self):
        # floor((i+0.5)*96/48) = 2i+1
        vals = np.arange(96, dtype=np.uint8)
        img = Image(np.tile(vals[None], (96, 1)))
        out = resize_nearest(img, 48, 48)
        assert np.array_equal(out.pixels[0, :, 0], np.arange(1, 96, 2, dtype=np.uint8))

    def test_binary_stays_binary(self):
        rng = rand.generator(6, 0)
        mask = BinaryMask(rng.random((10, 10)) < 0.3)
        out = resize_nearest(mask, 23, 17)
        assert isinstance(out, BinaryMask)
        assert out.bits.dtype == bool

    def test_zero_dimension(self):
        with pytest.raises(HandposeError, match="target dimensions must be positive"):
            resize_nearest(BinaryMask(np.ones((2, 2), dtype=bool)), 0, 4)


class TestIntegralImage:
    def test_all_ones_corner(self):
        img = Image(np.ones((4, 4), dtype=np.uint8))
        table = integral_image(img)
        assert table.sum[4, 4] == 16
        assert np.all(table.sum[0, :] == 0)
        assert np.all(table.sum[:, 0] == 0)

    def test_rect_sums_match_brute_force(self):
        rng = rand.generator(7, 0)
        px = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
        table = integral_image(Image(px))
        for y in range(8):
            for x in range(8):
                for h in range(1, 8 - y + 1):
                    for w in range(1, 8 - x + 1):
                        assert table.rect_sum(x, y, w, h) == brute_rect_sum(px, x, y, w, h)

    def test_sqsum_constant(self):
        img = Image(np.full((5, 3), 7, dtype=np.uint8))
        table = integral_image(img)
        assert rect_sqsum(table, 0, 0, 3, 5) == 15 * 49

    def test_rejects_rgb(self):
        with pytest.raises(HandposeError, match="need 1 channel"):
            integral_image(Image(np.zeros((2, 2, 3), dtype=np.uint8)))

    def test_corners_give_rect_sums_on_ints_and_arrays(self):
        rng = rand.generator(7, 1)
        px = rng.integers(0, 256, size=(9, 13)).astype(np.uint8)
        table = integral_image(Image(px))
        flat, row = table.sum.ravel(), table.sum.shape[1]
        rects = [(x, y, w, h) for y in range(9) for x in range(13) for h in range(10 - y) for w in range(14 - x)]
        for x, y, w, h in rects:
            tl, tr, bl, br = table.corners(row, x, y, w, h)
            assert all(isinstance(v, int) for v in (tl, tr, bl, br))
            assert flat[br] - flat[tr] - flat[bl] + flat[tl] == table.rect_sum(x, y, w, h)
        x, y, w, h = (np.array(c, dtype=np.intp) for c in zip(*rects))
        tl, tr, bl, br = table.corners(row, x, y, w, h)
        got = flat[br] - flat[tr] - flat[bl] + flat[tl]
        assert got.tolist() == [table.rect_sum(*r) for r in rects]


class TestSumTableDtype:
    """The sum table is int32 exactly when 2 * 255 * h * w < 2**31, with or
    without the squared table, which is int64. Every rect sum is
    a - b - c + d of entries in [0, M], M = 255 * h * w, so its partial
    results lie in [-2M, 2M]."""

    # 1928 * 2184 = 4,210,752 = floor((2**31 - 1) / 510): the largest h * w
    # the rule allows
    W, H = 1928, 2184

    @pytest.mark.parametrize("rows, dtype", [(H, np.int32), (H + 1, np.int64)])
    def test_sum_table_dtype_at_the_bound(self, rows, dtype):
        table = integral_image(Image(np.full((rows, self.W), 255, dtype=np.uint8)), squared=False)
        assert table.sum.dtype == dtype and table.sqsum is None
        assert table.sum[-1, -1] == 255 * self.W * rows

    @pytest.mark.parametrize("rows", [1, H, H + 1])
    def test_squared_tables_are_int64(self, rows):
        table = integral_image(Image(np.full((rows, self.W), 255, dtype=np.uint8)))
        assert table.sum.dtype == (np.int32 if rows <= self.H else np.int64)
        assert table.sqsum.dtype == np.int64
        assert table.sum[-1, -1] == 255 * self.W * rows
        assert table.sqsum[-1, -1] == 255 * 255 * self.W * rows
        w, h = self.W, rows
        rects = [(0, 0, w, h), (w - 1, h - 1, 1, 1), (1, 0, w - 1, h), (0, h - 1, w, 1)]
        assert [table.rect_sum(*r) for r in rects] == [255 * rw * rh for _, _, rw, rh in rects]
        assert [rect_sqsum(table, *r) for r in rects] == [255 * 255 * rw * rh for _, _, rw, rh in rects]

    def test_rect_sums_at_the_corners_are_exact(self):
        w, h = self.W, self.H
        table = integral_image(Image(np.full((h, w), 255, dtype=np.uint8)))
        assert table.sum.dtype == np.int32 and table.sqsum.dtype == np.int64
        # the whole frame, and rects that touch each corner of the table; a
        # one-pixel rect at the far corner subtracts two entries near M from M
        rects = [(0, 0, w, h), (1, 1, w - 1, h - 1), (0, 1, w, h - 1), (1, 0, w - 1, h)]
        rects += [(x, y, 1, 1) for x in (0, w - 1) for y in (0, h - 1)]
        rects += [(w - 3, h - 2, 3, 2), (0, h - 5, 7, 5), (w - 4, 0, 4, 9)]
        want = [255 * rw * rh for _, _, rw, rh in rects]
        got = [table.rect_sum(*r) for r in rects]
        assert got == want and all(type(v) is int for v in got)
        x, y, rw, rh = (np.array(c, dtype=np.intp) for c in zip(*rects))
        origin = np.zeros((1, 2), dtype=np.intp)
        # the rule's own pick, then each reader forced
        readers = {"rect_sums": IntegralTable.rect_sums}
        for name in ("_block_rect_sums", "_patch_rect_sums", "_gathered_rect_sums"):
            readers[name] = forced_reader(name)
        for name, reader in readers.items():
            sums = reader(table, origin, (w, h), len(rects))(x, y, rw, rh)
            assert sums.shape == (len(rects), 1) and sums[:, 0].tolist() == want, name
        # four dense locations, each reading the rect that ends at the far corner
        locs = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.intp)
        one = np.array([0], dtype=np.intp)
        for name, reader in readers.items():
            sums = reader(table, locs, (w - 1, h - 1), 1)(one, one, one + w - 1, one + h - 1)
            assert sums.tolist() == [[255 * (w - 1) * (h - 1)] * 4], name
        # the one gather itself on both tables, in the table's dtype: each
        # rect from int corners, and all of them from (c, 1) corners
        base, row = np.zeros(1, dtype=np.intp), w + 1
        corners = [c[:, None] for c in table.corners(row, x, y, rw, rh)]
        for t, level in ((table.sum, 255), (table.sqsum, 255 * 255)):
            flat, want = t.ravel(), (level * rw * rh).tolist()
            for r, v in zip(rects, want):
                box = imaging.gathered_sums(flat, [base + c for c in table.corners(row, *r)])
                assert box.dtype == t.dtype and box.tolist() == [v], r
            sums = imaging.gathered_sums(flat, [base + c for c in corners])
            assert sums.dtype == t.dtype and sums.shape == (len(rects), 1) and sums[:, 0].tolist() == want
        # the lattice reader on both tables: a 2 x 2 lattice of (w - 1) x
        # (h - 1) windows, each rect ending at the far corner of its window,
        # read one rect at a time and all three at once
        lattice = [(0, 0, w - 1, h - 1), (w - 2, h - 2, 1, 1), (w - 4, 0, 3, h - 1)]
        for t, level in ((table.sum, 255), (table.sqsum, 255 * 255)):
            reader = imaging.lattice_sums(t, (0, 0), 2, 2, 1)
            for r in lattice:
                sums = reader(*r)
                assert sums.dtype == t.dtype and sums.tolist() == [[level * r[2] * r[3]] * 2] * 2, r
            sums = reader(*(np.array(c, dtype=np.intp) for c in zip(*lattice)))
            assert sums.dtype == t.dtype and sums.tolist() == [[[level * r[2] * r[3]] * 2] * 2 for r in lattice]


class TestLatticeSums:
    """`lattice_sums` is == `gathered_sums` at the flat index of every
    lattice point, on both tables, for each band of a window grid as
    `haar_cascade._scan_scale` cuts it."""

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_bands_match_gathered_sums(self, stride):
        rng = rand.generator(7, 2)
        px = rng.integers(0, 256, size=(29, 37)).astype(np.uint8)
        table = integral_image(Image(px))
        row = table.sum.shape[1]
        ww, wh = 7, 5
        # the grid's last window ends at the frame's far corner at each stride
        nx, ny = len(range(0, 37 - ww + 1, stride)), len(range(0, 29 - wh + 1, stride))
        assert ((nx - 1) * stride + ww, (ny - 1) * stride + wh) == (37, 29)
        # the whole window, rects that touch its far edges, and inner ones
        rects = [(0, 0, ww, wh), (ww - 1, wh - 1, 1, 1), (2, 0, ww - 2, wh), (0, 3, ww, wh - 3), (1, 1, 3, 2)]
        # bands of one row, of 4 rows (mid-grid starts and a short last
        # band) and the whole grid
        assert ny % 4
        bands = [(top, min(size, ny - top)) for size in (1, 4, ny) for top in range(0, ny, size)]
        for top, nb in bands:
            oy = top * stride
            base = np.array([(oy + i * stride) * row + j * stride for i in range(nb) for j in range(nx)])
            for t in (table.sum, table.sqsum):
                for r in rects:
                    got = imaging.lattice_sums(t, (0, oy), nb, nx, stride)(*r)
                    want = imaging.gathered_sums(t.ravel(), [base + c for c in table.corners(row, *r)])
                    assert got.dtype == t.dtype and got.shape == (nb, nx), (top, nb, r)
                    assert got.ravel().tolist() == want.tolist(), (top, nb, r)

    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_array_rects_match_one_rect_reads_and_gathered_sums(self, stride, dtype, cut):
        # c rects read at once are == each rect read alone and == the
        # gather at every lattice point, on a lattice whose first point
        # lies at a non-zero column (where the tracker's block reader puts
        # it), in both sum dtypes, on a whole table and on a non-contiguous
        # cut of one
        rng = rand.generator(7, 3)
        px = rng.integers(0, 256, size=(31, 41)).astype(np.uint8)
        t = integral_image(Image(px)).sum.astype(dtype)
        if cut:
            t = t[2:, 3:]
            assert not t.flags.c_contiguous
        rows, row = t.shape
        (ox, oy), (ww, wh) = (5, 2), (6, 4)
        nx, ny = len(range(ox, row - ww, stride)), len(range(oy, rows - wh, stride))
        rects = []
        for _ in range(12):
            w, h = int(rng.integers(1, ww + 1)), int(rng.integers(1, wh + 1))
            rects.append((int(rng.integers(0, ww - w + 1)), int(rng.integers(0, wh - h + 1)), w, h))
        rects += [(0, 0, ww, wh), (ww - 1, wh - 1, 1, 1)]
        x, y, w, h = (np.array(c, dtype=np.intp) for c in zip(*rects))
        reader = imaging.lattice_sums(t, (ox, oy), ny, nx, stride)
        got = reader(x, y, w, h)
        assert got.dtype == dtype and got.shape == (len(rects), ny, nx)
        lx, ly = np.meshgrid(ox + stride * np.arange(nx), oy + stride * np.arange(ny))
        base, *_ = IntegralTable.corners(row, lx.ravel(), ly.ravel(), 0, 0)
        corners = [c[:, None] for c in IntegralTable.corners(row, x, y, w, h)]
        want = imaging.gathered_sums(np.ascontiguousarray(t).ravel(), [base + c for c in corners])
        assert want.dtype == dtype and got.reshape(len(rects), ny * nx).tolist() == want.tolist()
        for k, r in enumerate(rects):
            one = reader(*r)
            assert one.dtype == dtype and one.shape == (ny, nx) and one.tolist() == got[k].tolist(), r

    def test_gathered_sums_along_the_rows_of_patches(self):
        # over a (P, n) table whose columns are n raveled 8 x 6 patches of
        # a sum table, the reads along axis 0 are == the 1-D reads of each
        # column and == the table's own sums of the shifted rects, for int
        # corners and (c,) arrays of them
        rng = rand.generator(7, 4)
        px = rng.integers(0, 256, size=(20, 24)).astype(np.uint8)
        table = integral_image(Image(px))
        pw, ph = 8, 6
        locs = [(int(rng.integers(0, 24 - pw + 2)), int(rng.integers(0, 20 - ph + 2))) for _ in range(9)]
        patches = np.stack([table.sum[ly : ly + ph, lx : lx + pw].ravel() for lx, ly in locs], axis=1)
        rects = [(x, y, w, h) for y in range(ph - 1) for x in range(pw - 1) for h in range(1, ph - y) for w in range(1, pw - x)]
        x, y, w, h = (np.array(c, dtype=np.intp) for c in zip(*rects))
        corners = IntegralTable.corners(pw, x, y, w, h)
        got = imaging.gathered_sums(patches, corners)
        assert got.dtype == table.sum.dtype and got.shape == (len(rects), len(locs))
        for j, (lx, ly) in enumerate(locs):
            assert imaging.gathered_sums(patches[:, j], corners).tolist() == got[:, j].tolist()
            assert got[:, j].tolist() == [table.rect_sum(lx + rx, ly + ry, rw, rh) for rx, ry, rw, rh in rects]
        for k, r in enumerate(rects):
            one = imaging.gathered_sums(patches, IntegralTable.corners(pw, *r))
            assert one.shape == (len(locs),) and one.tolist() == got[k].tolist(), r


class TestLatticeIsReadOnly:
    """An int rect's corners are views into the sum table, so the lattice
    view they are cut from refuses writes: an in-place op on a corner
    would change the frame's sums for every later read."""

    def test_writes_through_the_view_raise(self):
        table = integral_image(Image(np.arange(48, dtype=np.uint8).reshape(6, 8)))
        before = table.sum.copy()
        reader = imaging.lattice_sums(table.sum, (1, 1), 2, 3, 2)
        # the reader's one view, from its closure
        view = dict(zip(reader.__code__.co_freevars, (c.cell_contents for c in reader.__closure__)))["view"]
        assert view.ndim == 4 and np.shares_memory(view, table.sum) and not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[1, 1] -= 1
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0, 0] = 7
        # the sums are an array of their own
        sums = reader(0, 0, 2, 2)
        assert sums.flags.writeable and not np.shares_memory(sums, table.sum)
        sums -= 1
        assert np.array_equal(table.sum, before)

    def test_sum_tables_unchanged_by_detect_and_track(self, monkeypatch):
        # every table detect_multiscale and a tracker call build is the
        # same after the call as when it was built; the cascade passes
        # every window, so its depth-2 first stage reads the lattice and
        # gathers, and its second stage gathers
        made = []

        def recording(real):
            def integral(*args, **kwargs):
                table = real(*args, **kwargs)
                made.append((table, [t.copy() for t in (table.sum, table.sqsum) if t is not None]))
                return table

            return integral

        monkeypatch.setattr(haar_cascade, "integral_image", recording(haar_cascade.integral_image))
        monkeypatch.setattr(mil_tracker, "integral_image", recording(mil_tracker.integral_image))
        rng = rand.generator(7, 5)
        frames = [Image(rng.integers(0, 256, size=(48, 64)).astype(np.uint8)) for _ in range(2)]
        rects = [WeightedRect(0, 0, 8, 8, -1.0), WeightedRect(2, 1, 4, 6, 2.0)]
        root = TreeNode(rects, 0.0, left_child=1, right_child=2)
        leaf = TreeNode(rects, 0.1, left_val=1.0, right_val=1.0)
        stump = TreeNode(rects, -0.1, left_val=1.0, right_val=1.0)
        model = CascadeModel((8, 8), [Stage(0.5, [Tree([root, leaf, leaf])]), Stage(0.5, [Tree([stump])])])
        assert haar_cascade.detect_multiscale(model, frames[0], scale_factor=1.5, step_fraction=2.0)
        state = mil_tracker.init_tracker(frames[0], (24, 16, 14, 12), mil_tracker.MILParams(20, 5, 10), seed=3)
        mil_tracker.track_step(state, frames[1])
        assert len(made) == 3
        for table, copies in made:
            for t, copy in zip((table.sum, table.sqsum), copies):
                assert np.array_equal(t, copy)
