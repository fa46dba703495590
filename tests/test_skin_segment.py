import numpy as np
import pytest

from handpose import rand
from handpose.errors import HandposeError
from handpose.imaging import BinaryMask, Image
from handpose.skin_segment import (
    SkinModel,
    classify_pixels,
    close_mask,
    dilate,
    erode,
    extract_hand_patch,
    fit_skin_model,
    label_components,
    largest_component,
    open_mask,
)
from helpers import (
    BG_COLOR,
    box_morphology_oracle,
    flood_fill_label_oracle,
    rgb_to_ycbcr_oracle,
    scene_frame,
    skin_texture,
)


def full_range_model(alpha=0.0):
    return SkinModel(np.array([[0, 255]] * 6), alpha)


class TestFitSkinModel:
    def test_degenerate_single_color(self):
        model = fit_skin_model(np.tile([120, 80, 60], (5, 1)).astype(np.uint8), 0.1)
        assert np.all(model.intervals[:, 0] == model.intervals[:, 1])
        assert model.intervals[0].tolist() == [120, 120]

    def test_alpha_zero_gives_min_max(self):
        rng = rand.generator(30, 0)
        pixels = rng.integers(0, 256, size=(100, 3)).astype(np.uint8)
        model = fit_skin_model(pixels, 0.0)
        assert model.intervals[0].tolist() == [pixels[:, 0].min(), pixels[:, 0].max()]
        assert model.intervals[1].tolist() == [pixels[:, 1].min(), pixels[:, 1].max()]

    def test_nearest_rank_convention(self):
        # R = 10..100 step 10, n=10, alpha=0.1: ranks ceil(1)=1 and ceil(9)=9
        pixels = np.array([[v, 0, 0] for v in range(10, 101, 10)], dtype=np.uint8)
        model = fit_skin_model(pixels, 0.1)
        assert model.intervals[0].tolist() == [10, 90]

    def test_empty_input(self):
        with pytest.raises(HandposeError, match="need at least one training pixel"):
            fit_skin_model(np.zeros((0, 3), dtype=np.uint8), 0.0)

    def test_text_round_trip(self):
        rng = rand.generator(31, 0)
        model = fit_skin_model(rng.integers(0, 256, size=(50, 3)).astype(np.uint8), 0.05)
        clone = SkinModel.from_text(model.to_text())
        assert np.array_equal(model.intervals, clone.intervals)
        assert model.alpha == clone.alpha

    def test_non_numeric_alpha_names_alpha(self):
        text = full_range_model().to_text().replace("alpha 0.0", "alpha x")
        with pytest.raises(HandposeError, match="alpha 'x' is not a number"):
            SkinModel.from_text(text)


class TestClassifyPixels:
    def test_full_range_all_skin(self):
        rng = rand.generator(32, 0)
        img = Image(rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8))
        assert classify_pixels(img, full_range_model()).bits.all()

    def test_zero_interval_rejects_everything(self):
        intervals = np.array([[0, 0]] + [[0, 255]] * 5)
        img = Image(np.full((4, 4, 3), 100, dtype=np.uint8))
        assert not classify_pixels(img, SkinModel(intervals, 0.0)).bits.any()

    def test_left_half_inside_right_half_outside(self):
        img = np.zeros((6, 8, 3), dtype=np.uint8)
        img[:, :4] = (100, 100, 100)
        img[:, 4:] = (250, 10, 10)
        intervals = np.array([[90, 110]] * 3 + [[0, 255]] * 3)
        mask = classify_pixels(Image(img), SkinModel(intervals, 0.0))
        assert mask.bits[:, :4].all()
        assert not mask.bits[:, 4:].any()

    def test_matches_six_channel_oracle(self):
        rng = rand.generator(41, 0)
        for _ in range(20):
            px = rng.integers(0, 256, size=(17, 23, 3)).astype(np.uint8)
            model = SkinModel(np.stack([rng.integers(0, 100, 6), rng.integers(100, 256, 6)], axis=1), 0.0)
            chans = np.concatenate([px, rgb_to_ycbcr_oracle(px)], axis=2).astype(np.int64)
            expect = np.all((chans >= model.intervals[:, 0]) & (chans <= model.intervals[:, 1]), axis=2)
            assert np.array_equal(classify_pixels(Image(px), model).bits, expect)

    def test_monotone_in_model(self):
        rng = rand.generator(33, 0)
        img = Image(rng.integers(0, 256, size=(12, 12, 3)).astype(np.uint8))
        narrow = SkinModel(np.array([[80, 160]] * 6), 0.0)
        wide = SkinModel(np.array([[60, 200]] * 6), 0.0)
        m_narrow = classify_pixels(img, narrow).bits
        m_wide = classify_pixels(img, wide).bits
        assert np.all(m_wide | ~m_narrow)  # narrow skin stays skin when widened


class TestMorphology:
    def test_opening_removes_isolated_pixel(self):
        bits = np.zeros((7, 7), dtype=bool)
        bits[3, 3] = True
        assert not open_mask(BinaryMask(bits)).bits.any()

    def test_erosion_of_solid_square(self):
        bits = np.zeros((9, 9), dtype=bool)
        bits[2:7, 2:7] = True
        out = erode(BinaryMask(bits))
        expect = np.zeros((9, 9), dtype=bool)
        expect[3:6, 3:6] = True
        assert np.array_equal(out.bits, expect)

    def test_closing_fills_hole(self):
        bits = np.zeros((9, 9), dtype=bool)
        bits[2:7, 2:7] = True
        bits[4, 4] = False
        out = close_mask(BinaryMask(bits))
        assert out.bits[4, 4]
        assert np.array_equal(out.bits[2:7, 2:7], np.ones((5, 5), dtype=bool))

    def test_zero_iters_identity(self):
        rng = rand.generator(34, 0)
        mask = BinaryMask(rng.random((10, 10)) < 0.5)
        assert erode(mask, 0) == mask
        assert dilate(mask, 0) == mask

    def test_duality_on_random_masks(self):
        # dilation (outside=0) is the complement of erosion of the
        # complement with outside treated as foreground: a ring of
        # foreground around the complement stands in for that outside
        rng = rand.generator(35, 0)
        for _ in range(10):
            bits = rng.random((12, 15)) < 0.4
            dil = dilate(BinaryMask(bits)).bits
            ringed = np.pad(~bits, 1, constant_values=True)
            er_comp = erode(BinaryMask(ringed)).bits[1:-1, 1:-1]
            assert np.array_equal(dil, ~er_comp)

    def test_erosion_subset_identity_subset_dilation(self):
        rng = rand.generator(36, 0)
        for _ in range(10):
            bits = rng.random((10, 10)) < 0.5
            mask = BinaryMask(bits)
            assert np.all(~erode(mask).bits | bits)
            assert np.all(~bits | dilate(mask).bits)

    def test_matches_nine_shift_oracle(self):
        # blobs and specks touching every edge and corner, and masks down to 1x1
        rng = rand.generator(40, 0)
        shapes = [(1, 1), (1, 7), (7, 1), (2, 2), (2, 9)] + [tuple(rng.integers(3, 40, size=2)) for _ in range(60)]
        for h, w in shapes:
            bits = rng.random((h, w)) < rng.random()
            bits[[0, 0, -1, -1], [0, -1, 0, -1]] = True
            bits[: (h + 1) // 2, : (w + 1) // 2] |= rng.random() < 0.3
            mask = BinaryMask(bits)
            expect_er, expect_dil = bits, bits
            for iters in (1, 2, 3):
                expect_er = box_morphology_oracle(expect_er, np.logical_and)
                expect_dil = box_morphology_oracle(expect_dil, np.logical_or)
                assert np.array_equal(erode(mask, iters).bits, expect_er), (h, w, iters)
                assert np.array_equal(dilate(mask, iters).bits, expect_dil), (h, w, iters)

    def test_open_close_idempotent(self):
        rng = rand.generator(37, 0)
        for _ in range(10):
            mask = BinaryMask(rng.random((16, 16)) < 0.5)
            o = open_mask(mask)
            c = close_mask(mask)
            assert open_mask(o) == o
            assert close_mask(c) == c


class TestComponents:
    def test_empty_mask(self):
        assert largest_component(BinaryMask(np.zeros((5, 5), dtype=bool))) is None

    def test_two_blobs_larger_wins(self):
        bits = np.zeros((10, 12), dtype=bool)
        bits[1:2, 1:6] = True  # area 5
        bits[5:8, 5:8] = True  # area 9
        comp = largest_component(BinaryMask(bits))
        assert comp.area == 9
        assert comp.bbox == (5, 5, 3, 3)

    def test_equal_areas_go_to_earlier_label(self):
        bits = np.zeros((10, 12), dtype=bool)
        bits[6:9, 1:4] = True  # area 9, second in scan order
        bits[1:4, 7:10] = True  # area 9, first in scan order
        assert largest_component(BinaryMask(bits)).bbox == (7, 1, 3, 3)

    def test_diagonal_chain_connectivity(self):
        n = 6
        bits = np.eye(n, dtype=bool)
        _, infos = label_components(BinaryMask(bits))
        assert len(infos) == 1
        assert infos[0].area == n

    def test_matches_flood_fill_oracle(self):
        # labels, point sets and every ComponentInfo equal the scalar flood
        # fill, on random masks raw and cleaned up, and on shapes that make
        # runs merge late or only diagonally
        u_late = np.zeros((9, 11), dtype=bool)
        u_late[:8, 1] = u_late[:8, 9] = True  # two arms, seen as two runs per row
        u_late[8, 1:10] = True  # joined only on the last row
        v_late = np.zeros((6, 11), dtype=bool)
        for k in range(6):
            v_late[k, k] = v_late[k, 10 - k] = True  # arms meet diagonally at the bottom
        masks = [
            np.zeros((7, 9), dtype=bool),
            np.ones((7, 9), dtype=bool),
            np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool),
            np.array([[1], [1], [0], [1], [0], [0], [1]], dtype=bool),
            np.eye(8, dtype=bool),
            np.eye(8, dtype=bool)[::-1],
            u_late,
            v_late,
        ]
        rng = rand.generator(38, 0)
        for _ in range(200):
            h, w = rng.integers(1, 81, size=2)
            bits = rng.random((h, w)) < rng.random()
            masks.append(bits)
            masks.append(open_mask(BinaryMask(bits)).bits)
            masks.append(close_mask(BinaryMask(bits), 2).bits)
        for bits in masks:
            labels, infos = label_components(BinaryMask(bits))
            oracle_labels, oracle_infos = flood_fill_label_oracle(bits)
            assert labels.dtype == np.int32
            assert np.array_equal(labels, oracle_labels)
            assert infos == oracle_infos
            assert [info.area for info in infos] == np.bincount(labels.ravel())[1:].tolist()
        assert len(label_components(BinaryMask(u_late))[1]) == 1
        assert len(label_components(BinaryMask(v_late))[1]) == 1


class TestExtractHandPatch:
    def test_all_background_returns_none(self):
        img = Image(np.tile(BG_COLOR.astype(np.uint8), (60, 80, 1)))
        patch = skin_texture()
        model = fit_skin_model(patch.reshape(-1, 3), 0.0)
        assert extract_hand_patch(img, model) is None

    def test_planted_square_high_iou(self):
        patch = skin_texture(side=30)
        model = fit_skin_model(patch.reshape(-1, 3), 0.0)
        frame = scene_frame(patch, 40, 30)
        result = extract_hand_patch(frame, model)
        assert result is not None
        mask48, comp = result
        assert (mask48.width, mask48.height) == (48, 48)
        assert comp.bbox == (40, 30, 30, 30)
        # the crop is the padded square around a solid blob: IoU of the
        # mask against the ideal solid projection must be high
        ideal = np.zeros((48, 48), dtype=bool)
        # pad 0.15 -> crop side 39; blob occupies 30/39 centered
        inner = int(round(48 * 30 / 39))
        off = (48 - inner) // 2
        ideal[off : off + inner, off : off + inner] = True
        inter = (mask48.bits & ideal).sum()
        union = (mask48.bits | ideal).sum()
        assert inter / union >= 0.9

    def test_two_blobs_centers_on_larger(self):
        patch_big = skin_texture(side=32, seed=40)
        patch_small = skin_texture(side=16, seed=41)
        model = fit_skin_model(
            np.concatenate([patch_big.reshape(-1, 3), patch_small.reshape(-1, 3)]), 0.0
        )
        frame_px = np.tile(BG_COLOR.astype(np.uint8), (120, 160, 1))
        frame_px[20:52, 20:52] = patch_big
        frame_px[70:86, 120:136] = patch_small
        result = extract_hand_patch(Image(frame_px), model)
        assert result is not None
        _, comp = result
        assert comp.bbox == (20, 20, 32, 32)

    def test_output_always_48x48_binary(self):
        rng = rand.generator(39, 0)
        model = full_range_model()
        for _ in range(5):
            img = Image(rng.integers(0, 256, size=(60, 70, 3)).astype(np.uint8))
            result = extract_hand_patch(img, model)
            if result is None:
                continue
            mask48, _ = result
            assert (mask48.width, mask48.height) == (48, 48)
            assert mask48.bits.dtype == bool
