import tracemalloc

import numpy as np
import pytest

from handpose import imaging, mil_tracker, rand
from handpose.errors import HandposeError, PatchOutOfFrame
from handpose.imaging import Image, IntegralTable, integral_image, luma
from handpose.mil_tracker import (
    MILParams,
    TrackResult,
    _feature_values,
    _locations,
    _select_classifiers,
    _sigmoid_complement,
    _window_table,
    confidence_ok,
    init_tracker,
    track_step,
)

from helpers import (
    disc_locs_oracle,
    forced_reader,
    mil_feature_values_oracle,
    mil_score,
    mil_track_step_oracle,
    mil_update_oracle,
    noisy_or_oracle,
    select_classifiers_oracle,
    sigmoid_oracle,
)

FAST = MILParams(num_features=60, num_selected=12, num_negatives=40)
FULL = MILParams()


def textured_frame(px_pos, patch, size=(160, 120), bg=128):
    frame = np.full((size[1], size[0]), bg, dtype=np.uint8)
    side_h, side_w = patch.shape
    frame[px_pos[1] : px_pos[1] + side_h, px_pos[0] : px_pos[0] + side_w] = patch
    return Image(frame)


def make_patch(side=24, seed=60):
    return rand.generator(seed, 0).integers(0, 256, size=(side, side)).astype(np.uint8)


LEARNED = ("mu1", "sg1", "mu0", "sg0", "selected")


def trail(monkeypatch, params, bbox, frames, oracle):
    """(bbox, confidence, learned arrays) after init and after each step;
    with `oracle`, every update runs mil_update_oracle and every step
    mil_track_step_oracle."""
    with monkeypatch.context() as mp:
        step = track_step
        if oracle:
            mp.setattr(mil_tracker, "_mil_update", mil_update_oracle)
            step = mil_track_step_oracle
        state = init_tracker(frames[0], bbox, params, seed=sum(bbox))
        out = [(state.bbox, None, [getattr(state, k).copy() for k in LEARNED])]
        for frame in frames[1:]:
            result = step(state, frame)
            out.append((result.bbox, result.confidence, [getattr(state, k).copy() for k in LEARNED]))
    return out


def assert_trails_equal(got, want):
    assert len(got) == len(want)
    for (gb, gc, garrs), (wb, wc, warrs) in zip(got, want):
        assert gb == wb and gc == wc
        assert all(np.array_equal(g, w) for g, w in zip(garrs, warrs)), gb


def assert_same_trail(monkeypatch, params, bbox, frames):
    got = trail(monkeypatch, params, bbox, frames, oracle=False)
    assert_trails_equal(got, trail(monkeypatch, params, bbox, frames, oracle=True))


class TestInit:
    def test_same_seed_identical_pool(self):
        patch = make_patch()
        frame = textured_frame((30, 30), patch)
        a = init_tracker(frame, (30, 30, 24, 24), FAST, seed=1)
        b = init_tracker(frame, (30, 30, 24, 24), FAST, seed=1)
        assert np.array_equal(a.rects, b.rects)
        assert np.array_equal(a.rect_weight, b.rect_weight)
        assert np.array_equal(a.selected, b.selected)
        assert np.array_equal(a.mu1, b.mu1)

    def test_pool_layout(self):
        # feature f owns rects feat_start[f]:feat_start[f + 1], 2 to 4 of them;
        # each row of rects is one (x, y, w, h) inside the 24x24 box
        frame = textured_frame((30, 30), make_patch())
        state = init_tracker(frame, (30, 30, 24, 24), FAST, seed=1)
        counts = np.diff(state.feat_start)
        assert state.feat_start[0] == 0
        assert state.rects.dtype == np.intp and state.rects.shape == (state.feat_start[-1], 4)
        assert len(state.rect_weight) == len(state.rects)
        x, y, w, h = state.rects.T
        assert (x >= 0).all() and (y >= 0).all() and (w >= 1).all() and (h >= 1).all()
        assert (x + w <= 24).all() and (y + h <= 24).all()
        assert len(counts) == FAST.num_features
        assert counts.min() >= 2 and counts.max() <= 4

    def test_m_equals_k_selects_all(self):
        params = MILParams(num_features=10, num_selected=10, num_negatives=20)
        frame = textured_frame((30, 30), make_patch())
        state = init_tracker(frame, (30, 30, 24, 24), params, seed=2)
        assert sorted(state.selected.tolist()) == list(range(10))

    def test_score_at_target_beats_annulus(self):
        patch = make_patch(seed=61)
        frame = textured_frame((40, 40), patch)
        state = init_tracker(frame, (40, 40, 24, 24), FAST, seed=3)
        for _ in range(5):
            track_step(state, frame)
        true_score = mil_score(state, frame, (40, 40))
        rng = rand.generator(62, 0)
        annulus_scores = []
        for _ in range(20):
            ang = rng.uniform(0, 2 * np.pi)
            radius = rng.uniform(10, 30)
            lx = int(40 + radius * np.cos(ang))
            ly = int(40 + radius * np.sin(ang))
            lx = min(max(lx, 0), frame.width - 24)
            ly = min(max(ly, 0), frame.height - 24)
            annulus_scores.append(mil_score(state, frame, (lx, ly)))
        assert true_score > np.mean(annulus_scores)

    def test_box_out_of_frame(self):
        frame = textured_frame((0, 0), make_patch())
        with pytest.raises(HandposeError, match="outside 160x120 frame"):
            init_tracker(frame, (150, 30, 24, 24), FAST, seed=4)

    def test_degenerate_box(self):
        frame = textured_frame((0, 0), make_patch())
        with pytest.raises(HandposeError, match="bbox area 9 below minimum 16"):
            init_tracker(frame, (10, 10, 3, 3), FAST, seed=5)

    def test_negative_side_rejected(self):
        # the area of (-4, -4) passes the minimum; numpy must not see the box
        frame = textured_frame((0, 0), make_patch())
        with pytest.raises(HandposeError, match=r"bbox \(10, 10, -4, -4\) needs positive width"):
            init_tracker(frame, (10, 10, -4, -4), FAST, seed=5)


class TestMilScore:
    def test_symmetric_gaussians_score_zero(self):
        frame = textured_frame((30, 30), make_patch())
        state = init_tracker(frame, (30, 30, 24, 24), FAST, seed=6)
        state.mu0 = state.mu1.copy()
        state.sg0 = state.sg1.copy()
        assert mil_score(state, frame, (30, 30)) == pytest.approx(0.0, abs=1e-12)

    def test_sign_of_llr(self):
        frame = textured_frame((30, 30), make_patch())
        state = init_tracker(frame, (30, 30, 24, 24), FAST, seed=7)
        integral = integral_image(frame)
        vals = _feature_values(state, integral, np.array([[30, 30]]), state.selected)[0]
        # single classifier, equal sigmas, mu1 exactly at the value
        state.selected = state.selected[:1]
        f = state.selected[0]
        state.mu1[f] = vals[0]
        state.mu0[f] = vals[0] + 3.0
        state.sg1[f] = state.sg0[f] = 1.0
        assert mil_score(state, frame, (30, 30)) > 0

    def test_matches_direct_density_recomputation(self):
        frame = textured_frame((25, 35), make_patch(seed=63))
        state = init_tracker(frame, (25, 35, 24, 24), FAST, seed=8)
        loc = (27, 33)
        score = mil_score(state, frame, loc)
        integral = integral_image(frame)
        vals = _feature_values(state, integral, np.array([loc]), state.selected)[0]
        expected = 0.0
        for f_local, f in enumerate(state.selected):
            v = vals[f_local]
            log_p1 = -((v - state.mu1[f]) ** 2) / (2 * state.sg1[f] ** 2) - np.log(state.sg1[f])
            log_p0 = -((v - state.mu0[f]) ** 2) / (2 * state.sg0[f] ** 2) - np.log(state.sg0[f])
            expected += log_p1 - log_p0
        assert score == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_patch_out_of_frame(self):
        frame = textured_frame((30, 30), make_patch())
        state = init_tracker(frame, (30, 30, 24, 24), FAST, seed=9)
        with pytest.raises(PatchOutOfFrame):
            mil_score(state, frame, (150, 110))


class TestFeatureValues:
    def test_integral_matches_direct_pixel_loops(self):
        rng = rand.generator(64, 0)
        frame = Image(rng.integers(0, 256, size=(60, 80)).astype(np.uint8))
        state = init_tracker(frame, (10, 10, 20, 20), FAST, seed=10)
        integral = integral_image(frame)
        locs = np.array([[10, 10], [25, 17], [40, 30]])
        feats = np.arange(FAST.num_features, dtype=np.intp)
        vals = _feature_values(state, integral, locs, feats)
        px = frame.pixels[:, :, 0].astype(np.float64)
        area = 20 * 20
        for li, (lx, ly) in enumerate(locs):
            for f in feats:
                direct = 0.0
                for r in range(state.feat_start[f], state.feat_start[f + 1]):
                    rx, ry, rw, rh = state.rects[r]
                    x, y = lx + rx, ly + ry
                    direct += state.rect_weight[r] * px[y : y + rh, x : x + rw].sum()
                assert abs(vals[li, f] - direct / area) < 1e-6

    def test_bit_exact_against_rect_oracle(self):
        # the golden session pins confidences to 16 digits, so compare with ==;
        # state.selected is in pick order, so feats are unsorted here too
        rng = rand.generator(70, 0)
        for case in range(12):
            fw, fh = 48, 40
            frame = Image(rng.integers(0, 256, size=(fh, fw)).astype(np.uint8))
            bw, bh = int(rng.integers(4, 17)), int(rng.integers(4, 17))
            bbox = (int(rng.integers(0, fw - bw + 1)), int(rng.integers(0, fh - bh + 1)), bw, bh)
            m = int(rng.integers(4, 40))
            params = MILParams(num_features=m, num_selected=int(rng.integers(1, m + 1)), num_negatives=20)
            state = init_tracker(frame, bbox, params, seed=case)
            locs = np.stack([rng.integers(0, fw - bw + 1, 4), rng.integers(0, fh - bh + 1, 4)], axis=1)
            integral = integral_image(frame)
            for feats in (rng.permutation(m)[: int(rng.integers(1, m + 1))], state.selected):
                got = _feature_values(state, integral, locs, feats)
                want = mil_feature_values_oracle(state, frame.pixels[:, :, 0], locs, feats)
                assert np.array_equal(got, want), case

    @pytest.mark.parametrize("reader", ["_block_rect_sums", "_patch_rect_sums", "_gathered_rect_sums"])
    def test_each_corner_reader_matches_oracle(self, monkeypatch, reader):
        # every rect sum goes through one reader; tables cover the whole
        # frame, or the window a tracker call cuts around the box, in int32
        # and in int64; with up to 12 features (at most 48 rects) an 8 x 6
        # box's patch (63 entries) lies on either side of the patch rule,
        # a 16 x 14 box's (255 entries) always on the gather side
        monkeypatch.setattr(IntegralTable, "rect_sums", forced_reader(reader))
        fw, fh = 24, 20
        params = MILParams(num_features=12, num_selected=6, num_negatives=10)
        rng = rand.generator(75, 0)
        frame = Image(rng.integers(0, 256, size=(fh, fw)).astype(np.uint8))
        full = integral_image(frame, squared=False)
        for bw, bh in ((8, 6), (16, 14)):
            for x in (0, (fw - bw) // 2, fw - bw):
                for y in (0, (fh - bh) // 2, fh - bh):
                    state = init_tracker(frame, (x, y, bw, bh), params, seed=x + y)
                    feats = rng.permutation(params.num_features)[: int(rng.integers(1, 13))]
                    bag = _locations(state, 9.0, 4.0)
                    cases = [
                        (_locations(state, 6.0), 6),  # a disc clipped at this box's edges
                        (_locations(state, 25.0), 25),  # every in-frame location
                        (np.array([[x, y]]), 0),
                        (np.empty((0, 2), dtype=np.intp), 0),
                        (bag[np.sort(rng.choice(len(bag), min(len(bag), 10), replace=False))], 9),
                    ]
                    for locs, reach in cases:
                        for integral, origin in ((full, np.zeros(2, np.intp)), _window_table(state, frame, reach)):
                            pixels = frame.pixels[origin[1] :, origin[0] :, 0]
                            want = mil_feature_values_oracle(state, pixels, locs - origin, feats)
                            for table in (integral, IntegralTable(integral.sum.astype(np.int64), None)):
                                got = _feature_values(state, table, locs - origin, feats)
                                assert got.shape == want.shape == (len(locs), len(feats))
                                assert np.array_equal(got, want), (bw, x, y, len(locs), origin, table.sum.dtype)

    def test_reader_chosen_by_density(self, monkeypatch):
        # blocks for a dense set; for a sparse one, patches while a patch
        # holds no more entries than the corners read at each location
        frame = textured_frame((40, 40), make_patch(seed=76))
        state = init_tracker(frame, (40, 40, 24, 24), FAST, seed=19)
        integral = integral_image(frame, squared=False)
        used = []
        for name in ("_block_rect_sums", "_patch_rect_sums", "_gathered_rect_sums"):
            def spy(table, locs, *args, real=getattr(imaging, name), name=name):
                used.append(name)
                return real(table, locs, *args)

            monkeypatch.setattr(imaging, name, spy)
        disc = _locations(state, FAST.search_radius)
        annulus = _locations(state, FAST.neg_outer, FAST.neg_inner)
        bag = annulus[:: len(annulus) // FAST.num_negatives]
        all_feats = np.arange(FAST.num_features)

        def corners(feats):
            return 4 * int((state.feat_start[feats + 1] - state.feat_start[feats]).sum())

        assert corners(state.selected) < 25 * 25 <= corners(all_feats)
        for locs, feats in ((disc, state.selected), (bag, state.selected), (bag, all_feats), (disc[:1], all_feats)):
            _feature_values(state, integral, locs, feats)
        assert used == ["_block_rect_sums", "_gathered_rect_sums", "_patch_rect_sums", "_block_rect_sums"]

    def test_large_box_bag_stays_within_the_gather_footprint(self):
        # a 300 x 300 box's patches would hold 115 x 301**2 int32 entries,
        # 41.7 MB; the bag is read by the gather, whose arrays are (n, m)
        # and (n, c) ones
        side, m = 300, FULL.num_features
        rng = rand.generator(78, 0)
        frame = Image(rng.integers(0, 256, size=(side + 140, side + 140)).astype(np.uint8))
        state = init_tracker(frame, (70, 70, side, side), FULL, seed=4)
        integral, origin = _window_table(state, frame, int(FULL.neg_outer))
        # the bag rows of one update: centre, positive disc, 65 negatives
        negatives = _locations(state, FULL.neg_outer, FULL.neg_inner)[::20][:65]
        locs = np.concatenate([[state.bbox[:2]], _locations(state, FULL.pos_radius), negatives])
        assert len(locs) == 115 and (side + 1) ** 2 > 4 * int(state.feat_start[-1])
        tracemalloc.start()
        try:
            vals = _feature_values(state, integral, locs - origin, np.arange(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (115, m)
        gather = 8 * len(locs) * m * 8  # eight (n, m) arrays of 8-byte entries
        assert peak <= gather < len(locs) * (side + 1) ** 2 * 4 // 20, peak


class TestNoisyOr:
    """The bag probability of the selection oracle."""

    def test_single_instance(self):
        assert noisy_or_oracle([0.3]) == pytest.approx(0.3)

    def test_monotone_and_bounded(self):
        rng = rand.generator(65, 0)
        for _ in range(50):
            p = rng.random(5)
            base = noisy_or_oracle(p)
            assert 0.0 <= base <= 1.0
            bumped = p.copy()
            i = int(rng.integers(5))
            bumped[i] = min(1.0, bumped[i] + 0.1)
            assert noisy_or_oracle(bumped) >= base


class TestSelection:
    def test_first_pick_maximizes_bag_loglikelihood(self):
        frame = textured_frame((30, 30), make_patch(seed=66))
        state = init_tracker(frame, (30, 30, 24, 24), FAST, seed=11)
        rng = rand.generator(67, 0)
        pos_llr = rng.normal(size=(9, FAST.num_features))
        neg_llr = rng.normal(size=(30, FAST.num_features)) - 0.5
        chosen = _select_classifiers(state, np.concatenate([pos_llr, neg_llr]), len(pos_llr))
        assert len(set(chosen.tolist())) == FAST.num_selected
        # recompute the single-classifier bag log-likelihoods by hand
        p_pos = 1.0 / (1.0 + np.exp(-pos_llr))
        p_neg = 1.0 / (1.0 + np.exp(-neg_llr))
        ll = np.log(1.0 - np.prod(1.0 - p_pos, axis=0)) + np.log(1.0 - p_neg).sum(axis=0)
        assert chosen[0] == ll.argmax()

    @pytest.mark.parametrize("params", [FAST, FULL], ids=["fast", "full"])
    def test_chosen_bit_exact_against_oracle(self, params):
        state = init_tracker(textured_frame((30, 30), make_patch(seed=66)), (30, 30, 24, 24), params, seed=19)
        rng = rand.generator(75, 0)
        m = params.num_features

        def normal(n, scale=1.0):
            return rng.normal(scale=scale, size=(n, m))

        half = normal(49)[:, : m // 2]
        cases = {
            "normal": (normal(49), normal(65) - 0.5),
            # the tracker's regime: modest positives, negatives near -6e8
            "huge negatives": (normal(49, 5.0), -np.abs(normal(65, 1e8))),
            "+-1e8": (rng.choice([-1e8, 1e8], size=(49, m)), rng.choice([-1e8, 1e8], size=(65, m))),
            "around the clamp": (normal(49, 40.0), normal(65, 40.0)),
            "tied columns": (np.concatenate([half, half, normal(49)[:, : m % 2]], axis=1), np.zeros((65, m))),
            "all zero": (np.zeros((49, m)), np.zeros((65, m))),
            "zero negatives": (normal(49, 10.0), np.zeros((0, m))),
            "one positive": (normal(1, 10.0), normal(3, 10.0)),
        }
        for name, (pos, neg) in cases.items():
            got = _select_classifiers(state, np.concatenate([pos, neg]), len(pos))
            want = select_classifiers_oracle(state, pos, neg)
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("params", [FAST, FULL], ids=["fast", "full"])
    def test_session_bit_exact_against_oracle(self, monkeypatch, params):
        # a patch moving over a flat background, then hidden: the floor on
        # sigma drives the LLRs to -1e7 and below
        patch = make_patch(seed=76)
        frames = [textured_frame((20 + 3 * i, 20 + i), patch, size=(96, 72)) for i in range(6)]
        frames.append(textured_frame((0, 0), np.full((24, 24), 128, dtype=np.uint8), size=(96, 72)))
        assert_same_trail(monkeypatch, params, (20, 20, 24, 24), frames)


class TestLiveRows:
    """_select_classifiers skips rows with h + max(llr row) <= -40 in each
    round, and the positive rows in a round whose positive bag is decided.
    Every case is compared with select_classifiers_oracle (all rows, no
    clamp) with ==, and the rows each round hands to _sigmoid_complement
    are counted against the rule replayed on the oracle's picks: a round
    with no live row makes no call."""

    PARAMS = MILParams(num_features=60, num_selected=12, num_negatives=40)

    def state(self, params):
        frame = textured_frame((30, 30), make_patch(seed=66))
        return init_tracker(frame, (30, 30, 24, 24), params, seed=19)

    def check(self, monkeypatch, pos, neg, params=PARAMS, state=None):
        state = state or self.state(params)
        llr = np.concatenate([pos, neg])
        rows = []
        real = mil_tracker._sigmoid_complement

        def counted(x, out=None, scratch=None):
            rows.append(len(x))
            return real(x, out=out, scratch=scratch)

        with np.errstate(invalid="ignore"), monkeypatch.context() as mp:
            mp.setattr(mil_tracker, "_sigmoid_complement", counted)
            got = _select_classifiers(state, llr, len(pos))
            want = select_classifiers_oracle(state, pos, neg)
            assert np.array_equal(got, want)
            h, live, n = np.zeros(len(llr)), [], len(pos)
            can_decide = np.isfinite(pos).all()
            for best in want:
                alive = ~(h + llr.max(axis=1) <= -40.0)
                if can_decide and (h[:n] + pos.min(axis=1) >= 40.0).any():
                    alive[:n] = False  # the positive bag is decided
                live.append(int(np.count_nonzero(alive)))
                h += llr[:, best]
        assert rows == [n for n in live if n]
        return live

    def normal(self, n, scale=1.0, seed=0):
        return rand.generator(90 + seed, 0).normal(scale=scale, size=(n, self.PARAMS.num_features))

    def test_rows_around_the_threshold(self, monkeypatch):
        # constant rows at -40 and within 1000 ulps of it die in round 1;
        # rows at -20 and within 1000 ulps reach 2 * v = -40 +- k ulps in round 2
        for centre, boundary_round in ((-40.0, 0), (-20.0, 1)):
            up = down = np.array([centre])
            values = [up]
            for _ in range(1000):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                values += [up, down]
            rows = np.repeat(np.concatenate(values)[:, None], self.PARAMS.num_features, axis=1)
            for pos, neg in ((rows, self.normal(30) - 0.5), (self.normal(20), rows)):
                live = self.check(monkeypatch, pos, neg)
                # the 1000 rows above -40 in the boundary round die one round later
                assert live[boundary_round] - live[boundary_round + 1] == 1000

    def test_dead_row_revives(self, monkeypatch):
        # the negative row is live in round 1, dead in round 2 (h = -100,
        # max 55) and live again in round 3 (h = -50), where it turns the
        # pick from column 2 to column 3
        params = MILParams(num_features=4, num_selected=3, num_negatives=1)
        pos = np.array([[10.0, 8.0, 1.0, 0.0]])
        neg = np.array([[-100.0, 50.0, 55.0, -60.0]])
        assert self.check(monkeypatch, pos, neg, params) == [2, 1, 2]
        assert select_classifiers_oracle(self.state(params), pos, neg).tolist() == [0, 1, 3]

    def test_every_row_dead(self, monkeypatch):
        pos = -40.0 - np.abs(self.normal(20, 1e3))
        neg = -40.0 - np.abs(self.normal(30, 1e3, seed=1))
        assert set(self.check(monkeypatch, pos, neg)) == {0}

    def test_no_live_positive_or_no_live_negative(self, monkeypatch):
        dead = -40.0 - np.abs(self.normal(20, 1e3))
        self.check(monkeypatch, dead, self.normal(30, 5.0))
        self.check(monkeypatch, self.normal(30, 5.0), dead)

    def test_nan_and_inf_rows(self, monkeypatch):
        rng = rand.generator(91, 0)
        for case in range(6):
            pos, neg = self.normal(20, 30.0, seed=case), self.normal(30, 30.0, seed=10 + case) - 40.0
            for block in (pos, neg):
                for value in (np.nan, np.inf, -np.inf):
                    r, c = rng.integers(len(block), size=2), rng.integers(block.shape[1], size=2)
                    block[r, c] = value
            neg[3] = -np.inf
            self.check(monkeypatch, pos, neg)

    def test_live_rows_keep_their_order(self, monkeypatch):
        # every column is a row permutation of the same values, so the bag
        # likelihoods tie but for rounding, which follows the row order;
        # dead rows are interleaved with live ones
        m = self.PARAMS.num_features
        rng = rand.generator(92, 0)
        pos, neg = np.full((2, 36, m), -1e3)
        for block in (pos, neg):
            base = rng.uniform(-3.0, 3.0, size=24)
            block[np.arange(36) % 3 != 1] = np.stack([rng.permutation(base) for _ in range(m)], axis=1)
        self.check(monkeypatch, pos, neg)
        self.check(monkeypatch, pos, neg, MILParams(num_features=m, num_selected=m))

    def test_decided_at_the_threshold(self, monkeypatch):
        # a positive row whose h + row min is c = 40 + k ulps, |k| <= 1000:
        # in round 1 (h = 0, min c) and in round 2 (a constant row c / 2
        # meets h = c / 2); the round drops the positives from c = 40 on
        params = MILParams(num_features=4, num_selected=2, num_negatives=3)
        state, neg, other = self.state(params), self.normal(3)[:, :4], self.normal(1, seed=1)[:, :4]
        for k in range(-1000, 1001):
            c = 40.0 + k * np.spacing(40.0)
            for row, decided_round in (([c, c + 1, c + 2, c + 3], 0), ([c / 2] * 4, 1)):
                live = self.check(monkeypatch, np.array([row, other[0]]), neg, params, state)
                assert live[decided_round] == (3 if k >= 0 else 5), (k, decided_round)

    def test_decided_bag_falls_back(self, monkeypatch):
        # round 2: h = 100 and row min -50, decided; it picks column 1
        # (-50), so in round 3 h + min = 0 and the positive term is back:
        # column 2 scores log(0.5) from the negative, column 3 log(0.5)
        # from the positive plus log(1 - sigmoid(-5)); a flag kept from
        # round 2 would pick column 3
        params = MILParams(num_features=4, num_selected=3, num_negatives=1)
        pos = np.array([[100.0, -50.0, 0.0, -50.0]])
        neg = np.array([[-100.0, -60.0, 160.0, 155.0]])
        assert self.check(monkeypatch, pos, neg, params) == [2, 1, 2]
        assert select_classifiers_oracle(self.state(params), pos, neg).tolist() == [0, 1, 2]

    def test_non_finite_positive_turns_the_rule_off(self, monkeypatch):
        # row 0 is decided, but a NaN in row 1 makes column 0's bag NaN,
        # which argmax picks; with the positives dropped column 1 would win
        params = MILParams(num_features=4, num_selected=2, num_negatives=1)
        pos = np.array([[50.0, 60.0, 70.0, 80.0], [np.nan, 0.0, 0.0, 0.0]])
        neg = np.array([[3.0, 0.0, 0.0, 0.0]])
        assert self.check(monkeypatch, pos, neg, params) == [3, 3]
        assert select_classifiers_oracle(self.state(params), pos, neg).tolist() == [0, 1]
        # +-inf: h + inf meets -inf in round 2
        for bad in ([np.inf, -np.inf, 0.0, 0.0], [-np.inf, np.inf, 0.0, 0.0]):
            pos[1] = bad
            assert self.check(monkeypatch, pos, neg, params) == [3, 3]

    def test_nan_negative_stays_live_when_decided(self, monkeypatch):
        params = MILParams(num_features=4, num_selected=3, num_negatives=3)
        pos = np.full((2, 4), 50.0)
        neg = np.array([[np.nan, 0.0, 0.0, 0.0], [-100.0] * 4, [1.0, 2.0, 3.0, 4.0]])
        assert self.check(monkeypatch, pos, neg, params) == [2, 2, 2]

    def test_decided_round_with_no_live_row(self, monkeypatch):
        # every column scores 0, so the picks run in column order
        pos = 50.0 + np.abs(self.normal(20, 10.0))
        neg = -50.0 - np.abs(self.normal(30, 10.0, seed=1))
        assert self.check(monkeypatch, pos, neg) == [0] * self.PARAMS.num_selected
        want = select_classifiers_oracle(self.state(self.PARAMS), pos, neg)
        assert want.tolist() == list(range(self.PARAMS.num_selected))

    def test_random_cases(self, monkeypatch):
        # small integer entries land h + row min on 40 exactly; a quarter of
        # the cases carry NaN or +-inf
        rng = rand.generator(94, 0)
        states = {}
        for _ in range(400):
            m = int(rng.integers(2, 10))
            k = int(rng.integers(1, m + 1))
            if (m, k) not in states:
                states[m, k] = self.state(MILParams(num_features=m, num_selected=k, num_negatives=1))
            n_pos, n_neg = rng.integers(0, 6, size=2)
            if rng.random() < 0.5:
                pos = rng.integers(-20, 61, size=(n_pos, m)).astype(float)
                neg = rng.integers(-60, 21, size=(n_neg, m)).astype(float)
            else:
                scale = rng.choice([1.0, 20.0, 60.0])
                pos = rng.normal(scale=scale, size=(n_pos, m)) + rng.choice([0.0, 20.0, 40.0])
                neg = rng.normal(scale=scale, size=(n_neg, m)) - rng.choice([0.0, 20.0, 40.0])
            if rng.random() < 0.25:
                for block in (pos, neg):
                    hit = rng.random(block.shape) < 0.1
                    block[hit] = rng.choice([np.nan, np.inf, -np.inf], size=int(hit.sum()))
            self.check(monkeypatch, pos, neg, state=states[m, k])


class TestTrackStep:
    def test_static_frames_zero_displacement(self):
        frame = textured_frame((40, 40), make_patch(seed=68))
        state = init_tracker(frame, (40, 40, 24, 24), FULL, seed=12)
        for _ in range(3):
            result = track_step(state, frame)
            assert result.bbox[:2] == (40, 40)

    def test_translating_patch_tracked(self):
        patch = make_patch(seed=69)
        x, y = 20, 40
        state = init_tracker(textured_frame((x, y), patch), (x, y, 24, 24), FULL, seed=13)
        errors = []
        for _ in range(40):
            x += 2
            result = track_step(state, textured_frame((x, y), patch))
            errors.append(np.hypot(result.bbox[0] - x, result.bbox[1] - y))
        assert np.mean(errors) <= 5.0
        assert max(errors) < 25.0  # never lost

    def test_sigma_never_below_floor(self):
        patch = make_patch(seed=70)
        frame = textured_frame((40, 40), patch)
        state = init_tracker(frame, (40, 40, 24, 24), FAST, seed=14)
        for _ in range(20):
            track_step(state, frame)
        assert state.sg1.min() >= FAST.sigma_floor
        assert state.sg0.min() >= FAST.sigma_floor

    def test_deterministic_trajectory(self):
        patch = make_patch(seed=71)

        def run():
            x, y = 30, 30
            state = init_tracker(textured_frame((x, y), patch), (x, y, 24, 24), FAST, seed=15)
            boxes = []
            for _ in range(10):
                x += 2
                boxes.append(track_step(state, textured_frame((x, y), patch)).bbox)
            return boxes

        assert run() == run()


class TestWindow:
    """A tracker call reads only the pixels within its reach of the box:
    floor(neg_outer) for init_tracker, search_radius + floor(neg_outer)
    for track_step, and takes their luma itself."""

    BBOX = (100, 80, 24, 24)
    # the patch jumps by search_radius right, down, left and up, so each
    # step reaches the edge of its window on one side
    PATH = [(100, 80), (125, 80), (125, 105), (100, 105), (100, 80)]

    def rgb_frames(self, size=(240, 200)):
        rng = rand.generator(83, 0)
        bg = rng.integers(0, 256, size=(size[1], size[0], 3)).astype(np.uint8)
        patch = rng.integers(0, 256, size=(24, 24, 3)).astype(np.uint8)
        frames = []
        for x, y in self.PATH:
            px = bg.copy()
            px[y : y + 24, x : x + 24] = patch
            frames.append(Image(px))
        return frames

    def test_full_reach_steps_match_full_frame_oracle(self, monkeypatch):
        frames = [luma(f) for f in self.rgb_frames()]
        boxes = [b[:2] for b, _, _ in trail(monkeypatch, FULL, self.BBOX, frames, oracle=False)]
        assert boxes == self.PATH
        assert_same_trail(monkeypatch, FULL, self.BBOX, frames)

    def test_rgb_trail_equals_luma_trail(self, monkeypatch):
        frames = self.rgb_frames()
        got = trail(monkeypatch, FULL, self.BBOX, frames, oracle=False)
        assert_trails_equal(got, trail(monkeypatch, FULL, self.BBOX, [luma(f) for f in frames], oracle=False))

    def test_pixels_beyond_reach_are_not_read(self, monkeypatch):
        frames = self.rgb_frames()
        want = trail(monkeypatch, FULL, self.BBOX, frames, oracle=False)
        rng = rand.generator(84, 0)
        noised = []
        # the box each call starts from, and how far from it the call reads
        starts = [self.BBOX] + [b for b, _, _ in want[:-1]]
        reaches = [int(FULL.neg_outer)] + [FULL.search_radius + int(FULL.neg_outer)] * (len(frames) - 1)
        for frame, (x, y, w, h), reach in zip(frames, starts, reaches):
            px = rng.integers(0, 256, size=frame.pixels.shape).astype(np.uint8)
            y0, x0 = max(0, y - reach), max(0, x - reach)
            px[y0 : y + h + reach, x0 : x + w + reach] = frame.pixels[y0 : y + h + reach, x0 : x + w + reach]
            assert not np.array_equal(px, frame.pixels)
            noised.append(Image(px))
        assert_trails_equal(trail(monkeypatch, FULL, self.BBOX, noised, oracle=False), want)

    @pytest.mark.parametrize(
        "side, box, dtype",
        [
            (2050, 1900, np.int32),  # step window 2,024 px square: 4.10M px, under the bound
            (2112, 2000, np.int64),  # step window the whole 2,112 px frame: 4.46M px, over it
        ],
    )
    def test_window_tables_either_side_of_the_int32_bound(self, monkeypatch, side, box, dtype):
        # integral_image keeps a sum table int32 under 2**31 / 510 px; the
        # oracle steps read a full-frame table widened to int64
        base = rand.generator(86, 0).integers(0, 256, size=(side, side)).astype(np.uint8)
        frames = [Image(np.roll(base, 3 * k, axis=(0, 1))) for k in range(4)]
        xy = (side - box) // 2
        bbox = (xy, xy, box, box)
        dtypes = []

        def spy(state, frame, reach, real=_window_table):
            table, origin = real(state, frame, reach)
            dtypes.append(table.sum.dtype)
            return table, origin

        with monkeypatch.context() as mp:
            mp.setattr(mil_tracker, "_window_table", spy)
            got = trail(monkeypatch, FAST, bbox, frames, oracle=False)
        assert dtypes == [dtype] * len(frames)
        assert [b[:2] for b, _, _ in got] == [(xy + 3 * k, xy + 3 * k) for k in range(len(frames))]
        assert_trails_equal(got, trail(monkeypatch, FAST, bbox, frames, oracle=True))


class TestOnePassUpdate:
    """The update that evaluates all bags in one pass against one that calls
    _feature_values per bag and again for the centre, and selects with
    select_classifiers_oracle."""

    def test_bit_exact_against_per_bag_oracle(self, monkeypatch):
        fw, fh, bw, bh = 40, 32, 12, 10
        # boxes on every edge and corner of a small frame clip the positive
        # disc, the annulus and the search disc
        cases = [
            ((x, y, bw, bh), FAST)
            for x in (0, (fw - bw) // 2, fw - bw)
            for y in (0, (fh - bh) // 2, fh - bh)
        ]
        # 40 in-frame annulus locations at the start, fewer than num_negatives
        cases.append(((8, 6, 24, 20), FULL))
        short = init_tracker(Image(np.zeros((fh, fw), dtype=np.uint8)), cases[-1][0], FULL)
        assert len(_locations(short, FULL.neg_outer, FULL.neg_inner)) == 40 < FULL.num_negatives
        rng = rand.generator(80, 0)
        for bbox, params in cases:
            frames = [Image(rng.integers(0, 256, size=(fh, fw)).astype(np.uint8)) for _ in range(5)]
            assert_same_trail(monkeypatch, params, bbox, frames)

    def test_locations_order_and_bounds(self):
        frame = Image(np.zeros((32, 40), dtype=np.uint8))
        state = init_tracker(frame, (0, 21, 12, 10), FAST, seed=1)
        x, y = _locations(state, 9.5, 3.0).T
        # lexicographic (dy, dx), 3 < |d| <= 9.5, patch inside the 40x32 frame
        want = [
            (dy, dx)
            for dy in range(-9, 10)
            for dx in range(-9, 10)
            if 9 < dy * dy + dx * dx <= 9.5**2 and 0 <= dx <= 40 - 12 and 0 <= 21 + dy <= 32 - 10
        ]
        assert list(zip((y - 21).tolist(), x.tolist())) == want

    @pytest.mark.parametrize(
        "outer, inner",
        [(FULL.search_radius, None), (FULL.pos_radius, None), (FULL.neg_outer, FULL.neg_inner)],
        ids=["search", "positive", "negative"],
    )
    def test_cached_offsets_match_mgrid_corners(self, outer, inner):
        # every box position of a frame narrower than each disc (clipped on
        # both sides) and of one wide enough for each disc to fit (clipped on
        # no side to every pair of sides)
        for fw, fh in ((40, 32), (90, 86)):
            state = init_tracker(Image(np.zeros((fh, fw), dtype=np.uint8)), (0, 0, 12, 10), FAST, seed=1)
            for y in range(fh - 10 + 1):
                for x in range(fw - 12 + 1):
                    state.bbox = (x, y, 12, 10)
                    got = _locations(state, outer, inner)
                    want = disc_locs_oracle(state, outer, inner)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (fw, x, y)

    def test_one_feature_pass_per_update(self, monkeypatch):
        frame = textured_frame((40, 40), make_patch(seed=74))
        calls = []
        real = mil_tracker._feature_values

        def counted(state, integral, locs, feats):
            calls.append(len(locs))
            return real(state, integral, locs, feats)

        monkeypatch.setattr(mil_tracker, "_feature_values", counted)
        state = init_tracker(frame, (40, 40, 24, 24), FAST, seed=18)
        assert len(calls) == 1
        track_step(state, frame)
        # the search disc first, then [centre; positive disc; negatives]
        assert len(calls) == 3 and calls[2] == 1 + 49 + FAST.num_negatives


class TestSigmoid:
    def test_equals_sign_split_form(self):
        edges = np.array([0.0, 1e-300, 30.0, 709.0, 800.0, np.inf])
        x = np.concatenate([edges, -edges, rand.generator(81, 0).normal(scale=40.0, size=10_000)])
        with np.errstate(over="raise"):
            got = _sigmoid_complement(x)
        assert np.array_equal(got, 1.0 - sigmoid_oracle(x))

    def test_clamped_exponent_is_exact(self):
        # exp(-|x|) is clamped at exp(-40); past |x| = 54 ln 2 = 37.4 both it
        # and the true value are below 2**-54, so neither moves 1 + e or 1 - e
        centres = np.array([36.0, 37.0, 40.0, 708.0, 745.0])
        up = down = np.concatenate([centres, -centres])
        steps = [up]
        for _ in range(1000):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            steps += [up, down]
        logs = np.logspace(-300, 300)
        x = np.concatenate(
            steps + [np.array([0.0, -0.0, np.inf, -np.inf]), np.linspace(-800, 800, 2_000_001), logs, -logs]
        )
        want = (1.0 - sigmoid_oracle(x)).view(np.int64)
        assert np.array_equal(_sigmoid_complement(x).view(np.int64), want)
        out, scratch = np.empty_like(x), np.empty_like(x)
        assert _sigmoid_complement(x, out=out, scratch=scratch) is out
        assert np.array_equal(out.view(np.int64), want)


class TestEmptyAnnulus:
    """A box so large in its frame that no negative location fits."""

    BBOX = (4, 4, 30, 24)

    def frames(self, n):
        rng = rand.generator(82, 0)
        return [Image(rng.integers(0, 256, size=(32, 40)).astype(np.uint8)) for _ in range(n)]

    def test_keeps_prior_and_stays_finite(self):
        frame = self.frames(1)[0]
        with np.errstate(all="raise"):
            state = init_tracker(frame, self.BBOX, FULL, seed=1)
            assert len(_locations(state, FULL.neg_outer, FULL.neg_inner)) == 0
            assert np.array_equal(state.mu0, np.zeros(FULL.num_features))
            assert np.array_equal(state.sg0, np.ones(FULL.num_features))
            result = track_step(state, frame)
        assert np.isfinite(state.mu0).all() and np.isfinite(state.sg0).all()
        assert np.isfinite(result.confidence)

    def test_session_bit_exact_against_oracle(self, monkeypatch):
        assert_same_trail(monkeypatch, FULL, self.BBOX, self.frames(4))


class TestConfidence:
    def test_threshold_inclusive(self):
        assert confidence_ok(TrackResult((0, 0, 4, 4), 1.5), 1.5)
        assert not confidence_ok(TrackResult((0, 0, 4, 4), 1.4999), 1.5)

    def test_static_target_stays_confident(self):
        patch = make_patch(seed=72)
        frame = textured_frame((40, 40), patch)
        state = init_tracker(frame, (40, 40, 24, 24), FAST, seed=16)
        for _ in range(15):
            result = track_step(state, frame)
        assert confidence_ok(result, 0.0)

    def test_occlusion_drops_confidence_within_five_frames(self):
        patch = make_patch(seed=73)
        frame = textured_frame((40, 40), patch)
        state = init_tracker(frame, (40, 40, 24, 24), FAST, seed=17)
        for _ in range(5):
            result = track_step(state, frame)
        baseline_ok = confidence_ok(result, 0.0)
        assert baseline_ok
        blank = textured_frame((40, 40), np.full((24, 24), 128, dtype=np.uint8))
        dropped = False
        for _ in range(5):
            result = track_step(state, blank)
            if not confidence_ok(result, 0.0):
                dropped = True
                break
        assert dropped
