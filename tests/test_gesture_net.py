import struct
import zlib

import numpy as np
import pytest

from handpose import rand
from handpose.errors import HandposeError
from handpose.gesture_net import (
    ConfusionMatrix,
    Dataset,
    Hyper,
    Network,
    binarize,
    build_network,
    classify_mask,
    evaluate,
    load_dataset,
    load_weights,
    otsu_threshold,
    save_weights,
    train,
)
from handpose.imaging import BinaryMask, Image, save_pnm
from handpose.tensor_nn import softmax


def with_crc(blob: bytearray) -> bytes:
    """`blob` with its trailing CRC32 made valid again."""
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    return bytes(blob)


def poisoned_weights(net: Network, value: float) -> bytes:
    """The weight file of `net` with conv1's first weight set to `value`
    and the CRC32 made valid again."""
    blob = bytearray(save_weights(net))
    # 12-byte file header, then conv1's record head: kind, rank, 4 dims
    struct.pack_into("<f", blob, 12 + 1 + 4 + 4 * 4, value)
    return with_crc(blob)


def zero_network() -> Network:
    net = build_network(seed=0)
    for p in net.params():
        p.w[...] = 0.0
        p.b[...] = 0.0
    return net


class TestBuildNetwork:
    def test_deterministic_from_seed(self):
        a, b = build_network(123), build_network(123)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa.w, pb.w)
            assert np.array_equal(pa.b, pb.b)

    def test_different_seeds_differ(self):
        a, b = build_network(1), build_network(2)
        assert not np.array_equal(a.params()[0].w, b.params()[0].w)

    def test_parameter_count(self):
        # outC*(inC*kH*kW+1) and out*(in+1): 156+880+192120+10164+850
        assert build_network(0).param_count == 204_170

    def test_zero_network_uniform_softmax(self):
        net = zero_network()
        x = rand.generator(20, 0).random((3, 1, 48, 48)).astype(np.float32)
        logits = net.forward(x)
        assert np.all(logits == 0.0)
        assert np.allclose(softmax(logits), 0.1, atol=1e-7)

    def test_shape_chain(self):
        net = build_network(0)
        x = np.zeros((1, 1, 48, 48), dtype=np.float32)
        shapes = []
        for layer in net.layers:
            x = layer.forward(x)
            shapes.append(x.shape[1:])
        assert shapes == [
            (6, 44, 44), (6, 44, 44), (6, 22, 22),  # conv1, ReLU, pool
            (16, 20, 20), (16, 20, 20), (16, 10, 10),  # conv2, ReLU, pool
            (1600,),  # flatten
            (120,), (120,),  # dense1, ReLU
            (84,), (84,),  # dense2, ReLU
            (10,),  # dense3
        ]


class TestOtsu:
    def test_bimodal_exact_separation(self):
        # 30 pixels at 50, 70 pixels at 200: any t in [50,199] separates;
        # the exhaustive oracle and the implementation must agree
        gray = np.concatenate([np.full(30, 50), np.full(70, 200)]).astype(np.uint8)
        gray = gray.reshape(10, 10)
        t = otsu_threshold(gray)

        # independent exhaustive 256-threshold oracle
        best_t, best_v = 0, -1.0
        flat = gray.ravel().astype(np.float64)
        for cand in range(256):
            lo = flat[flat <= cand]
            hi = flat[flat > cand]
            if len(lo) == 0 or len(hi) == 0:
                continue
            w0, w1 = len(lo) / len(flat), len(hi) / len(flat)
            v = w0 * w1 * (lo.mean() - hi.mean()) ** 2
            if v > best_v:
                best_v, best_t = v, cand
        assert t == best_t
        mask = binarize(gray, "otsu")
        assert np.array_equal(mask.bits, gray > t)
        assert np.array_equal(mask.bits, gray == 200)

    def test_fixed_threshold_all_black(self):
        mask = binarize(np.zeros((48, 48), dtype=np.uint8), "fixed", 128)
        assert not mask.bits.any()


class TestLoadDataset:
    @staticmethod
    def _write_class_dirs(root, n_classes=10, per_class=1, value=200):
        for c in range(n_classes):
            d = root / str(c)
            d.mkdir()
            for i in range(per_class):
                px = np.zeros((48, 48), dtype=np.uint8)
                px[10 : 20 + c, 10:30] = value
                (d / f"img{i:03d}.pgm").write_bytes(save_pnm(Image(px)))

    def test_ten_classes_one_each(self, tmp_path):
        self._write_class_dirs(tmp_path)
        data = load_dataset(tmp_path)
        assert len(data) == 10
        assert [lbl for _, lbl in data.samples] == list(range(10))

    def test_wrong_size_rejected(self, tmp_path):
        d = tmp_path / "0"
        d.mkdir()
        (d / "a.pgm").write_bytes(save_pnm(Image(np.zeros((32, 32), dtype=np.uint8))))
        with pytest.raises(HandposeError, match="expected 48x48 grayscale"):
            load_dataset(tmp_path)

    def test_non_contiguous_labels(self, tmp_path):
        for c in (0, 2):
            d = tmp_path / str(c)
            d.mkdir()
            (d / "a.pgm").write_bytes(save_pnm(Image(np.zeros((48, 48), dtype=np.uint8))))
        with pytest.raises(HandposeError, match="are not 0..1"):
            load_dataset(tmp_path)

    def test_empty_class(self, tmp_path):
        (tmp_path / "0").mkdir()
        with pytest.raises(HandposeError, match="has no .pgm files"):
            load_dataset(tmp_path)


def _toy_two_class_dataset():
    """Solid left half vs solid right half, 50 masks each, tiny jitter."""
    rng = rand.generator(21, 0)
    samples = []
    for _ in range(50):
        left = np.zeros((48, 48), dtype=bool)
        left[:, : 24 + int(rng.integers(-3, 4))] = True
        samples.append((BinaryMask(left), 0))
        right = np.zeros((48, 48), dtype=bool)
        right[:, 24 + int(rng.integers(-3, 4)) :] = True
        samples.append((BinaryMask(right), 1))
    return Dataset(samples)


class TestTrain:
    def test_zero_lr_keeps_weights(self):
        data = _toy_two_class_dataset()
        net = build_network(3)
        before = [p.w.copy() for p in net.params()]
        # Hyper requires lr > 0; 1e-30 underflows every float32 update,
        # so one epoch leaves the weights bit-identical
        hyper = Hyper(learning_rate=1e-30, momentum=0.0, epochs=1, seed=3)
        train(net, data, hyper)
        for p, w0 in zip(net.params(), before):
            assert np.array_equal(p.w, w0)

    def test_separable_toy_reaches_full_accuracy(self):
        data = _toy_two_class_dataset()
        net = build_network(4)
        hyper = Hyper(learning_rate=0.01, momentum=0.9, batch_size=16, epochs=5, seed=4)
        report = train(net, data, hyper)
        assert report.best_val_acc == 1.0

    def test_diverging_first_epoch_raises(self):
        # lr 1e300 leaves non-finite weights after epoch 1, and sgd_step
        # keeps them non-finite: no epoch has a state to keep
        hyper = Hyper(learning_rate=1e300, momentum=0.9, batch_size=16, epochs=2, seed=6)
        with pytest.raises(HandposeError, match=r"^training at learning rate 1e\+300 diverged in epoch 1$"):
            train(build_network(6), _toy_two_class_dataset(), hyper)

    def test_deterministic_report(self):
        data = _toy_two_class_dataset()
        hyper = Hyper(learning_rate=0.01, momentum=0.9, batch_size=16, epochs=2, seed=5)
        n1, n2 = build_network(5), build_network(5)
        r1, r2 = train(n1, data, hyper), train(n2, data, hyper)
        assert r1.epochs == r2.epochs
        for p1, p2 in zip(n1.params(), n2.params()):
            assert np.array_equal(p1.w, p2.w) and np.array_equal(p1.b, p2.b)


class TestEvaluate:
    def test_zero_network_predicts_class_zero(self):
        data = _toy_two_class_dataset()
        cm = evaluate(zero_network(), data)
        assert cm.counts[:, 0].sum() == len(data)
        assert cm.accuracy == 0.5  # class 0 share

    def test_confusion_matrix_invariants(self):
        data = _toy_two_class_dataset()
        cm = evaluate(zero_network(), data)
        assert cm.counts.sum() == len(data)
        assert np.all(cm.counts >= 0)
        assert np.isclose(np.trace(cm.counts) / cm.counts.sum(), cm.accuracy)
        # row sums = class counts
        assert cm.counts[0].sum() == 50 and cm.counts[1].sum() == 50

    def test_order_invariance(self):
        data = _toy_two_class_dataset()
        net = build_network(6)
        cm1 = evaluate(net, data)
        shuffled = Dataset(list(reversed(data.samples)))
        cm2 = evaluate(net, shuffled)
        assert np.array_equal(cm1.counts, cm2.counts)

    def test_csv_format(self):
        counts = np.zeros((10, 10), dtype=np.int64)
        counts[3, 3] = 4
        cm = ConfusionMatrix(counts)
        lines = cm.to_csv().strip().split("\n")
        assert len(lines) == 12
        assert lines[0] == "class0,class1,class2,class3,class4,class5,class6,class7,class8,class9"
        assert lines[-1] == "accuracy,1.0000"


class TestWeightFile:
    def test_round_trip_forward_identical(self):
        net = build_network(7)
        clone = load_weights(save_weights(net))
        rng = rand.generator(22, 0)
        for _ in range(100):
            x = rng.random((1, 1, 48, 48)).astype(np.float32)
            assert np.array_equal(net.forward(x), clone.forward(x))

    def test_round_trip_bit_exact(self):
        net = build_network(8)
        clone = load_weights(save_weights(net))
        for p, q in zip(net.params(), clone.params()):
            assert p.w.tobytes() == q.w.tobytes()
            assert p.b.tobytes() == q.b.tobytes()

    def test_corrupt_payload_byte(self):
        blob = bytearray(save_weights(build_network(9)))
        blob[100] ^= 0xFF
        with pytest.raises(HandposeError, match="CRC32 mismatch"):
            load_weights(bytes(blob))

    def test_truncated_file(self):
        blob = save_weights(build_network(10))
        with pytest.raises(HandposeError, match="CRC32 mismatch"):
            load_weights(blob[: len(blob) // 2])

    def test_bad_magic(self):
        blob = bytearray(save_weights(build_network(11)))
        blob[0] = ord("X")
        with pytest.raises(HandposeError, match="bad magic"):
            load_weights(bytes(blob))

    def test_version_mismatch(self):
        blob = bytearray(save_weights(build_network(12)))
        blob[4:8] = struct.pack("<I", 99)
        with pytest.raises(HandposeError, match="unsupported version 99"):
            load_weights(with_crc(blob))

    # conv1's record head starts after the 12-byte file header: kind code
    # at 12, rank at 13, dims from 17
    @pytest.mark.parametrize(
        "offset, field, match",
        [
            (8, struct.pack("<I", 4), "expected 5 layer records, found 4"),
            (12, bytes([2]), r"layer record \(6, 1, 5, 5\) does not match"),
            (17, struct.pack("<I", 7), r"layer record \(7, 1, 5, 5\) does not match"),
        ],
        ids=["record-count", "kind-code", "dims"],
    )
    def test_record_mismatch(self, offset, field, match):
        blob = bytearray(save_weights(build_network(14)))
        blob[offset : offset + len(field)] = field
        with pytest.raises(HandposeError, match=match):
            load_weights(with_crc(blob))

    def test_trailing_bytes(self):
        blob = save_weights(build_network(15))
        with pytest.raises(HandposeError, match="trailing bytes"):
            load_weights(with_crc(bytearray(blob[:-4] + bytes(8))))

    def test_loaded_arrays_are_owned_float32_copies(self):
        for p in load_weights(save_weights(build_network(16))).params():
            for a in (p.w, p.b):
                assert a.dtype == np.float32 and a.dtype.isnative
                assert a.flags.owndata and a.flags.writeable

    def test_load_draws_no_weights(self, monkeypatch):
        blob = save_weights(build_network(17))
        draws = []
        uniform = rand.uniform
        monkeypatch.setattr(rand, "uniform", lambda *a: draws.append(a) or uniform(*a))
        load_weights(blob)
        assert draws == []
        build_network(17)  # the spy does see the draws of a built network
        assert len(draws) == 5

    def test_loaded_network_trains_like_built(self):
        data = _toy_two_class_dataset()
        hyper = Hyper(learning_rate=0.01, momentum=0.9, batch_size=16, epochs=2, seed=18)
        built = build_network(18)
        start = save_weights(built)
        loaded = load_weights(start)
        train(built, data, hyper)
        train(loaded, data, hyper)
        assert save_weights(loaded) == save_weights(built) != start

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, value):
        # save_weights refuses to write such a file, so load_weights must
        # not accept one: a NaN in conv1 is hidden by the ReLU downstream
        with pytest.raises(ValueError, match="non-finite"):
            load_weights(poisoned_weights(build_network(13), value))


class TestGradBuffers:
    def test_no_buffers_before_training(self):
        built = build_network(19)
        for net in (built, load_weights(save_weights(built))):
            for p in net.params():
                assert {"gw", "gb", "vw", "vb"}.isdisjoint(vars(p))

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_trains_like_zero_buffers(self, momentum):
        # the eager network keeps four zero buffers for the whole run and
        # zeroes its grads in place; the lazy one binds arrays on first use
        data = _toy_two_class_dataset()
        hyper = Hyper(learning_rate=0.01, momentum=momentum, batch_size=16, epochs=2, seed=20)
        lazy, eager = build_network(20), build_network(20)
        start = save_weights(lazy)
        for p in eager.params():
            p.gw, p.vw = np.zeros_like(p.w), np.zeros_like(p.w)
            p.gb, p.vb = np.zeros_like(p.b), np.zeros_like(p.b)
            p.zero_grad = lambda p=p: (p.gw.fill(0), p.gb.fill(0))
        train(lazy, data, hyper)
        train(eager, data, hyper)
        assert save_weights(lazy) == save_weights(eager) != start


class TestClassifyMask:
    def test_zero_network_label_and_confidence(self):
        mask = BinaryMask(np.ones((48, 48), dtype=bool))
        label, conf = classify_mask(zero_network(), mask)
        assert label == 0
        assert np.isclose(conf, 0.1)

    def test_rejects_wrong_size(self):
        with pytest.raises(HandposeError, match="classifier input must be 48x48"):
            classify_mask(zero_network(), BinaryMask(np.ones((32, 32), dtype=bool)))
