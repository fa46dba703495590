import numpy as np
import pytest

from handpose import rand
from handpose.errors import LabelOutOfRange, OddDimension, ShapeMismatch
from handpose.tensor_nn import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2x2,
    ReLU,
    sgd_step,
    softmax,
    softmax_xent,
    softmax_xent_batch,
)
from helpers import finite_diff, max_rel_error, naive_conv2d

GRAD_TOL = 1e-4
EPS = 1e-3


class TestConvForward:
    def test_zero_input(self):
        conv = Conv2D(1, 2, 3, seed=1, dtype=np.float64)
        out = conv.forward(np.zeros((1, 5, 5)))
        assert np.allclose(out, 0.0)

    def test_hand_computed_2x2(self):
        conv = Conv2D(1, 1, 2, dtype=np.float64)
        conv.w[...] = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        conv.b[...] = 0.0
        x = np.arange(1.0, 10.0).reshape(1, 3, 3)
        out = conv.forward(x)
        assert np.array_equal(out[0], np.array([[6.0, 8.0], [12.0, 14.0]]))

    def test_identity_1x1_kernel_plus_bias(self):
        conv = Conv2D(1, 1, 1, dtype=np.float64)
        conv.w[...] = 1.0
        conv.b[...] = 2.5
        x = rand.generator(8, 0).normal(size=(1, 4, 4))
        assert np.allclose(conv.forward(x), x + 2.5)

    def test_matches_naive_loop_oracle(self):
        rng = rand.generator(9, 0)
        for _ in range(5):
            conv = Conv2D(3, 4, 3, seed=int(rng.integers(1 << 31)), dtype=np.float64)
            conv.b[...] = rng.normal(size=4)
            x = rng.normal(size=(3, 6, 7))
            assert np.allclose(conv.forward(x), naive_conv2d(x, conv.w, conv.b), atol=1e-6)

    def test_shape_mismatch(self):
        conv = Conv2D(2, 1, 3, dtype=np.float64)
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((1, 5, 5)))
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((2, 2, 2)))


class TestConvBackward:
    def test_zero_grad_out(self):
        conv = Conv2D(1, 2, 3, seed=3, dtype=np.float64)
        x = rand.generator(10, 0).normal(size=(1, 5, 5))
        conv.forward(x)
        gx = conv.backward(np.zeros((2, 3, 3)))
        assert np.allclose(gx, 0) and np.allclose(conv.gw, 0) and np.allclose(conv.gb, 0)

    def test_grad_b_is_summed_grad_out(self):
        conv = Conv2D(1, 2, 3, seed=4, dtype=np.float64)
        rng = rand.generator(11, 0)
        x = rng.normal(size=(1, 5, 5))
        conv.forward(x)
        g = rng.normal(size=(2, 3, 3))
        conv.backward(g)
        assert np.allclose(conv.gb, g.sum(axis=(1, 2)))

    def test_finite_difference_all_grads(self):
        rng = rand.generator(12, 0)
        conv = Conv2D(1, 2, 3, seed=5, dtype=np.float64)
        conv.b[...] = rng.normal(size=2)
        x = rng.normal(size=(1, 4, 4))
        g_out = rng.normal(size=(2, 2, 2))

        def loss():
            return float((conv.forward(x) * g_out).sum())

        loss()
        gx = conv.backward(g_out.copy())
        assert max_rel_error(gx, finite_diff(loss, x, EPS)) < GRAD_TOL
        assert max_rel_error(conv.gw, finite_diff(loss, conv.w, EPS)) < GRAD_TOL
        assert max_rel_error(conv.gb, finite_diff(loss, conv.b, EPS)) < GRAD_TOL


class TestMaxPool:
    def test_single_block(self):
        pool = MaxPool2x2()
        out = pool.forward(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out[0, 0, 0] == 4.0
        gx = pool.backward(np.ones((1, 1, 1)))
        assert gx[0].tolist() == [[0.0, 0.0], [0.0, 1.0]]

    def test_tie_goes_to_first_row_major(self):
        pool = MaxPool2x2()
        out = pool.forward(np.full((1, 2, 2), 5.0))
        assert out[0, 0, 0] == 5.0
        gx = pool.backward(np.ones((1, 1, 1)))
        assert gx[0].tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_finite_difference_away_from_ties(self):
        rng = rand.generator(13, 0)
        pool = MaxPool2x2()
        x = rng.permutation(36).astype(np.float64).reshape(1, 6, 6)  # distinct values
        g_out = rng.normal(size=(1, 3, 3))

        def loss():
            return float((pool.forward(x) * g_out).sum())

        loss()
        gx = pool.backward(g_out.copy())
        assert max_rel_error(gx, finite_diff(loss, x, EPS)) < GRAD_TOL

    def test_grad_mass_conserved(self):
        rng = rand.generator(14, 0)
        pool = MaxPool2x2()
        x = rng.normal(size=(3, 8, 8))
        pool.forward(x)
        g = rng.normal(size=(3, 4, 4))
        assert np.isclose(pool.backward(g).sum(), g.sum())

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            MaxPool2x2().forward(np.zeros((1, 5, 4)))


class TestReLU:
    def test_basic(self):
        relu = ReLU()
        assert relu.forward(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_positive_passthrough(self):
        relu = ReLU()
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(relu.forward(x), x)
        g = np.array([4.0, 5.0, 6.0])
        assert np.array_equal(relu.backward(g), g)

    def test_finite_difference(self):
        rng = rand.generator(15, 0)
        relu = ReLU()
        x = rng.normal(size=(4, 4))
        x[np.abs(x) < 0.1] = 0.5  # keep inputs away from the kink
        g_out = rng.normal(size=(4, 4))

        def loss():
            return float((relu.forward(x) * g_out).sum())

        loss()
        gx = relu.backward(g_out.copy())
        assert max_rel_error(gx, finite_diff(loss, x, EPS)) < GRAD_TOL


class TestDense:
    def test_identity(self):
        dense = Dense(3, 3, dtype=np.float64)
        dense.w[...] = np.eye(3)
        dense.b[...] = 0.0
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(dense.forward(x), x)

    def test_hand_matrix_vector(self):
        dense = Dense(2, 2, dtype=np.float64)
        dense.w[...] = np.array([[1.0, 2.0], [3.0, 4.0]])
        dense.b[...] = 0.0
        assert dense.forward(np.array([1.0, 1.0])).tolist() == [3.0, 7.0]

    def test_finite_difference_all_grads(self):
        rng = rand.generator(16, 0)
        dense = Dense(8, 5, seed=6, dtype=np.float64)
        dense.b[...] = rng.normal(size=5)
        x = rng.normal(size=8)
        g_out = rng.normal(size=5)

        def loss():
            return float((dense.forward(x) * g_out).sum())

        loss()
        gx = dense.backward(g_out.copy())
        assert max_rel_error(gx, finite_diff(loss, x, EPS)) < GRAD_TOL
        assert max_rel_error(dense.gw, finite_diff(loss, dense.w, EPS)) < GRAD_TOL
        assert max_rel_error(dense.gb, finite_diff(loss, dense.b, EPS)) < GRAD_TOL

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Dense(4, 2, dtype=np.float64).forward(np.zeros(5))


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, _ = softmax_xent(np.zeros(10), 3)
        assert np.isclose(loss, np.log(10.0), atol=1e-9)

    def test_large_margin_limit(self):
        logits = np.zeros(5)
        logits[2] = 60.0
        loss, grad = softmax_xent(logits, 2)
        assert loss < 1e-12
        assert np.max(np.abs(grad)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            softmax_xent(np.zeros(4), 4)
        with pytest.raises(LabelOutOfRange):
            softmax_xent(np.zeros(4), -1)

    def test_softmax_sums_to_one_and_loss_nonneg(self):
        rng = rand.generator(17, 0)
        for _ in range(20):
            logits = rng.normal(scale=5.0, size=7)
            loss, _ = softmax_xent(logits, int(rng.integers(7)))
            assert loss >= 0
            assert abs(softmax(logits).sum() - 1.0) < 1e-6

    def test_grad_matches_finite_differences(self):
        rng = rand.generator(18, 0)
        logits = rng.normal(size=6)
        label = 2

        def loss():
            return softmax_xent(logits, label)[0]

        _, grad = softmax_xent(logits.copy(), label)
        assert max_rel_error(grad.astype(np.float64), finite_diff(loss, logits, EPS)) < GRAD_TOL

    def test_batch_mean_matches_singles(self):
        rng = rand.generator(19, 0)
        logits = rng.normal(size=(4, 10))
        labels = rng.integers(0, 10, size=4)
        loss_b, grad_b = softmax_xent_batch(logits.copy(), labels)
        singles = [softmax_xent(logits[i], int(labels[i])) for i in range(4)]
        assert np.isclose(loss_b, np.mean([s[0] for s in singles]))
        assert np.allclose(grad_b, np.stack([s[1] for s in singles]) / 4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_single_is_batch_of_one(self, dtype):
        rng = rand.generator(20, 0)
        for _ in range(200):
            row = (rng.normal(scale=10.0 ** rng.integers(-3, 3), size=10)).astype(dtype)
            label = int(rng.integers(10))
            loss, grad = softmax_xent(row, label)
            loss_b, grad_b = softmax_xent_batch(row[None], [label])
            assert loss == loss_b
            assert grad.dtype == grad_b.dtype == dtype
            assert grad.tobytes() == grad_b[0].tobytes()


class TestSgdStep:
    def test_zero_grad_no_change(self):
        dense = Dense(3, 2, seed=7, dtype=np.float64)
        w0 = dense.w.copy()
        sgd_step([dense], 0.1, 0.0)
        assert np.array_equal(dense.w, w0)

    def test_plain_sgd_without_momentum(self):
        dense = Dense(2, 2, seed=8, dtype=np.float64)
        w0 = dense.w.copy()
        dense.gw[...] = 1.0
        sgd_step([dense], 0.25, 0.0)
        assert np.allclose(dense.w, w0 - 0.25)
        assert np.all(dense.gw == 0)  # grads zeroed after step

    def test_momentum_two_steps(self):
        # v1 = -lr*g; v2 = 0.9*v1 - lr*g; total = -lr*g*(1 + 1.9)
        dense = Dense(2, 2, seed=9, dtype=np.float64)
        w0 = dense.w.copy()
        for _ in range(2):
            dense.gw[...] = 1.0
            sgd_step([dense], 0.1, 0.9)
        assert np.allclose(dense.w, w0 - 0.1 * (1.0 + 1.9))


def _safe_input(conv, rng, margin=0.03):
    """Sample an input whose conv outputs stay away from the ReLU kink and
    whose positive pool-block maxima are not near-ties, so finite
    differences stay valid."""
    for _ in range(200):
        x = rng.normal(size=(1, 8, 8))
        h = conv.forward(x)
        if np.min(np.abs(h)) < margin:
            continue
        r = np.maximum(h, 0.0)
        blocks = r.reshape(r.shape[0], 3, 2, 3, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4)
        tops = np.sort(blocks, axis=1)[:, -2:]
        gaps = tops[:, 1] - tops[:, 0]
        if np.all((tops[:, 1] <= 0) | (gaps > margin)):
            return x
    raise AssertionError("could not find a finite-difference-safe input")


class TestGradientChecksMultiSeed:
    def test_full_stack_ten_seeds(self):
        for seed in range(10):
            rng = rand.generator(100 + seed, 0)
            conv = Conv2D(1, 2, 3, seed=seed, dtype=np.float64)
            dense = Dense(18, 4, seed=seed + 50, dtype=np.float64)
            relu = ReLU()
            pool = MaxPool2x2()
            x = _safe_input(conv, rng)
            label = int(rng.integers(4))

            def loss():
                h = pool.forward(relu.forward(conv.forward(x)))
                return softmax_xent(dense.forward(h.reshape(-1)), label)[0]

            # analytic pass
            h = pool.forward(relu.forward(conv.forward(x)))
            out = dense.forward(h.reshape(-1))
            _, grad = softmax_xent(out, label)
            g = dense.backward(grad)
            g = pool.backward(g.reshape(h.shape))
            conv.backward(relu.backward(g))
            assert max_rel_error(conv.gw, finite_diff(loss, conv.w, EPS)) < GRAD_TOL
            assert max_rel_error(conv.gb, finite_diff(loss, conv.b, EPS)) < GRAD_TOL
            assert max_rel_error(dense.gw, finite_diff(loss, dense.w, EPS)) < GRAD_TOL
            assert max_rel_error(dense.gb, finite_diff(loss, dense.b, EPS)) < GRAD_TOL
            conv.zero_grad()
            dense.zero_grad()
