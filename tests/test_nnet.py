"""Gradient checks against central finite differences, plus optimizer and loss tests."""

import numpy as np
import pytest
from conftest import finite_difference_grads, max_relative_error
from hypothesis import given, settings
from hypothesis import strategies as st

from spd_bci.errors import DataError
from spd_bci.nnet import (
    ADAM_BLOCK,
    LEAKY_SLOPE,
    Attention,
    BatchNorm,
    Dense,
    Dropout,
    Lstm,
    adam_init,
    adam_step,
    backward_chain,
    binary_cross_entropy,
    binary_cross_entropy_with_logits,
    clip_global_norm,
    clip_scale,
    cross_entropy,
    forward_chain,
    load_checkpoint,
    mean_squared_error,
    save_checkpoint,
    sigmoid,
    softmax_cross_entropy_with_logits,
    stable_softmax,
    _activate,
    _activate_backward,
)

GRAD_TOL = 1e-4


def check_block_gradients(make_block, make_input, seeds=range(5)):
    """Analytic vs finite-difference gradients for parameters and the input."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        block = make_block(rng)
        x = make_input(rng)
        projection = np.random.default_rng(seed + 1000).standard_normal(
            block.forward(x, train=True).shape
        )

        def loss():
            return float(np.sum(block.forward(x, train=True) * projection))

        loss()  # populate caches at the unperturbed point
        grad_x = block.backward(projection)
        numeric = finite_difference_grads(loss, {**block.params, "__input__": x})
        for key in block.params:
            err = max_relative_error(block.grads[key], numeric[key])
            assert err < GRAD_TOL, f"seed {seed}, tensor {key}: rel err {err:.2e}"
        err = max_relative_error(grad_x, numeric["__input__"])
        assert err < GRAD_TOL, f"seed {seed}, input: rel err {err:.2e}"


class TestDenseGradients:
    @pytest.mark.parametrize("activation", ["identity", "tanh", "sigmoid", "leaky-relu", "softmax"])
    def test_dense_matches_finite_differences(self, activation):
        check_block_gradients(
            lambda rng: Dense(4, 3, activation, rng=rng),
            lambda rng: rng.standard_normal((5, 4)),
        )


class TestLstm:
    def test_zero_parameters_give_zero_outputs(self):
        lstm = Lstm(3, 4)
        lstm.params["w"][:] = 0.0
        lstm.params["b"][:] = 0.0
        out = lstm.forward(np.random.default_rng(0).standard_normal((2, 5, 3)))
        np.testing.assert_array_equal(out, 0.0)

    def test_hidden_states_bounded_by_one(self):
        rng = np.random.default_rng(1)
        lstm = Lstm(3, 6, rng=rng)
        out = lstm.forward(5.0 * rng.standard_normal((4, 10, 3)))
        assert np.all(np.abs(out) < 1.0)

    def test_gradients_match_finite_differences(self):
        check_block_gradients(
            lambda rng: Lstm(3, 4, rng=rng),
            lambda rng: rng.standard_normal((2, 3, 3)),
        )

    def test_shape_mismatch_raises(self):
        lstm = Lstm(3, 4)
        with pytest.raises(ValueError, match="shape"):
            lstm.forward(np.zeros((2, 5, 7)))

    @staticmethod
    def per_step_reference(lstm, x, grad_out):
        """Output, dx, dw, db and the gate gradients da from one [x_t, h] @ W^T product per step."""
        w, b, nh = lstm.params["w"], lstm.params["b"], lstm.hidden
        batch, length, _ = x.shape
        h, c = np.zeros((batch, nh)), np.zeros((batch, nh))
        out, cache = np.empty((batch, length, nh)), []
        for t in range(length):
            z = np.concatenate([x[:, t], h], axis=1)
            a = z @ w.T + b
            i, f, o = (1.0 / (1.0 + np.exp(-a[:, k * nh:(k + 1) * nh])) for k in range(3))
            g = np.tanh(a[:, 3 * nh:])
            c_prev, c = c, f * c + i * g
            h = o * np.tanh(c)
            out[:, t] = h
            cache.append((z, i, f, o, g, c_prev, np.tanh(c)))
        dw, db = np.zeros_like(w), np.zeros_like(b)
        dx, das = np.empty_like(x), np.empty((batch, length, 4 * nh))
        dh_next, dc_next = np.zeros((batch, nh)), np.zeros((batch, nh))
        for t in reversed(range(length)):
            z, i, f, o, g, c_prev, tanh_c = cache[t]
            dh = grad_out[:, t] + dh_next
            dc = dh * o * (1.0 - tanh_c ** 2) + dc_next
            da = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                                 dh * tanh_c * o * (1.0 - o), dc * i * (1.0 - g ** 2)], axis=1)
            dw += da.T @ z
            db += da.sum(axis=0)
            dz = da @ w
            dx[:, t], dh_next, dc_next = dz[:, :lstm.in_dim], dz[:, lstm.in_dim:], dc * f
            das[:, t] = da
        return out, dx, dw, db, das

    @pytest.mark.parametrize("batch", [1, 10, 32])
    @pytest.mark.parametrize("length", [1, 15])
    def test_time_batched_matches_per_step_reference(self, batch, length):
        rng = np.random.default_rng(100 * batch + length)
        lstm = Lstm(5, 8, rng=rng)
        x = rng.standard_normal((batch, length, 5))
        grad_out = rng.standard_normal((batch, length, 8))
        out = lstm.forward(x)
        dx = lstm.backward(grad_out)
        ref_out, ref_dx, ref_dw, ref_db, _ = self.per_step_reference(lstm, x, grad_out)
        np.testing.assert_allclose(out, ref_out, rtol=1e-12)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12)
        np.testing.assert_allclose(lstm.grads["w"], ref_dw, rtol=1e-12)
        np.testing.assert_allclose(lstm.grads["b"], ref_db, rtol=1e-12)

    @pytest.mark.parametrize("batch,length,in_dim", [(1, 1, 5), (7, 15, 5), (32, 15, 24)])
    def test_weight_gradient_matches_tensordot_form(self, batch, length, in_dim):
        # Oracle: the contraction over batch and time as tensordots of the gate
        # gradients with the inputs and with h_{t-1} (sliced, so step 0 drops out).
        rng = np.random.default_rng(7 * batch + length)
        lstm = Lstm(in_dim, 6, rng=rng)
        x = rng.standard_normal((batch, length, in_dim))
        grad_out = rng.standard_normal((batch, length, 6))
        h = lstm.forward(x)
        lstm.backward(grad_out)
        da = self.per_step_reference(lstm, x, grad_out)[4]
        expected = np.concatenate([
            np.tensordot(da, x, axes=([0, 1], [0, 1])),
            np.tensordot(da[:, 1:], h[:, :-1], axes=([0, 1], [0, 1])),
        ], axis=1)
        assert max_relative_error(lstm.grads["w"], expected) <= 1e-12

    @staticmethod
    def full_size_reference(lstm, x, grad_out):
        """Output, dx, dw and db with every local derivative a full-size array of its own.

        The plain expressions the buffered backward rearranges: each of its products
        keeps the same two factors, so it must match these bit for bit.
        """
        nh, w, in_dim = lstm.hidden, lstm.params["w"], lstm.in_dim
        batch, length, _ = x.shape
        w_h_t = w[:, in_dim:].T
        gates = x.reshape(-1, in_dim) @ w[:, :in_dim].T + lstm.params["b"]
        gates = gates.reshape(batch, length, 4 * nh)
        cells = np.zeros((batch, length + 1, nh))
        tanh_c = np.empty((batch, length, nh))
        h = np.empty((batch, length, nh))
        for t in range(length):
            a = gates[:, t]
            if t:
                a += h[:, t - 1] @ w_h_t
            a[:, :3 * nh] = sigmoid(a[:, :3 * nh])
            np.tanh(a[:, 3 * nh:], out=a[:, 3 * nh:])
            i, f, o, g = (a[:, k * nh:(k + 1) * nh] for k in range(4))
            cells[:, t + 1] = f * cells[:, t] + i * g
            np.tanh(cells[:, t + 1], out=tanh_c[:, t])
            np.multiply(o, tanh_c[:, t], out=h[:, t])
        i, f, o, g = (gates[..., k * nh:(k + 1) * nh] for k in range(4))
        sig = gates[..., :3 * nh]
        d_sig = sig * (1.0 - sig)
        d_g = 1.0 - g ** 2
        d_c = o * (1.0 - tanh_c ** 2)
        w_h = w[:, in_dim:]
        da = np.empty_like(gates)
        dh_next = np.zeros((batch, nh))
        dc_next = np.zeros((batch, nh))
        for t in reversed(range(length)):
            dh = grad_out[:, t] + dh_next
            dc = dh * d_c[:, t] + dc_next
            da_t = da[:, t]
            np.multiply(dc, g[:, t], out=da_t[:, :nh])
            np.multiply(dc, cells[:, t], out=da_t[:, nh:2 * nh])
            np.multiply(dh, tanh_c[:, t], out=da_t[:, 2 * nh:3 * nh])
            np.multiply(dc, i[:, t], out=da_t[:, 3 * nh:])
            da_t[:, :3 * nh] *= d_sig[:, t]
            da_t[:, 3 * nh:] *= d_g[:, t]
            dc_next = dc * f[:, t]
            if t:
                dh_next = da_t @ w_h
        flat = da.reshape(-1, 4 * nh)
        h_prev = np.zeros_like(h)
        h_prev[:, 1:] = h[:, :-1]
        dw = np.concatenate([flat.T @ x.reshape(-1, in_dim), flat.T @ h_prev.reshape(-1, nh)],
                            axis=1)
        db = np.sum(flat, axis=0)
        dx = (flat @ w[:, :in_dim]).reshape(batch, length, in_dim)
        return h, dx, dw, db

    @pytest.mark.parametrize("batch,length,in_dim,hidden",
                             [(1, 1, 5, 4), (7, 15, 5, 8), (32, 15, 24, 16), (32, 15, 256, 256)])
    def test_backward_is_bit_identical_to_full_size_derivatives(self, batch, length, in_dim,
                                                                 hidden):
        rng = np.random.default_rng(batch + length + in_dim + hidden)
        lstm = Lstm(in_dim, hidden, rng=rng)
        lstm.params["b"] = rng.standard_normal(4 * hidden)
        x = rng.standard_normal((batch, length, in_dim))
        grad_out = rng.standard_normal((batch, length, hidden))
        out = lstm.forward(x)
        dx = lstm.backward(grad_out)
        ref_out, ref_dx, ref_dw, ref_db = self.full_size_reference(lstm, x, grad_out)
        assert out.tobytes() == ref_out.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()
        assert lstm.grads["w"].tobytes() == ref_dw.tobytes()
        assert lstm.grads["b"].tobytes() == ref_db.tobytes()


class TestAttention:
    def test_identical_states_get_uniform_weights(self):
        rng = np.random.default_rng(2)
        att = Attention(4, rng=rng)
        h = np.tile(rng.standard_normal((1, 1, 4)), (3, 2, 1))
        context = att.forward(h)
        np.testing.assert_allclose(att.weights, 0.5, atol=1e-12)
        np.testing.assert_allclose(context, h[:, 0, :], atol=1e-12)

    def test_single_step_gets_full_weight(self):
        rng = np.random.default_rng(3)
        att = Attention(4, rng=rng)
        h = rng.standard_normal((2, 1, 4))
        context = att.forward(h)
        np.testing.assert_allclose(att.weights, 1.0)
        np.testing.assert_allclose(context, h[:, 0, :])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_weights_are_a_distribution(self, seed):
        rng = np.random.default_rng(seed)
        att = Attention(3, rng=rng)
        h = rng.standard_normal((2, 5, 3))
        att.forward(h)
        assert np.all(att.weights >= 0.0)
        np.testing.assert_allclose(att.weights.sum(axis=1), 1.0, atol=1e-12)

    def test_context_in_convex_hull_interval(self):
        # With scalar weights per step, each context coordinate lies between
        # the min and max of that coordinate across the sequence.
        rng = np.random.default_rng(4)
        att = Attention(3, rng=rng)
        h = rng.standard_normal((4, 6, 3))
        context = att.forward(h)
        assert np.all(context <= h.max(axis=1) + 1e-12)
        assert np.all(context >= h.min(axis=1) - 1e-12)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal((3, 7))
        np.testing.assert_allclose(
            stable_softmax(scores, axis=1),
            stable_softmax(scores + 123.456, axis=1),
            atol=1e-12,
        )

    def test_gradients_match_finite_differences(self):
        check_block_gradients(
            lambda rng: Attention(3, rng=rng),
            lambda rng: rng.standard_normal((2, 4, 3)),
        )

    @pytest.mark.parametrize("batch,length,hidden", [(1, 1, 3), (5, 7, 4), (32, 15, 16)])
    def test_weight_gradient_matches_einsum_form(self, batch, length, hidden):
        # Oracle: the score-path gradient da rebuilt from the cached activations,
        # contracted over batch and time with einsum.
        rng = np.random.default_rng(11 * batch + length)
        att = Attention(hidden, rng=rng)
        h = rng.standard_normal((batch, length, hidden))
        grad_context = rng.standard_normal((batch, hidden))
        att.forward(h)
        # The scorer's cached tanh scores; its backward reuses their buffer.
        u = att.scorer._cache[1].reshape(h.shape).copy()
        att.backward(grad_context)
        alpha = att.weights
        dalpha = np.einsum("bh,blh->bl", grad_context, h)
        dscores = alpha * (dalpha - np.sum(dalpha * alpha, axis=1, keepdims=True))
        da = dscores[:, :, None] * (1.0 - u ** 2)
        np.testing.assert_array_equal(att.grads["b"], da.sum(axis=(0, 1)))  # same da
        expected = np.einsum("bla,blh->ah", da, h)
        assert max_relative_error(att.grads["w"], expected) <= 1e-12

    @pytest.mark.parametrize("batch,length,hidden", [(1, 1, 3), (5, 7, 4), (32, 15, 16)])
    def test_flat_products_match_batched_form(self, batch, length, hidden):
        # Oracle: h_seq @ W.T and da @ W on the 3-D (batch, length, H) arrays.
        rng = np.random.default_rng(7 * batch + length)
        att = Attention(hidden, rng=rng)
        att.params["b"] = rng.standard_normal(hidden)
        h = rng.standard_normal((batch, length, hidden))
        grad_context = rng.standard_normal((batch, hidden))
        att.forward(h)
        cached_u = att.scorer._cache[1].reshape(h.shape).copy()  # the backward reuses it
        dh = att.backward(grad_context)
        w, alpha = att.params["w"], att.weights
        u = np.tanh(h @ w.T + att.params["b"])
        assert max_relative_error(cached_u, u) <= 1e-12
        dalpha = np.einsum("bh,blh->bl", grad_context, h)
        dscores = alpha * (dalpha - np.sum(dalpha * alpha, axis=1, keepdims=True))
        da = dscores[:, :, None] * (1.0 - u ** 2)
        expected = alpha[:, :, None] * grad_context[:, None, :] + da @ w
        assert max_relative_error(dh, expected) <= 1e-12


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = np.random.default_rng(6).standard_normal((4, 5))
        out = Dropout(0.0).forward(x, train=True, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_eval_mode_is_identity(self):
        x = np.random.default_rng(7).standard_normal((4, 5))
        out = Dropout(0.7).forward(x, train=False, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(8)
        out = Dropout(0.5).forward(np.ones(1_000_000), train=True, rng=rng)
        assert out.mean() == pytest.approx(1.0, abs=0.01)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError, match="rate"):
            Dropout(1.0)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5)
        x = np.ones((3, 4))
        out = layer.forward(x, train=True, rng=np.random.default_rng(9))
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, out)


class TestBatchNorm:
    def test_train_mode_standardizes(self):
        rng = np.random.default_rng(10)
        bn = BatchNorm(3)
        x = 5.0 + 2.0 * rng.standard_normal((200, 3))
        y = bn.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-3)

    def test_eval_uses_running_statistics(self):
        rng = np.random.default_rng(11)
        bn = BatchNorm(2)
        for _ in range(300):
            bn.forward(3.0 + rng.standard_normal((64, 2)), train=True)
        y = bn.forward(np.full((4, 2), 3.0), train=False)
        np.testing.assert_allclose(y, 0.0, atol=0.1)

    def test_gradients_match_finite_differences(self):
        check_block_gradients(
            lambda rng: BatchNorm(3),
            lambda rng: rng.standard_normal((6, 3)),
        )
        # A sequence, as after an LSTM layer: statistics pool batch and time.
        check_block_gradients(
            lambda rng: BatchNorm(3, activation="leaky-relu"),
            lambda rng: rng.standard_normal((4, 5, 3)),
        )

    def test_sequence_with_leaky_relu_equals_flattened_reference(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 5, 3))
        grad = rng.standard_normal(x.shape)
        block = BatchNorm(3, momentum=0.01, activation="leaky-relu")
        reference = BatchNorm(3, momentum=0.01)
        for bn in (block, reference):
            bn.params["gamma"][:] = [0.5, 1.5, -1.0]
            bn.params["beta"][:] = [0.1, -0.2, 0.3]
        for train in (True, False):
            y = block.forward(x, train=train)
            z = reference.forward(x.reshape(-1, 3), train=train)
            expected = np.where(z > 0.0, z, LEAKY_SLOPE * z).reshape(x.shape)
            assert y.shape == x.shape and y.tobytes() == expected.tobytes()
            if not train:  # an inference forward caches nothing to backpropagate
                with pytest.raises(RuntimeError, match="^BatchNorm.backward needs a training"):
                    block.backward(grad)
                continue
            dx = block.backward(grad)
            slope = np.where(z > 0.0, 1.0, LEAKY_SLOPE)
            expected = reference.backward(grad.reshape(-1, 3) * slope).reshape(x.shape)
            assert dx.tobytes() == expected.tobytes()
            for store in ("grads", "buffers"):
                for key, arr in getattr(reference, store).items():
                    assert getattr(block, store)[key].tobytes() == arr.tobytes(), key


    @staticmethod
    def full_size_reference(bn, x, grad, train):
        """Output, dx and the gamma/beta gradients, each term a full-size array of its own.

        The plain expressions, with the leaky ReLU and its slope taken from z by
        ``np.where``; the cached-output, in-place block must match them bit for bit.
        An inference forward has no backward, so its dx is None.
        """
        flat = x.reshape(-1, x.shape[-1])
        if train:
            mean, var = flat.mean(axis=0), flat.var(axis=0)
        else:
            mean, var = bn.running_mean, bn.running_var
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        xhat = (flat - mean) * inv_std
        z = bn.params["gamma"] * xhat + bn.params["beta"]
        dz = grad.reshape(-1, grad.shape[-1])
        if bn.activation == "leaky-relu":
            y = np.where(z > 0.0, z, LEAKY_SLOPE * z)
            dz = dz * np.where(z > 0.0, 1.0, LEAKY_SLOPE)
        else:
            y = z
        dgamma = np.sum(dz * xhat, axis=0)
        dbeta = np.sum(dz, axis=0)
        dxhat = dz * bn.params["gamma"]
        if not train:
            return y.reshape(x.shape), None, dgamma, dbeta
        n = dz.shape[0]
        dx = (inv_std / n) * (
            n * dxhat - np.sum(dxhat, axis=0) - xhat * np.sum(dxhat * xhat, axis=0)
        )
        return y.reshape(x.shape), dx.reshape(x.shape), dgamma, dbeta

    @pytest.mark.parametrize("shape", [(6, 3), (4, 5, 3), (32, 15, 256)])
    @pytest.mark.parametrize("activation", ["identity", "leaky-relu"])
    def test_backward_is_bit_identical_to_full_size_terms(self, shape, activation):
        rng = np.random.default_rng(sum(shape))
        bn = BatchNorm(shape[-1], momentum=0.01, activation=activation)
        bn.params["gamma"] = rng.standard_normal(shape[-1])
        bn.params["beta"] = rng.standard_normal(shape[-1])
        x = 2.0 + rng.standard_normal(shape)
        for train in (True, False):
            grad = rng.standard_normal(shape)
            expected = self.full_size_reference(bn, x, grad, train)
            y = bn.forward(x, train=train)
            assert y.shape == shape and y.tobytes() == expected[0].tobytes(), (train, "y")
            if not train:  # an inference forward caches nothing to backpropagate
                with pytest.raises(RuntimeError, match="^BatchNorm.backward needs a training"):
                    bn.backward(grad)
                continue
            dx = bn.backward(grad)
            got = (dx, bn.grads["gamma"], bn.grads["beta"])
            for name, a, b in zip(("dx", "dgamma", "dbeta"), got, expected[1:]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (train, name)


class TestLeakyRelu:
    VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                       -2.2250738585072014e-308, 1.0, -1.0, 1e300, -1e300, 1.7976931348623157e308,
                       -1.7976931348623157e308, np.inf, -np.inf])

    def test_maximum_form_is_bit_identical_to_where_form(self):
        z = np.concatenate([self.VALUES, np.random.default_rng(18).standard_normal(1000)])
        y = _activate(z.copy(), "leaky-relu")  # it writes into its input
        assert y.tobytes() == np.where(z > 0.0, z, LEAKY_SLOPE * z).tobytes()
        # -0.0 stays -0.0, and the smallest negative subnormal rounds to -0.0 in both forms.
        assert np.signbit(y[1]) and y[3] == 0.0 and np.signbit(y[3])

    def test_slope_from_the_output_equals_slope_from_the_input(self):
        z = np.concatenate([self.VALUES, np.random.default_rng(19).standard_normal(1000)])
        grad = np.random.default_rng(20).standard_normal(z.shape)
        dz = _activate_backward(grad, _activate(z.copy(), "leaky-relu"), "leaky-relu")
        assert dz.tobytes() == (grad * np.where(z > 0.0, 1.0, LEAKY_SLOPE)).tobytes()


CACHING_BLOCKS = pytest.mark.parametrize("make_block, shape, name", [
    (lambda: Lstm(3, 4), (2, 5, 3), "Lstm"),
    (lambda: BatchNorm(3, activation="leaky-relu"), (4, 5, 3), "BatchNorm"),
    (lambda: Attention(3), (4, 5, 3), "Attention"),
    (lambda: Dense(3, 2, "tanh"), (4, 3), "Dense"),
    (lambda: Dropout(0.5), (4, 3), "Dropout"),
    (lambda: Dropout(0.0), (4, 3), "Dropout"),
], ids=["lstm", "batchnorm", "attention", "dense", "dropout", "dropout-rate-0"])


class TestGradientBuffers:
    """A block's gradient buffers are made by its first backward, not at construction."""

    @CACHING_BLOCKS
    def test_first_backward_makes_the_gradient_buffers(self, make_block, shape, name):
        block = make_block()
        assert block.grads == {}
        x = np.random.default_rng(32).standard_normal(shape)
        y = block.forward(x, train=False)
        block.forward(x, rng=np.random.default_rng(0))
        assert block.grads == {}  # no forward makes them
        block.backward(np.ones_like(y), input_grad=False)
        assert list(block.grads) == list(block.params)
        for key, grad in block.grads.items():
            assert grad.shape == block.params[key].shape and grad.dtype == np.float64, key

    def test_attention_shares_the_buffers_its_scorer_makes(self):
        att = Attention(3, rng=np.random.default_rng(33))
        att.forward(np.random.default_rng(34).standard_normal((2, 4, 3)))
        att.backward(np.ones((2, 3)))
        assert att.grads is att.scorer.grads and list(att.grads) == ["w", "b"]


class TestBackwardConsumesTheCache:
    @CACHING_BLOCKS
    def test_second_backward_without_a_forward_raises_naming_the_block(self, make_block,
                                                                       shape, name):
        block = make_block()
        with pytest.raises(RuntimeError, match=f"^{name}.backward needs a training forward"):
            block.backward(np.ones(shape))
        x = np.random.default_rng(19).standard_normal(shape)
        rng = np.random.default_rng(0)  # only dropout draws from it
        y = block.forward(x, rng=rng)
        block.backward(np.ones_like(y))
        with pytest.raises(RuntimeError, match=f"^{name}.backward needs a training forward"):
            block.backward(np.ones_like(y))
        block.forward(x, rng=rng)
        block.backward(np.ones_like(y))

    @CACHING_BLOCKS
    def test_inference_forward_caches_nothing_and_drops_a_training_cache(self, make_block,
                                                                         shape, name):
        block = make_block()
        x = np.random.default_rng(20).standard_normal(shape)
        y = block.forward(x, train=False)
        assert block._cache is None
        with pytest.raises(RuntimeError, match=f"^{name}.backward needs a training forward"):
            block.backward(np.ones_like(y))
        # A training forward's unused cache goes with the next inference forward.
        block.forward(x, train=True, rng=np.random.default_rng(0))
        block.forward(x, train=False)
        assert block._cache is None
        with pytest.raises(RuntimeError, match=f"^{name}.backward needs a training forward"):
            block.backward(np.ones_like(y))

    def test_attention_weights_are_none_before_any_forward(self):
        assert Attention(3, rng=np.random.default_rng(21)).weights is None

    def test_attention_weights_outlive_the_backward(self):
        att = Attention(3, rng=np.random.default_rng(21))
        att.forward(np.random.default_rng(22).standard_normal((4, 5, 3)))
        weights = att.weights.copy()
        att.backward(np.ones((4, 3)))
        assert att.weights.tobytes() == weights.tobytes()


class TestBackwardOverwrites:
    """A backward pass writes the gradients; it does not add to those of an earlier pass."""

    @pytest.mark.parametrize("make_block, shape", [
        (lambda rng: Dense(4, 3, "leaky-relu", rng=rng), (5, 4)),
        (lambda rng: Dense(4, 3, "softmax", rng=rng), (5, 4)),
        (lambda rng: Lstm(3, 4, rng=rng), (2, 5, 3)),
        (lambda rng: Attention(4, rng=rng), (2, 5, 4)),
        (lambda rng: BatchNorm(3), (6, 3)),
        (lambda rng: BatchNorm(3, activation="leaky-relu"), (4, 5, 3)),
    ], ids=["dense", "dense-softmax", "lstm", "attention", "batchnorm", "batchnorm-sequence"])
    def test_second_backward_leaves_only_its_own_gradients(self, make_block, shape):
        # A backward consumes its forward's activations, so each runs after its own forward.
        x = np.random.default_rng(15).standard_normal(shape)
        twice, once = make_block(np.random.default_rng(16)), make_block(np.random.default_rng(16))
        y = twice.forward(x)
        once.forward(x)
        first, second = np.random.default_rng(17).standard_normal((2, *y.shape))
        twice.backward(first)
        twice.forward(x)
        dx_twice = twice.backward(second)
        dx_once = once.backward(second)
        assert dx_twice.tobytes() == dx_once.tobytes()
        for key, grad in once.grads.items():
            assert twice.grads[key].tobytes() == grad.tobytes(), key


def test_every_block_class_runs_in_a_chain():
    """Each block has ``forward(x, train=True, rng=None)``, so any list of them is a chain."""
    rng = np.random.default_rng(12)
    chain = [Lstm(3, 4, rng=rng), Attention(4, rng=rng), Dense(4, 3, rng=rng), BatchNorm(3),
             Dropout(0.5)]
    x = rng.standard_normal((5, 6, 3))
    for train in (True, False):
        y = forward_chain(chain, x, train=train, rng=np.random.default_rng(13))
        assert y.shape == (5, 3) and np.all(np.isfinite(y))
        if train:
            assert backward_chain(chain, np.ones_like(y)).shape == x.shape
        else:  # an inference forward caches nothing, so the chain has no backward
            with pytest.raises(RuntimeError, match="^Dropout.backward needs a training"):
                backward_chain(chain, np.ones_like(y))


class TestLosses:
    def test_cross_entropy_of_perfect_prediction_is_zero(self):
        onehot = np.array([[0.0, 1.0, 0.0]])
        assert cross_entropy(onehot, onehot) == 0.0

    def test_mse_example(self):
        loss, _ = mean_squared_error(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(1.0)

    def test_bce_half_is_log_two(self):
        assert binary_cross_entropy(np.array([0.5]), np.array([1.0])) == pytest.approx(
            np.log(2.0)
        )

    def test_probability_floor_keeps_losses_finite(self):
        assert np.isfinite(cross_entropy(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])))
        assert np.isfinite(binary_cross_entropy(np.array([0.0]), np.array([1.0])))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cross_entropy_nonnegative_and_zero_only_at_target(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((4, 3))
        probs = stable_softmax(logits, axis=1)
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), rng.integers(0, 3, size=4)] = 1.0
        loss = cross_entropy(probs, onehot)
        assert loss > 0.0  # softmax of finite logits is never exactly one-hot

    def test_fused_softmax_ce_gradient(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((3, 4))
        onehot = np.zeros((3, 4))
        onehot[np.arange(3), [1, 0, 3]] = 1.0
        _, grad = softmax_cross_entropy_with_logits(logits, onehot)
        numeric = finite_difference_grads(
            lambda: softmax_cross_entropy_with_logits(logits, onehot)[0], {"x": logits}
        )
        assert max_relative_error(grad, numeric["x"]) < GRAD_TOL

    def test_fused_bce_gradient(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((5, 1))
        y = rng.integers(0, 2, size=(5, 1)).astype(float)
        _, grad = binary_cross_entropy_with_logits(logits, y)
        numeric = finite_difference_grads(
            lambda: binary_cross_entropy_with_logits(logits, y)[0], {"x": logits}
        )
        assert max_relative_error(grad, numeric["x"]) < GRAD_TOL


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.3, -4.0])}
        state = adam_init(params)
        adam_step(state, params, grads)
        np.testing.assert_allclose(
            params["w"], [1.0 - 0.001, -2.0 + 0.001], atol=1e-7
        )

    def test_zero_gradient_leaves_parameters(self):
        params = {"w": np.array([1.0, 2.0])}
        state = adam_init(params)
        adam_step(state, params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], [1.0, 2.0])

    def test_ten_step_trace_matches_hand_computation(self):
        # Independent oracle: scalar Adam in plain Python floats on the
        # quadratic f(x) = x^2 / 2, gradient x.
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        x = 0.7
        m = v = 0.0
        oracle_trace = []
        for t in range(1, 11):
            g = x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            x = x - lr * m_hat / (v_hat**0.5 + eps)
            oracle_trace.append(x)

        params = {"x": np.array([0.7])}
        state = adam_init(params)
        trace = []
        for _ in range(10):
            adam_step(state, params, {"x": params["x"].copy()})
            trace.append(float(params["x"][0]))
        np.testing.assert_allclose(trace, oracle_trace, atol=1e-12)

    @staticmethod
    def textbook_step(p, m, v, g, step, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g ** 2
        p = p - lr * (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + eps)
        return p, m, v

    @pytest.mark.parametrize("shape", [(3, ADAM_BLOCK + 123), (ADAM_BLOCK,), (), (1,)])
    def test_blocked_update_is_bit_identical_to_textbook(self, shape):
        # Odd steps are clipped: adam_step's factor must match scaling the grads first.
        rng = np.random.default_rng(7)
        start = np.asarray(rng.standard_normal(shape))
        params = {"w": start.copy(), "b": np.zeros(4)}
        state = adam_init(params)
        p, m, v = start.copy(), np.zeros(shape), np.zeros(shape)
        clipped, size = 0, max(1, int(np.prod(shape)))
        for step in range(1, 6):
            g = np.asarray(rng.standard_normal(shape) * (40.0 if step % 2 else 0.5 / np.sqrt(size)))
            grads = {"w": g, "b": np.ones(4)}
            given = g.copy()
            scale = clip_scale(clip_global_norm(grads), 5.0)
            clipped += scale != 1.0
            adam_step(state, params, grads, scale)
            p, m, v = self.textbook_step(p, m, v, g * scale, step)
            assert params["w"].tobytes() == p.tobytes()
            assert state.m["w"].tobytes() == m.tobytes()
            assert state.v["w"].tobytes() == v.tobytes()
            assert g.tobytes() == given.tobytes()
        assert clipped == 3

    def test_moments_are_made_by_the_first_step_with_the_textbook_bits(self):
        # Starting from m = v = 0, the first step writes b1*0 + s as s + 0.0. Signed zeros
        # in the parameters and gradients check that a -0.0 comes out as the sum makes it.
        rng = np.random.default_rng(8)
        start = rng.standard_normal((3, 40))
        start[0, :10] = 0.0
        start[0, 10:20] = -0.0
        params = {"w": start.copy()}
        state = adam_init(params)
        assert state.m == {} and state.v == {}
        p, m, v = start.copy(), np.zeros(start.shape), np.zeros(start.shape)
        scales = []
        for step in range(1, 4):
            g = rng.standard_normal(start.shape) * (40.0 if step == 2 else 0.1)
            g[0, ::2] = 0.0
            g[0, 1::2] = -0.0
            g[1, :5] = -0.0
            scale = clip_scale(clip_global_norm({"w": g}), 5.0)
            scales.append(scale)
            adam_step(state, params, {"w": g}, scale)
            p, m, v = self.textbook_step(p, m, v, g * scale, step)
            assert params["w"].tobytes() == p.tobytes()
            assert state.m["w"].tobytes() == m.tobytes()
            assert state.v["w"].tobytes() == v.tobytes()
        assert [s != 1.0 for s in scales] == [False, True, False]

    def test_non_contiguous_parameter_rejected(self):
        params = {"w": np.zeros((4, 6))[:, ::2]}
        state = adam_init(params)
        with pytest.raises(ValueError, match="contiguous"):
            adam_step(state, params, {"w": np.ones((4, 3))})


class TestClipGlobalNorm:
    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.1, 0.2])}
        assert clip_scale(clip_global_norm(grads), 5.0) == 1.0
        np.testing.assert_array_equal(grads["a"], [0.1, 0.2])

    def test_large_norm_returned_and_gradients_left_unscaled(self):
        grads = {"a": np.array([30.0, 40.0]), "b": np.zeros((2, 3))}
        assert clip_global_norm(grads) == 50.0
        assert clip_scale(50.0, 5.0) == 0.1
        np.testing.assert_array_equal(grads["a"], [30.0, 40.0])
        np.testing.assert_array_equal(grads["b"], 0.0)

    def test_norm_is_the_blockwise_sum_of_squares(self):
        # The summation order is part of the result: per tensor, per ADAM_BLOCK,
        # each block's squares summed by numpy and added as a Python float.
        rng = np.random.default_rng(3)
        grads = {"w": rng.standard_normal((3, ADAM_BLOCK + 17)), "b": rng.standard_normal(5)}
        before = {k: g.copy() for k, g in grads.items()}
        total = 0.0
        for g in grads.values():
            flat = g.reshape(-1)
            for lo in range(0, flat.size, ADAM_BLOCK):
                total += float(np.square(flat[lo:lo + ADAM_BLOCK]).sum())
        assert clip_global_norm(grads).hex() == np.sqrt(total).hex()
        for key, g in grads.items():
            assert g.tobytes() == before[key].tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_norm_applies_no_factor(self, bad):
        grads = {"a": np.array([bad, 40.0])}
        norm = clip_global_norm(grads)
        assert not np.isfinite(norm)
        assert clip_scale(norm, 5.0) == 1.0
        np.testing.assert_array_equal(grads["a"], [bad, 40.0])


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        a = Dense(4, 3, rng=np.random.default_rng(42))
        b = Dense(4, 3, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a.params["w"], b.params["w"])


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        tensors = {
            "layer.w": rng.standard_normal((3, 4)),
            "layer.b": rng.standard_normal(4),
            "scalar": np.array(2.5),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for key in tensors:
            np.testing.assert_array_equal(loaded[key], tensors[key])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncation_reports_offset(self, tmp_path):
        rng = np.random.default_rng(15)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": rng.standard_normal((4, 4))})
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(DataError, match="offset"):
            load_checkpoint(path)


class TestSigmoid:
    def test_matches_reference_on_wide_range(self):
        z = np.linspace(-500.0, 500.0, 2001)
        out = sigmoid(z)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        mid = np.abs(z) < 30
        np.testing.assert_allclose(out[mid], 1.0 / (1.0 + np.exp(-z[mid])), rtol=1e-12)

    @staticmethod
    def two_branch(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def test_bit_identical_to_two_branch_formula(self):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                   1e-310, -1e-310, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2]
        z = np.concatenate([np.linspace(-800.0, 800.0, 160_001), special])
        with np.errstate(over="ignore", invalid="ignore"):
            assert sigmoid(z).tobytes() == self.two_branch(z).tobytes()
