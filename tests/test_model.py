import copy

import numpy as np
import pytest

from sparsekit import ToyModel, backward, forward, input_gradient, sgd_step
from sparsekit.adversarial import fgsm_perturb
from sparsekit.errors import ShapeMismatchError
from sparsekit.model import ReLU, cross_entropy, softmax

from oracles import finite_difference, forward_oracle


def small_model(seed=0):
    return ToyModel(channels=1, image_size=4, n_classes=3,
                    conv1_out=3, conv2_out=3, pool=2, seed=seed)


def zero_weights(model):
    for _, layer in model.prunable():
        layer.weight[:] = 0.0
        layer.bias[:] = 0.0
    return model


def test_forward_all_zero_weights_gives_uniform_softmax():
    model = zero_weights(small_model())
    x = np.random.default_rng(0).random((5, 1, 4, 4))
    logits = forward(model, x)
    np.testing.assert_array_equal(logits, np.zeros((5, 3)))
    assert cross_entropy(logits, np.zeros(5, dtype=int)) == pytest.approx(np.log(3))


def test_forward_constant_propagation_through_identity_1x1():
    model = zero_weights(small_model())
    beta = 0.7
    model.conv1.bias[:] = beta
    model.conv2.weight[:] = np.eye(3)[:, :, None, None]  # identity 1x1
    model.fc.weight[:] = 1.0
    # conv1 -> beta everywhere; relu keeps it; 1x1 identity keeps it;
    # pooling of a constant is the constant; fc sums rows of ones.
    x = np.full((2, 1, 4, 4), 0.25)
    logits = forward(model, x)
    expected = beta * model.fc.weight.shape[0]
    np.testing.assert_allclose(logits, np.full((2, 3), expected), atol=1e-12)


def test_forward_matches_reference_loops():
    model = ToyModel(channels=2, image_size=4, n_classes=4,
                     conv1_out=3, conv2_out=4, pool=2, seed=1)
    x = np.random.default_rng(2).standard_normal((3, 2, 4, 4))
    np.testing.assert_allclose(forward(model, x), forward_oracle(model, x), atol=1e-10)


def test_forward_rejects_bad_input_shape():
    model = small_model()
    with pytest.raises(ShapeMismatchError):
        forward(model, np.ones((2, 3, 4, 4)))
    with pytest.raises(ShapeMismatchError):
        forward(model, np.ones((2, 1, 5, 5)))


def _model_loss(model, x, y):
    return cross_entropy(forward(model, x), y)


def test_backward_matches_finite_differences_every_layer():
    model = small_model(seed=3)
    rng = np.random.default_rng(4)
    for _, layer in model.prunable():
        # nonzero biases keep ReLU pre-activations away from the exact
        # kink that zero-bias dead positions would otherwise sit on
        layer.bias[:] = 0.1 * rng.standard_normal(layer.bias.shape)
    x = rng.standard_normal((4, 1, 4, 4)) * 0.5
    y = np.array([0, 1, 2, 0])
    _, grads = backward(model, x, y)
    for name, layer in model.prunable():
        gw, gb = grads[name]
        for arr, grad in ((layer.weight, gw), (layer.bias, gb)):
            flat = arr.reshape(-1)
            picks = rng.choice(flat.size, size=min(12, flat.size), replace=False)
            for i in picks:
                idx = np.unravel_index(i, arr.shape)
                fd = finite_difference(lambda: _model_loss(model, x, y), arr, idx)
                an = grad[idx]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                assert rel < 1e-4, f"{name} {idx}: fd={fd} analytic={an}"


def multi_channel_case(seed=14):
    model = ToyModel(channels=3, image_size=4, n_classes=3,
                     conv1_out=4, conv2_out=5, pool=2, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for _, layer in model.prunable():
        layer.bias[:] = 0.1 * rng.standard_normal(layer.bias.shape)
    x = rng.standard_normal((4, 3, 4, 4)) * 0.5
    return model, x, np.array([0, 1, 2, 0])


def assert_matches_finite_differences(model, x, y, arr, grad, what):
    for idx in np.ndindex(arr.shape):
        fd = finite_difference(lambda: _model_loss(model, x, y), arr, idx)
        an = grad[idx]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
        assert rel < 1e-4, f"{what} {idx}: fd={fd} analytic={an}"


def test_multi_channel_forward_matches_reference_loops():
    model, x, _ = multi_channel_case()
    np.testing.assert_allclose(forward(model, x), forward_oracle(model, x), atol=1e-10)


def test_multi_channel_conv_weight_gradients_match_finite_differences():
    model, x, y = multi_channel_case()
    _, grads = backward(model, x, y)
    for name in ("conv1", "conv2"):
        layer = getattr(model, name)
        assert_matches_finite_differences(model, x, y, layer.weight, grads[name][0], name)


def test_multi_channel_input_gradient_matches_finite_differences():
    model, x, y = multi_channel_case()
    dx = input_gradient(model, x, y)
    assert_matches_finite_differences(model, x, y, x, dx, "input")


def test_backward_zeroes_gradients_at_pruned_positions():
    model = small_model(seed=5)
    rng = np.random.default_rng(6)
    for _, layer in model.prunable():
        layer.mask = (rng.random(layer.mask.shape) > 0.5).astype(float)
    model.apply_masks()
    x = rng.standard_normal((3, 1, 4, 4))
    y = np.array([0, 1, 2])
    _, grads = backward(model, x, y)
    for name, layer in model.prunable():
        gw, _ = grads[name]
        np.testing.assert_array_equal(gw[layer.mask == 0.0], 0.0)


def test_backward_gradient_scales_with_sample_multiplicity():
    model = small_model(seed=7)
    rng = np.random.default_rng(8)
    x1 = rng.standard_normal((1, 1, 4, 4))
    x2 = rng.standard_normal((1, 1, 4, 4))
    y1, y2 = np.array([1]), np.array([2])

    def grad_of(xb, yb):
        return backward(model, xb, yb)[1]["fc"][0].copy()

    g1 = grad_of(x1, y1)
    g2 = grad_of(x2, y2)
    g_dup = grad_of(np.concatenate([x1, x2, x2]), np.array([1, 2, 2]))
    np.testing.assert_allclose(g_dup, (g1 + 2 * g2) / 3.0, atol=1e-12)


def test_backward_input_gradient_available():
    model = small_model(seed=9)
    x = np.random.default_rng(10).standard_normal((2, 1, 4, 4))
    y = np.array([0, 1])
    logits, grads = backward(model, x, y)
    dx = input_gradient(model, x, y)
    assert dx.shape == x.shape
    assert logits.shape == (2, 3)
    assert set(grads) == {"conv1", "conv2", "fc"}


def pass_bytes(logits, grads):
    return logits.tobytes() + b"".join(g.tobytes() for pair in grads.values() for g in pair)


def test_backward_reads_the_batch_it_is_given():
    model, x, y = multi_channel_case()
    fresh = pass_bytes(*backward(copy.deepcopy(model), x, y))
    fresh_dx = input_gradient(copy.deepcopy(model), x, y).tobytes()
    forward(model, x[::-1] + 1.0)  # a different batch through the same layers
    assert pass_bytes(*backward(model, x, y)) == fresh
    forward(model, x[::-1] + 1.0)
    assert input_gradient(model, x, y).tobytes() == fresh_dx
    assert not hasattr(model, "_logits")


def test_backward_twice_in_a_row_gives_the_same_bytes():
    model, x, y = multi_channel_case()
    first = pass_bytes(*backward(model, x, y))
    assert pass_bytes(*backward(model, x, y)) == first
    assert input_gradient(model, x, y).tobytes() == input_gradient(model, x, y).tobytes()


def test_sgd_step_hand_calculated_update():
    model = small_model(seed=11)
    model.fc.weight[0, 0] = 1.0
    grads = {name: (np.zeros_like(l.weight), np.zeros_like(l.bias))
             for name, l in model.prunable()}
    grads["fc"][0][0, 0] = 0.5
    sgd_step(model, grads, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert model.fc.weight[0, 0] == pytest.approx(0.95)
    assert model.fc.vel_w[0, 0] == pytest.approx(0.5)


def test_sgd_step_remasks_weight_and_momentum():
    model = small_model(seed=12)
    model.fc.mask[0, 0] = 0.0
    model.fc.vel_w[0, 0] = 3.0  # stale momentum on a pruned position
    grads = {name: (np.zeros_like(l.weight), np.zeros_like(l.bias))
             for name, l in model.prunable()}
    sgd_step(model, grads, lr=0.1)
    assert model.fc.weight[0, 0] == 0.0
    assert model.fc.vel_w[0, 0] == 0.0


def test_sgd_step_noop_without_gradient_momentum_or_decay():
    model = small_model(seed=13)
    before = {n: (l.weight.copy(), l.bias.copy()) for n, l in model.prunable()}
    grads = {name: (np.zeros_like(l.weight), np.zeros_like(l.bias))
             for name, l in model.prunable()}
    sgd_step(model, grads, lr=0.5, momentum=0.9, weight_decay=0.0)
    for name, layer in model.prunable():
        np.testing.assert_array_equal(layer.weight, before[name][0])
        np.testing.assert_array_equal(layer.bias, before[name][1])


def test_model_shape_chain_validated_at_build():
    with pytest.raises(Exception):
        ToyModel(channels=1, image_size=5, n_classes=3, pool=2, seed=0)


def assert_same_bytes(actual, expected, what):
    assert actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}"
    assert actual.tobytes() == expected.tobytes(), f"{what}: bytes differ"


def loss_gradient(logits, y):
    d = softmax(logits)
    d[np.arange(len(y)), y] -= 1.0
    d /= len(y)
    return d


def zero_buffer_col2im(dout, conv):
    """The conv input gradient as it was: every column summed into a zeroed buffer."""
    K, C, R, S = conv.weight.shape
    B, _, H, W = dout.shape
    cols = np.tensordot(dout, conv.weight, axes=([1], [0]))
    dxp = np.zeros((B, H + R - 1, W + S - 1, C))
    for r in range(R):
        for s in range(S):
            dxp[:, r:r + H, s:s + W] += cols[..., r, s]
    p = conv.pad
    return dxp[:, p:dxp.shape[1] - p, p:dxp.shape[2] - p].transpose(0, 3, 1, 2)


def replaced_formulas_pass(model, x, y):
    """Layer outputs, input gradients and parameter gradients computed with
    the plain formulas written out here: ``np.where`` ReLU, reshape-``mean``
    pooling and zero-buffer col2im. Runs on a copy."""
    model = copy.deepcopy(model)
    conv1, _, conv2, _, pool, flatten, fc = model.layers
    p = model.pool
    a1 = conv1.forward(x)
    r1 = np.where(a1 > 0, a1, 0.0)
    a2 = conv2.forward(r1)
    r2 = np.where(a2 > 0, a2, 0.0)
    B, K, H, W = r2.shape
    pooled = r2.reshape(B, K, H // p, p, W // p, p).mean(axis=(3, 5))
    flat = flatten.forward(pooled)
    logits = fc.forward(flat)
    dlogits = loss_gradient(logits, y)
    fc.backward_params(dlogits)
    dflat = fc.backward(dlogits)
    dpooled = flatten.backward(dflat)
    dr2 = pool.backward(dpooled)
    da2 = np.where(a2 > 0, dr2, 0.0)
    conv2.backward_params(da2)
    dr1 = zero_buffer_col2im(da2, conv2)
    da1 = np.where(a1 > 0, dr1, 0.0)
    conv1.backward_params(da1)
    dx = zero_buffer_col2im(da1, conv1)
    grads = {name: (layer.grad_w, layer.grad_b) for name, layer in model.prunable()}
    return ([a1, r1, a2, r2, pooled, flat, logits],
            [dflat, dpooled, dr2, da2, dr1, da1, dx], grads)


def wide_case_with_exact_zeros(pool, batch, seed=21):
    model = ToyModel(channels=3, image_size=16, n_classes=10,
                     conv1_out=32, conv2_out=32, pool=pool, seed=seed)
    rng = np.random.default_rng(seed)
    for _, layer in model.prunable():
        layer.mask = (rng.random(layer.mask.shape) > 0.5).astype(float)
        layer.bias[:] = 0.1 * rng.standard_normal(layer.bias.shape)
        layer.bias[::2] = 0.0
    model.apply_masks()  # pruned weights become signed zeros
    model.conv1.weight[4] = 0.0  # zero weights and bias: exactly 0 everywhere
    model.conv2.weight[6] = 0.0
    model.conv2.weight[:, 5] = 0.0
    x = rng.standard_normal((batch, 3, 16, 16))
    x[:, :, ::3, ::5] = 0.0
    x[:, 1, 7] = -0.0
    return model, x, rng.integers(0, 10, size=batch)


@pytest.mark.parametrize("pool", [2, 4])
@pytest.mark.parametrize("batch", [32, 64])
def test_layers_match_replaced_formulas_bit_for_bit(pool, batch):
    model, x, y = wide_case_with_exact_zeros(pool, batch)
    outs, input_grads, grads = replaced_formulas_pass(model, x, y)
    h = x
    for i, layer in enumerate(model.layers):
        h = layer.forward(h)
        assert_same_bytes(h, outs[i], f"forward of layer {i}")
    d = loss_gradient(h, y)
    for i, layer in enumerate(reversed(model.layers)):
        if hasattr(layer, "backward_params"):
            layer.backward_params(d)
        d = layer.backward(d)
        assert_same_bytes(d, input_grads[i], f"backward of layer {len(outs) - 1 - i}")
    for name, layer in model.prunable():
        assert_same_bytes(layer.grad_w, grads[name][0], f"{name} grad_w")
        assert_same_bytes(layer.grad_b, grads[name][1], f"{name} grad_b")
    assert_same_bytes(forward(model, x), outs[-1], "logits")
    assert_same_bytes(input_gradient(model, x, y), input_grads[-1], "input gradient")
    logits, module_grads = backward(model, x, y)
    assert_same_bytes(logits, outs[-1], "logits of backward")
    for name, (gw, gb) in module_grads.items():
        assert_same_bytes(gw, grads[name][0], f"{name} grad_w")
        assert_same_bytes(gb, grads[name][1], f"{name} grad_b")


def test_relu_matches_where_on_signed_zeros_and_infinities():
    x = np.array([-np.inf, -2.0, -5e-324, -0.0, 0.0, 5e-324, 3.0, np.inf])
    dout = np.array([-1.0, -0.0, -0.0, -2.0, -0.0, 4.0, 0.0, -3.0])
    relu = ReLU()
    assert_same_bytes(relu.forward(x.copy()), np.where(x > 0, x, 0.0), "forward")
    assert_same_bytes(relu.backward(dout), np.where(x > 0, dout, 0.0), "backward")


def test_relu_backward_gives_nan_for_a_non_finite_gradient_at_an_inactive_unit():
    relu = ReLU()
    relu.forward(np.array([-1.0, -1.0, 2.0, 2.0]))
    with np.errstate(invalid="ignore"):  # inf * 0
        g = relu.backward(np.array([np.inf, np.nan, np.inf, -np.inf]))
    assert np.isnan(g[:2]).all()  # np.where would give 0.0
    assert_same_bytes(g[2:], np.array([np.inf, -np.inf]), "active units")


def test_relu_forward_writes_into_its_input():
    x = np.array([[-1.0, 2.0], [0.5, -0.0]])
    out = ReLU().forward(x)
    assert out is x
    assert_same_bytes(x, np.array([[0.0, 2.0], [0.5, 0.0]]), "input after forward")


def test_nan_pixel_reaches_the_logits():
    model = small_model(seed=15)
    x = np.random.default_rng(16).random((3, 1, 4, 4))
    x[1, 0, 2, 2] = np.nan
    logits = forward(model, x)
    assert np.isnan(logits[1]).all()
    assert np.isfinite(logits[[0, 2]]).all()


def test_forward_and_attack_leave_the_callers_batch_alone():
    model, x, y = multi_channel_case()
    before = x.tobytes()
    first = forward(model, x).copy()
    assert x.tobytes() == before
    assert_same_bytes(forward(model, x), first, "logits of a second forward")
    fgsm_perturb(model, x, y, 0.1, (-np.inf, np.inf))
    assert x.tobytes() == before
    dx = input_gradient(model, x, y)
    assert x.tobytes() == before
    assert_matches_finite_differences(model, x, y, x, dx, "input")
