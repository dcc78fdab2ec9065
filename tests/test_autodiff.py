"""Forward-op correctness and gradient checks for the tensor core."""

import threading
import warnings

import numpy as np
import pytest

from helpers import numeric_grad, rel_err
import reference
from reference import neg, sigmoid, tanh

import tagparse.autodiff as ad
from tagparse.autodiff import ShapeError, Tensor


def scalar_loss(t, weights):
    """Reduce any-output op to a scalar with fixed weights."""
    return ad.reduce_sum(ad.mul(t, Tensor(weights)))


class TestForwardValues:
    def test_matmul_identity(self):
        a = np.arange(12.0).reshape(3, 4)
        out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.value, a)

    def test_matmul_vs_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(7, 5)), rng.normal(size=(5, 4))
        want = np.zeros((7, 4))
        for i in range(7):
            for j in range(4):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        got = ad.matmul(Tensor(a), Tensor(b)).value
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_cross_entropy_probabilities_sum_to_one(self):
        # exp(-loss) over every target of a row is the row's softmax
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 11)) * 10
        probs = np.stack([np.exp(-ad.cross_entropy_with_logits(Tensor(x), np.full(8, c)).value)
                          for c in range(11)], axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_cross_entropy_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = rng.normal(size=(1, 9)) * 5
            c = rng.normal() * 100
            targets = np.array([int(rng.integers(0, 9))])
            l0 = ad.cross_entropy_with_logits(Tensor(v), targets).value
            l1 = ad.cross_entropy_with_logits(Tensor(v + c), targets).value
            np.testing.assert_allclose(l0, l1, atol=1e-9)

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(Tensor([-1e4, -50.0, 0.0, 50.0, 1e4])).value
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[2], 0.5)

    def test_sigmoid_array_raises_no_warning(self):
        x = np.array([-1e4, -800.0, -np.inf, np.inf, 0.0, -0.0, np.nan, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.sigmoid_array(x)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 1.0, 0.5, 0.5, np.nan, 1.0])

    def test_sigmoid_array_matches_sign_split_form(self):
        x = np.linspace(-40.0, 40.0, 100_001)
        np.testing.assert_allclose(ad.sigmoid_array(x), reference.sigmoid_array(x),
                                   rtol=1e-15, atol=0)

    def test_sigmoid_array_writes_into_out(self):
        x = np.random.default_rng(0).normal(size=(3, 8))
        want = ad.sigmoid_array(x)
        out = np.empty_like(x)
        assert ad.sigmoid_array(x, out=out) is out
        np.testing.assert_array_equal(out, want)
        assert ad.sigmoid_array(x, out=x) is x  # in place
        np.testing.assert_array_equal(x, want)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 7)))
        losses = ad.cross_entropy_with_logits(logits, np.array([0, 1, 2, 6]))
        np.testing.assert_allclose(losses.value, np.log(7.0), atol=1e-12)

    def test_cross_entropy_stable_on_large_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        losses = ad.cross_entropy_with_logits(logits, np.array([0, 0]))
        assert np.all(np.isfinite(losses.value))

    def test_conv1d_matches_sliding_window(self):
        rng = np.random.default_rng(3)
        x, f = rng.normal(size=(9, 4)), rng.normal(size=(3, 4, 6))
        out = ad.conv1d(Tensor(x), Tensor(f)).value
        for t in range(7):
            for o in range(6):
                want = sum(x[t + w, c] * f[w, c, o] for w in range(3) for c in range(4))
                assert abs(out[t, o] - want) < 1e-12

    def test_stacked_matmul_is_one_matmul_per_item(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 2))
        out = ad.matmul(Tensor(a), Tensor(b)).value
        for k in range(3):
            np.testing.assert_allclose(out[k], a[k] @ b[k], atol=1e-12, rtol=0)

    def test_batched_conv1d_is_one_conv_per_sequence(self):
        rng = np.random.default_rng(7)
        x, f = rng.normal(size=(2, 3, 9, 4)), rng.normal(size=(4, 4, 6))
        out = ad.conv1d(Tensor(x), Tensor(f)).value
        assert out.shape == (2, 3, 6, 6)
        for i in range(2):
            for j in range(3):
                want = ad.conv1d(Tensor(x[i, j]), Tensor(f)).value
                np.testing.assert_allclose(out[i, j], want, atol=1e-12, rtol=0)

    def test_embedding_lookup_gathers_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.embedding_lookup(table, np.array([[3, 0], [1, 1]]))
        np.testing.assert_array_equal(out.value, table.value[[[3, 0], [1, 1]]])


@pytest.mark.parametrize("ids", [
    np.array([[3, 0], [5, 1]]),              # no repeats: one scatter
    np.array([[3, 0], [3, 3]]),              # repeats: accumulated
    np.array([4, -2]),                       # the same row, once by a negative index
    np.zeros((0,), dtype=np.int64),
], ids=["unique", "repeated", "negative-alias", "empty"])
def test_embedding_lookup_backward_matches_add_at(ids):
    table = ad.parameter(np.random.default_rng(3).normal(size=(6, 4)))
    g = np.random.default_rng(4).normal(size=ids.shape + (4,))
    out = ad.embedding_lookup(table, ids)
    ad.backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
    want = np.zeros((6, 4))
    np.add.at(want, ids.reshape(-1), g.reshape(-1, 4))
    np.testing.assert_array_equal(table.grad, want)


class TestShapeErrors:
    def test_matmul_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(7, 5\).*\(4, 4\)"):
            ad.matmul(Tensor(np.zeros((7, 5))), Tensor(np.zeros((4, 4))))

    @pytest.mark.parametrize("a, b", [((2, 3, 4), (3, 4, 5)), ((2, 3, 4), (4, 5)),
                                      ((3, 4), (2, 4, 5)), ((2, 3, 4), (2, 3, 5))])
    def test_matmul_needs_equal_leading_dimensions(self, a, b):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))

    def test_add_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(3,\).*\(4,\)"):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_cross_entropy_mismatch(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy_with_logits(Tensor(np.zeros((3, 2))), np.array([0, 1]))


class TestBackwardBasics:
    def test_dx_x_squared(self):
        x = ad.parameter(3.0)
        ad.backward(ad.mul(x, x))
        np.testing.assert_allclose(x.grad, 6.0)

    def test_dx_sigmoid_at_zero(self):
        x = ad.parameter(0.0)
        ad.backward(sigmoid(x))
        np.testing.assert_allclose(x.grad, 0.25)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            ad.backward(Tensor(np.zeros(3)))

    def test_random_four_op_graph_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(3, 4))

        def f(xv):
            x = Tensor(xv)
            y = tanh(ad.matmul(x, Tensor(w1)))
            z = sigmoid(ad.add(y, Tensor(b1)))
            return float(ad.reduce_sum(ad.mul(z, z)).value)

        w1, b1 = rng.normal(size=(4, 5)), rng.normal(size=5)
        x = ad.parameter(x0)
        y = tanh(ad.matmul(x, Tensor(w1)))
        z = sigmoid(ad.add(y, Tensor(b1)))
        ad.backward(ad.reduce_sum(ad.mul(z, z)))
        assert rel_err(x.grad, numeric_grad(f, x0)) < 1e-6

    def test_shared_node_accumulates_once(self):
        # diamond: d = (x+x) * (x+x); dd/dx = 8x
        x = ad.parameter(1.5)
        y = ad.add(x, x)
        ad.backward(ad.mul(y, y))
        np.testing.assert_allclose(x.grad, 12.0)

    def test_backward_linearity(self):
        rng = np.random.default_rng(5)
        xv = rng.normal(size=(4, 3))

        def grads_of(which):
            x = ad.parameter(xv)
            l1 = ad.reduce_sum(tanh(x))
            l2 = ad.reduce_sum(ad.mul(x, x))
            loss = {"l1": l1, "l2": l2, "both": ad.add(l1, l2)}[which]
            ad.backward(loss)
            return x.grad.copy()

        np.testing.assert_allclose(
            grads_of("both"), grads_of("l1") + grads_of("l2"), atol=1e-12
        )

    def test_unreachable_parameter_gets_zero(self):
        x, y = ad.parameter(2.0), ad.parameter(np.ones(3))
        grads = ad.gradients(ad.mul(x, x), {"x": x, "y": y})
        np.testing.assert_allclose(grads["x"], 4.0)
        np.testing.assert_array_equal(grads["y"], np.zeros(3))
        # a gradient left by an earlier loss is not reported for a later one
        a, b = ad.parameter(np.array([1.0, 2.0])), ad.parameter(np.array([3.0]))
        params = {"a": a, "b": b}
        ad.gradients(ad.reduce_sum(ad.mul(a, a)), params)
        grads = ad.gradients(ad.reduce_sum(ad.mul(b, b)), params)
        np.testing.assert_array_equal(grads["a"], np.zeros(2))
        np.testing.assert_array_equal(grads["b"], [6.0])


class TestTapeLifetime:
    def build(self):
        x, c = ad.parameter(np.array([1.0, -2.0, 3.0])), Tensor(np.array([0.5, 2.0, -1.0]))
        y = ad.mul(x, c)
        loss = ad.reduce_sum(tanh(y))
        return x, c, y, loss

    def test_interior_grads_are_released_and_leaves_keep_theirs(self):
        x, c, y, loss = self.build()
        y_value = y.value.copy()
        ad.backward(loss)
        assert y.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, c.value * (1.0 - np.tanh(y_value) ** 2))
        np.testing.assert_allclose(c.grad, x.value * (1.0 - np.tanh(y_value) ** 2))
        # values and parents stay: outputs remain readable and the graph walkable
        assert y.parents == (x, c)
        np.testing.assert_array_equal(y.value, y_value)

    def test_gradients_keeps_the_gradient_of_an_interior_tensor(self):
        x, c, y, loss = self.build()
        grads = ad.gradients(loss, {"x": x, "y": y})
        np.testing.assert_allclose(grads["y"], 1.0 - np.tanh(y.value) ** 2)
        assert y.grad is grads["y"]
        np.testing.assert_allclose(grads["x"], c.value * grads["y"])

    def test_second_backward_through_a_released_node_raises(self):
        x, c, y, loss = self.build()
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="'sum' node was already differentiated"):
            ad.backward(loss)
        # a new loss on top of a released node cannot reach past it either
        with pytest.raises(RuntimeError, match="'mul' node"):
            ad.backward(ad.reduce_sum(y))

    def test_no_grad_records_no_parents(self):
        x = ad.parameter(np.array([0.5, -1.0]))
        want = ad.reduce_sum(ad.mul(x, x)).value
        with ad.no_grad():
            assert not ad.is_grad_enabled()
            sq = ad.mul(x, x)
            loss = ad.reduce_sum(sq)
        assert ad.is_grad_enabled()
        assert sq.parents == () and loss.parents == ()
        assert loss.value == want

    def test_no_grad_is_restored_when_an_exception_leaves_it(self):
        with pytest.raises(ZeroDivisionError):
            with ad.no_grad():
                with ad.no_grad():
                    pass
                assert not ad.is_grad_enabled()  # the inner block restores the outer one
                1 / 0
        assert ad.is_grad_enabled()
        assert ad.mul(ad.parameter(2.0), ad.parameter(3.0)).parents != ()

    def test_no_grad_holds_for_the_calling_thread_only(self):
        seen = []
        with ad.no_grad():
            other = threading.Thread(target=lambda: seen.append(ad.is_grad_enabled()))
            other.start()
            other.join(timeout=10)
        assert not other.is_alive() and seen == [True]


class TestLinear:
    @pytest.mark.parametrize("bias", [True, False])
    def test_matches_matmul_transpose_add(self, bias):
        rng = np.random.default_rng(11)
        x, w = ad.parameter(rng.normal(size=(6, 5))), ad.parameter(rng.normal(size=(4, 5)))
        b = ad.parameter(rng.normal(size=4)) if bias else None
        leaves = [x, w] + ([b] if bias else [])
        weights = rng.normal(size=(6, 4))
        got = {}
        for op in (ad.linear, reference.linear):
            out = op(x, w, b)
            ad.backward(scalar_loss(out, weights))
            got[op] = out.value, [leaf.grad for leaf in leaves]
        (value, grads), (want, want_grads) = got.values()
        np.testing.assert_allclose(value, want, rtol=0, atol=1e-12)
        for g, g_want in zip(grads, want_grads):
            np.testing.assert_allclose(g, g_want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["x", "w", "b"])
    def test_passes_gradient_check(self, which):
        rng = np.random.default_rng(12 + which)
        start = [rng.normal(size=(6, 5)), rng.normal(size=(4, 5)), rng.normal(size=4)]
        weights = rng.normal(size=(6, 4))

        def loss(v):
            args = [Tensor(a) for a in start]
            args[which] = v
            return scalar_loss(ad.linear(*args), weights)

        leaf = ad.parameter(start[which])
        ad.backward(loss(leaf))
        numeric = numeric_grad(lambda v: float(loss(Tensor(v)).value), start[which])
        assert rel_err(leaf.grad, numeric) < 1e-6

    def test_weight_gradient_is_c_ordered(self):
        rng = np.random.default_rng(13)
        w = ad.parameter(rng.normal(size=(4, 5)))
        ad.backward(ad.reduce_sum(ad.linear(Tensor(rng.normal(size=(6, 5))), w)))
        assert w.grad.flags.c_contiguous

    @pytest.mark.parametrize("shapes", [((6, 5), (4, 3), None), ((6, 5), (4, 5), (3,)),
                                        ((2, 6, 5), (4, 5), None)])
    def test_shape_mismatch_names_the_shapes(self, shapes):
        x, w, b = (None if s is None else Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(x, w, b)


def op_cases(rng):
    """(name, build(x_tensor) -> output tensor, x0) for every differentiable op.

    All constants are drawn once so repeated builds see identical graphs.
    """
    n = rng.normal
    w34, w43 = n(size=(3, 4)), n(size=(4, 3))
    bias4 = n(size=4)
    mask = (rng.random(size=(3, 4)) < 0.6) / 0.6
    conv_f = n(size=(3, 5, 6))
    conv_x = n(size=(7, 5))
    conv_xb = n(size=(2, 3, 7, 5))
    w234, w243 = n(size=(2, 3, 4)), n(size=(2, 4, 3))
    ids = rng.integers(0, 6, size=(2, 3))
    targets = rng.integers(0, 4, size=5)
    return [
        ("add", lambda x: ad.add(x, Tensor(w34)), n(size=(3, 4))),
        ("add-broadcast", lambda x: ad.add(x, Tensor(bias4)), n(size=(3, 4))),
        ("mul", lambda x: ad.mul(x, Tensor(w34)), n(size=(3, 4))),
        ("neg", neg, n(size=(3, 4))),
        ("matmul-left", lambda x: ad.matmul(x, Tensor(w43)), n(size=(3, 4))),
        ("matmul-right", lambda x: ad.matmul(Tensor(w34), x), n(size=(4, 3))),
        ("matmul-3d-left", lambda x: ad.matmul(x, Tensor(w243)), n(size=(2, 3, 4))),
        ("matmul-3d-right", lambda x: ad.matmul(Tensor(w234), x), n(size=(2, 4, 3))),
        ("transpose", lambda x: ad.transpose(x, (1, 0)), n(size=(3, 4))),
        ("reshape", lambda x: ad.reshape(x, (4, 3)), n(size=(3, 4))),
        ("concat", lambda x: ad.concat([x, Tensor(w34)], axis=1), n(size=(3, 4))),
        ("slice", lambda x: ad.slice_axis(x, 1, 1, 3), n(size=(3, 4))),
        ("sigmoid", sigmoid, n(size=(3, 4))),
        ("tanh", tanh, n(size=(3, 4))),
        ("relu", ad.relu, n(size=(3, 4)) + np.sign(n(size=(3, 4))) * 0.5),
        ("max", lambda x: ad.max_over_axis(x, 0), n(size=(5, 4)) + np.arange(20).reshape(5, 4) * 0.01),
        ("embedding", lambda x: ad.embedding_lookup(x, ids), n(size=(6, 4))),
        ("conv1d-x", lambda x: ad.conv1d(x, Tensor(conv_f)), n(size=(7, 5))),
        ("conv1d-f", lambda x: ad.conv1d(Tensor(conv_x), x), n(size=(3, 5, 6))),
        ("conv1d-batched-x", lambda x: ad.conv1d(x, Tensor(conv_f)), n(size=(2, 7, 5))),
        ("conv1d-batched-f", lambda x: ad.conv1d(Tensor(conv_xb), x), n(size=(3, 5, 6))),
        ("dropout", lambda x: ad.dropout_with_mask(x, mask), n(size=(3, 4))),
        ("cross-entropy", lambda x: ad.cross_entropy_with_logits(x, targets), n(size=(5, 4))),
        ("sum", lambda x: ad.reduce_sum(x, axis=0), n(size=(3, 4))),
    ]


@pytest.mark.parametrize("trial", range(20))
def test_every_op_passes_gradient_check(trial):
    rng = np.random.default_rng(1000 + trial)
    for name, build, x0 in op_cases(rng):
        weights = np.random.default_rng(trial).normal(size=build(Tensor(x0)).shape)

        def f(xv):
            return float(scalar_loss(build(Tensor(xv)), weights).value)

        x = ad.parameter(x0)
        ad.backward(scalar_loss(build(x), weights))
        err = rel_err(x.grad, numeric_grad(f, x0))
        assert err < 1e-6, f"op {name} trial {trial}: rel err {err}"
