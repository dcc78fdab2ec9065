"""Encoder checks against direct transcriptions of the published recurrences."""

import numpy as np
import pytest

from helpers import numeric_grad, rel_err, tape_nodes
import reference
from reference import encode_tokens, lstm_cell, stepwise_bilstm_stack

import tagparse.autodiff as ad
from tagparse.autodiff import Tensor
from tagparse.corpus import Sentence, Token
from tagparse import encoder
from tagparse.encoder import (
    GATES,
    EncoderConfig,
    bilstm_stack,
    char_cnn,
    glorot,
    init_encoder_params,
    init_lstm_params,
    lstm_layer,
    make_dropout_masks,
    parser_config,
    supertagger_config,
)
from tagparse.vocab import Vocabulary


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_oracle(x, h, c, p):
    """Direct six-equation transcription on numpy vectors."""
    cat = np.concatenate([x, h])
    i = sig(p["W_i"] @ cat + p["b_i"])
    f = sig(p["W_f"] @ cat + p["b_f"])
    ct = np.tanh(p["W_c"] @ cat + p["b_c"])
    o = sig(p["W_o"] @ cat + p["b_o"])
    c_new = f * c + i * ct
    return o * np.tanh(c_new), c_new


def highway_oracle(x, h, c, p):
    cat = np.concatenate([x, h])
    i = sig(p["W_i"] @ cat + p["b_i"])
    f = sig(p["W_f"] @ cat + p["b_f"])
    ct = np.tanh(p["W_c"] @ cat + p["b_c"])
    o = sig(p["W_o"] @ cat + p["b_o"])
    r = sig(p["W_r"] @ cat + p["b_r"])
    c_new = f * c + i * ct
    return r * o * np.tanh(c_new) + (1 - r) * (p["W_h"] @ x), c_new


def random_cell_params(rng, in_dim, hidden, highway=False, zero=False):
    names = ["W_i", "b_i", "W_f", "b_f", "W_c", "b_c", "W_o", "b_o"]
    if highway:
        names += ["W_r", "b_r", "W_h"]
    p = {}
    for n in names:
        if n.startswith("W"):
            cols = in_dim if n == "W_h" else in_dim + hidden
            shape = (hidden, cols)
        else:
            shape = (hidden,)
        p[n] = np.zeros(shape) if zero else rng.normal(size=shape) * 0.5
    return p


def tensorize(p):
    return {k: Tensor(v) for k, v in p.items()}


def cell_step(x, h, c, p):
    """lstm_cell on one row of numpy vectors; returns (h_t, c_t) as vectors."""
    h_new, c_new = lstm_cell(Tensor(x[None]), Tensor(h[None]), Tensor(c[None]), p)
    return h_new.value[0], c_new.value[0]


def plain_params(p):
    """The same cell without its highway parameters."""
    return {k: v for k, v in p.items() if k not in ("W_r", "b_r", "W_h")}


class TestCharCnn:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.emb = Tensor(rng.normal(size=(10, 5)))
        self.filters = Tensor(rng.normal(size=(3, 5, 30)))
        self.bias = Tensor(rng.normal(size=30))

    def test_zero_filters_give_bias(self):
        out = char_cnn([[3, 4, 5], [6]], self.emb, Tensor(np.zeros((3, 5, 30))), self.bias)
        np.testing.assert_allclose(out.value, np.tile(self.bias.value, (2, 1)), atol=1e-15)

    @pytest.mark.parametrize("length", [1, 5, 40])
    def test_output_dim_is_filter_count(self, length):
        ids = list(np.random.default_rng(length).integers(2, 10, size=length))
        assert char_cnn([ids, [2, 3]], self.emb, self.filters, self.bias).shape == (2, 30)

    def test_empty_word_rejected(self):
        for words in ([[]], [[3, 4], []], []):
            with pytest.raises(ValueError):
                char_cnn(words, self.emb, self.filters, self.bias)

    def test_matches_naive_sliding_window_oracle(self):
        rng = np.random.default_rng(8)
        ids = list(rng.integers(2, 10, size=6))
        out = char_cnn([[4, 5], ids], self.emb, self.filters, self.bias).value[1]
        # naive oracle: pad one PAD char (id 0) each side, slide, max
        padded = [0] + ids + [0]
        emb, filt, bias = self.emb.value, self.filters.value, self.bias.value
        want = np.full(30, -np.inf)
        for t in range(len(ids)):
            acc = bias.copy()
            for w in range(3):
                acc += emb[padded[t + w]] @ filt[w]
            want = np.maximum(want, acc)
        np.testing.assert_allclose(out, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_batch_matches_per_word_oracle(self, width):
        # words of mixed lengths in one call: values and gradients of every row
        rng = np.random.default_rng(20 + width)
        emb = ad.parameter(rng.normal(size=(10, 5)))
        filters = ad.parameter(rng.normal(size=(width, 5, 7)))
        bias = ad.parameter(rng.normal(size=7))
        params = {"emb": emb, "filters": filters, "bias": bias}
        shortest = 2 - width % 2  # even widths need two characters
        words = [list(rng.integers(1, 10, size=n)) for n in (shortest, 9, 3, shortest + 1, 6)]
        weights = rng.normal(size=(len(words), 7))
        batched = char_cnn(words, emb, filters, bias)
        grads = ad.gradients(ad.reduce_sum(ad.mul(batched, Tensor(weights))), params)
        rows = [reference.char_cnn(w, emb, filters, bias) for w in words]
        loss = ad.reduce_sum(ad.mul(ad.concat([ad.reshape(r, (1, -1)) for r in rows], axis=0),
                                    Tensor(weights)))
        want = ad.gradients(loss, params)
        np.testing.assert_allclose(batched.value, np.stack([r.value for r in rows]),
                                   atol=1e-12, rtol=0)
        assert np.all(np.isfinite(batched.value))
        for name in params:
            np.testing.assert_allclose(grads[name], want[name], atol=1e-12, rtol=0,
                                       err_msg=name)

    @pytest.mark.parametrize("width", [2, 4])
    def test_word_too_short_for_even_width_raises(self, width):
        # alone or batched with longer words, never a -inf row
        filters = Tensor(np.random.default_rng(9).normal(size=(width, 5, 30)))
        for words in ([[3]], [[3, 4, 5, 6], [3], [7, 8, 9]]):
            with pytest.raises(ad.ShapeError):
                char_cnn(words, self.emb, filters, self.bias)
        with pytest.raises(ad.ShapeError):
            reference.char_cnn([3], self.emb, filters, self.bias)

    def test_tape_size_does_not_grow_with_words(self):
        def nodes(n_words):
            words = [[2 + k % 7] * (1 + k % 5) for k in range(n_words)]
            return tape_nodes(char_cnn(words, self.emb, self.filters, self.bias))

        assert nodes(2) == nodes(40)


class TestLstmCell:
    def test_all_zero_params(self):
        rng = np.random.default_rng(9)
        x, h, c = rng.normal(size=4), rng.normal(size=3), rng.normal(size=3)
        p = tensorize(random_cell_params(rng, 4, 3, zero=True))
        h_new, c_new = cell_step(x, h, c, p)
        np.testing.assert_allclose(c_new, 0.5 * c, atol=1e-12)
        np.testing.assert_allclose(h_new, 0.5 * np.tanh(0.5 * c), atol=1e-12)

    def test_saturated_gates_carry_memory(self):
        rng = np.random.default_rng(10)
        p = random_cell_params(rng, 4, 3, zero=True)
        p["b_f"] += 50.0
        p["b_i"] -= 50.0
        x, h, c = rng.normal(size=4), rng.normal(size=3), rng.normal(size=3)
        _, c_new = cell_step(x, h, c, tensorize(p))
        np.testing.assert_allclose(c_new, c, atol=1e-9)

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_transcription_oracle(self, trial):
        rng = np.random.default_rng(100 + trial)
        p = random_cell_params(rng, 5, 4)
        x, h, c = rng.normal(size=5), rng.normal(size=4), rng.normal(size=4)
        h_new, c_new = cell_step(x, h, c, tensorize(p))
        want_h, want_c = lstm_oracle(x, h, c, p)
        np.testing.assert_allclose(h_new, want_h, atol=1e-12, rtol=0)
        np.testing.assert_allclose(c_new, want_c, atol=1e-12, rtol=0)


class TestHighwayCell:
    """lstm_cell with the highway parameters W_r, b_r and W_h present."""

    def test_open_gate_equals_plain_lstm(self):
        rng = np.random.default_rng(11)
        p = random_cell_params(rng, 5, 4, highway=True)
        p["b_r"] = np.full(4, 50.0)
        x, h, c = rng.normal(size=5), rng.normal(size=4), rng.normal(size=4)
        hw, _ = cell_step(x, h, c, tensorize(p))
        plain, _ = cell_step(x, h, c, tensorize(plain_params(p)))
        np.testing.assert_allclose(hw, plain, atol=1e-9)

    def test_closed_gate_passes_transformed_input(self):
        rng = np.random.default_rng(12)
        p = random_cell_params(rng, 5, 4, highway=True)
        p["b_r"] = np.full(4, -50.0)
        x, h, c = rng.normal(size=5), rng.normal(size=4), rng.normal(size=4)
        hw, _ = cell_step(x, h, c, tensorize(p))
        np.testing.assert_allclose(hw, p["W_h"] @ x, atol=1e-9)

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_transcription_oracle(self, trial):
        rng = np.random.default_rng(200 + trial)
        p = random_cell_params(rng, 5, 4, highway=True)
        x, h, c = rng.normal(size=5), rng.normal(size=4), rng.normal(size=4)
        hw, cw = cell_step(x, h, c, tensorize(p))
        want_h, want_c = highway_oracle(x, h, c, p)
        np.testing.assert_allclose(hw, want_h, atol=1e-12, rtol=0)
        np.testing.assert_allclose(cw, want_c, atol=1e-12, rtol=0)


def stack_params(rng, config, in_dim):
    params = {}
    dim = in_dim
    for layer in range(config.layers):
        for direction in ("fw", "bw"):
            init_lstm_params(rng, dim, config.hidden, config.highway,
                             f"lstm.{layer}.{direction}", params)
        dim = 2 * config.hidden
    return params


def run_stack(x, params, config):
    """bilstm_stack on one [T, d] numpy sequence; returns [T, 2*hidden]."""
    return bilstm_stack(Tensor(x[None]), params, config).value[0]


class TestBilstmStack:
    def test_supertagger_layer_output_dim(self):
        config = supertagger_config(layers=1)
        rng = np.random.default_rng(13)
        params = stack_params(rng, config, 230)
        out = bilstm_stack(Tensor(rng.normal(size=(1, 2, 230))), params, config)
        assert out.shape == (1, 2, 2 * 512)

    def test_reversal_swaps_directions_single_layer(self):
        config = EncoderConfig(hidden=6, layers=1, highway=True, dropout_input=0,
                               dropout_layer=0, dropout_recurrent=0)
        rng = np.random.default_rng(14)
        params = stack_params(rng, config, 5)
        x = rng.normal(size=(4, 5))
        out = run_stack(x, params, config)
        swapped = {}
        for k, v in params.items():
            if ".fw." in k:
                swapped[k.replace(".fw.", ".bw.")] = v
            else:
                swapped[k.replace(".bw.", ".fw.")] = v
        out_rev = run_stack(x[::-1].copy(), swapped, config)
        h = config.hidden
        recon = np.concatenate([out_rev[::-1, h:], out_rev[::-1, :h]], axis=1)
        np.testing.assert_allclose(out, recon, atol=1e-12)

    def test_reversal_swaps_directions_two_layers(self):
        # beyond layer 1 the [fw ; bw] input halves feed distinct weight
        # column blocks, so the exact symmetry also swaps those blocks
        config = EncoderConfig(hidden=6, layers=2, highway=True, dropout_input=0,
                               dropout_layer=0, dropout_recurrent=0)
        rng = np.random.default_rng(14)
        params = stack_params(rng, config, 5)
        x = rng.normal(size=(4, 5))
        out = run_stack(x, params, config)
        h = config.hidden

        def swap_x_cols(w):
            v = w.value.copy()
            v[:, :h], v[:, h : 2 * h] = w.value[:, h : 2 * h], w.value[:, :h]
            return Tensor(v)

        swapped = {}
        for k, v in params.items():
            key = k.replace(".fw.", ".bw.") if ".fw." in k else k.replace(".bw.", ".fw.")
            if not k.startswith("lstm.0.") and (".W_" in k) and k[-3:] != "b_r":
                name = k.rsplit(".", 1)[1]
                if name in ("W_i", "W_f", "W_c", "W_o", "W_r", "W_h"):
                    v = swap_x_cols(v)
            swapped[key] = v
        out_rev = run_stack(x[::-1].copy(), swapped, config)
        recon = np.concatenate([out_rev[::-1, h:], out_rev[::-1, :h]], axis=1)
        np.testing.assert_allclose(out, recon, atol=1e-12)

    def test_length_one_sequence(self):
        config = EncoderConfig(hidden=4, layers=1, highway=False, dropout_input=0,
                               dropout_layer=0, dropout_recurrent=0)
        rng = np.random.default_rng(15)
        params = stack_params(rng, config, 3)
        x = rng.normal(size=(1, 3))
        out = run_stack(x, params, config)
        # both directions see the same single input from zero state
        p = {k.split(".")[-1]: params[f"lstm.0.fw.{k.split('.')[-1]}"].value
             for k in params if ".fw." in k}
        want_h, _ = lstm_oracle(x[0], np.zeros(4), np.zeros(4), p)
        np.testing.assert_allclose(out[0, :4], want_h, atol=1e-12)

    def test_batched_equals_per_sentence(self):
        config = EncoderConfig(hidden=4, layers=2, highway=True, dropout_input=0,
                               dropout_layer=0, dropout_recurrent=0)
        rng = np.random.default_rng(17)
        params = stack_params(rng, config, 3)
        x = rng.normal(size=(3, 4, 3))
        batched = bilstm_stack(Tensor(x), params, config).value
        for b in range(3):
            single = run_stack(x[b], params, config)
            np.testing.assert_allclose(batched[b], single, atol=1e-12)

    @pytest.mark.parametrize("rec_masks", [False, True], ids=["no-masks", "rec-masks"])
    @pytest.mark.parametrize("name", ["W_i", "b_i", "W_f", "b_f", "W_c", "b_c", "W_o", "b_o",
                                      "W_r", "b_r", "W_h"])
    def test_gradient_through_two_layer_highway_stack(self, name, rec_masks):
        config = EncoderConfig(hidden=3, layers=2, highway=True, dropout_input=0,
                               dropout_layer=0, dropout_recurrent=0.5)
        rng = np.random.default_rng(18)
        params = stack_params(rng, config, 3)
        x0 = rng.normal(size=(2, 4, 3))
        weights = rng.normal(size=(2, 4, 6))
        masks = None
        if rec_masks:
            masks = {k: v for k, v in make_dropout_masks(rng, config, 2, 4, 3).items()
                     if k[0] == "rec"}

        def f(xv):
            out = bilstm_stack(Tensor(xv), params, config, masks)
            return float(ad.reduce_sum(ad.mul(out, Tensor(weights))).value)

        x = ad.parameter(x0)
        out = bilstm_stack(x, params, config, masks)
        ad.backward(ad.reduce_sum(ad.mul(out, Tensor(weights))))
        assert rel_err(x.grad, numeric_grad(f, x0)) < 1e-5
        for prefix in ("lstm.0.fw", "lstm.0.bw", "lstm.1.fw", "lstm.1.bw"):
            w = params[f"{prefix}.{name}"]
            w0 = w.value.copy()

            def fw(wv):
                w.value[...] = wv
                out = f(x0)
                w.value[...] = w0
                return out

            assert rel_err(w.grad, numeric_grad(fw, w0)) < 1e-5, prefix

    def test_tape_size_does_not_grow_with_length(self):
        config = EncoderConfig(hidden=4, layers=2, highway=True, dropout_input=0.5,
                               dropout_layer=0.5, dropout_recurrent=0.5)
        rng = np.random.default_rng(19)
        params = stack_params(rng, config, 3)

        def nodes(seq_len):
            masks = make_dropout_masks(rng, config, 2, seq_len, 3)
            return tape_nodes(bilstm_stack(Tensor(rng.normal(size=(2, seq_len, 3))), params,
                                           config, masks))

        assert nodes(3) == nodes(30)

    def test_input_width_mismatch_names_the_layer(self):
        config = EncoderConfig(hidden=4, layers=1, dropout_input=0, dropout_layer=0,
                               dropout_recurrent=0)
        params = stack_params(np.random.default_rng(21), config, 3)
        with pytest.raises(ad.ShapeError, match="lstm.0.fw"):
            bilstm_stack(Tensor(np.zeros((1, 2, 5))), params, config)

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden=4, layers=0)


@pytest.mark.parametrize("width", [2, 4])
def test_even_char_width_rejected(width):
    # an even width leaves a one-character word no convolution window
    with pytest.raises(ValueError, match="char_width"):
        EncoderConfig(char_width=width)


class TestGateStacks:
    def test_gates_are_row_views_of_one_stack(self):
        params = stack_params(np.random.default_rng(22), EncoderConfig(hidden=4, layers=1), 3)
        for prefix in ("lstm.0.fw", "lstm.0.bw"):
            for kind in ("W", "b"):
                parts = [params[f"{prefix}.{kind}_{g}"].value for g in GATES + ("r",)]
                stack = encoder._stacked(parts)
                assert stack.shape[0] == 5 * 4
                assert all(np.shares_memory(stack, p) for p in parts)
                np.testing.assert_array_equal(stack, np.concatenate(parts))
                copies = [p.copy() for p in parts]
                assert not np.shares_memory(encoder._stacked(copies), copies[0])
        assert not np.shares_memory(params["lstm.0.fw.W_r"].value, params["lstm.0.fw.W_h"].value)

    def test_init_matches_one_draw_per_gate(self):
        # the stacks keep the parameter names, order, shapes and random draws
        params = {}
        init_lstm_params(np.random.default_rng(23), 3, 4, True, "p", params)
        rng = np.random.default_rng(23)
        want = {}
        for gate in GATES + ("r",):
            want[f"p.W_{gate}"] = glorot(rng, (4, 7))
            want[f"p.b_{gate}"] = np.full(4, 1.0 if gate == "f" else 0.0)
        want["p.W_h"] = glorot(rng, (4, 3))
        assert list(params) == list(want)
        for name in want:
            np.testing.assert_array_equal(params[name].value, want[name], err_msg=name)

    def test_out_of_order_views_are_copied(self):
        params = stack_params(np.random.default_rng(24), EncoderConfig(hidden=4, layers=1), 3)
        w = [params[f"lstm.0.fw.W_{g}"].value for g in GATES]
        assert not np.shares_memory(encoder._stacked([w[1], w[0], w[2], w[3]]), w[0])
        assert not np.shares_memory(encoder._stacked(w), w[0])  # r's rows follow in the stack

    @pytest.mark.parametrize("masked", [False, True], ids=["no-masks", "masks"])
    @pytest.mark.parametrize("highway", [False, True], ids=["lstm", "highway"])
    def test_views_and_copies_agree_with_the_stepwise_oracle(self, highway, masked):
        config = EncoderConfig(hidden=4, layers=2, highway=highway, dropout_input=0.3,
                               dropout_layer=0.3, dropout_recurrent=0.3)
        rng = np.random.default_rng(25)
        views = stack_params(rng, config, 3)
        copies = {k: ad.parameter(p.value.copy()) for k, p in views.items()}  # one buffer each
        x0 = rng.normal(size=(3, 6, 3))
        weights = Tensor(rng.normal(size=(3, 6, 8)))
        masks = make_dropout_masks(rng, config, 3, 6, 3) if masked else None
        results = []
        for stack, params in ((bilstm_stack, views), (bilstm_stack, copies),
                              (stepwise_bilstm_stack, views)):
            x = ad.parameter(x0)
            out = stack(x, params, config, masks)
            grads = ad.gradients(ad.reduce_sum(ad.mul(out, weights)), params)
            results.append((out.value, x.grad, grads))
        (out, dx, grads), (c_out, c_dx, c_grads), (want_out, want_dx, want_grads) = results
        np.testing.assert_array_equal(out, c_out)
        np.testing.assert_array_equal(dx, c_dx)
        np.testing.assert_allclose(out, want_out, atol=1e-12, rtol=0)
        np.testing.assert_allclose(dx, want_dx, atol=1e-12, rtol=0)
        for name in grads:
            np.testing.assert_array_equal(grads[name], c_grads[name], err_msg=name)
            np.testing.assert_allclose(grads[name], want_grads[name], atol=1e-12, rtol=0,
                                       err_msg=name)

    def test_layer_takes_the_gate_tensors_as_parents(self):
        config = EncoderConfig(hidden=4, layers=1)
        params = stack_params(np.random.default_rng(26), config, 3)
        out = lstm_layer(Tensor(np.ones((2, 5, 3))), params, "lstm.0.fw", 4)
        names = [f"lstm.0.fw.{k}_{g}" for k in ("W", "b") for g in GATES + ("r",)]
        assert out.parents[1:] == tuple(params[n] for n in names + ["lstm.0.fw.W_h"])


@pytest.mark.parametrize("masked", [False, True], ids=["no-masks", "masks"])
@pytest.mark.parametrize("seq_len", [1, 7])
@pytest.mark.parametrize("layers", [1, 2])
# "concat": each layer's fw and bw outputs are concatenated before the next layer reads them.
@pytest.mark.parametrize("highway", [False, True], ids=["lstm-concat", "highway-concat"])
def test_fused_stack_matches_stepwise_oracle(highway, layers, seq_len, masked):
    config = EncoderConfig(hidden=4, layers=layers, highway=highway, dropout_input=0.3,
                           dropout_layer=0.3, dropout_recurrent=0.3)
    rng = np.random.default_rng(20)
    params = stack_params(rng, config, 3)
    x0 = rng.normal(size=(3, seq_len, 3))
    weights = Tensor(rng.normal(size=(3, seq_len, 8)))
    masks = make_dropout_masks(rng, config, 3, seq_len, 3) if masked else None
    results = []
    for stack in (bilstm_stack, stepwise_bilstm_stack):
        x = ad.parameter(x0)
        out = stack(x, params, config, masks)
        grads = ad.gradients(ad.reduce_sum(ad.mul(out, weights)), params)
        results.append((out.value, x.grad, grads))
    (out, dx, grads), (want_out, want_dx, want_grads) = results
    np.testing.assert_allclose(out, want_out, atol=1e-12, rtol=0)
    np.testing.assert_allclose(dx, want_dx, atol=1e-12, rtol=0)
    assert grads.keys() == want_grads.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], want_grads[name], atol=1e-12, rtol=0,
                                   err_msg=name)


class TestPackedLengths:
    """Right-padded rows of mixed lengths, packed time-major inside `lstm_layer`."""

    @pytest.mark.parametrize("masked", [False, True], ids=["no-masks", "masks"])
    @pytest.mark.parametrize("highway", [False, True], ids=["lstm", "highway"])
    def test_each_row_matches_the_stepwise_oracle_alone(self, highway, masked):
        config = EncoderConfig(hidden=4, layers=2, highway=highway, dropout_input=0.3,
                               dropout_layer=0.3, dropout_recurrent=0.3)
        rng = np.random.default_rng(27)
        params = stack_params(rng, config, 3)
        lengths = np.array([3, 1, 7, 4, 7])  # unsorted, with a tie and a one-token row
        x0 = rng.normal(size=(5, 7, 3))
        weights = rng.normal(size=(5, 7, 8))
        masks = make_dropout_masks(rng, config, 5, 7, 3) if masked else {}
        x = ad.parameter(x0)
        out = bilstm_stack(x, params, config, masks, lengths)
        grads = ad.gradients(ad.reduce_sum(ad.mul(out, Tensor(weights))), params)
        want_grads = {name: 0.0 for name in params}
        for b, n in enumerate(lengths):
            alone = {k: (m[b : b + 1] if k[0] == "rec" else m[b : b + 1, :n])
                     for k, m in masks.items()}
            xb = ad.parameter(x0[b : b + 1, :n])
            want = stepwise_bilstm_stack(xb, params, config, alone)
            row = ad.gradients(ad.reduce_sum(ad.mul(want, Tensor(weights[b : b + 1, :n]))),
                               params)
            np.testing.assert_allclose(out.value[b, :n], want.value[0], atol=1e-12, rtol=0)
            np.testing.assert_allclose(x.grad[b, :n], xb.grad[0], atol=1e-12, rtol=0)
            assert not out.value[b, n:].any() and not x.grad[b, n:].any()
            for name in params:
                want_grads[name] = want_grads[name] + row[name]
        for name in params:
            np.testing.assert_allclose(grads[name], want_grads[name], atol=1e-12, rtol=0,
                                       err_msg=name)

    def test_equal_lengths_are_the_unpacked_layer(self):
        config = EncoderConfig(hidden=4, layers=1)
        params = stack_params(np.random.default_rng(28), config, 3)
        x = Tensor(np.random.default_rng(29).normal(size=(3, 5, 3)))
        for reverse in (False, True):
            plain = lstm_layer(x, params, "lstm.0.fw", 4, reverse=reverse)
            packed = lstm_layer(x, params, "lstm.0.fw", 4, reverse=reverse, lengths=[5, 5, 5])
            np.testing.assert_array_equal(packed.value, plain.value)

    @pytest.mark.parametrize("reverse", [False, True], ids=["fw", "bw"])
    @pytest.mark.parametrize("name", ["x", "W_i", "b_f", "W_c", "W_o", "W_r", "b_r", "W_h"])
    def test_gradient_by_finite_differences(self, name, reverse):
        rng = np.random.default_rng(30)
        params = stack_params(rng, EncoderConfig(hidden=3, layers=1, highway=True), 2)
        lengths = [2, 4, 1]
        x0 = rng.normal(size=(3, 4, 2))
        rec_mask = (rng.random((3, 3)) >= 0.3) / 0.7
        weights = Tensor(rng.normal(size=(3, 4, 3)))
        target = x0 if name == "x" else params[f"lstm.0.fw.{name}"].value

        def f(value):
            saved = target.copy()
            target[...] = value
            out = lstm_layer(Tensor(x0), params, "lstm.0.fw", 3, rec_mask, reverse, lengths)
            target[...] = saved
            return float(ad.reduce_sum(ad.mul(out, weights)).value)

        x = ad.parameter(x0)
        out = lstm_layer(x, params, "lstm.0.fw", 3, rec_mask, reverse, lengths)
        grads = ad.gradients(ad.reduce_sum(ad.mul(out, weights)), dict(params, x=x))
        key = "x" if name == "x" else f"lstm.0.fw.{name}"
        assert rel_err(grads[key], numeric_grad(f, target.copy())) < 1e-6

    @pytest.mark.parametrize("lengths", [[3, 0], [3, 5], [3], [2.5, 3]],
                             ids=["empty", "long", "count", "fraction"])
    def test_lengths_that_do_not_fit_are_rejected(self, lengths):
        params = stack_params(np.random.default_rng(31), EncoderConfig(hidden=4, layers=1), 3)
        with pytest.raises(ValueError, match="lengths"):
            lstm_layer(Tensor(np.zeros((2, 4, 3))), params, "lstm.0.fw", 4, lengths=lengths)


def sentence(words, pos=None, stags=None):
    pos = pos or ["NN"] * len(words)
    stags = stags or ["tN"] * len(words)
    return Sentence([Token(form=w, gold_pos=p, stag=s, head=0, rel="adj")
                     for w, p, s in zip(words, pos, stags)])


class TestEncodeTokens:
    def setup_method(self):
        self.sent = sentence(["the", "dog", "ran"], ["DT", "NN", "VBD"],
                             ["tD", "tN", "tVi"])
        self.vocab = Vocabulary.from_corpus([self.sent])
        self.rng = np.random.default_rng(19)

    def test_supertagger_dim_is_word_pos_char(self):
        config = supertagger_config()
        params = init_encoder_params(self.rng, self.vocab, config, "supertagger")
        mat = encode_tokens(self.sent, "supertagger", params, self.vocab, config)
        assert mat.shape == (3, 100 + 100 + 30)

    def test_parser_dim_is_word_char(self):
        config = parser_config()
        params = init_encoder_params(self.rng, self.vocab, config, "parser")
        mat = encode_tokens(self.sent, "parser", params, self.vocab, config)
        assert mat.shape == (4, 100 + 30)

    def test_root_row_is_zero(self):
        config = parser_config(hidden=8)
        params = init_encoder_params(self.rng, self.vocab, config, "parser")
        # make every table nonzero so a zero ROOT row cannot be accidental
        for key in ("emb.word", "emb.char", "cnn.bias"):
            params[key].value[...] = self.rng.normal(size=params[key].shape)
        mat = encode_tokens(self.sent, "parser", params, self.vocab, config)
        np.testing.assert_array_equal(mat.value[0], 0.0)
        assert np.any(mat.value[1:] != 0.0)

    def test_empty_sentence_rejected(self):
        config = parser_config()
        params = init_encoder_params(self.rng, self.vocab, config, "parser")
        with pytest.raises(ValueError):
            encode_tokens(Sentence([]), "parser", params, self.vocab, config)

    def test_deterministic_without_dropout(self):
        config = parser_config(hidden=5, layers=1)
        params = init_encoder_params(self.rng, self.vocab, config, "parser")
        a = encode_tokens(self.sent, "parser", params, self.vocab, config).value
        b = encode_tokens(self.sent, "parser", params, self.vocab, config).value
        np.testing.assert_array_equal(a, b)


def test_dropout_masks_have_required_granularity():
    config = EncoderConfig(hidden=4, layers=2, dropout_input=0.5,
                           dropout_layer=0.5, dropout_recurrent=0.5)
    masks = make_dropout_masks(np.random.default_rng(0), config, batch=3, seq_len=5, in_dim=7)
    assert masks["input"].shape == (3, 5, 7)
    # variational: one recurrent mask per sequence per direction per layer
    for layer in range(2):
        for direction in ("fw", "bw"):
            assert masks[("rec", layer, direction)].shape == (3, 4)
    assert masks[("layer", 0)].shape == (3, 5, 8)
    assert ("layer", 1) not in masks
