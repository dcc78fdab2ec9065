"""Sentence encoder: embeddings + character CNN + stacked highway BiLSTMs.

The LSTM cell follows the standard six-equation recurrence; the highway
variant replaces the output equation with a gated mix of the cell output
and a linear transform of the input:

    r_t = sigmoid(W_r [x_t ; h_prev] + b_r)
    h_t = r_t * o_t * tanh(c_t) + (1 - r_t) * W_h x_t

Both directions of every layer are concatenated before feeding the next
layer; a `final_concat_only` flag reproduces the older wiring where each
direction sees only its own stream until the top.

Recurrent dropout is variational: one mask per sequence per direction per
layer, applied to the recurrent input h_prev at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .vocab import Vocabulary

__all__ = [
    "EncoderConfig",
    "supertagger_config",
    "parser_config",
    "glorot",
    "init_lstm_params",
    "init_encoder_params",
    "char_cnn",
    "lstm_cell",
    "bilstm_stack",
    "make_dropout_masks",
    "MODE_POS",
    "MODE_STAG",
    "MODE_PARSER",
    "MODE_JOINT_STAG",
    "MODE_JOINT_POS_STAG",
    "PARSER_MODES",
]

MODE_POS = "pos-tagger"
MODE_STAG = "supertagger"
MODE_PARSER = "parser"
MODE_JOINT_STAG = "joint-stag"
MODE_JOINT_POS_STAG = "joint-pos-stag"
PARSER_MODES = (MODE_PARSER, MODE_JOINT_STAG, MODE_JOINT_POS_STAG)
ALL_MODES = (MODE_POS, MODE_STAG) + PARSER_MODES


@dataclass
class EncoderConfig:
    word_dim: int = 100
    pos_dim: int = 100
    stag_dim: int = 100
    char_dim: int = 30
    char_filters: int = 30
    char_width: int = 3
    hidden: int = 512
    layers: int = 2
    highway: bool = True
    dropout_input: float = 0.5
    dropout_layer: float = 0.5
    dropout_recurrent: float = 0.5
    final_concat_only: bool = False
    use_pos_input: bool = False
    use_stag_input: bool = False

    def __post_init__(self):
        for name in ("word_dim", "pos_dim", "stag_dim", "char_dim", "char_filters",
                     "char_width", "hidden", "layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"EncoderConfig.{name} must be positive")
        for name in ("dropout_input", "dropout_layer", "dropout_recurrent"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"EncoderConfig.{name} must be in [0, 1)")

    def input_dim(self, mode: str) -> int:
        dim = self.word_dim + self.char_filters
        if mode == MODE_STAG:
            dim += self.pos_dim
        elif mode in PARSER_MODES:
            if self.use_pos_input:
                dim += self.pos_dim
            if self.use_stag_input:
                dim += self.stag_dim
        return dim


def supertagger_config(**kw) -> EncoderConfig:
    """Paper defaults for the supertagger: 512 units, all dropout 0.5."""
    base = dict(hidden=512, dropout_input=0.5, dropout_layer=0.5, dropout_recurrent=0.5)
    base.update(kw)
    return EncoderConfig(**base)


def parser_config(**kw) -> EncoderConfig:
    """Paper defaults for the parser: 400 units, all dropout 0.33."""
    base = dict(hidden=400, dropout_input=0.33, dropout_layer=0.33, dropout_recurrent=0.33)
    base.update(kw)
    return EncoderConfig(**base)


def glorot(rng: np.random.Generator, shape, fan_in=None, fan_out=None) -> np.ndarray:
    if fan_in is None:
        fan_in = shape[-1] if len(shape) > 1 else shape[0]
    if fan_out is None:
        fan_out = shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_lstm_params(rng, in_dim: int, hidden: int, highway: bool, prefix: str, params: dict):
    """One direction of one layer; gate matrices take [x_t ; h_prev]."""
    cat = in_dim + hidden
    for gate in ("i", "f", "c", "o"):
        params[f"{prefix}.W_{gate}"] = ad.parameter(glorot(rng, (hidden, cat)))
        bias = np.zeros(hidden)
        if gate == "f":
            bias += 1.0  # forget-gate bias starts open
        params[f"{prefix}.b_{gate}"] = ad.parameter(bias)
    if highway:
        params[f"{prefix}.W_r"] = ad.parameter(glorot(rng, (hidden, cat)))
        params[f"{prefix}.b_r"] = ad.parameter(np.zeros(hidden))
        params[f"{prefix}.W_h"] = ad.parameter(glorot(rng, (hidden, in_dim)))


def init_encoder_params(rng, vocab: Vocabulary, config: EncoderConfig, mode: str,
                        pretrained: dict | None = None) -> dict:
    """Embedding tables, char-CNN filters and the LSTM stack for one mode.

    Word embeddings start at zero (rows from `pretrained` override); every
    other table and matrix is Glorot-uniform.
    """
    if mode not in ALL_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {ALL_MODES}")
    params: dict = {}
    word_table = np.zeros((len(vocab.words), config.word_dim))
    if pretrained:
        for form, vec in pretrained.items():
            if form in vocab.words:
                word_table[vocab.words[form]] = vec
    params["emb.word"] = ad.parameter(word_table)
    params["emb.char"] = ad.parameter(glorot(rng, (len(vocab.chars), config.char_dim)))
    params["cnn.filters"] = ad.parameter(
        glorot(rng, (config.char_width, config.char_dim, config.char_filters),
               fan_in=config.char_width * config.char_dim, fan_out=config.char_filters)
    )
    params["cnn.bias"] = ad.parameter(np.zeros(config.char_filters))
    needs_pos = mode == MODE_STAG or (mode in PARSER_MODES and config.use_pos_input)
    if needs_pos:
        params["emb.pos"] = ad.parameter(glorot(rng, (vocab.n_pos, config.pos_dim)))
    if mode in PARSER_MODES and config.use_stag_input:
        params["emb.stag"] = ad.parameter(glorot(rng, (vocab.n_stags, config.stag_dim)))
    in_dim = config.input_dim(mode)
    for layer in range(config.layers):
        for direction in ("fw", "bw"):
            init_lstm_params(rng, in_dim, config.hidden, config.highway,
                             f"lstm.{layer}.{direction}", params)
        in_dim = config.hidden if config.final_concat_only else 2 * config.hidden
    return params


def _linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    out = ad.matmul(x, ad.transpose(w))
    return out if b is None else ad.add(out, b)


def char_cnn(char_ids, char_emb: Tensor, filters: Tensor, bias: Tensor,
             pad_id: int = 0) -> Tensor:
    """Character vector for one word: embed -> width-w conv -> max over time.

    The word is padded with (w-1)//2 PAD characters on each side, so the
    convolution output has one position per character.
    """
    ids = list(char_ids)
    if not ids:
        raise ValueError("char_cnn: empty word")
    width = filters.shape[0]
    pad = [(pad_id)] * ((width - 1) // 2)
    emb = ad.embedding_lookup(char_emb, np.array(pad + ids + pad, dtype=np.int64))
    conv = ad.add(ad.conv1d(emb, filters), bias)
    return ad.max_over_axis(conv, axis=0)


def lstm_cell(x_t: Tensor, h_prev: Tensor, c_prev: Tensor, p: dict, prefix: str = ""):
    """One step over [B, d] rows: returns (h_t, c_t).

    The output is the highway mix when `p` holds `{prefix}W_r`, which
    `init_lstm_params` adds exactly when `config.highway` is on; the cell
    state update is the same either way.
    """
    cat = ad.concat([x_t, h_prev], axis=1)
    i = ad.sigmoid(_linear(cat, p[f"{prefix}W_i"], p[f"{prefix}b_i"]))
    f = ad.sigmoid(_linear(cat, p[f"{prefix}W_f"], p[f"{prefix}b_f"]))
    c_tilde = ad.tanh(_linear(cat, p[f"{prefix}W_c"], p[f"{prefix}b_c"]))
    o = ad.sigmoid(_linear(cat, p[f"{prefix}W_o"], p[f"{prefix}b_o"]))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, c_tilde))
    h = ad.mul(o, ad.tanh(c))
    if f"{prefix}W_r" in p:
        r = ad.sigmoid(_linear(cat, p[f"{prefix}W_r"], p[f"{prefix}b_r"]))
        bypass = ad.mul(ad.add(Tensor(1.0), ad.neg(r)), _linear(x_t, p[f"{prefix}W_h"]))
        h = ad.add(ad.mul(r, h), bypass)
    return h, c


def make_dropout_masks(rng: np.random.Generator, config: EncoderConfig, batch: int,
                       seq_len: int, in_dim: int) -> dict:
    """Inverted-dropout masks for one training batch; keys match bilstm_stack."""
    masks = {}

    def draw(rate, shape):
        return (rng.random(shape) >= rate) / (1.0 - rate)

    if config.dropout_input > 0:
        masks["input"] = draw(config.dropout_input, (batch, seq_len, in_dim))
    for layer in range(config.layers):
        if config.dropout_recurrent > 0:
            for direction in ("fw", "bw"):
                masks[("rec", layer, direction)] = draw(
                    config.dropout_recurrent, (batch, config.hidden)
                )
        if config.dropout_layer > 0 and layer < config.layers - 1:
            width = config.hidden if config.final_concat_only else 2 * config.hidden
            masks[("layer", layer)] = draw(config.dropout_layer, (batch, seq_len, width))
    return masks


def bilstm_stack(inputs: Tensor, params: dict, config: EncoderConfig,
                 masks: dict | None = None) -> Tensor:
    """Run the stack over [B, T, d] inputs; returns [B, T, 2*hidden]."""
    if config.layers < 1:
        raise ValueError("bilstm_stack: need at least one layer")
    batch, seq_len, _ = inputs.shape
    if seq_len < 1:
        raise ValueError("bilstm_stack: empty sequence")
    masks = masks or {}
    if "input" in masks:
        inputs = ad.dropout_with_mask(inputs, masks["input"])
    in_fw = in_bw = inputs
    layer_out = None
    for layer in range(config.layers):
        outs = {}
        for direction, stream in (("fw", in_fw), ("bw", in_bw)):
            prefix = f"lstm.{layer}.{direction}."
            h = Tensor(np.zeros((batch, config.hidden)))
            c = Tensor(np.zeros((batch, config.hidden)))
            rec_mask = masks.get(("rec", layer, direction))
            steps = range(seq_len) if direction == "fw" else range(seq_len - 1, -1, -1)
            collected = [None] * seq_len
            for t in steps:
                x_t = ad.reshape(ad.slice_axis(stream, 1, t, t + 1), (batch, -1))
                h_in = ad.dropout_with_mask(h, rec_mask) if rec_mask is not None else h
                h, c = lstm_cell(x_t, h_in, c, params, prefix)
                collected[t] = ad.reshape(h, (batch, 1, config.hidden))
            outs[direction] = ad.concat(collected, axis=1)
        layer_out = ad.concat([outs["fw"], outs["bw"]], axis=2)
        if layer < config.layers - 1:
            layer_mask = masks.get(("layer", layer))
            if config.final_concat_only:
                in_fw, in_bw = outs["fw"], outs["bw"]
                if layer_mask is not None:
                    in_fw = ad.dropout_with_mask(in_fw, layer_mask)
                    in_bw = ad.dropout_with_mask(in_bw, layer_mask)
            else:
                nxt = layer_out
                if layer_mask is not None:
                    nxt = ad.dropout_with_mask(nxt, layer_mask)
                in_fw = in_bw = nxt
    return layer_out

