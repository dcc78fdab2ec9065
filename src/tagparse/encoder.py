"""Sentence encoder: embeddings + character CNN + stacked highway BiLSTMs.

The LSTM cell follows the standard six-equation recurrence; the highway
variant replaces the output equation with a gated mix of the cell output
and a linear transform of the input:

    r_t = sigmoid(W_r [x_t ; h_prev] + b_r)
    h_t = r_t * o_t * tanh(c_t) + (1 - r_t) * W_h x_t

Each direction of each layer is one op on the autodiff tape, `lstm_layer`,
with a hand-written backpropagation-through-time backward, so the tape
grows with the number of layers, not with sentence length. The gates'
weights live stacked in one [G*H, d+H] matrix and their biases in one
[G*H] vector, in the fixed order i, f, c, o, then r with the highway
output. Checkpoints and the parameter dict keep one tensor per gate
(`lstm.{layer}.{fw|bw}.W_i`, `.b_i`, ..., `.W_h`), each a row view of its
stack, so the op reads the stacks without copying them.

Both directions of every layer are concatenated, and that concatenation,
after layer dropout, feeds both directions of the next layer.

A batch may mix sentence lengths: its rows are padded on the right to the
longest, T, and `lengths` gives each row's real length. Every batch takes
the one packed path: `lstm_layer` gathers the real tokens time-major with
the rows sorted longest first, so step t works on the prefix of the n_t
rows longer than t. No padded position is projected, stepped or
differentiated, the reverse direction starts each row at its own last
token, and the padded positions of every output are zero. An equal-length
batch is the case n_t = B, whose packed rows are the [T, B] grid.

`MODE_TASKS` is the one table of what each mode predicts: "arcs" (heads and
labels) and the tag columns "pos" and "stag". `EncoderConfig.input_tags` is
the one rule for the tag columns a mode reads: the supertagger reads POS,
parser-family modes read what `use_pos_input` and `use_stag_input` ask for.
No mode reads a column it predicts, as its gold value would be both input
and target; asking for that raises ValueError.

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
    "lstm_layer",
    "bilstm_stack",
    "make_dropout_masks",
    "MODE_POS",
    "MODE_STAG",
    "MODE_PARSER",
    "MODE_JOINT_STAG",
    "MODE_JOINT_POS_STAG",
    "MODE_TASKS",
    "TAGS",
    "PARSER_MODES",
]

MODE_POS = "pos-tagger"
MODE_STAG = "supertagger"
MODE_PARSER = "parser"
MODE_JOINT_STAG = "joint-stag"
MODE_JOINT_POS_STAG = "joint-pos-stag"
TAGS = ("pos", "stag")  # the tag columns, in the order the encoder reads them
# what each mode predicts: "arcs" (heads and relation labels) and tag columns
MODE_TASKS = {
    MODE_POS: ("pos",),
    MODE_STAG: ("stag",),
    MODE_PARSER: ("arcs",),
    MODE_JOINT_STAG: ("arcs", "stag"),
    MODE_JOINT_POS_STAG: ("arcs", "pos", "stag"),
}
ALL_MODES = tuple(MODE_TASKS)
PARSER_MODES = tuple(mode for mode, tasks in MODE_TASKS.items() if "arcs" in tasks)
GATES = ("i", "f", "c", "o")  # row order of the stacked gates; "r" follows with highway


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
    use_pos_input: bool = False
    use_stag_input: bool = False

    def __post_init__(self):
        for name in ("word_dim", "pos_dim", "stag_dim", "char_dim", "char_filters",
                     "char_width", "hidden", "layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"EncoderConfig.{name} must be positive")
        if self.char_width % 2 == 0:  # char_cnn would leave a 1-character word no window
            raise ValueError(f"EncoderConfig.char_width must be odd, got {self.char_width}")
        for name in ("dropout_input", "dropout_layer", "dropout_recurrent"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"EncoderConfig.{name} must be in [0, 1)")

    def input_tags(self, mode: str) -> tuple:
        """The tag columns, in TAGS order, that `mode` reads as input.

        Raises ValueError for an unknown mode, and for a mode asked to read
        a column it predicts.
        """
        if mode not in MODE_TASKS:
            raise ValueError(f"unknown mode {mode!r}; expected one of {ALL_MODES}")
        if mode in PARSER_MODES:
            tags = tuple(tag for tag in TAGS if getattr(self, f"use_{tag}_input"))
        else:
            tags = ("pos",) if mode == MODE_STAG else ()
        for tag in tags:
            if tag in MODE_TASKS[mode]:
                raise ValueError(f"mode {mode!r} predicts the {tag} column, so it cannot"
                                 f" read it: use_{tag}_input must be False")
        return tags

    def input_dim(self, mode: str) -> int:
        return self.word_dim + self.char_filters + sum(
            getattr(self, f"{tag}_dim") for tag in self.input_tags(mode))


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
    """One direction of one layer; gate matrices take [x_t ; h_prev].

    Each `W_g` and `b_g` is a row view of one weight and one bias stack,
    in the order of GATES then r, which `lstm_layer` reads without a copy.
    """
    gates = GATES + ("r",) if highway else GATES
    # one draw gives each gate the values of a Glorot draw of its own [H, d+H], in turn
    w = glorot(rng, (len(gates) * hidden, in_dim + hidden), fan_out=hidden)
    b = np.zeros(len(gates) * hidden)
    b[hidden : 2 * hidden] = 1.0  # forget-gate bias starts open
    for k, gate in enumerate(gates):
        rows = slice(k * hidden, (k + 1) * hidden)
        params[f"{prefix}.W_{gate}"] = ad.parameter(w[rows])
        params[f"{prefix}.b_{gate}"] = ad.parameter(b[rows])
    if highway:
        params[f"{prefix}.W_h"] = ad.parameter(glorot(rng, (hidden, in_dim)))


def init_encoder_params(rng, vocab: Vocabulary, config: EncoderConfig, mode: str,
                        pretrained: dict | None = None) -> dict:
    """Embedding tables, char-CNN filters and the LSTM stack for one mode.

    Word embeddings start at zero (rows from `pretrained` override); every
    other table and matrix is Glorot-uniform.
    """
    tags = config.input_tags(mode)
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
    for tag in tags:
        params[f"emb.{tag}"] = ad.parameter(
            glorot(rng, (len(vocab.tags(tag)), getattr(config, f"{tag}_dim"))))
    in_dim = config.input_dim(mode)
    for layer in range(config.layers):
        for direction in ("fw", "bw"):
            init_lstm_params(rng, in_dim, config.hidden, config.highway,
                             f"lstm.{layer}.{direction}", params)
        in_dim = 2 * config.hidden
    return params


def char_cnn(words, char_emb: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Character vectors [U, F] of U words: embed -> width-w conv -> max over time.

    `words` holds one list of char ids per word. Each word is padded with
    (w-1)//2 PAD characters on each side, so the convolution has one
    position per character (one fewer for even w), and right-padded with
    PAD to the longest word. Positions past a word's last window are set to
    -inf before the max, so each row is the vector the word gets alone.
    """
    if not words:
        raise ValueError("char_cnn: no words")
    lengths = np.array([len(ids) for ids in words])
    if lengths.min() == 0:
        raise ValueError("char_cnn: empty word")
    width = filters.shape[0]
    side = (width - 1) // 2
    windows = lengths + 2 * side - width + 1  # conv positions of each word
    if windows.min() < 1:
        u = int(np.argmin(windows))
        raise ad.ShapeError(f"char_cnn: word {u} has {lengths[u]} characters,"
                            f" too few for filter width {width}")
    ids = np.zeros((len(words), lengths.max() + 2 * side), dtype=np.int64)  # 0 is the PAD char
    for u, chars in enumerate(words):
        ids[u, side : side + len(chars)] = chars
    conv = ad.add(ad.conv1d(ad.embedding_lookup(char_emb, ids), filters), bias)  # [U, P, F]
    past_end = np.where(np.arange(conv.shape[1]) >= windows[:, None], -np.inf, 0.0)
    return ad.max_over_axis(ad.add(conv, past_end[:, :, None]), axis=1)


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
            width = 2 * config.hidden  # the [fw ; bw] output feeding the next layer
            masks[("layer", layer)] = draw(config.dropout_layer, (batch, seq_len, width))
    return masks


def _stacked(parts: list) -> np.ndarray:
    """The arrays stacked along axis 0: their buffer itself when they are its
    consecutive row blocks, as `init_lstm_params` lays them out, else a copy."""
    base, rest = parts[0].base, parts[0].shape[1:]
    if (base is not None and base.flags.c_contiguous
            and base.nbytes == sum(p.nbytes for p in parts)):
        at = base.ctypes.data
        for p in parts:
            if (p.base is not base or not p.flags.c_contiguous or p.shape[1:] != rest
                    or p.ctypes.data != at):
                break
            at += p.nbytes
        else:
            return base.reshape((-1,) + rest)
    return np.concatenate(parts)


def _packing(lengths, seq_len: int) -> tuple:
    """(order, counts, spans, rows): the packed time-major layout of rows of
    `lengths` real tokens, padded to `seq_len`.

    `order` sorts the rows longest first, stably; step t owns the first
    counts[t] sorted rows, at packed rows spans[t]. `rows` holds each packed
    row's index into the [B*T] grid of the padded input, so packing is one
    gather and unpacking one scatter. With equal lengths the packed rows are
    the [T, B] grid.
    """
    lens = np.asarray(lengths, dtype=np.float64)
    # a fraction would run as the next whole number; NaN fails every comparison
    if not (len(lens) and (lens == np.floor(lens)).all()
            and 1 <= lens.min() <= lens.max() <= seq_len):
        raise ValueError(f"lstm_layer: lengths {lens.tolist()} are not whole numbers that"
                         f" fit rows of 1..{seq_len} tokens")
    lens = lens.astype(np.int64)
    order = np.argsort(-lens, kind="stable")
    live = lens[order] > np.arange(lens.max())[:, None]  # [t, k]: sorted row k runs at step t
    counts = live.sum(axis=1).tolist()
    ends = np.cumsum(counts).tolist()
    spans = [slice(end - n, end) for n, end in zip(counts, ends)]
    steps, ranks = np.nonzero(live)  # time-major, each step's rows a prefix
    return order, counts, spans, order[ranks] * seq_len + steps


def lstm_layer(xs: Tensor, params: dict, prefix: str, hidden: int,
               rec_mask=None, reverse: bool = False, lengths=None) -> Tensor:
    """One direction of one layer over [B, T, d] inputs, as one tape node.

    The op sees the gate parameters `{prefix}.W_g` and `{prefix}.b_g`, in the
    order of GATES, then r when `{prefix}.W_r` is present (as
    `init_lstm_params` decides from `config.highway`), as one W [G*H, d+H]
    and one b [G*H]: the stacks that `init_lstm_params` made them views of,
    or a copy when they are not. The per-gate tensors are the op's parents,
    and each gets its row block of the stacked gradients. The input
    projection of every real token is one matmul, each step one recurrent
    matmul of the masked h_prev, and the backward is a hand-written BPTT
    sweep over the cached gate activations and cell states. Returns h_t for
    every t as [B, T, H]; `reverse` runs each row from its last token.

    `lengths` holds each row's real length, a whole number from 1 to T (all
    T when None); rows are padded on the right. Every batch takes one path:
    the real tokens are gathered time-major, rows sorted longest first, so
    step t owns the first n_t rows, those longer than t, and works on that
    prefix alone, forward and backward. No padded position is projected,
    stepped or differentiated, and the reverse direction starts each row
    from zero state at its own last token. Padded positions of the output
    are zero and pass no gradient back.
    """
    highway = f"{prefix}.W_r" in params
    gates = GATES + ("r",) if highway else GATES
    w_parts = [params[f"{prefix}.W_{g}"] for g in gates]
    b_parts = [params[f"{prefix}.b_{g}"] for g in gates]
    w = _stacked([p.value for p in w_parts])
    b = _stacked([p.value for p in b_parts])
    w_h = params[f"{prefix}.W_h"] if highway else None
    batch, seq_len, in_dim = xs.shape
    if w.shape[1] != in_dim + hidden:
        raise ad.ShapeError(f"lstm_layer: {prefix} gates of shape {w.shape} do not take"
                            f" inputs of width {in_dim} and {hidden} hidden units")
    lengths = np.full(batch, seq_len) if lengths is None else lengths
    if len(lengths) != batch:
        raise ValueError(f"lstm_layer: {len(lengths)} lengths for {batch} rows")
    order, counts, spans, grid_rows = _packing(lengths, seq_len)  # counts[t] is n_t
    total = len(grid_rows)

    def unpack(packed):  # packed rows as [B, T, w] rows, zero past each end
        out = np.zeros((batch * seq_len, packed.shape[1]))
        out[grid_rows] = packed
        return out.reshape(batch, seq_len, -1)

    if rec_mask is not None:  # rows longest first, as the steps read them
        rec_mask = np.asarray(rec_mask, dtype=np.float64)[order]
    w_x, w_rec = w[:, :in_dim], w[:, in_dim:]
    # packed rows [x_t | masked h_prev], step t's n_t rows after step t-1's
    xh = np.empty((total, in_dim + hidden))
    xh[:, :in_dim] = xs.value.reshape(batch * seq_len, in_dim)[grid_rows]
    h_ins = xh[:, in_dim:]
    x = xh[:, :in_dim]
    pre = x @ w_x.T + b
    proj = x @ w_h.value.T if highway else None
    acts = np.empty_like(pre)                  # activated gates
    tanh_c = np.empty((total, hidden))
    hs = np.empty((total, hidden))
    # cells[t + put, k] holds c_t of sorted row k, and cells[t + get, k] its c_prev
    cells = np.zeros((seq_len + 1, batch, hidden))
    put, get = (0, 1) if reverse else (1, 0)
    steps = range(len(counts) - 1, -1, -1) if reverse else range(len(counts))
    rec = np.empty((batch, w.shape[0]))       # h_prev's share of the gate inputs
    tmp = np.empty((batch, hidden))
    h = hs[:0]
    for t in steps:
        rows, n = spans[t], counts[t]
        h_in = h_ins[rows]
        m = min(n, len(h))  # rows that carry a state; rows starting here carry zeros
        if rec_mask is None:
            h_in[:m] = h[:m]
        else:
            np.multiply(h[:m], rec_mask[:m], out=h_in[:m])
        if m < n:
            h_in[m:] = 0.0
        z, a, tc, part = pre[rows], acts[rows], tanh_c[rows], tmp[:n]
        z += np.matmul(h_in, w_rec.T, out=rec[:n])
        ad.sigmoid_array(z, out=a)  # the c block is overwritten with its tanh below
        i, f, c_tilde, o = (a[:, k * hidden : (k + 1) * hidden] for k in range(4))
        np.tanh(z[:, 2 * hidden : 3 * hidden], out=c_tilde)
        c = cells[t + put][:n]
        np.multiply(f, cells[t + get][:n], out=c)
        c += np.multiply(i, c_tilde, out=part)
        np.tanh(c, out=tc)
        h = np.multiply(o, tc, out=hs[rows])
        if highway:
            r = a[:, 4 * hidden :]
            h *= r
            np.subtract(1.0, r, out=part)
            h += np.multiply(part, proj[rows], out=part)

    def bwd(g):
        g = g.reshape(batch * seq_len, hidden)[grid_rows]  # packed, as hs
        dz = np.empty_like(acts)
        dproj = np.empty_like(tanh_c) if highway else None
        # d loss / d h_t through step t+1's h_prev, and d loss / d c_t, per sorted row;
        # step t reads the first n_t rows, and a row's first step finds zeros there
        dh_rec = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        for t in reversed(steps):
            rows, n = spans[t], counts[t]
            a, d, tc = acts[rows], dz[rows], tanh_c[rows]
            i, f, c_tilde, o = (a[:, k * hidden : (k + 1) * hidden] for k in range(4))
            dh = g[rows] + dh_rec[:n]
            if highway:
                r = a[:, 4 * hidden :]
                d[:, 4 * hidden :] = dh * (o * tc - proj[rows]) * r * (1.0 - r)
                dproj[rows] = dh * (1.0 - r)
                dh = dh * r
            dc_t = dc[:n] + dh * o * (1.0 - tc * tc)
            d[:, :hidden] = dc_t * c_tilde * i * (1.0 - i)
            d[:, hidden : 2 * hidden] = dc_t * cells[t + get][:n] * f * (1.0 - f)
            d[:, 2 * hidden : 3 * hidden] = dc_t * i * (1.0 - c_tilde * c_tilde)
            d[:, 3 * hidden : 4 * hidden] = dh * tc * o * (1.0 - o)
            np.multiply(dc_t, f, out=dc[:n])
            np.matmul(d, w_rec, out=dh_rec[:n])
            if rec_mask is not None:
                dh_rec[:n] *= rec_mask[:n]
        dx = dz @ w_x
        grads = np.split(dz.T @ xh, len(gates)) + np.split(dz.sum(axis=0), len(gates))
        if highway:
            dx += dproj @ w_h.value
            grads.append(dproj.T @ x)
        return (unpack(dx), *grads)

    parents = (xs, *w_parts, *b_parts) + ((w_h,) if highway else ())
    return Tensor(unpack(hs), parents=parents, op="lstm_layer", backward=bwd)


def bilstm_stack(inputs: Tensor, params: dict, config: EncoderConfig,
                 masks: dict | None = None, lengths=None) -> Tensor:
    """Run the stack over [B, T, d] inputs; returns [B, T, 2*hidden].

    `lengths` holds each row's real length when rows are right-padded
    (see `lstm_layer`); the padded positions of the output are zero.
    """
    if config.layers < 1:
        raise ValueError("bilstm_stack: need at least one layer")
    batch, seq_len, _ = inputs.shape
    if seq_len < 1:
        raise ValueError("bilstm_stack: empty sequence")
    masks = masks or {}
    if "input" in masks:
        inputs = ad.dropout_with_mask(inputs, masks["input"])
    for layer in range(config.layers):
        # the previous layer's [fw ; bw] output, through layer dropout
        if ("layer", layer - 1) in masks:
            inputs = ad.dropout_with_mask(inputs, masks[("layer", layer - 1)])
        inputs = ad.concat([
            lstm_layer(inputs, params, f"lstm.{layer}.{direction}", config.hidden,
                       masks.get(("rec", layer, direction)), reverse=direction == "bw",
                       lengths=lengths)
            for direction in ("fw", "bw")], axis=2)
    return inputs
