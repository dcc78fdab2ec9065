"""Per-token, per-word, per-sentence and per-step reference paths that the
fused, batched and chunked code in src/ is checked against, the float64
prediction that the float32 `Model.predict` is checked against, and the tape
ops only they use."""

from dataclasses import dataclass, field

import numpy as np

import tagparse.autodiff as ad
from tagparse.autodiff import Tensor
from tagparse.encoder import ALL_MODES, PARSER_MODES
from tagparse.optim import Q_MIN, S_MIN, AdamState
from tagparse.vocab import Vocabulary


def neg(a: Tensor) -> Tensor:
    a = ad.as_tensor(a)
    return Tensor(-a.value, parents=(a,), op="neg", backward=lambda g: (-g,))


def sigmoid(a: Tensor) -> Tensor:
    a = ad.as_tensor(a)
    out = ad.sigmoid_array(a.value)
    return Tensor(out, parents=(a,), op="sigmoid",
                  backward=lambda g: (g * out * (1.0 - out),))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """The sign-split logistic function: 1/(1+e^-x) for x >= 0 and
    e^x/(1+e^x) below, so no positive argument is exponentiated."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def tanh(a: Tensor) -> Tensor:
    a = ad.as_tensor(a)
    out = np.tanh(a.value)
    return Tensor(out, parents=(a,), op="tanh", backward=lambda g: (g * (1.0 - out * out),))


def char_cnn(char_ids, char_emb: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Character vector [F] of one word: embed -> width-w conv -> max over time.

    The word is padded with (w-1)//2 PAD characters on each side, so the
    convolution output has one position per character.
    """
    ids = list(char_ids)
    if not ids:
        raise ValueError("char_cnn: empty word")
    width = filters.shape[0]
    pad = [0] * ((width - 1) // 2)  # the PAD char id
    emb = ad.embedding_lookup(char_emb, np.array(pad + ids + pad, dtype=np.int64))
    conv = ad.add(ad.conv1d(emb, filters), bias)
    return ad.max_over_axis(conv, axis=0)


def arc_logit_matrix(arc_dep: Tensor, arc_head: Tensor, params: dict) -> Tensor:
    """Arc scores [T, T+1] of one sentence from its [T+1, d] rows, ROOT first:
    row i-1 holds dependent i's scores over the T+1 candidate heads."""
    n_plus_1 = arc_head.shape[0]
    bilinear = ad.matmul(ad.matmul(arc_head, params["biaffine.W_arc"]),
                         ad.transpose(arc_dep))  # [heads, deps]
    head_bias = ad.matmul(arc_head, ad.reshape(params["biaffine.b_arc"], (-1, 1)))
    all_scores = ad.add(bilinear, head_bias)  # bias is per candidate head
    deps = ad.slice_axis(all_scores, 1, 1, n_plus_1)
    return ad.transpose(deps)  # [n, n+1]


def _token_pos(tok) -> str:
    # pipeline stages consume predicted POS when present, gold otherwise
    return tok.pred_pos if tok.pred_pos is not None else tok.gold_pos


def encode_tokens(sentence, mode: str, params: dict, vocab, config) -> Tensor:
    """Per-token input matrix for one sentence: [T, d] or [T+1, d] with ROOT.

    Parser-family modes prepend a ROOT row at index 0 that is identically
    zero regardless of parameters. Components are concatenated in the order
    word embedding, POS embedding, supertag embedding, character vector.
    """
    if mode not in ALL_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {ALL_MODES}")
    tokens = sentence.tokens
    if not tokens:
        raise ValueError("encode_tokens: empty sentence")
    rows = []
    for tok in tokens:
        parts = [ad.embedding_lookup(params["emb.word"],
                                     np.array([vocab.word_id(tok.form)]))]
        if "emb.pos" in params:
            parts.append(ad.embedding_lookup(params["emb.pos"],
                                             np.array([vocab.tag_id("pos", _token_pos(tok))])))
        if "emb.stag" in params:
            stag = tok.stag if tok.stag is not None else ""
            parts.append(ad.embedding_lookup(params["emb.stag"],
                                             np.array([vocab.tag_id("stag", stag)])))
        char_vec = char_cnn(vocab.char_ids(tok.form), params["emb.char"],
                            params["cnn.filters"], params["cnn.bias"])
        parts.append(ad.reshape(char_vec, (1, -1)))
        rows.append(ad.concat(parts, axis=1))
    mat = ad.concat(rows, axis=0)
    if mode in PARSER_MODES:
        root = Tensor(np.zeros((1, mat.shape[1])))
        mat = ad.concat([root, mat], axis=0)
    return mat


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """`ad.linear` as the matmul, transpose and add it replaces."""
    out = ad.matmul(x, ad.transpose(w))
    return out if b is None else ad.add(out, b)


def lstm_cell(x_t: Tensor, h_prev: Tensor, c_prev: Tensor, p: dict, prefix: str = ""):
    """One step over [B, d] rows on the tape: returns (h_t, c_t).

    The output is the highway mix when `p` holds `{prefix}W_r`; the cell
    state update is the same either way.
    """
    cat = ad.concat([x_t, h_prev], axis=1)
    i = sigmoid(linear(cat, p[f"{prefix}W_i"], p[f"{prefix}b_i"]))
    f = sigmoid(linear(cat, p[f"{prefix}W_f"], p[f"{prefix}b_f"]))
    c_tilde = tanh(linear(cat, p[f"{prefix}W_c"], p[f"{prefix}b_c"]))
    o = sigmoid(linear(cat, p[f"{prefix}W_o"], p[f"{prefix}b_o"]))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, c_tilde))
    h = ad.mul(o, tanh(c))
    if f"{prefix}W_r" in p:
        r = sigmoid(linear(cat, p[f"{prefix}W_r"], p[f"{prefix}b_r"]))
        bypass = ad.mul(ad.add(Tensor(1.0), neg(r)), linear(x_t, p[f"{prefix}W_h"]))
        h = ad.add(ad.mul(r, h), bypass)
    return h, c


def stepwise_bilstm_stack(inputs: Tensor, params: dict, config, masks: dict | None = None):
    """`bilstm_stack` as a loop of `lstm_cell` steps, about 30 tape nodes each."""
    batch, seq_len, _ = inputs.shape
    masks = masks or {}
    if "input" in masks:
        inputs = ad.dropout_with_mask(inputs, masks["input"])
    layer_out = None
    for layer in range(config.layers):
        outs = {}
        for direction in ("fw", "bw"):
            prefix = f"lstm.{layer}.{direction}."
            h = Tensor(np.zeros((batch, config.hidden)))
            c = Tensor(np.zeros((batch, config.hidden)))
            rec_mask = masks.get(("rec", layer, direction))
            steps = range(seq_len) if direction == "fw" else range(seq_len - 1, -1, -1)
            collected = [None] * seq_len
            for t in steps:
                x_t = ad.reshape(ad.slice_axis(inputs, 1, t, t + 1), (batch, -1))
                h_in = ad.dropout_with_mask(h, rec_mask) if rec_mask is not None else h
                h, c = lstm_cell(x_t, h_in, c, params, prefix)
                collected[t] = ad.reshape(h, (batch, 1, config.hidden))
            outs[direction] = ad.concat(collected, axis=1)
        layer_out = ad.concat([outs["fw"], outs["bw"]], axis=2)
        inputs = layer_out
        if layer < config.layers - 1 and ("layer", layer) in masks:
            inputs = ad.dropout_with_mask(layer_out, masks[("layer", layer)])
    return layer_out


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """`optim.adam_step` as whole-tensor expressions, with their temporaries:
    float32 moments and step, guards included, on float64 parameters."""
    state.t += 1
    root_bc2 = np.sqrt((1.0 - state.beta2**state.t) / (1.0 - state.beta2))
    step = np.float32(state.lr * (1.0 - state.beta1) / (1.0 - state.beta1**state.t) * root_bc2)
    eps_q = np.float32(state.eps * root_bc2)
    b1, b2 = np.float32(state.beta1), np.float32(state.beta2)
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        value = p.value if isinstance(p, Tensor) else p
        if g.shape != value.shape:
            raise ad.ShapeError(f"adam_step: param {name} shape {value.shape} vs grad {g.shape}")
        if name not in state.s:
            state.s[name] = np.zeros(value.shape, np.float32)
            state.q[name] = np.zeros(value.shape, np.float32)
        s, q = state.s[name], state.q[name]
        g32 = g.astype(np.float32)
        q[...] = np.maximum(q * b2 + g32 * g32, Q_MIN)
        s *= b1
        s += g32
        s *= np.abs(s) >= S_MIN
        value -= step * (s / (np.sqrt(q) + eps_q))
    return params


def float64_adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """The sums form with float64 moments and no guards: `optim.adam_step`
    before its moments became float32."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    root_bc2 = np.sqrt((1.0 - b2**state.t) / (1.0 - b2))
    step = state.lr * (1.0 - b1) / (1.0 - b1**state.t) * root_bc2
    eps_q = state.eps * root_bc2
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        value = p.value if isinstance(p, Tensor) else p
        if name not in state.s:
            state.s[name] = np.zeros_like(value)
            state.q[name] = np.zeros_like(value)
        s, q = state.s[name], state.q[name]
        s *= b1
        s += g
        q *= b2
        q += g * g
        value -= step * (s / (np.sqrt(q) + eps_q))
    return params


@dataclass
class TextbookAdamState:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def textbook_adam_step(params: dict, grads: dict, state: TextbookAdamState) -> dict:
    """Adam as Kingma & Ba write it, with the bias-corrected moments m and v."""
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for name, p in params.items():
        g = grads[name]
        value = p.value if isinstance(p, Tensor) else p
        if name not in state.m:
            state.m[name] = np.zeros_like(value)
            state.v[name] = np.zeros_like(value)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        value -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params


@ad.no_grad()
def predict(model, sentences: list, use_mst: bool = False) -> list:
    """`Model.predict` in float64: the same chunks, forwards and decoders on
    the model's own parameters."""
    results: list = [None] * len(sentences)
    for positions in model._chunks(sentences):
        chunk = [sentences[p] for p in positions]
        outs = model.forward(chunk)
        filled = [sent.copy() for sent in chunk]
        model._fill_tags(filled, outs)
        if "arcs" in model.tasks:
            model._fill_parse(filled, outs, use_mst)
        for pos, sent in zip(positions, filled):
            results[pos] = sent
    return results


def vocab_from_corpus(sentences) -> Vocabulary:
    """`Vocabulary.from_corpus` as one pass over the tokens, interning each
    form, character, POS tag (gold, then predicted), supertag and label."""

    def intern(table: dict, key: str) -> None:
        if key not in table:
            table[key] = len(table)

    v = Vocabulary()
    for sent in sentences:
        for tok in sent.tokens:
            intern(v.words, tok.form)
            for ch in tok.form:
                intern(v.chars, ch)
            intern(v.pos, tok.gold_pos)
            if tok.pred_pos is not None:
                intern(v.pos, tok.pred_pos)
            if tok.stag is not None:
                intern(v.stags, tok.stag)
            intern(v.rels, tok.rel)
    return v
