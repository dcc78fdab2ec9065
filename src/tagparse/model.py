"""Full model: encoder + scoring heads for one mode, with save/load.

A forward pass takes B sentences of any lengths, in any order, and pads
them on the right to the longest, T tokens. The encoder sees T rows per
sentence in tagger modes and T+1 in parser modes, with the zero ROOT row
at index 0; `lstm_layer` packs the real rows time-major, so it steps no
padded position. The heads project the real rows alone, packed sentence
after sentence (the "feature rows"), and give one tensor per batch: arc
scores [B, T, T+1] (column 0 = ROOT, padded head columns -inf), and label,
POS and supertag scores with one row per real token, sentence-major. An
equal-length batch takes the same path: its feature rows are the whole
[B, T(+1)] grid in row-major order, and no head column is masked.

`predict` sorts its input by length and runs one forward per chunk of at
most PREDICT_ROWS padded encoder rows. Its forwards compute in float32:
each call casts the float64 parameters once into a shallow copy of the
model, about 13 ms for the paper's 9.8M parameters, and the decoders read
float64 probabilities of its scores. Training, `forward` on the model
itself and the parameters stay float64; Adam's moments are float32
(`optim`).
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .decoder import ScoreMatrix, assign_labels, chu_liu_edmonds, enforce_tree, greedy_heads
from .corpus import PRED_FIELD
from .encoder import (
    ALL_MODES,
    MODE_TASKS,
    TAGS,
    EncoderConfig,
    bilstm_stack,
    char_cnn,
    init_encoder_params,
    make_dropout_masks,
)
from .heads import (
    HeadConfig,
    arc_logit_matrix,
    head_features,
    init_head_params,
    label_logits_pairs,
    pos_logits,
    stag_logits,
)
from .serialize import FormatError, load_tensors, save_tensors
from .vocab import Vocabulary

__all__ = ["Model", "BatchOutputs", "PREDICT_ROWS"]

# Padded encoder rows (sentences times the longest length, ROOT included) of
# one prediction forward: `predict` cuts its length-sorted input into chunks of
# at most this many. Measured in float64 on a 2-core host over the benchmark's
# held-out sets, as predict time per token and the tracemalloc peak of one pass:
# - hidden 400 (paper-dims: 114 sentences of 3-11 tokens, 2 BLAS threads):
#   1033 us at 64 rows, 673 us at 512, 612 us at 1024, and 499-534 us once
#   all 1368 padded rows are one chunk, against 650-868 us for one forward
#   per length. A recurrent step reads all of W_rec [2000, 400] whatever its
#   row count, so fewer, fuller steps keep paying. The peak grows by about
#   50 KB per padded row: 31 MB at 512 rows, 73 MB at 1368.
# - hidden 64 (short-joint: 200 sentences of 2-11 tokens, 1 thread): 110 us
#   at 64 rows, 84 us at 256, and flat at 68-78 us from 512 rows up; the
#   peak is 18 MB at 2048.
# 2048 keeps either set in one or two chunks, and bounds the passing memory
# of a chunk at the paper's sizes near 100 MB, less than the 149 MiB that the
# parameters and their float32 Adam moments hold. Prediction now computes in float32,
# which halves the memory per row. Re-measured at hidden 400 only (hidden 64
# was not): 229-234 us per token at 512 rows, 223-228 at 1024 and 196-201 in
# one chunk of 1368 rows, against 399-401, 351-356 and 324-362 in float64 in
# the same runs; the peak grows by about 23 KB per row, 56 MB at 512 rows and
# 75 MB at 1368, of which 39 MB is the per-call float32 copy of the parameters.
PREDICT_ROWS = 2048


@dataclass
class BatchOutputs:
    """Per-batch head outputs, aligned to the sentences that produced them."""

    sentences: list
    # [B, T, T+1], T the longest sentence: [b, i-1, j] scores head j of token i;
    # -inf past a sentence's ROOT and tokens, and rows past its end mean nothing
    arc_scores: Tensor | None = None
    # [N, r], a row per real token, sentence-major; None from a forward under
    # no_grad without rng
    label_logits: Tensor | None = None
    pos_logits: Tensor | None = None    # [N, n_pos]
    stag_logits: Tensor | None = None   # [N, n_stags]
    rel_dep: Tensor | None = None       # feature rows kept for labeling
    rel_head: Tensor | None = None      # decoded arcs at prediction time

    @property
    def lengths(self) -> np.ndarray:
        return np.array([len(s) for s in self.sentences])

    @property
    def arc_logits(self) -> list | None:
        """Per-sentence [n, n+1] slices of `arc_scores`, on the tape unless under no_grad."""
        if self.arc_scores is None:
            return None
        out = []
        for b, n in enumerate(self.lengths.tolist()):
            rows = ad.slice_axis(ad.slice_axis(self.arc_scores, 0, b, b + 1), 1, 0, n)
            out.append(ad.reshape(ad.slice_axis(rows, 2, 0, n + 1), (n, n + 1)))
        return out


def _input_tag(tok, tag: str) -> str:
    """The tag a token feeds the encoder; its predicted POS before its gold one."""
    if tag == "pos":
        return tok.pred_pos if tok.pred_pos is not None else tok.gold_pos
    return tok.stag or ""


class Model:
    def __init__(self, vocab: Vocabulary, mode: str, enc_config: EncoderConfig,
                 head_config: HeadConfig, rng: np.random.Generator,
                 pretrained: dict | None = None):
        self.vocab = vocab
        self.mode = mode
        self.enc_config = enc_config
        self.head_config = head_config
        self.params = init_encoder_params(rng, vocab, enc_config, mode, pretrained)
        self.params.update(
            init_head_params(rng, head_config, feat_dim=2 * enc_config.hidden,
                             n_pos=vocab.n_pos, n_stags=vocab.n_stags,
                             n_rels=vocab.n_rels, mode=mode)
        )

    @property
    def tasks(self) -> tuple:
        return MODE_TASKS[self.mode]

    @property
    def with_root(self) -> bool:
        return "arcs" in self.tasks

    # ----- input assembly -------------------------------------------------

    def _char_table(self, forms: list) -> tuple:
        """Char-CNN vector per unique form; returns (Tensor [U, F], index map)."""
        unique = sorted(set(forms))
        table = char_cnn([self.vocab.char_ids(f) for f in unique], self.params["emb.char"],
                         self.params["cnn.filters"], self.params["cnn.bias"])
        return table, {f: i for i, f in enumerate(unique)}

    def _input_batch(self, sentences: list) -> Tensor:
        """Encoder inputs [B, T(+1), d_in], right-padded to the longest sentence.

        A padded position reads row 0 of every table (the PAD word).
        """
        lengths = np.array([len(s) for s in sentences])
        real = np.arange(lengths.max()) < lengths[:, None]
        tokens = [t for s in sentences for t in s.tokens]
        forms = [t.form for t in tokens]
        char_table, char_idx = self._char_table(forms)

        def grid(ids):
            out = np.zeros(real.shape, dtype=np.int64)
            out[real] = ids
            return out

        parts = [ad.embedding_lookup(self.params["emb.word"],
                                     grid([self.vocab.word_id(f) for f in forms]))]
        for tag in self.enc_config.input_tags(self.mode):
            ids = grid([self.vocab.tag_id(tag, _input_tag(t, tag)) for t in tokens])
            parts.append(ad.embedding_lookup(self.params[f"emb.{tag}"], ids))
        parts.append(ad.embedding_lookup(char_table, grid([char_idx[f] for f in forms])))
        mat = ad.concat(parts, axis=2)  # [B, T, d_in]
        if self.with_root:
            root = Tensor(np.zeros((len(sentences), 1, mat.shape[2]), dtype=mat.value.dtype))
            mat = ad.concat([root, mat], axis=1)
        return mat

    # ----- forward --------------------------------------------------------

    def forward(self, sentences: list, rng: np.random.Generator | None = None) -> BatchOutputs:
        """Head outputs for sentences of any lengths; pass `rng` to enable
        training dropout.

        Outputs follow the order of `sentences`. Labels are scored on the
        gold heads with `rng` and on the argmax heads without it. Under
        `ad.no_grad` without `rng` they are not scored: a prediction labels
        its decoded heads instead.
        """
        if not sentences:
            raise ValueError("forward: no sentences")
        lengths = np.array([len(s) for s in sentences])
        if lengths.min() == 0:
            raise ValueError("forward: empty sentence")
        batch, root = len(sentences), int(self.with_root)
        width = int(lengths.max()) + root  # encoder rows of each padded sentence
        real = np.arange(width) < (lengths + root)[:, None]  # [B, W] rows to encode
        inputs = self._input_batch(sentences)
        feat_rows = int(real.sum())
        masks = None
        mlp_mask = None
        if rng is not None:
            masks = make_dropout_masks(rng, self.enc_config, batch, width,
                                       self.enc_config.input_dim(self.mode))
            p = self.head_config.mlp_dropout
            if p > 0:
                mlp_mask = (rng.random((feat_rows, 2 * self.enc_config.hidden)) >= p) / (1 - p)
        encoded = bilstm_stack(inputs, self.params, self.enc_config, masks, lengths + root)
        flat = ad.reshape(encoded, (batch * width, 2 * self.enc_config.hidden))
        # the heads project the real rows alone
        feats = head_features(ad.embedding_lookup(flat, np.flatnonzero(real)), self.params,
                              mlp_mask)
        out = BatchOutputs(sentences=list(sentences))
        starts, token_rows = self._feature_rows(lengths)
        if "arcs" in self.tasks:
            # the feature row of every grid position; a padded one reads its sentence's ROOT
            at = np.where(real, starts[:, None] + np.arange(width), starts[:, None])
            scores = arc_logit_matrix(ad.embedding_lookup(feats.arc_dep, at[:, 1:]),
                                      ad.embedding_lookup(feats.arc_head, at), self.params)
            # no token takes a padded head (Dozat & Manning 2017)
            pad = np.where(real, 0.0, -np.inf).astype(scores.value.dtype, copy=False)
            out.arc_scores = ad.add(scores, pad[:, None, :])
            out.rel_dep, out.rel_head = feats.rel_dep, feats.rel_head
            if rng is not None or ad.is_grad_enabled():
                head_rows = self._head_rows(sentences, starts, rng is not None, out.arc_scores)
                out.label_logits = self._label_logits(out, token_rows, head_rows)
        for tag, logits in zip(TAGS, (pos_logits, stag_logits)):
            if tag in self.tasks:
                tag_rows = ad.embedding_lookup(getattr(feats, tag), token_rows)
                setattr(out, f"{tag}_logits", logits(tag_rows, self.params))
        return out

    def _feature_rows(self, lengths: np.ndarray) -> tuple:
        """(starts, token_rows): the feature row where each sentence begins
        (at its ROOT in parser modes), and the row of every real token,
        sentence-major."""
        root = int(self.with_root)
        sizes = lengths + root
        starts = np.cumsum(sizes) - sizes
        token_rows = np.arange(lengths.sum()) + root * np.repeat(np.arange(1, len(sizes) + 1),
                                                                 lengths)
        return starts, token_rows

    def _label_logits(self, outs: BatchOutputs, dep_rows, head_rows) -> Tensor:
        """Relation scores for the arcs head_rows[k] -> dep_rows[k]."""
        return label_logits_pairs(
            ad.embedding_lookup(outs.rel_dep, dep_rows),
            ad.embedding_lookup(outs.rel_head, dep_rows),
            ad.embedding_lookup(outs.rel_head, head_rows),
            self.params,
        )

    def _head_rows(self, sentences, starts, training, arc_scores) -> np.ndarray:
        """Feature row of each real token's head for label scoring.

        Training conditions on the gold heads, a forward without dropout on
        the current arc argmax.
        """
        lengths = np.array([len(s) for s in sentences])
        if training:
            heads = np.array([t.head for s in sentences for t in s.tokens], dtype=np.int64)
            return np.repeat(starts, lengths) + heads
        real = np.arange(arc_scores.shape[1]) < lengths[:, None]
        return (starts[:, None] + np.argmax(arc_scores.value, axis=2))[real]

    # ----- prediction -----------------------------------------------------

    @ad.no_grad()
    def predict(self, sentences: list, use_mst: bool = False) -> list:
        """Fill predicted columns on copies of the input sentences; no tape is built.

        Sentences are encoded in chunks of similar length, one forward each,
        and returned in input order. The forwards run in float32 on a shallow
        copy of the model: one cast of every parameter per call, about 13 ms
        for the paper's 9.8M parameters, paid by a one-sentence call too.
        `self.params` stay float64 and untouched.
        """
        # cast per call: adam_step and load write the parameters in place, so a
        # kept cast would go stale
        model = copy.copy(self)
        model.params = _float32(self.params)
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

    def _chunks(self, sentences: list) -> list:
        """Input positions, shortest sentence first, cut into chunks of at most
        PREDICT_ROWS padded encoder rows (a longer sentence is a chunk alone)."""
        root = int(self.with_root)
        chunks: list = []
        chunk: list = []
        for pos in sorted(range(len(sentences)), key=lambda p: len(sentences[p])):
            if chunk and (len(chunk) + 1) * (len(sentences[pos]) + root) > PREDICT_ROWS:
                chunks.append(chunk)
                chunk = []
            chunk.append(pos)
        return chunks + [chunk] if chunk else chunks

    def _fill_tags(self, chunk: list, outs: BatchOutputs) -> None:
        """Argmax POS and supertags of a whole chunk; rows are sentence-major."""
        tokens = [tok for sent in chunk for tok in sent.tokens]
        for tag in TAGS:
            if tag in self.tasks:
                names = self.vocab.inverse(self.vocab.tags(tag))
                logits = getattr(outs, f"{tag}_logits").value
                for tok, i in zip(tokens, np.argmax(logits, axis=1)):
                    setattr(tok, PRED_FIELD[tag], names[int(i)])

    def _fill_parse(self, chunk: list, outs: BatchOutputs, use_mst: bool) -> None:
        """Decode every sentence of a chunk, then label all decoded arcs at once."""
        lengths = outs.lengths
        decoded = []
        # probabilities in float64: float32 exp underflows below about -104 nats, and
        # would hand the decoders -inf arcs that float64 keeps finite
        scores = outs.arc_scores.value.astype(np.float64)
        for probs, n in zip(ad.softmax(scores, axis=-1).value, lengths.tolist()):
            sm = ScoreMatrix.from_distributions(probs[:n, : n + 1])
            decoded.append(chu_liu_edmonds(sm) if use_mst else enforce_tree(sm, greedy_heads(sm)))
        # labels condition on the final decoded head of each token
        starts, token_rows = self._feature_rows(lengths)
        head_rows = np.repeat(starts, lengths) + np.concatenate([h[1:] for h in decoded])
        logits = self._label_logits(outs, token_rows, head_rows)
        label_probs = ad.softmax(logits.value.astype(np.float64), axis=-1).value
        names = self.vocab.inverse(self.vocab.rels)
        ends = np.cumsum(lengths).tolist()
        for filled, heads, end in zip(chunk, decoded, ends):
            labels = assign_labels(heads, label_probs[end - len(filled) : end])
            for i, tok in enumerate(filled.tokens, start=1):
                tok.head = int(heads[i])
                tok.rel = names[int(labels[i])]

    # ----- persistence ------------------------------------------------------

    def save(self, path) -> None:
        meta = {
            "mode": self.mode,
            "encoder": asdict(self.enc_config),
            "heads": asdict(self.head_config),
            "vocab": self.vocab.to_json(),
        }
        save_tensors(path, self.params, meta)

    @classmethod
    def load(cls, path) -> "Model":
        """Read a checkpoint written by `save`.

        Raises FormatError, naming the first mismatch, unless the metadata
        holds a vocabulary, a known mode and well-typed configs, and the
        tensors are exactly the parameters (names and shapes) that
        `__init__` builds for them.
        """
        tensors, meta = load_tensors(path)
        # __init__ lays out the expected parameters, zero-filled; their values are read below
        model = cls(*_read_meta(path, meta), _NoDraw())
        for name, param in model.params.items():
            if name not in tensors:
                raise FormatError(f"{path}: missing tensor {name!r}")
            if tensors[name].shape != param.shape:
                raise FormatError(f"{path}: tensor {name!r} has shape {tensors[name].shape},"
                                  f" expected {param.shape}")
        extra = [name for name in tensors if name not in model.params]
        if extra:
            raise FormatError(f"{path}: unexpected tensor {extra[0]!r}")
        for name, param in model.params.items():
            param.value[...] = tensors[name]  # in place: the LSTM gates stay views of their stacks
        return model


def _float32(params: dict) -> dict:
    """Float32 casts of `params`, each array cast once: a parameter that views
    a larger array (an LSTM gate, a row block of its stack) views the same
    elements of that array's cast, so `lstm_layer` still reads one stack."""
    casts: dict = {}
    out = {}
    for name, p in params.items():
        value, base = p.value, p.value.base
        if base is None:
            out[name] = Tensor(value.astype(np.float32))
            continue
        if id(base) not in casts:
            casts[id(base)] = base.astype(np.float32)
        shrink = value.itemsize // 4  # byte offsets and strides scale with the item size
        out[name] = Tensor(np.ndarray(
            value.shape, np.float32, casts[id(base)],
            offset=(value.ctypes.data - base.ctypes.data) // shrink,
            strides=tuple(s // shrink for s in value.strides)))
    return out


class _NoDraw:
    """Stands in for the generator where only parameter shapes matter: every
    Glorot draw (`glorot` is the one caller of `uniform`) comes out zeros."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


# the JSON values a config field of each annotated type accepts; bool is checked apart,
# since True and False are ints to isinstance
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool}
# fields of older checkpoints whose behaviour is now fixed; each loads only at that value
_REMOVED_FIELDS = {
    "encoder": {"final_concat_only": False},
    "heads": {"label_on_gold_heads": True, "rel_affine_uses_dep": False},
}


def _read_config(path, meta: dict, key: str, cls):
    """The config dataclass `cls` from `meta[key]`; FormatError names the bad field."""
    values = meta[key]
    if not isinstance(values, dict):
        raise FormatError(f"{path}: metadata {key!r} is {type(values).__name__}, not an object")
    types = {f.name: f.type for f in fields(cls)}
    removed = _REMOVED_FIELDS[key]
    for name, value in values.items():
        if name in removed:
            if value is not removed[name]:
                raise FormatError(f"{path}: metadata {key!r} field {name!r} is {value!r};"
                                  f" the field is removed and loads only as {removed[name]!r}")
            continue
        if name not in types:
            raise FormatError(f"{path}: metadata {key!r} has unknown field {name!r}")
        kind = types[name]
        is_bool = isinstance(value, bool)
        if is_bool != (kind == "bool") or not isinstance(value, _FIELD_TYPES[kind]):
            raise FormatError(f"{path}: metadata {key!r} field {name!r} is {value!r},"
                              f" expected {kind}")
    try:
        return cls(**{name: v for name, v in values.items() if name not in removed})
    except ValueError as e:  # __post_init__ range checks
        raise FormatError(f"{path}: metadata {key!r}: {e}") from None


def _read_meta(path, meta) -> tuple:
    """(vocab, mode, encoder config, head config) of a checkpoint's metadata."""
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: metadata is {type(meta).__name__}, not an object")
    for key in ("vocab", "mode", "encoder", "heads"):
        if key not in meta:
            raise FormatError(f"{path}: metadata lacks {key!r}")
    if meta["mode"] not in ALL_MODES:
        raise FormatError(f"{path}: metadata 'mode' is {meta['mode']!r},"
                          f" expected one of {ALL_MODES}")
    try:
        vocab = Vocabulary.from_json(meta["vocab"])
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: metadata 'vocab' is malformed: {e!r}") from None
    enc_config = _read_config(path, meta, "encoder", EncoderConfig)
    try:
        enc_config.input_tags(meta["mode"])
    except ValueError as e:  # the mode would read a column it predicts
        raise FormatError(f"{path}: metadata 'encoder': {e}") from None
    return vocab, meta["mode"], enc_config, _read_config(path, meta, "heads", HeadConfig)
