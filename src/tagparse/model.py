"""Full model: encoder + scoring heads for one mode, with save/load.

Forward passes run over buckets of B same-length sentences of T tokens,
and every head gives one tensor per bucket: arc scores [B, T, T+1] (column
0 = ROOT), and label, POS and supertag scores with one row per token,
sentence-major. The encoder sees T rows per sentence in tagger modes and
T+1 in parser modes, with the zero ROOT row at index 0.
"""

from __future__ import annotations

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

__all__ = ["Model", "BatchOutputs"]


@dataclass
class BatchOutputs:
    """Per-bucket head outputs, aligned to the sentences that produced them."""

    sentences: list
    arc_scores: Tensor | None = None    # [B, T, T+1]: [b, i-1, j] scores head j of token i
    # [B*T, r], sentence-major; None from a forward under no_grad without rng
    label_logits: Tensor | None = None
    pos_logits: Tensor | None = None    # [B*T, n_pos]
    stag_logits: Tensor | None = None   # [B*T, n_stags]
    rel_dep: Tensor | None = None       # projection rows kept for labeling
    rel_head: Tensor | None = None      # decoded arcs at prediction time

    @property
    def arc_logits(self) -> list | None:
        """Per-sentence [T, T+1] slices of `arc_scores`, on the tape unless under no_grad."""
        if self.arc_scores is None:
            return None
        batch, seq, cols = self.arc_scores.shape
        return [ad.reshape(ad.slice_axis(self.arc_scores, 0, b, b + 1), (seq, cols))
                for b in range(batch)]


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
        batch = len(sentences)
        forms = [t.form for s in sentences for t in s.tokens]
        char_table, char_idx = self._char_table(forms)
        word_ids = np.array([[self.vocab.word_id(t.form) for t in s.tokens]
                             for s in sentences])
        parts = [ad.embedding_lookup(self.params["emb.word"], word_ids)]
        for tag in self.enc_config.input_tags(self.mode):
            tag_ids = np.array([[self.vocab.tag_id(tag, _input_tag(t, tag)) for t in s.tokens]
                                for s in sentences])
            parts.append(ad.embedding_lookup(self.params[f"emb.{tag}"], tag_ids))
        char_rows = np.array([[char_idx[t.form] for t in s.tokens] for s in sentences])
        parts.append(ad.embedding_lookup(char_table, char_rows))
        mat = ad.concat(parts, axis=2)  # [B, T, d_in]
        if self.with_root:
            root = Tensor(np.zeros((batch, 1, mat.shape[2])))
            mat = ad.concat([root, mat], axis=1)
        return mat

    # ----- forward --------------------------------------------------------

    def forward(self, sentences: list, rng: np.random.Generator | None = None) -> BatchOutputs:
        """Head outputs for one bucket; pass `rng` to enable training dropout.

        Labels are scored on the gold heads with `rng` and on the argmax
        heads without it. Under `ad.no_grad` without `rng` they are not
        scored: a prediction labels its decoded heads instead.
        """
        if not sentences:
            raise ValueError("forward: empty bucket")
        lengths = {len(s) for s in sentences}
        if len(lengths) != 1:
            raise ValueError(f"forward: bucket mixes sentence lengths {sorted(lengths)}")
        (seq,) = lengths
        if seq == 0:
            raise ValueError("forward: empty sentence")
        batch = len(sentences)
        rows = seq + 1 if self.with_root else seq
        inputs = self._input_batch(sentences)
        masks = None
        mlp_mask = None
        if rng is not None:
            masks = make_dropout_masks(rng, self.enc_config, batch, rows,
                                       self.enc_config.input_dim(self.mode))
            p = self.head_config.mlp_dropout
            if p > 0:
                mlp_mask = (rng.random((batch * rows, 2 * self.enc_config.hidden)) >= p) / (1 - p)
        encoded = bilstm_stack(inputs, self.params, self.enc_config, masks)
        flat = ad.reshape(encoded, (batch * rows, 2 * self.enc_config.hidden))
        feats = head_features(flat, self.params, mlp_mask)
        out = BatchOutputs(sentences=list(sentences))
        token_rows = self._token_rows(batch, seq)
        if "arcs" in self.tasks:
            out.arc_scores = arc_logit_matrix(
                ad.embedding_lookup(feats.arc_dep, token_rows.reshape(batch, seq)),
                ad.reshape(feats.arc_head, (batch, rows, -1)), self.params)
            out.rel_dep, out.rel_head = feats.rel_dep, feats.rel_head
            if rng is not None or ad.is_grad_enabled():
                head_rows = self._head_rows(sentences, rows, rng is not None, out.arc_scores)
                out.label_logits = self._label_logits(out, token_rows, head_rows)
        for tag, logits in zip(TAGS, (pos_logits, stag_logits)):
            if tag in self.tasks:
                rows = ad.embedding_lookup(getattr(feats, tag), token_rows)
                setattr(out, f"{tag}_logits", logits(rows, self.params))
        return out

    def _token_rows(self, batch: int, seq: int) -> np.ndarray:
        """Feature-row index of every real token of a bucket, sentence-major.

        Sentence b owns rows b*(T+1) .. b*(T+1)+T, ROOT first, in parser
        modes, and rows b*T .. b*T+T-1 in tagger modes.
        """
        root = int(self.with_root)
        return (np.arange(batch)[:, None] * (seq + root) + root + np.arange(seq)).ravel()

    def _label_logits(self, outs: BatchOutputs, dep_rows, head_rows) -> Tensor:
        """Relation scores for the arcs head_rows[k] -> dep_rows[k]."""
        return label_logits_pairs(
            ad.embedding_lookup(outs.rel_dep, dep_rows),
            ad.embedding_lookup(outs.rel_head, dep_rows),
            ad.embedding_lookup(outs.rel_head, head_rows),
            self.params,
        )

    def _head_rows(self, sentences, rows, training, arc_scores) -> np.ndarray:
        """Global feature-row index of each token's head for label scoring.

        Training conditions on the gold heads, a forward without dropout on
        the current arc argmax.
        """
        if training:
            heads = np.array([[t.head for t in s.tokens] for s in sentences], dtype=np.int64)
        else:
            heads = np.argmax(arc_scores.value, axis=2)
        return (np.arange(len(sentences))[:, None] * rows + heads).ravel()

    # ----- prediction -----------------------------------------------------

    @ad.no_grad()
    def predict(self, sentences: list, use_mst: bool = False) -> list:
        """Fill predicted columns on copies of the input sentences; no tape is built."""
        by_len: dict = {}
        for pos, sent in enumerate(sentences):
            by_len.setdefault(len(sent), []).append(pos)
        results: list = [None] * len(sentences)
        for _, positions in sorted(by_len.items()):
            bucket = [sentences[p] for p in positions]
            outs = self.forward(bucket)
            filled = [sent.copy() for sent in bucket]
            self._fill_tags(filled, outs)
            if "arcs" in self.tasks:
                self._fill_parse(filled, outs, use_mst)
            for pos, sent in zip(positions, filled):
                results[pos] = sent
        return results

    def _fill_tags(self, bucket: list, outs: BatchOutputs) -> None:
        """Argmax POS and supertags of a whole bucket; rows are sentence-major."""
        tokens = [tok for sent in bucket for tok in sent.tokens]
        for tag in TAGS:
            if tag in self.tasks:
                names = self.vocab.inverse(self.vocab.tags(tag))
                logits = getattr(outs, f"{tag}_logits").value
                for tok, i in zip(tokens, np.argmax(logits, axis=1)):
                    setattr(tok, PRED_FIELD[tag], names[int(i)])

    def _fill_parse(self, bucket: list, outs: BatchOutputs, use_mst: bool) -> None:
        """Decode every sentence of a bucket, then label all decoded arcs at once."""
        seq = len(bucket[0])
        decoded = []
        for probs in ad.softmax(outs.arc_scores, axis=-1).value:
            sm = ScoreMatrix.from_distributions(probs)
            decoded.append(chu_liu_edmonds(sm) if use_mst else enforce_tree(sm, greedy_heads(sm)))
        # labels condition on the final decoded head of each token
        offsets = np.arange(len(bucket))[:, None] * (seq + 1)
        head_rows = (offsets + np.stack(decoded)[:, 1:]).ravel()
        logits = self._label_logits(outs, self._token_rows(len(bucket), seq), head_rows)
        label_probs = ad.softmax(logits, axis=-1).value
        names = self.vocab.inverse(self.vocab.rels)
        for local, (filled, heads) in enumerate(zip(bucket, decoded)):
            labels = assign_labels(heads, label_probs[local * seq : (local + 1) * seq])
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
