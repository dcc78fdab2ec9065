"""Training loop: length-bucketed batches, joint loss, early stopping,
jackknifing, and the shuffled-supertag control."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import GOLD_FIELD, PRED_FIELD
from .encoder import MODE_JOINT_POS_STAG, MODE_PARSER, MODE_TASKS, TAGS, EncoderConfig
from .heads import HeadConfig
from .metrics import joint_correct, las_uas, tag_accuracy
from .model import BatchOutputs, Model
from .optim import AdamState, adam_step
from .vocab import Vocabulary

__all__ = [
    "TrainConfig",
    "EpochReport",
    "TrainResult",
    "joint_loss",
    "train",
    "evaluate_dev",
    "jackknife",
    "FoldProvenance",
    "shuffle_stag_targets",
]


@dataclass
class TrainConfig:
    mode: str = MODE_JOINT_POS_STAG
    batch_size: int = 100
    lr: float = 0.01
    patience: int = 5
    max_epochs: int = 200
    seed: int = 0
    folds: int = 10
    shuffle_stag: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class EpochReport:
    epoch: int
    train_loss: float
    metrics: dict
    dev_score: float
    seconds: float       # wall time of the epoch's training steps, dev scoring apart
    tokens_per_s: float  # training tokens over `seconds`
    grad_norm: float     # the largest global gradient norm of the epoch's steps

    def to_json(self) -> str:
        return json.dumps(
            {"epoch": self.epoch, "train_loss": round(self.train_loss, 6),
             "dev_score": round(self.dev_score, 4),
             **{k: round(v, 4) for k, v in self.metrics.items()},
             "seconds": round(self.seconds, 3), "tokens_per_s": round(self.tokens_per_s, 1),
             "grad_norm": round(self.grad_norm, 6)}
        )


@dataclass
class TrainResult:
    model: Model
    history: list
    best_epoch: int


def joint_loss(outputs: BatchOutputs, sentences: list, vocab: Vocabulary,
               mode: str) -> ad.Tensor:
    """Sum of per-token cross-entropies over the tasks `MODE_TASKS[mode]`.

    Only real tokens count: tagging and label outputs carry no other rows,
    and the arc rows of padded positions are left out.
    """
    lengths = np.array([len(s) for s in sentences])
    if outputs.lengths.tolist() != lengths.tolist():
        raise ValueError("joint_loss: outputs and gold sentences are misaligned")
    tasks = MODE_TASKS[mode]
    parts = []
    if "arcs" in tasks:
        batch, seq, heads = outputs.arc_scores.shape
        if (batch, seq) != (len(sentences), lengths.max()):
            raise ValueError("joint_loss: arc scores misaligned with sentences")
        real = np.flatnonzero(np.arange(seq) < lengths[:, None])  # in [B*T], sentence-major
        arc = ad.embedding_lookup(ad.reshape(outputs.arc_scores, (batch * seq, heads)), real)
        gold_heads = np.array([t.head for s in sentences for t in s.tokens])
        parts.append(ad.reduce_sum(ad.cross_entropy_with_logits(arc, gold_heads)))
        rel_ids = np.array([vocab.rel_id(t.rel) for s in sentences for t in s.tokens])
        parts.append(ad.reduce_sum(ad.cross_entropy_with_logits(outputs.label_logits, rel_ids)))
    for tag in TAGS:
        if tag in tasks:
            gold = [getattr(t, GOLD_FIELD[tag]) for s in sentences for t in s.tokens]
            if None in gold:
                raise ValueError(f"joint_loss: {tag} targets missing")
            ids = np.array([vocab.tag_id(tag, name) for name in gold])
            logits = getattr(outputs, f"{tag}_logits")
            parts.append(ad.reduce_sum(ad.cross_entropy_with_logits(logits, ids)))
    total = parts[0]
    for p in parts[1:]:
        total = ad.add(total, p)
    return total


def make_batches(sentences: list, batch_size: int, rng: np.random.Generator) -> list:
    """Shuffle, group by length, chunk; every batch has one sentence length."""
    order = rng.permutation(len(sentences))
    by_len: dict = {}
    for idx in order:
        by_len.setdefault(len(sentences[idx]), []).append(sentences[idx])
    batches = []
    for _, group in sorted(by_len.items()):
        for lo in range(0, len(group), batch_size):
            batches.append(group[lo : lo + batch_size])
    batch_order = rng.permutation(len(batches))
    return [batches[i] for i in batch_order]


def evaluate_dev(model: Model, gold: list) -> dict:
    """Dropout-free predictions of `gold`'s sentences, scored against it."""
    pred = model.predict(gold)
    tasks = model.tasks
    metrics: dict = {}
    if "arcs" in tasks:
        metrics["uas"], metrics["las"] = las_uas(pred, gold)
    for tag in TAGS:
        if tag in tasks:
            metrics[f"{tag}_acc"] = tag_accuracy(pred, gold, tag)
    if "arcs" in tasks and len(tasks) > 1:
        metrics["joint_correct"] = joint_correct(
            pred, gold, require_pos="pos" in tasks, require_stag="stag" in tasks)
    return metrics


def dev_criterion(mode: str, metrics: dict) -> float:
    """The dev score that early stopping follows: the accuracy of a tagger's
    column, LAS of the parser, and joint correctness of the joint modes.

    `train` scores the shuffled-supertag control of a parsing mode as the
    parser, on LAS: its supertag targets are noise the dev gold does not share.
    """
    tasks = MODE_TASKS[mode]
    if "arcs" not in tasks:
        (tag,) = tasks
        return metrics.get(f"{tag}_acc", 0.0)
    return metrics.get("joint_correct" if len(tasks) > 1 else "las", 0.0)


def train(train_corpus: list, dev_corpus: list, config: TrainConfig,
          enc_config: EncoderConfig, head_config: HeadConfig | None = None,
          vocab: Vocabulary | None = None, pretrained: dict | None = None,
          log=None) -> TrainResult:
    """Optimize until the dev criterion stalls for `patience` epochs.

    Returns the model restored to its best dev epoch plus the full history.
    """
    if not train_corpus or not dev_corpus:
        raise ValueError("train: empty corpus")
    head_config = head_config or HeadConfig()
    vocab = vocab or Vocabulary.from_corpus(train_corpus)
    rng = np.random.default_rng(config.seed)
    if config.shuffle_stag:
        train_corpus = shuffle_stag_targets(train_corpus, seed=config.seed)
    model = Model(vocab, config.mode, enc_config, head_config, rng, pretrained)
    state = AdamState(lr=config.lr)
    criterion_mode = (MODE_PARSER if config.shuffle_stag and "arcs" in model.tasks
                      else config.mode)
    best_score, best_epoch, best_params = -np.inf, 0, None
    history, stall = [], 0
    for epoch in range(1, config.max_epochs + 1):
        total_loss, total_tokens, max_norm = 0.0, 0, 0.0
        start = time.perf_counter()
        for batch in make_batches(train_corpus, config.batch_size, rng):
            loss, norm = _train_step(model, batch, rng, state, epoch)
            total_loss += loss
            max_norm = max(max_norm, norm)
            total_tokens += sum(len(s) for s in batch)
        seconds = time.perf_counter() - start
        metrics = evaluate_dev(model, dev_corpus)
        score = dev_criterion(criterion_mode, metrics)
        report = EpochReport(epoch, total_loss / max(total_tokens, 1), metrics, score,
                             seconds, total_tokens / seconds, max_norm)
        history.append(report)
        if log is not None:
            log(report)
        if score > best_score:
            best_score, best_epoch = score, epoch
            best_params = {k: p.value.copy() for k, p in model.params.items()}
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break
    if best_params is not None:
        for k, p in model.params.items():
            p.value[...] = best_params[k]
    return TrainResult(model=model, history=history, best_epoch=best_epoch)


def _train_step(model: Model, batch: list, rng, state: AdamState, epoch: int) -> tuple:
    """One Adam step on one batch; returns the batch's summed loss and the
    global norm of its gradients.

    A non-finite loss or gradient norm raises FloatingPointError before
    `adam_step` changes anything. The step's tape, loss and gradients die
    on return, before the next step's forward.
    """
    loss = joint_loss(model.forward(batch, rng), batch, model.vocab, model.mode)
    where = f"in epoch {epoch} on a batch of {len(batch)} sentences of length {len(batch[0])}"
    if not np.isfinite(loss.value):
        raise FloatingPointError(f"train: loss {float(loss.value)} {where}")
    grads = ad.gradients(loss, model.params)
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if not math.isfinite(norm):
        bad = next((name for name, g in grads.items() if not np.isfinite(g).all()), None)
        cause = f"the gradient of {bad} is not finite" if bad else "it overflows"
        raise FloatingPointError(f"train: gradient norm {norm} {where}: {cause}")
    adam_step(model.params, grads, state)
    ad.zero_grads(model.params)
    return float(loss.value), norm


@dataclass
class FoldProvenance:
    sentence_index: int
    fold: int
    predicted_by_fold: int
    trained_on: tuple


def fold_spans(n: int, k: int) -> list:
    """Contiguous fold index ranges; the first n % k folds get the extra item."""
    base, extra = divmod(n, k)
    spans, lo = [], 0
    for f in range(k):
        hi = lo + base + (1 if f < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


def jackknife(corpus: list, config: TrainConfig, enc_config: EncoderConfig,
              head_config: HeadConfig | None = None) -> tuple:
    """Predict tags for every sentence with a model never trained on its fold.

    With k = `config.folds`, fold f is predicted by a model trained on k-2
    folds that early-stops on fold f+1 (wrapping around). Returns (corpus
    copy with predictions filled, provenance records). Order is preserved;
    the tag columns that `config.mode` predicts are written.
    """
    k = config.folds
    if k < 3:
        raise ValueError("jackknife: need k >= 3 folds (predict, early-stop, train)")
    if len(corpus) < k:
        raise ValueError(f"jackknife: corpus of {len(corpus)} sentences is smaller than k={k}")
    spans = fold_spans(len(corpus), k)
    out = [s.copy() for s in corpus]
    provenance = []
    columns = [PRED_FIELD[tag] for tag in TAGS if tag in MODE_TASKS[config.mode]]
    for f, (lo, hi) in enumerate(spans):
        held_out = corpus[lo:hi]
        dev_fold = (f + 1) % k
        trained_on = tuple(g for g in range(k) if g not in (f, dev_fold))
        rest = [s for g in trained_on for s in corpus[slice(*spans[g])]]
        result = train(rest, corpus[slice(*spans[dev_fold])], config, enc_config, head_config)
        pred = result.model.predict(held_out)
        for offset, sent in enumerate(pred):
            idx = lo + offset
            for tok, p in zip(out[idx].tokens, sent.tokens):
                for column in columns:
                    setattr(tok, column, getattr(p, column))
            provenance.append(FoldProvenance(idx, f, f, trained_on))
    return out, provenance


def shuffle_stag_targets(corpus: list, seed: int) -> list:
    """Globally permute the supertag column; the multiset is preserved."""
    rng = np.random.default_rng(seed)
    flat = [t.stag for s in corpus for t in s.tokens]
    perm = rng.permutation(len(flat))
    shuffled = [flat[i] for i in perm]
    out, pos = [], 0
    for s in corpus:
        copy = s.copy()
        for t in copy.tokens:
            t.stag = shuffled[pos]
            pos += 1
        out.append(copy)
    return out
