"""Attachment scores, tagging accuracy, and bucketed F1 breakdowns.

LAS/UAS disregard pure punctuation: a token is pure punctuation when every
character's Unicode category starts with P or S. Percentages are 0..100.
"""

from __future__ import annotations

import unicodedata

from .corpus import GOLD_FIELD, PRED_FIELD

__all__ = [
    "is_pure_punctuation",
    "las_uas",
    "tag_accuracy",
    "joint_correct",
    "f1_by_bucket",
    "bucket_tsv",
    "N_BUCKETS",
]

N_BUCKETS = 11  # 1..10 plus 11+


def is_pure_punctuation(form: str) -> bool:
    return bool(form) and all(unicodedata.category(ch)[0] in ("P", "S") for ch in form)


def _check_aligned(pred, gold):
    if len(pred) != len(gold):
        raise ValueError(f"corpus length mismatch: {len(pred)} vs {len(gold)} sentences")
    for k, (p, g) in enumerate(zip(pred, gold)):
        if len(p) != len(g):
            raise ValueError(f"sentence {k}: {len(p)} vs {len(g)} tokens")


def las_uas(pred, gold) -> tuple:
    """(UAS, LAS) over non-punctuation tokens."""
    _check_aligned(pred, gold)
    total = head_ok = both_ok = 0
    for p, g in zip(pred, gold):
        for tp, tg in zip(p.tokens, g.tokens):
            if is_pure_punctuation(tg.form):
                continue
            total += 1
            if tp.head == tg.head:
                head_ok += 1
                if tp.rel == tg.rel:
                    both_ok += 1
    if total == 0:
        return 0.0, 0.0
    return 100.0 * head_ok / total, 100.0 * both_ok / total


def tag_accuracy(pred, gold, which: str) -> float:
    """Token accuracy for `which` in {"pos", "stag"}; gold column is the target."""
    _check_aligned(pred, gold)
    total = ok = 0
    for p, g in zip(pred, gold):
        for tp, tg in zip(p.tokens, g.tokens):
            total += 1
            ok += getattr(tp, PRED_FIELD[which]) == getattr(tg, GOLD_FIELD[which])
    return 100.0 * ok / total if total else 0.0


def joint_correct(pred, gold, require_pos: bool, require_stag: bool) -> float:
    """% tokens with correct parent and relation (plus tags as required)."""
    _check_aligned(pred, gold)
    total = ok = 0
    for p, g in zip(pred, gold):
        for tp, tg in zip(p.tokens, g.tokens):
            total += 1
            good = tp.head == tg.head and tp.rel == tg.rel
            if require_stag:
                good = good and tp.stag == tg.stag
            if require_pos:
                good = good and tp.pred_pos == tg.gold_pos
            ok += good
    return 100.0 * ok / total if total else 0.0


def _depths(sentence) -> list:
    heads = [t.head for t in sentence.tokens]
    n = len(heads)
    depths = [0] * (n + 1)  # index 0 = ROOT
    for i in range(1, n + 1):
        d, node, hops = 0, i, 0
        while node != 0 and hops <= n:
            node = heads[node - 1]
            d += 1
            hops += 1
        depths[i] = d
    return depths


def _arc_key(i: int, head: int, depths, key: str) -> int:
    if key == "dep-length":
        return min(abs(i - head), N_BUCKETS)
    if key == "root-distance":
        return min(depths[i], N_BUCKETS)
    raise ValueError(f"unknown bucket key {key!r}")


def f1_by_bucket(pred, gold, key: str) -> list:
    """F1 per bucket 1..10 and 11+ over labeled arcs treated as sets.

    Every arc (sentence, dependent, head, label) lands in the bucket of its
    own tree's key; precision counts predicted arcs that appear in gold,
    recall counts gold arcs that appear in predicted.
    """
    _check_aligned(pred, gold)
    pred_sets = [dict() for _ in range(N_BUCKETS)]
    gold_sets = [dict() for _ in range(N_BUCKETS)]
    for sets, corpus in ((pred_sets, pred), (gold_sets, gold)):
        for s_idx, sent in enumerate(corpus):
            depths = _depths(sent)
            for i, tok in enumerate(sent.tokens, start=1):
                b = _arc_key(i, tok.head, depths, key) - 1
                sets[b][(s_idx, i, tok.head, tok.rel)] = True
    all_pred = {a for s in pred_sets for a in s}
    all_gold = {a for s in gold_sets for a in s}
    scores = []
    for b in range(N_BUCKETS):
        p_arcs, g_arcs = set(pred_sets[b]), set(gold_sets[b])
        tp_p = len(p_arcs & all_gold)
        tp_r = len(g_arcs & all_pred)
        precision = tp_p / len(p_arcs) if p_arcs else 0.0
        recall = tp_r / len(g_arcs) if g_arcs else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        scores.append(100.0 * f1)
    return scores


def bucket_tsv(scores) -> str:
    """Plot-ready TSV: bucket label and F1 per line."""
    labels = [str(i) for i in range(1, N_BUCKETS)] + [f"{N_BUCKETS}+"]
    return "\n".join(f"{lab}\t{f1:.2f}" for lab, f1 in zip(labels, scores)) + "\n"

