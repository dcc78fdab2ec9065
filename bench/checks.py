"""Output checks that the benchmark computes apart from the program.

Nothing here calls the decoder or the metrics module: trees are validated,
scored and searched by brute force with numpy alone, and attachment scores
are recounted from the token columns.
"""

from __future__ import annotations

import unicodedata

import numpy as np


def is_tree(heads) -> bool:
    """True when `heads` (head of token i at index i-1, 0 = ROOT) is a
    single-rooted arborescence over tokens 1..n."""
    heads = [int(h) for h in heads]
    n = len(heads)
    if n == 0 or heads.count(0) != 1:
        return False
    for i, h in enumerate(heads, start=1):
        if h < 0 or h > n or h == i:
            return False
    for i in range(1, n + 1):
        node, hops = i, 0
        while node != 0:
            node = heads[node - 1]
            hops += 1
            if hops > n:
                return False
    return True


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of arc logits [n, n+1], self-heads set to -inf."""
    z = logits - logits.max(axis=1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = out.shape[0]
    out[np.arange(n), np.arange(1, n + 1)] = -np.inf
    return out


def tree_score(log_probs: np.ndarray, heads) -> float:
    """Sum over tokens of log p(head | token) for one head vector."""
    heads = np.asarray(heads, dtype=np.int64)
    return float(log_probs[np.arange(len(heads)), heads].sum())


def brute_force_best(log_probs: np.ndarray) -> float:
    """Best score over every single-rooted arborescence, by enumerating all
    (n+1)^n head assignments; n is at most 6."""
    n = log_probs.shape[0]
    if n > 6:
        raise ValueError(f"brute_force_best: n={n} is too large to enumerate")
    grids = np.stack(np.meshgrid(*[np.arange(n + 1)] * n, indexing="ij"), axis=-1)
    cand = grids.reshape(-1, n)
    keep = (cand == 0).sum(axis=1) == 1
    keep &= (cand != np.arange(1, n + 1)).all(axis=1)
    full = np.concatenate([np.zeros((len(cand), 1), dtype=cand.dtype), cand], axis=1)
    node = np.tile(np.arange(1, n + 1), (len(cand), 1))
    rows = np.arange(len(cand))[:, None]
    for _ in range(n):
        node = full[rows, node]  # ROOT is absorbing, so acyclic rows reach 0
    keep &= (node == 0).all(axis=1)
    scores = log_probs[np.arange(n), cand[keep]].sum(axis=1)
    return float(scores.max())


def is_punct(form: str) -> bool:
    """Every character is Unicode punctuation (P*) or a symbol (S*)."""
    return bool(form) and all(unicodedata.category(c)[0] in "PS" for c in form)


def attachment_scores(pred, gold) -> tuple:
    """(UAS, LAS) in percent over tokens whose gold form is not punctuation."""
    total = heads_ok = both_ok = 0
    for p, g in zip(pred, gold, strict=True):
        for tp, tg in zip(p.tokens, g.tokens, strict=True):
            if is_punct(tg.form):
                continue
            total += 1
            heads_ok += tp.head == tg.head
            both_ok += tp.head == tg.head and tp.rel == tg.rel
    return 100.0 * heads_ok / total, 100.0 * both_ok / total


def stag_accuracy(pred, gold) -> float:
    """Supertag accuracy in percent over all tokens."""
    pairs = [(tp.stag, tg.stag) for p, g in zip(pred, gold, strict=True)
             for tp, tg in zip(p.tokens, g.tokens, strict=True)]
    return 100.0 * sum(a == b for a, b in pairs) / len(pairs)


def finite_difference_mismatches(loss_at, grad: np.ndarray, value: np.ndarray,
                                 candidates, h: float = 1e-7, tol: float = 1e-5) -> tuple:
    """Compare `grad` with central differences of `loss_at()` at entries of
    `value`, perturbed in place and restored.

    An entry where the one-sided differences disagree lies on a kink (ReLU,
    max-pool or argmax) within +-h and is skipped; the first `len(candidates)
    // 2` smooth entries are compared. Returns (entries compared, mismatches).
    """
    base = loss_at()
    want = max(1, len(candidates) // 2)
    compared = mismatches = 0
    for idx in candidates:
        orig = value[idx]
        value[idx] = orig + h
        up = loss_at()
        value[idx] = orig - h
        down = loss_at()
        value[idx] = orig
        fwd, bwd = (up - base) / h, (base - down) / h
        scale = max(1.0, abs(fwd), abs(bwd), abs(float(grad[idx])))
        if abs(fwd - bwd) > tol * scale:
            continue
        compared += 1
        central = (up - down) / (2 * h)
        if abs(central - float(grad[idx])) > tol * scale:
            mismatches += 1
        if compared == want:
            break
    if compared == 0:
        mismatches += 1  # every candidate sat on a kink: nothing was verified
    return compared, mismatches
