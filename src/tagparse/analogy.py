"""Syntactic analogy test over supertag embedding rows.

An equation (a, b, c, d) asserts a - b + c = d. The query v_a - v_b + v_c
is ranked against a candidate pool by cosine similarity with a, b, c
removed; the equation is correct when d comes out on top. Ties break
toward the smaller candidate id; zero-norm candidates rank last.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnalogyEquation",
    "analogy_eval",
    "top_frequent_supertags",
    "read_equations",
    "build_consistent_embeddings",
]


@dataclass(frozen=True)
class AnalogyEquation:
    a: int
    b: int
    c: int
    d: int

    def ids(self):
        return (self.a, self.b, self.c, self.d)


def analogy_eval(embeddings: np.ndarray, equations, candidates) -> tuple:
    """(%correct, average 1-based rank of the answer) over the equations."""
    emb = np.asarray(embeddings, dtype=np.float64)
    candidates = list(candidates)
    if not equations:
        raise ValueError("analogy_eval: no equations")
    for eq in equations:
        for i in eq.ids():
            if not 0 <= i < emb.shape[0]:
                raise IndexError(f"supertag id {i} outside embedding table")
        if eq.d not in candidates or eq.d in (eq.a, eq.b, eq.c):
            raise ValueError(
                f"equation {eq.ids()}: answer {eq.d} not in the candidate pool"
            )
    norms = np.linalg.norm(emb, axis=1)
    if np.any(norms[candidates] == 0.0):
        warnings.warn("zero-norm embedding rows rank last", stacklevel=2)
    correct = 0
    ranks = []
    for eq in equations:
        q = emb[eq.a] - emb[eq.b] + emb[eq.c]
        qn = np.linalg.norm(q)
        pool = [i for i in candidates if i not in (eq.a, eq.b, eq.c)]
        sims = []
        for i in pool:
            if norms[i] == 0.0 or qn == 0.0:
                sims.append(-np.inf)
            else:
                sims.append(float(emb[i] @ q / (norms[i] * qn)))
        order = sorted(range(len(pool)), key=lambda k: (-sims[k], pool[k]))
        rank = next(pos for pos, k in enumerate(order, start=1) if pool[k] == eq.d)
        ranks.append(rank)
        correct += rank == 1
    return 100.0 * correct / len(equations), float(np.mean(ranks))


def top_frequent_supertags(corpus, vocab, k: int = 300) -> list:
    """Ids of the k most frequent supertags in the corpus (ties by id)."""
    counts = Counter()
    for sent in corpus:
        for tok in sent.tokens:
            if tok.stag is not None:
                counts[vocab.tag_id("stag", tok.stag)] += 1
    ranked = sorted(counts, key=lambda i: (-counts[i], i))
    return ranked[:k]


def read_equations(path, vocab) -> list:
    """Equation file: four whitespace-separated supertag names per line."""
    equations = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            names = line.split()
            if len(names) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 supertags, got {len(names)}")
            for name in names:
                if name not in vocab.stags:
                    raise ValueError(f"{path}:{lineno}: unknown supertag {name!r}")
            a, b, c, d = (vocab.stags[n] for n in names)
            equations.append(AnalogyEquation(a, b, c, d))
    return equations


def build_consistent_embeddings(n_equations: int, n_extra: int = 10) -> tuple:
    """Orthonormal construction where every equation holds exactly.

    Per equation, four tags built from three dedicated basis directions
    (u, w, x): v_a = u + x, v_b = u, v_c = w, v_d = w + x, so the query
    v_a - v_b + v_c equals v_d. Extra tags occupy their own directions.
    Returns (embeddings, equations, candidate ids).
    """
    dim = 3 * n_equations + max(n_extra, 1)
    rows = []
    equations = []
    for k in range(n_equations):
        u, w, x = (np.eye(dim)[3 * k + j] for j in range(3))
        base = len(rows)
        rows.extend([u + x, u, w, w + x])
        equations.append(AnalogyEquation(base, base + 1, base + 2, base + 3))
    for j in range(n_extra):
        rows.append(np.eye(dim)[3 * n_equations + j])
    return np.array(rows), equations, list(range(len(rows)))
