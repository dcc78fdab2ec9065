"""Turn per-token head distributions into a single-rooted acyclic tree.

The default decoder takes the row-wise greedy head and, when the result is
not already an arborescence, applies two deterministic repairs:

(a) root repair — if several tokens attach to ROOT, the one with the best
    ROOT score keeps it and the rest re-predict with ROOT masked; if none
    attaches to ROOT, the token with the best ROOT score is attached;
(b) cycle repair — while a cycle exists, the cycle node whose best
    replacement head loses the least score is reattached there. Candidate
    replacement heads are the nodes currently reachable from ROOT (always
    outside the cycle), so every repair roots the whole cycle and at most
    n/2 repairs can ever run.

Ties break toward the smallest token index, then the smallest head index.

`chu_liu_edmonds` provides an exact maximum-spanning-arborescence decoder
(with the single-root constraint) behind a flag for comparison; it is not
the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScoreMatrix",
    "greedy_heads",
    "enforce_tree",
    "assign_labels",
    "is_valid_tree",
    "chu_liu_edmonds",
]

NEG_INF = -np.inf


@dataclass
class ScoreMatrix:
    """Log-probability of head j for dependent i: row i-1, column j (0 = ROOT).

    Self-head entries are forced to -inf on construction. A NaN entry raises
    ValueError; -inf entries (zero probabilities) are accepted.
    """

    log_probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.log_probs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != arr.shape[0] + 1:
            raise ValueError(f"ScoreMatrix: expected [n, n+1], got {arr.shape}")
        nan = np.argwhere(np.isnan(arr))
        if len(nan):
            i, j = nan[0]
            raise ValueError(f"ScoreMatrix: NaN score for dependent {i + 1}, head {j}")
        for i in range(arr.shape[0]):
            arr[i, i + 1] = NEG_INF
        self.log_probs = arr

    @classmethod
    def from_distributions(cls, dists) -> "ScoreMatrix":
        with np.errstate(divide="ignore"):
            return cls(np.log(np.asarray(dists, dtype=np.float64)))

    @property
    def n(self) -> int:
        return self.log_probs.shape[0]

    def row(self, i: int) -> np.ndarray:
        return self.log_probs[i - 1]


def greedy_heads(sm: ScoreMatrix) -> np.ndarray:
    """Row-wise argmax head per token; index 0 holds a -1 sentinel."""
    heads = np.full(sm.n + 1, -1, dtype=np.int64)
    heads[1:] = np.argmax(sm.log_probs, axis=1)
    return heads


def _reachable(heads: np.ndarray) -> set:
    n = len(heads) - 1
    reach = set()
    for i in range(1, n + 1):
        path = []
        node = i
        while node != 0 and node not in reach and node not in path:
            path.append(node)
            node = heads[node]
        if node == 0 or node in reach:
            reach.update(path)
    return reach


def _find_cycle(heads: np.ndarray, reach: set) -> list:
    n = len(heads) - 1
    for start in range(1, n + 1):
        if start in reach:
            continue
        seen = {}
        node = start
        while node not in seen:
            seen[node] = len(seen)
            node = heads[node]
            if node == 0 or node in reach:
                break
        else:
            first = seen[node]
            return [v for v, pos in seen.items() if pos >= first]
    return []


def is_valid_tree(heads: np.ndarray) -> bool:
    """Exactly one ROOT child, no self-heads, every token reachable from ROOT."""
    n = len(heads) - 1
    if n < 1:
        return False
    body = heads[1:]
    if np.any(body < 0) or np.any(body > n):
        return False
    if int(np.sum(body == 0)) != 1:
        return False
    if any(heads[i] == i for i in range(1, n + 1)):
        return False
    return len(_reachable(heads)) == n


def enforce_tree(sm: ScoreMatrix, heads: np.ndarray) -> np.ndarray:
    """Repair greedy heads into a valid arborescence; valid input is returned
    unchanged. See the module docstring for the exact two-phase procedure."""
    n = sm.n
    if n == 0:
        raise ValueError("enforce_tree: empty sentence")
    heads = np.array(heads, dtype=np.int64)
    roots = [i for i in range(1, n + 1) if heads[i] == 0]
    if len(roots) != 1:
        root_scores = sm.log_probs[:, 0]
        keep = int(np.argmax(root_scores)) + 1  # argmax takes the smallest index on ties
        if roots:
            keep = max(roots, key=lambda i: (sm.row(i)[0], -i))
        heads[keep] = 0
        for i in roots:
            if i == keep:
                continue
            masked = sm.row(i).copy()
            masked[0] = NEG_INF
            heads[i] = int(np.argmax(masked))
    for _ in range(n):
        reach = _reachable(heads)
        if len(reach) == n:
            break
        cycle = _find_cycle(heads, reach)
        best = None
        for i in sorted(cycle):
            current = sm.row(i)[heads[i]]
            for j in sorted(reach):
                loss = current - sm.row(i)[j]
                cand = (loss, i, j)
                if best is None or cand < best:
                    best = cand
        _, i, j = best
        heads[i] = j
    return heads


def assign_labels(heads: np.ndarray, label_dists: np.ndarray) -> np.ndarray:
    """Argmax relation id per token; ties break toward the smallest id."""
    n = len(heads) - 1
    dists = np.asarray(label_dists)
    if dists.shape[0] != n:
        raise ValueError(f"assign_labels: {n} tokens vs {dists.shape[0]} label rows")
    labels = np.full(n + 1, -1, dtype=np.int64)
    labels[1:] = np.argmax(dists, axis=1)
    return labels


def _cle_fixed_root(scores: np.ndarray) -> np.ndarray:
    """Unconstrained Chu-Liu/Edmonds on scores[dep, head] (0 = ROOT).

    Recursive contraction; returns heads for dependents 1..n.
    """
    n = scores.shape[0] - 1
    nodes = list(range(1, n + 1))
    best = {v: max((u for u in range(n + 1) if u != v),
                   key=lambda u: (scores[v, u], -u)) for v in nodes}

    # find a cycle in the chosen edges
    cycle = None
    for start in nodes:
        path, node = [], start
        while node != 0 and node not in path:
            path.append(node)
            node = best[node]
        if node != 0:
            cycle = path[path.index(node):]
            break
    if cycle is None:
        heads = np.full(n + 1, -1, dtype=np.int64)
        for v in nodes:
            heads[v] = best[v]
        return heads

    cyc = set(cycle)
    cyc_score = sum(scores[v, best[v]] for v in cycle)
    c = n + 1  # supernode id
    m = n + 2
    new_scores = np.full((m, m), NEG_INF)
    into, out_of = {}, {}
    old = [u for u in range(n + 1) if u not in cyc]
    remap = {u: idx for idx, u in enumerate(old)}  # 0 stays 0
    for v in nodes:
        if v in cyc:
            continue
        nv = remap[v]
        for u in range(n + 1):
            if u == v:
                continue
            if u in cyc:
                cand = scores[v, u]
                if cand > new_scores[nv, len(old)]:
                    new_scores[nv, len(old)] = cand
                    out_of[v] = u
            else:
                new_scores[nv, remap[u]] = scores[v, u]
    for u in range(n + 1):
        if u in cyc:
            continue
        best_gain, best_v = NEG_INF, None
        for v in cycle:
            gain = scores[v, u] + cyc_score - scores[v, best[v]]
            if gain > best_gain:
                best_gain, best_v = gain, v
        new_scores[len(old), remap[u]] = best_gain
        into[u] = best_v

    sub = _cle_fixed_root(new_scores[: len(old) + 1, : len(old) + 1])
    heads = np.full(n + 1, -1, dtype=np.int64)
    inv = {idx: u for u, idx in remap.items()}
    inv[len(old)] = c
    for nv in range(1, len(old) + 1):
        v, u = inv[nv], inv[sub[nv]]
        if v == c:
            entry_head = u
            entry_dep = into[u]
            for w in cycle:
                heads[w] = best[w]
            heads[entry_dep] = entry_head
        else:
            heads[v] = out_of[v] if u == c else u
    return heads


def chu_liu_edmonds(sm: ScoreMatrix) -> np.ndarray:
    """Maximum-scoring arborescence with exactly one ROOT child."""
    n = sm.n
    if n == 0:
        raise ValueError("chu_liu_edmonds: empty sentence")
    scores = np.full((n + 1, n + 1), NEG_INF)
    scores[1:, :] = sm.log_probs
    best_heads, best_total = None, NEG_INF
    for r in range(1, n + 1):
        if not np.isfinite(scores[r, 0]) and n > 1:
            continue
        trial = scores.copy()
        trial[:, 0] = NEG_INF
        trial[r, 0] = scores[r, 0]
        heads = _cle_fixed_root(trial)
        if not is_valid_tree(heads):
            continue
        total = sum(trial[v, heads[v]] for v in range(1, n + 1))
        if total > best_total:
            best_total, best_heads = total, heads
    if best_heads is None:
        # all ROOT scores -inf; fall back to the greedy+repair path
        return enforce_tree(sm, greedy_heads(sm))
    return best_heads
