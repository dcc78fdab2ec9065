"""Turn per-token head distributions into a single-rooted acyclic tree.

The default decoder takes the row-wise greedy head and, when the result is
not already an arborescence, applies two deterministic repairs:

(a) root repair — if several tokens attach to ROOT, the one with the best
    ROOT score keeps it and the rest re-predict among the other tokens; if
    none attaches to ROOT, the token with the best ROOT score is attached;
(b) cycle repair — while a cycle exists, the cycle node whose best
    replacement head loses the least score is reattached there. Candidate
    replacement heads are the nodes currently reachable from ROOT (always
    outside the cycle), so every repair roots the whole cycle and at most
    n/2 repairs can ever run.

Ties break toward the smallest token index, then the smallest head index.

`chu_liu_edmonds` is the exact decoder. When the greedy heads already form
a single-rooted tree it returns them: no head assignment scores higher, and
only a token with no finite head takes a -inf arc. Otherwise it runs one
Chu-Liu/Edmonds pass (greedy heads, contract a cycle, solve the smaller
graph, expand) over the scores with a penalty on every ROOT arc larger than
the gap between any two trees, so the best tree it finds has exactly one
ROOT child. -inf scores become a smaller penalty, so it always returns a
tree, with as few -inf arcs as any. On exact ties the first path takes the
smallest head index, as `greedy_heads` does; the second may pick another
tree of the same score.
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

    Self-head entries are forced to -inf on construction. A NaN or +inf
    entry raises ValueError; -inf entries (zero probabilities) are accepted.
    """

    log_probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.log_probs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != arr.shape[0] + 1:
            raise ValueError(f"ScoreMatrix: expected [n, n+1], got {arr.shape}")
        bad = ~(arr < np.inf)  # NaN or +inf
        if bad.any():
            i, j = np.argwhere(bad)[0]
            name = "NaN" if np.isnan(arr[i, j]) else "+inf"
            raise ValueError(f"ScoreMatrix: {name} score for dependent {i + 1}, head {j}")
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
    heads = heads.tolist()  # the walk reads one head at a time: Python ints are faster
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
    if np.any(body == np.arange(1, n + 1)):
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
            others = [j for j in range(1, n + 1) if j != i]  # never ROOT, even at -inf
            heads[i] = others[int(np.argmax(sm.row(i)[others]))]
    for _ in range(n):
        reach = _reachable(heads)
        if len(reach) == n:
            break
        cycle = _find_cycle(heads, reach)
        best = None
        for i in sorted(cycle):
            current = sm.row(i)[heads[i]]
            for j in sorted(reach):
                alt = sm.row(i)[j]
                loss = 0.0 if alt == current else current - alt  # -inf to -inf loses nothing
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


def _max_arborescence(scores: np.ndarray) -> np.ndarray:
    """Chu-Liu/Edmonds on the dense scores[dep, head] of nodes 0..m, rooted at 0.

    Every node but 0 needs a finite in-arc. Each node takes its best head;
    a cycle among those choices becomes one node, whose in-arc from u scores
    the gain of entering the cycle from u at its best place; the smaller
    graph is solved and the cycle expanded again. Returns heads with -1 at 0.
    """
    heads = np.argmax(scores, axis=1)
    heads[0] = -1
    cycle = _find_cycle(heads, _reachable(heads))
    if not cycle:
        return heads
    cycle = np.sort(cycle)  # ties go to the smallest cycle node
    rest = np.setdiff1d(np.arange(len(heads)), cycle)  # ROOT stays node 0
    m = len(rest)  # the contracted cycle is node m
    sub = np.full((m + 1, m + 1), NEG_INF)
    sub[:m, :m] = scores[np.ix_(rest, rest)]
    leave = scores[np.ix_(rest, cycle)]
    leave_from = np.argmax(leave, axis=1)
    sub[:m, m] = leave[np.arange(m), leave_from]
    enter = scores[np.ix_(cycle, rest)] - scores[cycle, heads[cycle]][:, None]
    enter_at = np.argmax(enter, axis=0)
    sub[m, :m] = enter[enter_at, np.arange(m)]
    sub_heads = _max_arborescence(sub)
    outside = sub_heads[1:m]
    heads[rest[1:]] = np.where(outside == m, cycle[leave_from[1:]], np.append(rest, -1)[outside])
    entry = sub_heads[m]
    heads[cycle[enter_at[entry]]] = rest[entry]
    return heads


def chu_liu_edmonds(sm: ScoreMatrix) -> np.ndarray:
    """Maximum-scoring arborescence with exactly one ROOT child.

    The greedy heads are returned as they are when they form such a tree:
    each token has its best head, so no tree scores higher. On exact ties
    they hold the smallest head index. Otherwise one `_max_arborescence`
    pass runs over a dense copy of the scores in which a -inf arc costs
    more than any finite choice gains, and every ROOT arc costs more again,
    so that fewer ROOT children always win. Either way the result is the
    best single-rooted tree with the fewest -inf arcs.
    """
    n = sm.n
    if n == 0:
        raise ValueError("chu_liu_edmonds: empty sentence")
    heads = greedy_heads(sm)
    if is_valid_tree(heads):
        return heads
    logp = sm.log_probs
    finite = np.isfinite(logp)
    lo, hi = (logp[finite].min(), logp[finite].max()) if finite.any() else (0.0, 0.0)
    spread = n * (hi - lo) + 1.0  # more than the finite totals of two trees differ by
    scores = np.full((n + 1, n + 1), NEG_INF)
    scores[1:] = np.where(finite, logp, lo - spread)
    # entries now lie in [lo - spread, hi]: two totals differ by less than (n + 1) * spread
    scores[1:, 0] -= (n + 1) * spread
    np.fill_diagonal(scores, NEG_INF)  # self-heads were -inf, so the line above made them finite
    return _max_arborescence(scores)
