"""Decoder checks with an independent arborescence validator and brute force."""

import itertools

import numpy as np
import pytest

import tagparse.decoder as decoder
from tagparse.decoder import (
    ScoreMatrix,
    assign_labels,
    chu_liu_edmonds,
    enforce_tree,
    greedy_heads,
    is_valid_tree,
)


def from_probs(probs):
    """The score matrix of head probabilities: their logs, zeros at -inf."""
    with np.errstate(divide="ignore"):
        return ScoreMatrix(np.log(np.asarray(probs, dtype=np.float64)))


def independent_valid(heads):
    """Validator written separately from the package one: BFS over children."""
    n = len(heads) - 1
    if n < 1:
        return False
    if sum(1 for i in range(1, n + 1) if heads[i] == 0) != 1:
        return False
    children = {u: [] for u in range(n + 1)}
    for i in range(1, n + 1):
        h = int(heads[i])
        if h < 0 or h > n or h == i:
            return False
        children[h].append(i)
    seen, queue = set(), [0]
    while queue:
        for v in children[queue.pop()]:
            if v in seen:
                return False
            seen.add(v)
            queue.append(v)
    return len(seen) == n


def random_matrix(rng, n, zero_share=0.0):
    """Random log-probabilities; about `zero_share` of the entries are -inf."""
    logits = rng.normal(size=(n, n + 1)) * 2.0
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    if zero_share:  # draws nothing more otherwise, so older callers see the same matrices
        logp[rng.random(logp.shape) < zero_share] = -np.inf
    return ScoreMatrix(logp)


def random_tree(rng, n):
    """Head vector [-1, h1..hn] of a random single-rooted tree."""
    order = rng.permutation(n) + 1
    heads = np.full(n + 1, -1, dtype=np.int64)
    for pos, node in enumerate(order):
        heads[node] = 0 if pos == 0 else rng.choice(order[:pos])
    return heads


def peaked_matrix(rng, tree, zero_share=0.0, ties=False, dead_root=False):
    """Random log-probabilities whose row-wise argmax is `tree`.

    `zero_share` of the other arcs become -inf; `ties` copies some tree arcs'
    scores to a larger head index of the same row; `dead_root` makes every
    arc of the tree's ROOT child -inf, so its argmax head is ROOT by index.
    """
    n = len(tree) - 1
    rows = np.arange(n)
    logits = rng.normal(size=(n, n + 1))
    logits[rows, tree[1:]] += 8.0
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    other = np.ones_like(logp, dtype=bool)
    other[rows, tree[1:]] = False
    logp[other & (rng.random(logp.shape) < zero_share)] = -np.inf
    if ties:
        for i in range(1, n + 1):
            later = [j for j in range(tree[i] + 1, n + 1) if j != i]
            if later and rng.random() < 0.5:
                logp[i - 1, rng.choice(later)] = logp[i - 1, tree[i]]
    if dead_root:
        logp[int(np.flatnonzero(tree == 0)[0]) - 1] = -np.inf
    return ScoreMatrix(logp)


def all_trees(n):
    """Every head vector [-1, h1..hn] with one ROOT child and no cycle.

    Enumerates all head choices at once and keeps those from which n steps
    of pointer jumping reach ROOT from every token.
    """
    heads = np.indices((n + 1,) * n).reshape(n, -1).T
    heads = heads[((heads == 0).sum(axis=1) == 1) & (heads != np.arange(1, n + 1)).all(axis=1)]
    full = np.concatenate([np.zeros((len(heads), 1), dtype=heads.dtype), heads], axis=1)
    walk = full  # ROOT points to itself, so walks that reach it stay there
    for _ in range(n):
        walk = np.take_along_axis(full, walk, axis=1)
    trees = full[(walk == 0).all(axis=1)]
    trees[:, 0] = -1
    return trees


DECODERS = pytest.mark.parametrize("decode", [
    chu_liu_edmonds,
    lambda sm: enforce_tree(sm, greedy_heads(sm)),
], ids=["mst", "greedy"])


def total_score(sm, heads):
    return sum(sm.row(i)[heads[i]] for i in range(1, sm.n + 1))


def tree_key(sm, heads):
    """(-inf arcs, finite total) of each head vector in `heads` [k, n+1]."""
    arcs = sm.log_probs[np.arange(sm.n), heads[:, 1:]]
    return np.isneginf(arcs).sum(axis=1), np.where(np.isfinite(arcs), arcs, 0.0).sum(axis=1)


class TestIsValidTree:
    def test_matches_independent_validator_on_every_head_vector(self):
        # heads range over -1 and n+1 (out of range), ROOT, the tokens and self-heads
        for n in range(6):
            for body in itertools.product(range(-1, n + 2), repeat=n):
                heads = np.array([-1, *body], dtype=np.int64)
                assert is_valid_tree(heads) == independent_valid(heads), heads


class TestGreedy:
    def test_single_token_attaches_to_root(self):
        sm = ScoreMatrix(np.array([[0.5, 0.7]]))  # self column is masked anyway
        heads = greedy_heads(sm)
        assert heads[1] == 0

    def test_unique_maxima_exact_argmax(self):
        sm = from_probs(np.array([
            [0.1, 0.0, 0.7, 0.2],
            [0.6, 0.2, 0.0, 0.2],
            [0.2, 0.3, 0.5, 0.0],
        ]))
        np.testing.assert_array_equal(greedy_heads(sm)[1:], [2, 0, 2])

    def test_ties_break_toward_smallest_head(self):
        sm = ScoreMatrix(np.zeros((3, 4)))
        np.testing.assert_array_equal(greedy_heads(sm)[1:], [0, 0, 0])

    def test_matches_row_max_oracle_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            sm = random_matrix(rng, 8)
            heads = greedy_heads(sm)
            for i in range(1, 9):
                assert sm.row(i)[heads[i]] == sm.row(i).max()


class TestEnforceTree:
    def test_valid_input_unchanged(self):
        sm = from_probs(np.array([
            [0.8, 0.0, 0.1, 0.1],
            [0.1, 0.8, 0.0, 0.1],
            [0.1, 0.1, 0.8, 0.0],
        ]))
        heads = greedy_heads(sm)
        assert independent_valid(heads)
        np.testing.assert_array_equal(enforce_tree(sm, heads), heads)

    def test_two_node_mutual_cycle(self):
        # ROOT log-scores -1.0 and -2.0; both tokens prefer each other
        sm = ScoreMatrix(np.array([
            [-1.0, -np.inf, -0.1],
            [-2.0, -0.1, -np.inf],
        ]))
        heads = greedy_heads(sm)
        assert not independent_valid(heads)
        fixed = enforce_tree(sm, heads)
        # token 1 has the cheaper ROOT option and reattaches there
        np.testing.assert_array_equal(fixed[1:], [0, 1])
        # enumerate every arborescence of the 2-node instance: the output is one
        all_trees = [t for t in itertools.product([0, 2], [0, 1])
                     if independent_valid(np.array([-1, *t]))]
        assert tuple(fixed[1:]) in all_trees

    def test_multiple_roots_keep_best(self):
        sm = from_probs(np.array([
            [0.6, 0.0, 0.2, 0.2],
            [0.7, 0.1, 0.0, 0.2],
            [0.1, 0.2, 0.7, 0.0],
        ]))
        heads = greedy_heads(sm)
        np.testing.assert_array_equal(heads[1:], [0, 0, 2])
        fixed = enforce_tree(sm, heads)
        assert independent_valid(fixed)
        assert fixed[2] == 0  # higher ROOT score wins
        assert fixed[1] == 2  # re-predicted with ROOT masked

    def test_empty_rejected(self):
        sm = ScoreMatrix(np.zeros((0, 1)))
        with pytest.raises(ValueError):
            enforce_tree(sm, np.array([-1]))

    def test_property_always_valid(self):
        rng = np.random.default_rng(1)
        repaired = 0
        for _ in range(800):
            n = int(rng.integers(1, 13))
            sm = random_matrix(rng, n)
            heads = greedy_heads(sm)
            fixed = enforce_tree(sm, heads)
            assert independent_valid(fixed)
            if not np.array_equal(heads, fixed):
                repaired += 1
                assert total_score(sm, fixed) < total_score(sm, heads)
            else:
                # repair never fires on valid greedy output
                assert independent_valid(heads)
        assert repaired > 0  # the sample actually exercised repairs

    def test_single_cycle_repair_picks_minimal_loss(self):
        # tokens 2,3 form a cycle; token 1 is the root child
        sm = from_probs(np.array([
            [0.90, 0.00, 0.05, 0.05],
            [0.01, 0.04, 0.00, 0.95],
            [0.02, 0.03, 0.95, 0.00],
        ]))
        heads = greedy_heads(sm)
        np.testing.assert_array_equal(heads[1:], [0, 3, 2])
        fixed = enforce_tree(sm, heads)
        assert independent_valid(fixed)
        # candidate fixes: 2->1 loses log(.95/.04), 3->1 loses log(.95/.03);
        # token 2's alternative is cheaper, so it reattaches to 1
        np.testing.assert_array_equal(fixed[1:], [0, 1, 2])


class TestAssignLabels:
    def test_one_hot(self):
        heads = np.array([-1, 0, 1])
        dists = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(assign_labels(heads, dists)[1:], [1, 2])

    def test_uniform_ties_to_smallest(self):
        heads = np.array([-1, 0])
        np.testing.assert_array_equal(assign_labels(heads, np.full((1, 4), 0.25))[1:], [0])

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            dists = rng.random(size=(n, 5))
            labels = assign_labels(np.full(n + 1, 0), dists)
            for i in range(1, n + 1):
                assert dists[i - 1][labels[i]] == dists[i - 1].max()


class TestChuLiuEdmonds:
    def test_tree_enumeration_is_complete(self):
        # rooted labelled trees on n nodes: n ** (n - 1) (Cayley)
        for n in range(1, 7):
            trees = all_trees(n)
            assert len(trees) == n ** (n - 1)
            assert all(independent_valid(t) for t in trees[:: max(1, len(trees) // 50)])

    def test_matches_brute_force_on_small_instances(self):
        rng = np.random.default_rng(3)
        trees = {n: all_trees(n) for n in range(1, 7)}
        infeasible = 0
        for k in range(600):
            n = int(rng.integers(1, 7))
            sm = random_matrix(rng, n, zero_share=(0.0, 0.3, 0.6)[k % 3])
            heads = chu_liu_edmonds(sm)
            assert independent_valid(heads)
            arcs = sm.log_probs[np.arange(n), trees[n][:, 1:]]
            # fewest -inf arcs of any tree, and the best total when that is zero
            assert np.isneginf(sm.log_probs[np.arange(n), heads[1:]]).sum() == \
                np.isneginf(arcs).sum(axis=1).min()
            want_total = arcs.sum(axis=1).max()
            if np.isfinite(want_total):
                np.testing.assert_allclose(total_score(sm, heads), want_total, atol=1e-12)
            else:
                infeasible += 1
        assert 0 < infeasible < 300  # the sample has both kinds of matrix

    def test_valid_on_larger_instances(self):
        rng = np.random.default_rng(4)
        for k in range(240):
            n = int(rng.integers(1, 41))
            sm = random_matrix(rng, n, zero_share=(0.0, 0.3, 0.9)[k % 3])
            heads = chu_liu_edmonds(sm)
            repaired = enforce_tree(sm, greedy_heads(sm))
            assert independent_valid(heads)
            assert independent_valid(repaired)
            # never worse than the greedy+repair heuristic
            assert total_score(sm, heads) >= total_score(sm, repaired) - 1e-12


class TestTreeShortcut:
    """`chu_liu_edmonds` returns the greedy heads when they form a tree."""

    @pytest.fixture
    def contractions(self, monkeypatch):
        calls = []
        inner = decoder._max_arborescence

        def counting(scores):
            calls.append(len(scores))
            return inner(scores)

        monkeypatch.setattr(decoder, "_max_arborescence", counting)
        return calls

    @pytest.mark.parametrize("zero_share, ties, dead_root", [
        (0.0, False, False), (0.5, False, False), (0.0, True, False),
        (0.3, True, False), (0.0, False, True), (0.5, True, True),
    ], ids=["plain", "neg-inf", "ties", "neg-inf-ties", "dead-root", "all"])
    def test_tree_argmax_is_optimal_without_contraction(self, contractions, zero_share,
                                                        ties, dead_root):
        rng = np.random.default_rng(6)
        trees = {n: all_trees(n) for n in range(1, 7)}
        for _ in range(300):
            n = int(rng.integers(1, 7))
            tree = random_tree(rng, n)
            sm = peaked_matrix(rng, tree, zero_share, ties, dead_root)
            heads = chu_liu_edmonds(sm)
            np.testing.assert_array_equal(heads, tree)
            inf_arcs, totals = tree_key(sm, trees[n])
            best = inf_arcs == inf_arcs.min()
            got_inf, got_total = tree_key(sm, heads[None])
            assert got_inf[0] == inf_arcs.min()
            np.testing.assert_allclose(got_total[0], totals[best].max(), atol=1e-12)
        assert contractions == []

    @pytest.mark.parametrize("zero_share", [0.0, 0.3])
    @pytest.mark.parametrize("peaked", [False, True], ids=["random", "peaked"])
    def test_same_heads_as_contraction_without_ties(self, monkeypatch, zero_share, peaked):
        # every finite row has one best head, so the best tree is unique and both paths find it
        rng = np.random.default_rng(7)
        shortcut = 0
        for _ in range(60):
            n = int(rng.integers(5, 41))
            sm = peaked_matrix(rng, random_tree(rng, n), zero_share) if peaked \
                else random_matrix(rng, n, zero_share)
            heads = chu_liu_edmonds(sm)
            shortcut += is_valid_tree(greedy_heads(sm))
            with monkeypatch.context() as m:
                m.setattr(decoder, "is_valid_tree", lambda h: False)
                np.testing.assert_array_equal(heads, chu_liu_edmonds(sm))
        assert shortcut == 60 if peaked else shortcut < 60  # random: most take the contraction


class TestNonFiniteScores:
    @DECODERS
    def test_nan_matrix_rejected_before_decoding(self, decode):
        with pytest.raises(ValueError, match="NaN"):
            decode(ScoreMatrix(np.full((3, 4), np.nan)))

    def test_single_nan_entry_rejected(self):
        logp = random_matrix(np.random.default_rng(5), 4).log_probs
        logp[2, 3] = np.nan
        with pytest.raises(ValueError, match="dependent 3, head 3"):
            ScoreMatrix(logp)

    @DECODERS
    def test_pos_inf_rejected_before_decoding(self, decode):
        # greedy would take the +inf arc as the best and MST as the worst
        with pytest.raises(ValueError, match=r"\+inf score for dependent 1, head 2"):
            decode(ScoreMatrix(np.array([[-0.1, 0.0, np.inf], [-0.1, -5.0, 0.0]])))

    def test_nan_distribution_rejected(self):
        probs = np.full((2, 3), 1 / 3)
        probs[1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            from_probs(probs)

    def test_zero_probabilities_still_decode(self):
        # zero probabilities become -inf scores, which are legal
        probs = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0]])
        sm = from_probs(probs)
        assert np.isneginf(sm.log_probs).sum() == 4
        for heads in (chu_liu_edmonds(sm), enforce_tree(sm, greedy_heads(sm))):
            assert list(heads) == [-1, 0, 1]

    @DECODERS
    def test_only_root_arcs_possible_still_single_rooted(self, decode):
        # every token's only finite head is ROOT, so no finite tree has one ROOT child
        sm = from_probs([[1, 0, 0], [1, 0, 0]])
        heads = decode(sm)
        assert independent_valid(heads)
        assert list(heads) == [-1, 0, 1]
