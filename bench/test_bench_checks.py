"""Tests of the benchmark's own checkers against hand-worked cases."""

import math

import numpy as np
import pytest

from tagparse.corpus import Sentence, Token

import checks


def test_tree_checker_accepts_a_tree():
    assert checks.is_tree([2, 0, 2])
    assert checks.is_tree([0])


@pytest.mark.parametrize("heads, fault", [
    ([0, 0, 2], "two roots"),
    ([0, 3, 2], "cycle"),
    ([2, 0, 3], "self-head"),
    ([2, 0, 4], "out-of-range head"),
    ([2, 0, -1], "negative head"),
    ([], "empty"),
])
def test_tree_checker_rejects(heads, fault):
    assert not checks.is_tree(heads), fault


def _log(probs):
    with np.errstate(divide="ignore"):
        return np.log(np.array(probs, dtype=np.float64))


def test_brute_force_two_tokens():
    # rows: dependents 1, 2; columns: heads ROOT, 1, 2
    lp = _log([[0.6, 0.0, 0.4],
               [0.7, 0.3, 0.0]])
    # trees: 1<-ROOT, 2<-1: .6*.3 = .18; 2<-ROOT, 1<-2: .7*.4 = .28
    assert math.isclose(checks.brute_force_best(lp), math.log(0.28))


def test_brute_force_three_tokens_needs_single_root():
    lp = _log([[0.5, 0.0, 0.3, 0.2],
               [0.5, 0.1, 0.0, 0.4],
               [0.5, 0.25, 0.25, 0.0]])
    # every token prefers ROOT; the best single-rooted tree gives ROOT to
    # token 3 and chains 1 <- 2 <- 3: .5 * .3 * .4 = .06 (root 1 reaches
    # .05 at best, root 2 .0375)
    assert math.isclose(checks.brute_force_best(lp), math.log(0.06))


def test_brute_force_ignores_cycles():
    lp = _log([[0.1, 0.0, 0.9],
               [0.2, 0.8, 0.0]])
    # the 1<->2 cycle scores .72 but is no tree; best tree is 2<-ROOT, 1<-2
    assert math.isclose(checks.brute_force_best(lp), math.log(0.2 * 0.9))


def test_tree_score_sums_chosen_arcs():
    lp = _log([[0.6, 0.0, 0.4], [0.7, 0.3, 0.0]])
    assert math.isclose(checks.tree_score(lp, [0, 1]), math.log(0.6 * 0.3))


def _sentence(rows):
    return Sentence([Token(form=f, gold_pos="X", head=h, rel=r, stag=s)
                     for f, h, r, s in rows])


def test_attachment_scores_skip_punctuation():
    gold = _sentence([("dogs", 2, "0", "tN"), ("bark", 0, "root", "tV"),
                      (",", 2, "adj", "tP"), ("loudly", 2, "adj", "tA"),
                      ("!", 2, "adj", "tP")])
    pred = _sentence([("dogs", 2, "1", "tN"), ("bark", 0, "root", "tV"),
                      (",", 1, "0", "tX"), ("loudly", 1, "adj", "tA"),
                      ("!", 4, "adj", "tP")])
    # scored tokens: dogs (head ok, label wrong), bark (both ok),
    # loudly (head wrong); the comma and "!" are skipped
    uas, las = checks.attachment_scores([pred], [gold])
    assert math.isclose(uas, 200 / 3)
    assert math.isclose(las, 100 / 3)
    # supertags count every token, punctuation included: 4 of 5 agree
    assert math.isclose(checks.stag_accuracy([pred], [gold]), 80.0)


def test_finite_differences_find_a_wrong_gradient():
    x = np.array([0.3, -1.2, 2.0])

    def loss_at():
        return float(np.sum(x ** 3))

    good = 3 * x ** 2
    cands = [(0,), (1,), (2,)]
    assert checks.finite_difference_mismatches(loss_at, good, x, cands)[1] == 0
    bad = good.copy()
    bad[0] += 0.01
    assert checks.finite_difference_mismatches(loss_at, bad, x, [(0,), (1,)])[1] == 1


def test_finite_differences_skip_kinks():
    x = np.array([0.0, 0.5])

    def loss_at():
        return float(np.sum(np.abs(x)))

    compared, bad = checks.finite_difference_mismatches(loss_at, np.array([0.0, 1.0]), x,
                                                        [(0,), (1,)])
    assert (compared, bad) == (1, 0)
