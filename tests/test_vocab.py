"""Vocabulary construction: ids in first-seen order after the reserved entries."""

import numpy as np
import pytest

import reference

from tagparse.synthetic import make_corpus, random_tree_corpus
from tagparse.vocab import UNK, Vocabulary


def with_predicted_pos(corpus, seed):
    """Copies whose predicted POS is drawn per token, sometimes unset and
    sometimes a tag no gold column holds; some supertags are unset too."""
    rng = np.random.default_rng(seed)
    out = []
    for sent in corpus:
        copy = sent.copy()
        for tok in copy.tokens:
            tok.pred_pos = [None, "NN", "VBD", "JJ", "XX", UNK][int(rng.integers(6))]
            if rng.random() < 0.2:
                tok.stag = None
        out.append(copy)
    return out


@pytest.mark.parametrize("corpus", [
    make_corpus(200, seed=0),
    random_tree_corpus(150, seed=4, max_len=20),
    with_predicted_pos(random_tree_corpus(150, seed=5, max_len=20), seed=6),
    with_predicted_pos(make_corpus(60, seed=2), seed=7),
    [],
], ids=["make-corpus", "random-trees", "random-trees-pred-pos", "make-corpus-pred-pos",
        "empty"])
def test_ids_match_the_per_token_loop(corpus):
    got, want = Vocabulary.from_corpus(corpus), reference.vocab_from_corpus(corpus)
    for table in ("words", "chars", "pos", "stags", "rels"):
        assert list(getattr(got, table).items()) == list(getattr(want, table).items()), table


def test_reserved_entries_keep_their_ids():
    corpus = with_predicted_pos(make_corpus(20, seed=1), seed=8)
    corpus[0].tokens[0].form = "<unk>"
    v = Vocabulary.from_corpus(corpus)
    fresh = Vocabulary()
    for table in ("words", "chars", "pos", "stags", "rels"):
        assert list(getattr(v, table).items())[: len(getattr(fresh, table))] == list(
            getattr(fresh, table).items()), table
    assert sorted(v.pos.values()) == list(range(len(v.pos)))
