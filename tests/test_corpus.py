"""Corpus format round trips and error reporting."""

import numpy as np
import pytest

from tagparse.corpus import (
    CorpusFormatError,
    format_corpus,
    parse_corpus,
    read_corpus,
    write_corpus,
)
from tagparse.synthetic import make_corpus, random_tree_corpus

TWO_SENTENCES = """1\tthe\tDT\t_\ttD\t2\tadj
2\tdog\tNN\t_\ttN\t3\t0
3\tran\tVBD\t_\ttVi\t0\troot

1\tbirds\tNNS\tNN\ttN\t2\t0
2\tsing\tVBP\t_\ttVt\t0\troot
"""


def test_empty_file_gives_empty_corpus():
    assert parse_corpus("") == []
    assert parse_corpus("\n\n\n") == []


def test_two_sentence_fixture():
    sents = parse_corpus(TWO_SENTENCES)
    assert [len(s) for s in sents] == [3, 2]
    assert sents[0].tokens[1].form == "dog"
    assert sents[0].tokens[2].head == 0
    assert sents[1].tokens[0].pred_pos == "NN"
    assert sents[1].tokens[1].pred_pos is None


def test_round_trip_is_identity_on_fixture():
    assert format_corpus(parse_corpus(TWO_SENTENCES)) == TWO_SENTENCES


def test_round_trip_on_random_corpora(tmp_path):
    corpus = random_tree_corpus(100, seed=5)
    path = tmp_path / "corpus.tsv"
    write_corpus(path, corpus)
    text = path.read_text(encoding="utf-8")
    reparsed = read_corpus(path)
    write_corpus(path, reparsed)
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize(
    "bad,line",
    [
        ("1\tdog\tNN\t_\ttN\t0\n", 1),  # six columns
        ("1\tdog\tNN\t_\ttN\tx\t0\n", 1),  # non-integer head
        ("2\tdog\tNN\t_\ttN\t0\tadj\n", 1),  # wrong index
        ("1\ta\tDT\t_\ttD\t2\tadj\n1\tb\tNN\t_\ttN\t0\t0\n", 2),  # out of order
        ("1\tthe\tDT\t_\t_\t2\tadj\n2\tdog\tNN\t_\t_\t9\t0\n", 2),  # head past the end
        # head past the end of a sentence that a blank line closes
        ("1\tthe\tDT\t_\t_\t3\tadj\n2\tdog\tNN\t_\t_\t0\t0\n\n1\tx\tNN\t_\t_\t0\t0\n", 1),
        ("1\tthe\tDT\t_\t_\t2\tadj\n2\tdog\tNN\t_\t_\t2\t0\n", 2),  # its own head
        ("1\tdog\tNN\t_\t_\t1\t0\n", 1),  # its own head in a 1-token sentence
    ],
)
def test_malformed_lines_name_line_number(bad, line):
    with pytest.raises(CorpusFormatError, match=f":{line}:"):
        parse_corpus(bad)


def _vary_optional_columns(corpus, rng, fill: bool) -> list:
    """Copies with predicted POS and supertags set on some tokens (`fill`) or
    blanked to `_` on some tokens."""
    out = []
    for sent in corpus:
        copy = sent.copy()
        for tok in copy.tokens:
            if rng.random() < 0.5:
                if fill:
                    tok.pred_pos = str(rng.choice(["NN", "DT", "VBD", "IN"]))
                else:
                    tok.pred_pos = None
            if rng.random() < 0.5:
                tok.stag = str(rng.choice(["tN", "tVt", "tP-x"])) if fill else None
        out.append(copy)
    return out


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("source", ["random_tree_corpus", "make_corpus"])
@pytest.mark.parametrize("columns", ["as-made", "filled", "blanked"])
def test_parse_inverts_format(source, columns, seed):
    make = {"random_tree_corpus": random_tree_corpus, "make_corpus": make_corpus}[source]
    corpus = make(20, seed=seed)
    if columns != "as-made":
        corpus = _vary_optional_columns(corpus, np.random.default_rng(seed),
                                        fill=columns == "filled")
    text = format_corpus(corpus)
    assert parse_corpus(text) == corpus
    assert format_corpus(parse_corpus(text)) == text
