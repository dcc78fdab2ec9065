"""Corpus records: one token per line, tab-separated, blank line between sentences.

Columns: 1-based index, surface form, gold POS, predicted POS (or `_`),
supertag (or `_`), head index (0 = ROOT), relation label. UTF-8 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["Token", "Sentence", "CorpusFormatError", "read_corpus", "write_corpus",
           "parse_corpus", "format_corpus", "GOLD_FIELD", "PRED_FIELD"]

MISSING = "_"
# the Token field that holds each tag column's gold value, and the one its predictions fill
GOLD_FIELD = {"pos": "gold_pos", "stag": "stag"}
PRED_FIELD = {"pos": "pred_pos", "stag": "stag"}


class CorpusFormatError(ValueError):
    """Malformed corpus text; message carries the offending line number."""


@dataclass
class Token:
    form: str
    gold_pos: str
    pred_pos: str | None = None
    stag: str | None = None
    head: int = 0
    rel: str = "adj"


@dataclass
class Sentence:
    tokens: list = field(default_factory=list)

    def __len__(self):
        return len(self.tokens)

    def words(self):
        return [t.form for t in self.tokens]

    def heads(self):
        return [t.head for t in self.tokens]

    def copy(self) -> "Sentence":
        return Sentence([replace(t) for t in self.tokens])


def parse_corpus(text: str, path: str = "<string>") -> list:
    sentences, current = [], []
    top = (0, 0)  # the largest head in `current`, and its line
    for lineno, line in enumerate(text.split("\n") + [""], start=1):  # "" ends the last sentence
        line = line.rstrip("\r")
        if not line.strip():
            if top[0] > len(current):
                raise CorpusFormatError(f"{path}:{top[1]}: head {top[0]} is past the last"
                                        f" token of a {len(current)}-token sentence")
            if current:
                sentences.append(Sentence(current))
            current, top = [], (0, 0)
            continue
        cols = line.split("\t")
        if len(cols) != 7:
            raise CorpusFormatError(f"{path}:{lineno}: expected 7 tab-separated columns, got {len(cols)}")
        idx, form, gold_pos, pred_pos, stag, head, rel = cols
        try:
            idx_val, head_val = int(idx), int(head)
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: non-integer index or head") from None
        if idx_val != len(current) + 1:
            raise CorpusFormatError(f"{path}:{lineno}: token index {idx_val} out of order")
        if head_val < 0:
            raise CorpusFormatError(f"{path}:{lineno}: negative head index")
        if head_val == idx_val:
            raise CorpusFormatError(f"{path}:{lineno}: token {idx_val} is its own head")
        top = max(top, (head_val, lineno))
        current.append(
            Token(
                form=form,
                gold_pos=gold_pos,
                pred_pos=None if pred_pos == MISSING else pred_pos,
                stag=None if stag == MISSING else stag,
                head=head_val,
                rel=rel,
            )
        )
    return sentences


def format_corpus(sentences) -> str:
    blocks = []
    for sent in sentences:
        lines = []
        for i, t in enumerate(sent.tokens, start=1):
            lines.append(
                "\t".join(
                    [
                        str(i),
                        t.form,
                        t.gold_pos,
                        t.pred_pos if t.pred_pos is not None else MISSING,
                        t.stag if t.stag is not None else MISSING,
                        str(t.head),
                        t.rel,
                    ]
                )
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def read_corpus(path) -> list:
    with open(path, "r", encoding="utf-8") as f:
        return parse_corpus(f.read(), path=str(path))


def write_corpus(path, sentences) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_corpus(sentences))
