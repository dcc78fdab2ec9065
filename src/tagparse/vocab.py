"""Token/character/tag/relation inventories with reserved ids.

Ids are dense, assigned in first-seen order after the reserved entries,
and survive JSON round trips unchanged.
"""

from __future__ import annotations

import json

__all__ = ["Vocabulary", "PAD", "UNK", "ROOT", "BASE_RELATIONS"]

PAD = "<pad>"
UNK = "<unk>"
ROOT = "<root>"

# deep syntactic roles of substitution sites plus co-head and adjunct labels
BASE_RELATIONS = ["0", "1", "2", "3", "4", "CO", "adj"]
_TAG_TABLES = {"pos": "pos", "stag": "stags"}  # the inventory attribute of each tag column
# tables whose reserved entries the lookups read: unseen items map to UNK, and
# padding takes id 0
_RESERVED_IN = ("words", "chars", "pos", "stags")


class Vocabulary:
    def __init__(self):
        self.words = {PAD: 0, UNK: 1, ROOT: 2}
        self.chars = {PAD: 0, UNK: 1}
        self.pos = {UNK: 0}
        self.stags = {UNK: 0}
        self.rels = {label: i for i, label in enumerate(BASE_RELATIONS)}

    @classmethod
    def from_corpus(cls, sentences) -> "Vocabulary":
        """Every form, character, tag and label of `sentences`, in first-seen
        order; a token's gold POS comes before its predicted one."""
        v = cls()
        tokens = [tok for sent in sentences for tok in sent.tokens]
        forms = [tok.form for tok in tokens]
        v.words = _extended(v.words, forms)
        v.chars = _extended(v.chars, "".join(forms))
        v.pos = _extended(v.pos, (pos for tok in tokens for pos in (tok.gold_pos, tok.pred_pos)
                                  if pos is not None))
        v.stags = _extended(v.stags, (tok.stag for tok in tokens if tok.stag is not None))
        v.rels = _extended(v.rels, (tok.rel for tok in tokens))
        return v

    # lookup helpers; unseen items map to UNK where one is reserved
    def word_id(self, form: str) -> int:
        return self.words.get(form, self.words[UNK])

    def char_ids(self, form: str) -> list:
        unk = self.chars[UNK]
        return [self.chars.get(ch, unk) for ch in form]

    def tags(self, column: str) -> dict:
        """The inventory of a tag column, "pos" or "stag"."""
        return getattr(self, _TAG_TABLES[column])

    def tag_id(self, column: str, tag: str) -> int:
        table = self.tags(column)
        return table.get(tag, table[UNK])

    def rel_id(self, label: str) -> int:
        if label not in self.rels:
            raise KeyError(f"unknown relation label {label!r}; inventory: {sorted(self.rels)}")
        return self.rels[label]

    @staticmethod
    def inverse(table: dict) -> dict:
        """Id -> name of one of the tables (`words`, `chars`, `pos`, `stags`, `rels`)."""
        return {i: s for s, i in table.items()}

    @property
    def n_pos(self) -> int:
        return len(self.pos)

    @property
    def n_stags(self) -> int:
        return len(self.stags)

    @property
    def n_rels(self) -> int:
        return len(self.rels)

    def to_json(self) -> str:
        return json.dumps(
            {
                "words": self.words,
                "chars": self.chars,
                "pos": self.pos,
                "stags": self.stags,
                "rels": self.rels,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        """The vocabulary of `to_json`; ValueError unless each table's ids are
        exactly 0..len-1, and `words`, `chars`, `pos` and `stags` hold their
        reserved entries at the ids a new Vocabulary gives them."""
        data = json.loads(text)
        v = cls()
        for name in ("words", "chars", "pos", "stags", "rels"):
            table = {k: int(i) for k, i in data[name].items()}
            missing = set(range(len(table))).difference(table.values())
            if missing:  # a duplicate, negative or too-large id leaves one out
                raise ValueError(f"table {name!r} lacks id {min(missing)}: its"
                                 f" {len(table)} ids must be 0..{len(table) - 1}, each once")
            for key, i in getattr(v, name).items() if name in _RESERVED_IN else ():
                if key not in table:
                    raise ValueError(f"table {name!r} lacks the reserved entry {key!r}")
                if table[key] != i:
                    raise ValueError(f"table {name!r} holds the reserved entry {key!r}"
                                     f" at id {table[key]}, not {i}")
            setattr(v, name, table)
        return v


def _extended(table: dict, keys) -> dict:
    """`table`, whose ids are its insertion order, with the new `keys` appended."""
    return {key: i for i, key in enumerate(dict.fromkeys([*table, *keys]))}
