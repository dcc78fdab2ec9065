"""Seeded synthetic corpora.

The template grammar produces derivation trees in the corpus format:
determiners/adjectives adjoin into nouns, subjects substitute with role 0,
objects with role 1, prepositions adjoin into a verb or the object noun and
take their own object with role 1.

PP attachment is the deliberately hard decision. Every noun and every
preposition carries a latent binary class drawn once from
`structure_seed`; a preposition after an object attaches to that noun
exactly when the two classes agree (an XOR-style rule). The supertag
inventory spells the latent classes out (tN-a/tN-b, tP-x/tP-y), so joint
supertagging supervises precisely the features that pure parsing has to
induce from arc structure alone.
"""

from __future__ import annotations

import numpy as np

from .corpus import Sentence, Token

__all__ = ["make_corpus", "random_tree_corpus", "GRAMMAR"]

GRAMMAR = {
    "det": ["the", "a", "some"],
    "adj": ["big", "red", "old", "happy", "small"],
    "noun": ["dog", "cat", "man", "woman", "park", "bone", "garden", "hat",
             "bird", "house", "child", "tree", "ball", "fish", "road",
             "boat", "star", "stone", "river", "cloud", "door", "horse",
             "chair", "field", "lamp", "wall", "bridge", "boot", "coin", "leaf"],
    "verb_t": ["saw", "chased", "found", "liked"],
    "verb_i": ["slept", "ran", "smiled", "fell"],
    "prep": ["with", "in", "near"],
}

POS = {"det": "DT", "adj": "JJ", "noun": "NN", "verb_t": "VBD", "verb_i": "VBD",
       "prep": "IN"}
STAG = {"det": "tD", "adj": "tA", "verb_t": "tVt", "verb_i": "tVi"}

ROOT_REL = "root"


def _latent_classes(structure_seed: int) -> tuple:
    """Fixed binary class per noun and per preposition."""
    rng = np.random.default_rng(structure_seed)
    noun_class = {n: bool(rng.integers(0, 2)) for n in GRAMMAR["noun"]}
    prep_class = {p: bool(rng.integers(0, 2)) for p in GRAMMAR["prep"]}
    if len(set(prep_class.values())) == 1:
        prep_class[GRAMMAR["prep"][0]] = not prep_class[GRAMMAR["prep"][0]]
    return noun_class, prep_class


def _noun_phrase(rng, tokens, head_slot, noun_class):
    """Append det? adj* noun; returns the noun's final 1-based index.

    `head_slot` is patched by the caller once the noun's head is known.
    """
    parts = []
    if rng.random() < 0.7:
        parts.append(("det", rng.choice(GRAMMAR["det"])))
    if rng.random() < 0.4:
        parts.append(("adj", rng.choice(GRAMMAR["adj"])))
    noun = rng.choice(GRAMMAR["noun"])
    noun_idx = len(tokens) + len(parts) + 1
    for cat, form in parts:
        tokens.append(Token(form=form, gold_pos=POS[cat], stag=STAG[cat],
                            head=noun_idx, rel="adj"))
    stag = "tN-a" if noun_class[noun] else "tN-b"
    tokens.append(Token(form=noun, gold_pos=POS["noun"], stag=stag,
                        head=head_slot, rel="adj"))
    return noun_idx


def make_corpus(n_sentences: int, seed: int, structure_seed: int = 77) -> list:
    """Sentences with subject/verb(/object)(/PP) structure and gold columns."""
    rng = np.random.default_rng(seed)
    noun_class, prep_class = _latent_classes(structure_seed)
    corpus = []
    for _ in range(n_sentences):
        tokens: list = []
        subj_idx = _noun_phrase(rng, tokens, head_slot=0, noun_class=noun_class)
        transitive = rng.random() < 0.6
        verb_idx = len(tokens) + 1
        cat = "verb_t" if transitive else "verb_i"
        tokens.append(Token(form=rng.choice(GRAMMAR[cat]), gold_pos=POS[cat],
                            stag=STAG[cat], head=0, rel=ROOT_REL))
        tokens[subj_idx - 1].head = verb_idx
        tokens[subj_idx - 1].rel = "0"
        obj_idx = None
        if transitive:
            obj_idx = _noun_phrase(rng, tokens, head_slot=verb_idx,
                                   noun_class=noun_class)
            tokens[obj_idx - 1].head = verb_idx
            tokens[obj_idx - 1].rel = "1"
        if rng.random() < 0.8:
            prep = rng.choice(GRAMMAR["prep"])
            prep_idx = len(tokens) + 1
            if obj_idx is not None:
                obj_noun = tokens[obj_idx - 1].form
                noun_attach = noun_class[obj_noun] == prep_class[prep]
            else:
                noun_attach = False
            prep_head = obj_idx if noun_attach else verb_idx
            tokens.append(Token(form=prep, gold_pos=POS["prep"],
                                stag="tP-x" if prep_class[prep] else "tP-y",
                                head=prep_head, rel="adj"))
            pobj_idx = _noun_phrase(rng, tokens, head_slot=prep_idx,
                                    noun_class=noun_class)
            tokens[pobj_idx - 1].head = prep_idx
            tokens[pobj_idx - 1].rel = "1"
        corpus.append(Sentence(tokens))
    return corpus


def random_tree_corpus(n_sentences: int, seed: int, max_len: int = 10,
                       labels=("0", "1", "2", "adj", "CO")) -> list:
    """Random words over random single-rooted trees; for metric/IO tests."""
    rng = np.random.default_rng(seed)
    words = [w for group in GRAMMAR.values() for w in group] + [",", ".", "!", "--"]
    corpus = []
    for _ in range(n_sentences):
        n = int(rng.integers(1, max_len + 1))
        order = rng.permutation(n) + 1
        heads = [0] * (n + 1)
        for pos, node in enumerate(order):
            heads[node] = 0 if pos == 0 else int(rng.choice(order[:pos]))
        tokens = []
        for i in range(1, n + 1):
            form = str(rng.choice(words))
            tokens.append(Token(form=form, gold_pos=str(rng.choice(["NN", "VBD", "DT", "."])),
                                stag=str(rng.choice(["tN", "tV", "tD"])),
                                head=heads[i], rel=str(rng.choice(labels))))
        corpus.append(Sentence(tokens))
    return corpus
