"""Seeded inputs and model sizes of the benchmark workloads.

Every input comes from `tagparse.synthetic.make_corpus`, whose grammar is
learnable, so the parse accuracies mean something. Sentence lengths follow
fixed tables, so the length buckets, and with them the batch shapes and the
decoder's work, are the same for every seed; only the words and the trees
vary with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tagparse.encoder import MODE_JOINT_POS_STAG, EncoderConfig, parser_config
from tagparse.heads import HeadConfig
from tagparse.synthetic import make_corpus

MODE = MODE_JOINT_POS_STAG
ORACLE_MAX_LEN = 6  # brute force enumerates (n+1)^n head vectors
# share of training relations redrawn uniformly each epoch: the noise cannot
# be learnt, so the training loss settles near its entropy instead of near 0
LABEL_NOISE = 0.25

# sentences per length: 400 make_corpus sentences in make_corpus's own
# length proportions (mean 6.7 tokens), and half of that for held-out sets
SHORT_LENGTHS = {2: 6, 3: 19, 4: 23, 5: 45, 6: 73, 7: 78, 8: 71, 9: 56, 10: 25, 11: 4}
SHORT_HELDOUT = {2: 3, 3: 10, 4: 12, 5: 22, 6: 36, 7: 39, 8: 36, 9: 28, 10: 12, 11: 2}
PAPER_LENGTHS = {3: 2, 4: 4, 5: 7, 6: 10, 7: 11, 8: 10, 9: 8, 10: 4, 11: 1}


@dataclass
class Workload:
    name: str
    enc: EncoderConfig
    heads: HeadConfig
    lr: float
    batch_size: int
    epochs: int        # the fixed training budget; the first is warm-up
    min_parse_s: float  # the shortest parse window, however long training took
    train: list
    heldout: list
    oracle: list       # sentences of at most ORACLE_MAX_LEN tokens
    model_seed: int
    train_seed: int


def _dropout(p: float) -> dict:
    return dict(dropout_input=p, dropout_layer=p, dropout_recurrent=p)


def _sentences(seed: int, chunk: int = 400):
    """Endless stream of make_corpus sentences drawn in seeded chunks."""
    seq = np.random.SeedSequence(seed)
    while True:
        (child,) = seq.spawn(1)
        yield from make_corpus(chunk, seed=int(child.generate_state(1)[0]))


def length_table_corpus(table: dict, seed: int) -> list:
    """make_corpus sentences, `table[n]` of each length n, in stream order."""
    need, out = dict(table), []
    for s in _sentences(seed):
        if need.get(len(s), 0) > 0:
            need[len(s)] -= 1
            out.append(s)
            if len(out) == sum(table.values()):
                return out


def _oracle_set(seed: int, count: int) -> list:
    per = {n: count // (ORACLE_MAX_LEN - 2) for n in range(3, ORACLE_MAX_LEN + 1)}
    return length_table_corpus(per, seed)


def build(name: str, seed: int) -> Workload:
    train_seed, heldout_seed, model_seed, loop_seed = (
        int(x) for x in np.random.SeedSequence(seed).generate_state(4))
    if name == "short-joint":
        enc = parser_config(hidden=64, layers=2, **_dropout(0.33))
        heads = HeadConfig(d_arc=100, d_rel=50, d_pos=100, d_stag=100, mlp_dropout=0.33)
        return Workload(name, enc, heads, lr=0.01, batch_size=50, epochs=12,
                        min_parse_s=15,
                        train=length_table_corpus(SHORT_LENGTHS, train_seed),
                        heldout=length_table_corpus(SHORT_HELDOUT, heldout_seed),
                        oracle=_oracle_set(heldout_seed + 1, 12),
                        model_seed=model_seed, train_seed=loop_seed)
    if name == "paper-dims":
        # the paper's sizes; no dropout, so that the budget learns the grammar
        return Workload(name, parser_config(**_dropout(0.0)), HeadConfig(mlp_dropout=0.0),
                        lr=0.002, batch_size=20, epochs=7,
                        min_parse_s=15,
                        train=length_table_corpus(PAPER_LENGTHS, train_seed),
                        heldout=length_table_corpus(
                            {n: 2 * k for n, k in PAPER_LENGTHS.items()}, heldout_seed),
                        oracle=_oracle_set(heldout_seed + 1, 8),
                        model_seed=model_seed, train_seed=loop_seed)
    raise ValueError(f"unknown workload {name!r}")
