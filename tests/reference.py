"""Per-token reference paths that the batched code in src/ is checked against."""

import numpy as np

import tagparse.autodiff as ad
from tagparse.autodiff import Tensor
from tagparse.encoder import ALL_MODES, PARSER_MODES, char_cnn


def _token_pos(tok) -> str:
    # pipeline stages consume predicted POS when present, gold otherwise
    return tok.pred_pos if tok.pred_pos is not None else tok.gold_pos


def encode_tokens(sentence, mode: str, params: dict, vocab, config) -> Tensor:
    """Per-token input matrix for one sentence: [T, d] or [T+1, d] with ROOT.

    Parser-family modes prepend a ROOT row at index 0 that is identically
    zero regardless of parameters. Components are concatenated in the order
    word embedding, POS embedding, supertag embedding, character vector.
    """
    if mode not in ALL_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {ALL_MODES}")
    tokens = sentence.tokens
    if not tokens:
        raise ValueError("encode_tokens: empty sentence")
    rows = []
    for tok in tokens:
        parts = [ad.embedding_lookup(params["emb.word"],
                                     np.array([vocab.word_id(tok.form)]))]
        if "emb.pos" in params:
            parts.append(ad.embedding_lookup(params["emb.pos"],
                                             np.array([vocab.pos_id(_token_pos(tok))])))
        if "emb.stag" in params:
            stag = tok.stag if tok.stag is not None else ""
            parts.append(ad.embedding_lookup(params["emb.stag"],
                                             np.array([vocab.stag_id(stag)])))
        char_vec = char_cnn(vocab.char_ids(tok.form), params["emb.char"],
                            params["cnn.filters"], params["cnn.bias"])
        parts.append(ad.reshape(char_vec, (1, -1)))
        rows.append(ad.concat(parts, axis=1))
    mat = ad.concat(rows, axis=0)
    if mode in PARSER_MODES:
        root = Tensor(np.zeros((1, mat.shape[1])))
        mat = ad.concat([root, mat], axis=0)
    return mat
