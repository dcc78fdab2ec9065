"""Scoring heads over encoder output: arcs, relation labels, POS and supertags.

Arc scores for dependent i over candidate heads (ROOT at row 0):

    s_i = softmax(H_arc_head @ W_arc @ h_i_arc_dep + H_arc_head @ b_arc)

computed for a whole bucket of B sentences of T tokens at once as one
[B, T, T+1] tensor (Dozat & Manning's batched biaffine): row i-1 of
sentence b holds dependent i's scores, column 0 is ROOT.

Relation scores for the arc from predicted head p to dependent i:

    l_i = softmax(h_p_rel_head^T U h_i_rel_dep
                  + W_rel (h_i_rel_head + h_p_rel_head) + b_rel)

A mode has the heads of the tasks that `encoder.MODE_TASKS` lists for it:
the arc and label scorers for "arcs", and an MLP and output layer for each
tag column it predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import MODE_TASKS, TAGS, glorot

__all__ = [
    "HeadConfig",
    "HeadFeatures",
    "init_head_params",
    "head_features",
    "arc_logit_matrix",
    "label_logits_pairs",
    "pos_logits",
    "stag_logits",
]


@dataclass
class HeadConfig:
    d_arc: int = 500
    d_rel: int = 100
    d_pos: int = 500
    d_stag: int = 500
    mlp_dropout: float = 0.33

    def __post_init__(self):
        for name in ("d_arc", "d_rel", "d_pos", "d_stag"):
            if getattr(self, name) < 1:
                raise ValueError(f"HeadConfig.{name} must be positive")
        if not 0.0 <= self.mlp_dropout < 1.0:
            raise ValueError("HeadConfig.mlp_dropout must be in [0, 1)")


@dataclass
class HeadFeatures:
    """Depth-1 ReLU MLP projections of the encoder output, one row per token."""

    arc_dep: Tensor | None = None
    arc_head: Tensor | None = None
    rel_dep: Tensor | None = None
    rel_head: Tensor | None = None
    pos: Tensor | None = None
    stag: Tensor | None = None


def init_head_params(rng, config: HeadConfig, feat_dim: int, n_pos: int,
                     n_stags: int, n_rels: int, mode: str) -> dict:
    params: dict = {}

    def mlp(name, width):
        params[f"mlp.{name}.W"] = ad.parameter(glorot(rng, (width, feat_dim)))
        params[f"mlp.{name}.b"] = ad.parameter(np.zeros(width))

    tasks = MODE_TASKS[mode]
    if "arcs" in tasks:
        for name in ("arc_dep", "arc_head"):
            mlp(name, config.d_arc)
        for name in ("rel_dep", "rel_head"):
            mlp(name, config.d_rel)
        params["biaffine.W_arc"] = ad.parameter(glorot(rng, (config.d_arc, config.d_arc)))
        params["biaffine.b_arc"] = ad.parameter(np.zeros(config.d_arc))
        params["rel.U"] = ad.parameter(
            glorot(rng, (config.d_rel, config.d_rel, n_rels),
                   fan_in=config.d_rel, fan_out=config.d_rel)
        )
        params["rel.W"] = ad.parameter(glorot(rng, (n_rels, config.d_rel)))
        params["rel.b"] = ad.parameter(np.zeros(n_rels))
    for tag, n_tags in zip(TAGS, (n_pos, n_stags)):
        if tag in tasks:
            width = getattr(config, f"d_{tag}")
            mlp(tag, width)
            params[f"out.{tag}.W"] = ad.parameter(glorot(rng, (n_tags, width)))
            params[f"out.{tag}.b"] = ad.parameter(np.zeros(n_tags))
    return params


def _mlp(encoded: Tensor, params: dict, name: str) -> Tensor | None:
    if f"mlp.{name}.W" not in params:
        return None
    return ad.relu(ad.linear(encoded, params[f"mlp.{name}.W"], params[f"mlp.{name}.b"]))


def head_features(encoded: Tensor, params: dict, mask=None) -> HeadFeatures:
    """Project encoder rows [N, 2H] into every configured feature space.

    `mask` is an optional dropout mask applied once at the module boundary.
    """
    if mask is not None:
        encoded = ad.dropout_with_mask(encoded, mask)
    return HeadFeatures(**{f.name: _mlp(encoded, params, f.name) for f in fields(HeadFeatures)})


def arc_logit_matrix(arc_dep: Tensor, arc_head: Tensor, params: dict) -> Tensor:
    """Arc scores [B, T, T+1] of a bucket of B sentences of T tokens.

    `arc_dep` [B, T, d] holds the dependents' rows and `arc_head` [B, T+1, d]
    the candidate heads', ROOT first; entry [b, i-1, j] scores head j for
    dependent i of sentence b. One matmul projects every head row through
    W_arc and one stacked matmul scores every (dependent, head) pair.
    """
    batch, n_plus_1, d = arc_head.shape
    flat = ad.reshape(arc_head, (batch * n_plus_1, d))
    head_w = ad.reshape(ad.matmul(flat, params["biaffine.W_arc"]), (batch, n_plus_1, d))
    bilinear = ad.matmul(arc_dep, ad.transpose(head_w, (0, 2, 1)))
    head_bias = ad.matmul(flat, ad.reshape(params["biaffine.b_arc"], (-1, 1)))
    # the bias is per candidate head, the same for every dependent
    return ad.add(bilinear, ad.reshape(head_bias, (batch, 1, n_plus_1)))


def label_logits_pairs(dep: Tensor, dep_head_role: Tensor, head: Tensor,
                       params: dict) -> Tensor:
    """Relation scores [N, r] for N (dependent, head) row pairs.

    `dep` holds rel-dep rows of the dependents, `dep_head_role` their
    rel-head rows, and `head` the rel-head rows of their chosen heads.
    """
    n, d_rel = dep.shape
    r = params["rel.b"].shape[0]
    # [N, d, r] rows of head^T U_k for every k, contracted with dep over d
    head_u = ad.reshape(ad.matmul(head, ad.reshape(params["rel.U"], (d_rel, d_rel * r))),
                        (n, d_rel, r))
    bilinear = ad.reduce_sum(ad.mul(head_u, ad.reshape(dep, (n, d_rel, 1))), axis=1)
    affine = ad.linear(ad.add(dep_head_role, head), params["rel.W"], params["rel.b"])
    return ad.add(bilinear, affine)


def pos_logits(rows: Tensor, params: dict) -> Tensor:
    """POS scores [N, n_pos] of N pos-MLP feature rows."""
    return ad.linear(rows, params["out.pos.W"], params["out.pos.b"])


def stag_logits(rows: Tensor, params: dict) -> Tensor:
    """Supertag scores [N, n_stags] of N stag-MLP feature rows."""
    return ad.linear(rows, params["out.stag.W"], params["out.stag.b"])
