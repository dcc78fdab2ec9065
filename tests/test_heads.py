"""Scoring-head checks against direct loop transcriptions of the equations."""

import numpy as np
import pytest

import reference
from helpers import numeric_grad, rel_err

import tagparse.autodiff as ad
from tagparse.autodiff import Tensor
from tagparse.heads import (
    HeadConfig,
    HeadFeatures,
    arc_logit_matrix,
    init_head_params,
    head_features,
    label_logits_pairs,
    pos_logits,
    stag_logits,
)


def softmax_np(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def sentence_arc_scores(feats, params):
    """[T, T+1] scores of one sentence of [T+1, d] rows through the batched scorer."""
    dep, head = feats.arc_dep.value, feats.arc_head.value
    return arc_logit_matrix(Tensor(dep[None, 1:]), Tensor(head[None]), params).value[0]


def arc_probs(feats, params):
    """Row i-1: distribution of dependent i over the candidate heads."""
    return ad.softmax(Tensor(sentence_arc_scores(feats, params)), axis=-1).value


def label_pair_logits(feats, deps, heads, params):
    """Relation scores for the arcs heads[k] -> deps[k] of one sentence."""
    return label_logits_pairs(ad.embedding_lookup(feats.rel_dep, np.asarray(deps)),
                              ad.embedding_lookup(feats.rel_head, np.asarray(deps)),
                              ad.embedding_lookup(feats.rel_head, np.asarray(heads)),
                              params)


def label_probs(feats, deps, heads, params):
    return ad.softmax(label_pair_logits(feats, deps, heads, params), axis=-1).value


def make_feats(rng, n_plus_1, d_arc=None, d_rel=None, d_pos=None, d_stag=None):
    f = HeadFeatures()
    if d_arc:
        f.arc_dep = Tensor(rng.normal(size=(n_plus_1, d_arc)))
        f.arc_head = Tensor(rng.normal(size=(n_plus_1, d_arc)))
    if d_rel:
        f.rel_dep = Tensor(rng.normal(size=(n_plus_1, d_rel)))
        f.rel_head = Tensor(rng.normal(size=(n_plus_1, d_rel)))
    if d_pos:
        f.pos = Tensor(rng.normal(size=(n_plus_1, d_pos)))
    if d_stag:
        f.stag = Tensor(rng.normal(size=(n_plus_1, d_stag)))
    return f


class TestArcScores:
    def test_zero_params_give_uniform(self):
        rng = np.random.default_rng(0)
        feats = make_feats(rng, 6, d_arc=5)
        params = {"biaffine.W_arc": Tensor(np.zeros((5, 5))),
                  "biaffine.b_arc": Tensor(np.zeros(5))}
        s = arc_probs(feats, params)[1]
        np.testing.assert_allclose(s, np.full(6, 1 / 6), atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        feats = make_feats(rng, 7, d_arc=4)
        params = {"biaffine.W_arc": Tensor(rng.normal(size=(4, 4))),
                  "biaffine.b_arc": Tensor(rng.normal(size=4))}
        probs = arc_probs(feats, params)
        assert probs.shape == (6, 7)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_direct_loop(self, trial):
        # 5-token sentence, ROOT included: H is 6 x d
        rng = np.random.default_rng(10 + trial)
        d = 4
        feats = make_feats(rng, 6, d_arc=d)
        w = rng.normal(size=(d, d))
        b = rng.normal(size=d)
        params = {"biaffine.W_arc": Tensor(w), "biaffine.b_arc": Tensor(b)}
        H = feats.arc_head.value
        D = feats.arc_dep.value
        got = arc_probs(feats, params)
        for i in range(1, 6):
            scores = np.array([H[j] @ (w @ D[i]) + H[j] @ b for j in range(6)])
            want = softmax_np(scores)
            np.testing.assert_allclose(got[i - 1], want, atol=1e-12, rtol=0)

    def test_permuting_candidates_permutes_distribution(self):
        rng = np.random.default_rng(3)
        feats = make_feats(rng, 6, d_arc=4)
        params = {"biaffine.W_arc": Tensor(rng.normal(size=(4, 4))),
                  "biaffine.b_arc": Tensor(rng.normal(size=4))}
        base = arc_probs(feats, params)[1]
        perm = np.array([0, 3, 2, 5, 4, 1])  # fixes ROOT, shuffles the rest
        permuted = HeadFeatures(arc_dep=feats.arc_dep,
                                arc_head=Tensor(feats.arc_head.value[perm]))
        shuffled = arc_probs(permuted, params)[1]
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-12)

    def test_head_independent_score_shift_keeps_argmax(self):
        rng = np.random.default_rng(4)
        feats = make_feats(rng, 6, d_arc=4)
        params = {"biaffine.W_arc": Tensor(rng.normal(size=(4, 4))),
                  "biaffine.b_arc": Tensor(rng.normal(size=4))}
        logits = sentence_arc_scores(feats, params)
        shifted = logits + 7.5  # same constant for every candidate head
        assert np.array_equal(np.argmax(logits, axis=1), np.argmax(shifted, axis=1))
        np.testing.assert_allclose(
            np.apply_along_axis(softmax_np, 1, logits),
            np.apply_along_axis(softmax_np, 1, shifted),
            atol=1e-9,
        )


    @pytest.mark.parametrize("trial", range(3))
    def test_bucket_matches_per_sentence_oracle(self, trial):
        # values and gradients of a bucket of 3 against one oracle call per sentence
        rng = np.random.default_rng(70 + trial)
        batch, seq, d = 3, 5, 4
        dep = ad.parameter(rng.normal(size=(batch, seq + 1, d)))
        head = ad.parameter(rng.normal(size=(batch, seq + 1, d)))
        params = {"biaffine.W_arc": ad.parameter(rng.normal(size=(d, d))),
                  "biaffine.b_arc": ad.parameter(rng.normal(size=d))}
        weights = rng.normal(size=(batch, seq, seq + 1))
        wrt = dict(params, dep=dep, head=head)
        scores = arc_logit_matrix(ad.slice_axis(dep, 1, 1, seq + 1), head, params)
        assert scores.shape == (batch, seq, seq + 1)
        grads = ad.gradients(ad.reduce_sum(ad.mul(scores, Tensor(weights))), wrt)
        rows = [reference.arc_logit_matrix(ad.reshape(ad.slice_axis(dep, 0, b, b + 1),
                                                      (seq + 1, d)),
                                           ad.reshape(ad.slice_axis(head, 0, b, b + 1),
                                                      (seq + 1, d)), params)
                for b in range(batch)]
        loss = ad.reduce_sum(ad.mul(ad.concat([ad.reshape(r, (1, seq, seq + 1)) for r in rows],
                                              axis=0), Tensor(weights)))
        want = ad.gradients(loss, wrt)
        np.testing.assert_allclose(scores.value, np.stack([r.value for r in rows]),
                                   atol=1e-12, rtol=0)
        for name in wrt:
            np.testing.assert_allclose(grads[name], want[name], atol=1e-12, rtol=0,
                                       err_msg=name)


class TestLabelScores:
    def make_params(self, rng, d_rel, r, zero=False):
        def val(shape):
            return np.zeros(shape) if zero else rng.normal(size=shape)

        return {"rel.U": Tensor(val((d_rel, d_rel, r))),
                "rel.W": Tensor(val((r, d_rel))),
                "rel.b": Tensor(np.zeros(r))}

    def test_one_hot_bias_dominates(self):
        rng = np.random.default_rng(5)
        feats = make_feats(rng, 5, d_rel=4)
        params = self.make_params(rng, 4, 3, zero=True)
        params["rel.b"] = Tensor(np.array([0.0, 10.0, 0.0]))
        probs = label_probs(feats, [1, 2, 3, 4], [0, 0, 0, 0], params)
        assert np.all(np.argmax(probs, axis=1) == 1)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        feats = make_feats(rng, 5, d_rel=4)
        params = self.make_params(rng, 4, 3)
        assert abs(label_probs(feats, [2], [4], params).sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_triple_loop_oracle(self, trial):
        rng = np.random.default_rng(30 + trial)
        d_rel, r = 4, 3
        feats = make_feats(rng, 5, d_rel=d_rel)
        params = self.make_params(rng, d_rel, r)
        params["rel.b"] = Tensor(rng.normal(size=r))
        U, W, b = params["rel.U"].value, params["rel.W"].value, params["rel.b"].value
        RD, RH = feats.rel_dep.value, feats.rel_head.value
        deps = [1, 2, 3, 4]
        heads = [(i + 1) % 5 for i in deps]
        got = label_probs(feats, deps, heads, params)
        for i, p_i in zip(deps, heads):
            scores = np.zeros(r)
            for k in range(r):
                bilinear = 0.0
                for a in range(d_rel):
                    for c in range(d_rel):
                        bilinear += RH[p_i, a] * U[a, c, k] * RD[i, c]
                scores[k] = bilinear + W[k] @ (RH[i] + RH[p_i]) + b[k]
            want = softmax_np(scores)
            np.testing.assert_allclose(got[i - 1], want, atol=1e-12, rtol=0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(60)
        d_rel, r = 4, 3
        feats = make_feats(rng, 5, d_rel=d_rel)
        params = self.make_params(rng, d_rel, r)
        params["rel.b"] = Tensor(rng.normal(size=r))
        params = {k: ad.parameter(v.value) for k, v in params.items()}
        deps, heads = [1, 2, 3, 4, 2], [0, 3, 1, 2, 4]
        weights = Tensor(rng.normal(size=(len(deps), r)))

        def loss():
            logits = label_pair_logits(feats, deps, heads, params)
            return ad.reduce_sum(ad.mul(logits, weights))

        grads = ad.gradients(loss(), params)
        for name in ("rel.U", "rel.W", "rel.b"):
            p = params[name]
            saved = p.value.copy()

            def f(v):
                p.value[...] = v
                out = float(loss().value)
                p.value[...] = saved
                return out

            assert rel_err(grads[name], numeric_grad(f, saved)) < 1e-6, name


def pos_probs(feats, params):
    return ad.softmax(pos_logits(feats.pos, params), axis=-1).value


def stag_probs(feats, params):
    return ad.softmax(stag_logits(feats.stag, params), axis=-1).value


class TestTagHeads:
    def test_zero_weights_give_uniform(self):
        rng = np.random.default_rng(8)
        feats = make_feats(rng, 4, d_pos=5, d_stag=5)
        params = {"out.pos.W": Tensor(np.zeros((6, 5))), "out.pos.b": Tensor(np.zeros(6)),
                  "out.stag.W": Tensor(np.zeros((9, 5))), "out.stag.b": Tensor(np.zeros(9))}
        np.testing.assert_allclose(pos_probs(feats, params), 1 / 6, atol=1e-15)
        np.testing.assert_allclose(stag_probs(feats, params), 1 / 9, atol=1e-15)

    def test_temperature_drives_max_to_one(self):
        rng = np.random.default_rng(9)
        feats = make_feats(rng, 4, d_pos=5)
        w = rng.normal(size=(6, 5))
        for scale, bound in [(1.0, 0.999), (1000.0, 1e-9)]:
            params = {"out.pos.W": Tensor(w * scale), "out.pos.b": Tensor(np.zeros(6))}
            probs = pos_probs(feats, params)
            assert np.all(probs.max(axis=1) > 1.0 - bound) or scale == 1.0
        params = {"out.pos.W": Tensor(w * 1000.0), "out.pos.b": Tensor(np.zeros(6))}
        assert np.all(pos_probs(feats, params).max(axis=1) > 1 - 1e-9)

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_transcription_oracle(self, trial):
        rng = np.random.default_rng(40 + trial)
        feats = make_feats(rng, 4, d_pos=5, d_stag=3)
        params = {"out.pos.W": Tensor(rng.normal(size=(6, 5))),
                  "out.pos.b": Tensor(rng.normal(size=6)),
                  "out.stag.W": Tensor(rng.normal(size=(7, 3))),
                  "out.stag.b": Tensor(rng.normal(size=7))}
        got_pos = pos_probs(feats, params)
        got_stag = stag_probs(feats, params)
        for k in range(4):
            want = softmax_np(params["out.pos.W"].value @ feats.pos.value[k]
                              + params["out.pos.b"].value)
            np.testing.assert_allclose(got_pos[k], want, atol=1e-12, rtol=0)
            want = softmax_np(params["out.stag.W"].value @ feats.stag.value[k]
                              + params["out.stag.b"].value)
            np.testing.assert_allclose(got_stag[k], want, atol=1e-12, rtol=0)


def test_all_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(50)
    config = HeadConfig(d_arc=6, d_rel=4, d_pos=5, d_stag=5)
    params = init_head_params(rng, config, feat_dim=8, n_pos=5, n_stags=7, n_rels=4,
                              mode="joint-pos-stag")
    encoded = Tensor(rng.normal(size=(5, 8)) * 100)
    feats = head_features(encoded, params)
    assert np.all(np.isfinite(sentence_arc_scores(feats, params)))
    assert np.all(np.isfinite(label_pair_logits(feats, [1, 2, 3, 4], [0, 2, 1, 0], params).value))
    assert np.all(np.isfinite(pos_probs(feats, params)))
    assert np.all(np.isfinite(stag_probs(feats, params)))


def test_mlp_widths_match_config():
    rng = np.random.default_rng(51)
    config = HeadConfig()
    params = init_head_params(rng, config, feat_dim=16, n_pos=5, n_stags=7, n_rels=4,
                              mode="joint-pos-stag")
    assert params["mlp.arc_dep.W"].shape == (500, 16)
    assert params["mlp.rel_head.W"].shape == (100, 16)
    assert params["mlp.pos.W"].shape == (500, 16)
    assert params["mlp.stag.W"].shape == (500, 16)
    assert params["rel.U"].shape == (100, 100, 4)
