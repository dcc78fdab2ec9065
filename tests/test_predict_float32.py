"""Float32 prediction: `Model.predict` computes its forwards in float32 and
must decode what the float64 oracle in tests/reference.py decodes, while the
model's own parameters, training and `forward` stay float64."""

import copy
from dataclasses import fields

import numpy as np
import pytest

import reference

import tagparse.autodiff as ad
import tagparse.model as tm
from tagparse.autodiff import Tensor
from tagparse.encoder import EncoderConfig
from tagparse.heads import HeadConfig, HeadFeatures
from tagparse.model import Model
from tagparse.optim import AdamState
from tagparse.synthetic import make_corpus, random_tree_corpus
from tagparse.training import TrainConfig, _train_step, make_batches, train
from tagparse.vocab import Vocabulary

# log-probabilities of the float32 forward against float64, relative to max(1, |log p|):
# a hundred float32 ulps, over the measured 1.3e-6 of the trained models below
LOG_PROB_RTOL = 100 * np.finfo(np.float32).eps


def small_enc(**kw):
    base = dict(word_dim=16, pos_dim=8, stag_dim=8, char_dim=8, char_filters=8, hidden=24,
                layers=2, dropout_input=0.1, dropout_layer=0.1, dropout_recurrent=0.1)
    base.update(kw)
    return EncoderConfig(**base)


def small_heads():
    return HeadConfig(d_arc=24, d_rel=12, d_pos=16, d_stag=16, mlp_dropout=0.1)


def float32_copy(model):
    """The model `predict` runs its forwards on."""
    fast = copy.copy(model)
    fast.params = tm._float32(model.params)
    return fast


def _columns(sentences):
    return [[(t.head, t.rel, t.pred_pos, t.stag) for t in s.tokens] for s in sentences]


def pp_accuracy(pred, gold) -> float:
    """Head accuracy on prepositions (gold POS `IN`), where the grammar's
    attachment ambiguity lives."""
    hits = [p.head == g.head for ps, gs in zip(pred, gold)
            for p, g in zip(ps.tokens, gs.tokens) if g.gold_pos == "IN"]
    assert hits
    return float(np.mean(hits))


@pytest.fixture(scope="module")
def test_set():
    return make_corpus(150, seed=13)


@pytest.fixture(scope="module", params=["joint-pos-stag", "parser"])
def trained(request):
    config = TrainConfig(mode=request.param, batch_size=10, lr=0.01, patience=10,
                         max_epochs=10, seed=0)
    return train(make_corpus(100, seed=11), make_corpus(30, seed=12), config, small_enc(),
                 small_heads()).model


class TestDtypes:
    def test_tensor_keeps_float32_and_casts_everything_else_to_float64(self):
        assert Tensor(np.zeros(3, dtype=np.float32)).value.dtype == np.float32
        for value in (np.arange(3), np.array([True, False]), np.zeros(2, dtype=np.float16),
                      1, 2.5, [1, 2]):
            assert Tensor(value).value.dtype == np.float64
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        assert ad.dropout_with_mask(x, np.full((2, 3), 2.0)).value.dtype == np.float32

    @pytest.mark.parametrize("mode", ["joint-pos-stag", "parser", "supertagger"])
    def test_a_float32_forward_stays_float32(self, mode, monkeypatch):
        # mixed lengths, so the padded-head mask and the packed LSTM both run
        corpus = random_tree_corpus(12, seed=5, max_len=9)
        model = Model(Vocabulary.from_corpus(corpus), mode, small_enc(), small_heads(),
                      np.random.default_rng(1))
        seen = {}
        for name in ("char_cnn", "bilstm_stack", "head_features"):
            real = getattr(tm, name)
            monkeypatch.setattr(tm, name, lambda *a, real=real, name=name, **k:
                                seen.setdefault(name, real(*a, **k)))
        with ad.no_grad():
            outs = float32_copy(model).forward(corpus)
        feats = seen["head_features"]
        values = {"char_cnn": seen["char_cnn"], "bilstm_stack": seen["bilstm_stack"],
                  **{f"features.{f.name}": getattr(feats, f.name) for f in fields(HeadFeatures)
                     if getattr(feats, f.name) is not None},
                  **{f: getattr(outs, f) for f in ("arc_scores", "pos_logits", "stag_logits",
                                                   "rel_dep", "rel_head")
                     if getattr(outs, f) is not None}}
        assert ("arc_scores" in values) == (mode != "supertagger")
        assert {name: t.value.dtype for name, t in values.items()} == dict.fromkeys(
            values, np.dtype(np.float32))

    def test_the_cast_keeps_each_gate_a_view_of_one_stack(self):
        corpus = make_corpus(6, seed=2)
        model = Model(Vocabulary.from_corpus(corpus), "parser", small_enc(), small_heads(),
                      np.random.default_rng(0))
        cast = tm._float32(model.params)
        assert cast.keys() == model.params.keys()
        for name, p in model.params.items():
            assert cast[name].value.dtype == np.float32
            np.testing.assert_array_equal(cast[name].value, p.value.astype(np.float32))
        gates = [cast[f"lstm.1.bw.W_{g}"].value for g in ("i", "f", "c", "o", "r")]
        stack = gates[0].base
        assert all(g.base is stack for g in gates) and stack.shape[0] == 5 * 24
        np.testing.assert_array_equal(stack, np.concatenate(gates))


class TestAgainstTheFloat64Oracle:
    @pytest.mark.parametrize("use_mst", [False, True], ids=["greedy", "mst"])
    def test_predictions_match_exactly(self, trained, test_set, use_mst):
        got = trained.predict(test_set, use_mst=use_mst)
        want = reference.predict(trained, test_set, use_mst=use_mst)
        assert _columns(got) == _columns(want)
        assert pp_accuracy(got, test_set) == pp_accuracy(want, test_set)

    def test_arc_log_probabilities_match_within_float32_rounding(self, trained, test_set):
        with ad.no_grad():
            got = float32_copy(trained).forward(test_set).arc_logits
            want = trained.forward(test_set).arc_logits

        def log_softmax(x):
            z = x.astype(np.float64) - x.max(axis=1, keepdims=True)
            return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

        for g, w in zip(got, want):
            assert g.value.dtype == np.float32 and w.value.dtype == np.float64
            lg, lw = log_softmax(g.value), log_softmax(w.value)
            assert np.all(np.abs(lg - lw) <= LOG_PROB_RTOL * np.maximum(1.0, np.abs(lw)))


class TestParametersUntouched:
    def test_predict_leaves_every_parameter_float64_and_bit_identical(self, trained, test_set):
        before = {name: p.value.copy() for name, p in trained.params.items()}
        gate = trained.params["lstm.0.fw.W_c"].value
        trained.predict(test_set[:20])
        trained.predict(test_set[:20], use_mst=True)
        for name, p in trained.params.items():
            assert p.value.dtype == np.float64
            assert p.value.tobytes() == before[name].tobytes(), name
        assert trained.params["lstm.0.fw.W_c"].value is gate

    def test_training_with_predictions_between_steps_ends_bit_identical(self):
        corpus, dev = make_corpus(40, seed=21), make_corpus(10, seed=22)

        def run(with_predict):
            vocab = Vocabulary.from_corpus(corpus)
            rng = np.random.default_rng(4)
            model = Model(vocab, "joint-pos-stag", small_enc(), small_heads(), rng)
            state = AdamState(lr=0.01)
            losses = []
            for _ in range(2):
                for batch in make_batches(corpus, 8, rng):
                    losses.append(_train_step(model, batch, rng, state, 1)[0])
                    if with_predict:  # as evaluate_dev does, here after every step
                        model.predict(dev)
            return losses, {name: p.value.tobytes() for name, p in model.params.items()}

        assert run(True) == run(False)


@pytest.mark.parametrize("use_mst", [False, True], ids=["greedy", "mst"])
def test_decoders_get_no_neg_inf_that_float64_keeps_finite(use_mst, monkeypatch):
    corpus = random_tree_corpus(8, seed=6, max_len=8)
    model = Model(Vocabulary.from_corpus(corpus), "parser", small_enc(), small_heads(),
                  np.random.default_rng(3))
    fast = float32_copy(model)
    with ad.no_grad():
        outs = fast.forward(corpus)
    scores = outs.arc_scores.value
    real = np.isfinite(scores)
    # stretch every row to a spread of 200 nats, past float32's exp range (about 104)
    # and inside float64's (about 745)
    lo = np.where(real, scores, np.inf).min(axis=2, keepdims=True)
    hi = np.where(real, scores, -np.inf).max(axis=2, keepdims=True)
    stretched = np.where(real, (scores - lo) / (hi - lo) * 200.0 - 200.0, -np.inf)
    outs.arc_scores = Tensor(stretched.astype(np.float32))
    with np.errstate(under="ignore"):
        assert (np.exp(outs.arc_scores.value)[real] == 0).any()  # float32 alone would lose arcs
    matrices = []
    decoder = "chu_liu_edmonds" if use_mst else "greedy_heads"
    real_decoder = getattr(tm, decoder)
    monkeypatch.setattr(tm, decoder, lambda sm, *a: matrices.append(sm) or real_decoder(sm, *a))
    fast._fill_parse([s.copy() for s in corpus], outs, use_mst)
    assert len(matrices) == len(corpus)
    for b, (sm, sent) in enumerate(zip(matrices, corpus)):
        n = len(sent)
        want = stretched[b, :n, : n + 1].astype(np.float64)
        want = want - want.max(axis=1, keepdims=True)
        want = want - np.log(np.exp(want).sum(axis=1, keepdims=True))
        off_diagonal = ~np.eye(n, n + 1, k=1, dtype=bool)
        assert np.isfinite(want[off_diagonal]).all()
        assert np.isfinite(sm.log_probs[off_diagonal]).all()
