"""Loss definition, early stopping, jackknife partitioning, target shuffling."""

import collections
import json
import tracemalloc
import weakref

import numpy as np
import pytest

import reference
from helpers import tape_nodes

import tagparse.training as training
from tagparse import autodiff as ad
from tagparse.encoder import EncoderConfig
from tagparse.heads import HeadConfig
from tagparse.model import Model
from tagparse.optim import AdamState, adam_step
from tagparse.synthetic import make_corpus
from tagparse.training import (
    EpochReport,
    TrainConfig,
    fold_spans,
    jackknife,
    joint_loss,
    make_batches,
    shuffle_stag_targets,
    train,
)
from tagparse.vocab import Vocabulary


def tiny_enc(**kw):
    base = dict(word_dim=6, pos_dim=4, stag_dim=4, char_dim=4, char_filters=5,
                hidden=6, layers=1, highway=True, dropout_input=0.0,
                dropout_layer=0.0, dropout_recurrent=0.0)
    base.update(kw)
    return EncoderConfig(**base)


def tiny_heads():
    return HeadConfig(d_arc=7, d_rel=5, d_pos=6, d_stag=6, mlp_dropout=0.0)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(16, seed=9)


@pytest.fixture(scope="module")
def setup(corpus):
    vocab = Vocabulary.from_corpus(corpus)
    model = Model(vocab, "joint-pos-stag", tiny_enc(), tiny_heads(),
                  np.random.default_rng(0))
    bucket = [s for s in corpus if len(s) == len(corpus[0])][:3]
    return vocab, model, bucket


class TestJointLoss:
    def test_uniform_predictions_cost_log_k_per_token(self, setup):
        vocab, model, bucket = setup
        outs = model.forward(bucket)
        # zero every output by scaling: rebuild logits as zeros via fake outputs
        import tagparse.model as M

        n_tokens = sum(len(s) for s in bucket)
        seq = len(bucket[0])
        fake = M.BatchOutputs(
            sentences=bucket,
            arc_scores=ad.Tensor(np.zeros((len(bucket), seq, seq + 1))),
            label_logits=ad.Tensor(np.zeros((n_tokens, vocab.n_rels))),
            pos_logits=ad.Tensor(np.zeros((n_tokens, vocab.n_pos))),
            stag_logits=ad.Tensor(np.zeros((n_tokens, vocab.n_stags))),
        )
        loss = joint_loss(fake, bucket, vocab, "joint-pos-stag")
        want = n_tokens * (np.log(seq + 1) + np.log(vocab.n_rels)
                           + np.log(vocab.n_pos) + np.log(vocab.n_stags))
        np.testing.assert_allclose(float(loss.value), want, rtol=1e-12)
        del outs

    def test_one_hot_gold_predictions_cost_zero(self, setup):
        vocab, model, bucket = setup
        import tagparse.model as M

        seq = len(bucket[0])
        big = 1e4
        arc = []
        rel_rows, pos_rows, stag_rows = [], [], []
        for s in bucket:
            m = np.zeros((seq, seq + 1))
            for i, tok in enumerate(s.tokens):
                m[i, tok.head] = big
            arc.append(m)
            for tok in s.tokens:
                r = np.zeros(vocab.n_rels)
                r[vocab.rel_id(tok.rel)] = big
                rel_rows.append(r)
                p = np.zeros(vocab.n_pos)
                p[vocab.tag_id("pos", tok.gold_pos)] = big
                pos_rows.append(p)
                t = np.zeros(vocab.n_stags)
                t[vocab.tag_id("stag", tok.stag)] = big
                stag_rows.append(t)
        fake = M.BatchOutputs(sentences=bucket, arc_scores=ad.Tensor(np.stack(arc)),
                              label_logits=ad.Tensor(np.array(rel_rows)),
                              pos_logits=ad.Tensor(np.array(pos_rows)),
                              stag_logits=ad.Tensor(np.array(stag_rows)))
        loss = joint_loss(fake, bucket, vocab, "joint-pos-stag")
        assert float(loss.value) < 1e-9

    def test_matches_sum_of_per_task_oracles(self, setup):
        vocab, model, bucket = setup
        outs = model.forward(bucket)

        def ce(logits, target):
            z = logits - logits.max()
            return float(np.log(np.exp(z).sum()) - z[target])

        want = 0.0
        tok_pos = 0
        for b, s in enumerate(bucket):
            for i, tok in enumerate(s.tokens):
                want += ce(outs.arc_scores.value[b, i], tok.head)
                want += ce(outs.label_logits.value[tok_pos], vocab.rel_id(tok.rel))
                want += ce(outs.pos_logits.value[tok_pos], vocab.tag_id("pos", tok.gold_pos))
                want += ce(outs.stag_logits.value[tok_pos], vocab.tag_id("stag", tok.stag))
                tok_pos += 1
        got = float(joint_loss(outs, bucket, vocab, "joint-pos-stag").value)
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    def test_tape_size_does_not_grow_with_bucket(self, dropout):
        # every head is one tensor per bucket, whatever its sentences and words
        corpus = make_corpus(120, seed=4)
        seq = max({len(s) for s in corpus}, key=lambda n: sum(len(s) == n for s in corpus))
        same = [s for s in corpus if len(s) == seq]
        assert len(same) >= 10
        vocab = Vocabulary.from_corpus(corpus)
        model = Model(vocab, "joint-pos-stag", tiny_enc(layers=2, dropout_input=0.3,
                                                        dropout_recurrent=0.3),
                      tiny_heads(), np.random.default_rng(0))

        def nodes(bucket):
            rng = np.random.default_rng(1) if dropout else None
            return tape_nodes(joint_loss(model.forward(bucket, rng), bucket, vocab, model.mode))

        small, large = same[:2], same[2:10]
        assert {t.form for s in large for t in s.tokens} - {t.form for s in small
                                                               for t in s.tokens}
        assert nodes(small) == nodes(large)

    def test_misaligned_inputs_rejected(self, setup):
        vocab, model, bucket = setup
        outs = model.forward(bucket)
        with pytest.raises(ValueError):
            joint_loss(outs, bucket[:-1], vocab, "joint-pos-stag")

    def test_one_adam_step_decreases_loss(self, corpus):
        # a small step on one example reduces that example's loss; Adam's
        # bias-corrected first step moves every coordinate by the full lr,
        # so "small" here means 1e-4 (1e-3 overshoots on ~5% of inits)
        vocab = Vocabulary.from_corpus(corpus)
        decreased = 0
        for trial in range(20):
            model = Model(vocab, "joint-pos-stag", tiny_enc(), tiny_heads(),
                          np.random.default_rng(100 + trial))
            sent = corpus[trial % len(corpus)]
            state = AdamState(lr=1e-4)
            loss0 = joint_loss(model.forward([sent]), [sent], vocab, model.mode)
            grads = ad.gradients(loss0, model.params)
            adam_step(model.params, grads, state)
            loss1 = joint_loss(model.forward([sent]), [sent], vocab, model.mode)
            decreased += float(loss1.value) < float(loss0.value)
        assert decreased == 20


class TestBatches:
    def test_uniform_length_and_coverage(self, corpus):
        batches = make_batches(corpus, batch_size=3, rng=np.random.default_rng(0))
        seen = 0
        for batch in batches:
            assert len(batch) <= 3
            assert len({len(s) for s in batch}) == 1
            seen += len(batch)
        assert seen == len(corpus)


class TestEarlyStopping:
    def test_patience_arithmetic(self, corpus, monkeypatch):
        scores = iter([80.0, 81.0, 81.0, 81.0, 81.0, 81.0, 81.0, 99.0])
        monkeypatch.setattr(training, "evaluate_dev", lambda m, d: {})
        monkeypatch.setattr(training, "dev_criterion", lambda mode, m: next(scores))
        cfg = TrainConfig(mode="parser", batch_size=8, lr=0.01, patience=5,
                          max_epochs=50, seed=0)
        result = train(corpus, corpus, cfg, tiny_enc(), tiny_heads())
        # stops after epoch 7: epochs 3..7 fail to improve on epoch 2's 81
        assert len(result.history) == 7
        assert result.best_epoch == 2

    def test_identical_seeds_identical_parameters(self, corpus):
        cfg = TrainConfig(mode="supertagger", batch_size=8, lr=0.01, patience=2,
                          max_epochs=2, seed=7)
        r1 = train(corpus, corpus, cfg, tiny_enc(), tiny_heads())
        r2 = train(corpus, corpus, cfg, tiny_enc(), tiny_heads())
        for key in r1.model.params:
            np.testing.assert_array_equal(r1.model.params[key].value,
                                          r2.model.params[key].value)

    def test_float32_moments_follow_float64_moments(self, corpus, monkeypatch):
        # float32 Adam moments shift the path by rounding alone: over 35 steps the
        # per-step losses stayed within 4.9e-8 relative of float64 moments (4.9e-6
        # over 140 steps, as the gaps compound); the bound is 1e-6
        def losses(step):
            seen = []
            real = training._train_step

            def recording(*args):
                loss, norm = real(*args)
                seen.append(loss)
                return loss, norm

            with monkeypatch.context() as m:
                m.setattr(training, "_train_step", recording)
                m.setattr(training, "adam_step", step)
                cfg = TrainConfig(mode="joint-pos-stag", batch_size=4, lr=0.01, patience=5,
                                  max_epochs=5, seed=3)
                train(corpus, corpus, cfg, tiny_enc(), tiny_heads())
            return np.array(seen)

        got, want = losses(adam_step), losses(reference.float64_adam_step)
        assert len(got) == 35
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)

    def test_empty_corpus_rejected(self, corpus):
        cfg = TrainConfig(mode="parser")
        with pytest.raises(ValueError):
            train([], corpus, cfg, tiny_enc())

    def test_returns_best_epoch_parameters(self, corpus, monkeypatch):
        # force the criterion to peak at epoch 1 and then decay
        scores = iter([90.0, 10.0, 10.0, 10.0, 10.0, 10.0])
        monkeypatch.setattr(training, "evaluate_dev", lambda m, d: {})
        monkeypatch.setattr(training, "dev_criterion", lambda mode, m: next(scores))
        snapshots = {}
        cfg = TrainConfig(mode="parser", batch_size=8, lr=0.05, patience=5,
                          max_epochs=20, seed=0)
        result = train(corpus, corpus, cfg, tiny_enc(), tiny_heads(),
                       log=lambda rep: snapshots.setdefault(rep.epoch, None))
        assert result.best_epoch == 1
        assert len(result.history) == 6


    def test_shuffled_supertag_control_keeps_its_max_las_epoch(self, corpus, monkeypatch):
        # joint correctness peaks at epoch 1, LAS at epoch 2: the control follows LAS
        dev = iter([{"las": 50.0, "joint_correct": 40.0}, {"las": 70.0, "joint_correct": 20.0},
                    {"las": 60.0, "joint_correct": 10.0}])
        monkeypatch.setattr(training, "evaluate_dev", lambda m, d: next(dev))
        cfg = TrainConfig(mode="joint-pos-stag", batch_size=8, patience=5, max_epochs=3,
                          seed=0, shuffle_stag=True)
        result = train(corpus, corpus, cfg, tiny_enc(), tiny_heads())
        assert result.best_epoch == 2
        assert [r.dev_score for r in result.history] == [50.0, 70.0, 60.0]

    def test_shuffled_supertag_control_early_stops_on_las(self, corpus):
        cfg = TrainConfig(mode="joint-pos-stag", batch_size=4, lr=0.02, patience=4,
                          max_epochs=4, seed=1, shuffle_stag=True)
        result = train(corpus, corpus, cfg, tiny_enc(), tiny_heads())
        las = [r.metrics["las"] for r in result.history]
        assert [r.dev_score for r in result.history] == las
        assert result.best_epoch == 1 + int(np.argmax(las))


class TestStepLifetime:
    def test_a_step_is_released_before_the_next_forward(self, corpus, monkeypatch):
        losses, alive = [], []
        real_loss, real_forward = training.joint_loss, Model.forward

        def recording_loss(*args, **kwargs):
            loss = real_loss(*args, **kwargs)
            losses.append(weakref.ref(loss))
            return loss

        def checking_forward(self, sentences, rng=None):
            if rng is not None:  # a training forward
                alive.append((sum(ref() is not None for ref in losses),
                              sum(p.grad is not None for p in self.params.values())))
            return real_forward(self, sentences, rng)

        monkeypatch.setattr(training, "joint_loss", recording_loss)
        monkeypatch.setattr(Model, "forward", checking_forward)
        cfg = TrainConfig(mode="joint-pos-stag", batch_size=4, patience=1, max_epochs=1)
        train(corpus, corpus, cfg, tiny_enc(), tiny_heads())
        assert len(alive) > 2 and alive == [(0, 0)] * len(alive)

    def test_one_training_step_leaves_almost_nothing_behind(self, setup):
        vocab, _, bucket = setup
        model = Model(vocab, "joint-pos-stag", tiny_enc(), tiny_heads(),
                      np.random.default_rng(4))
        rng, state = np.random.default_rng(5), AdamState(lr=0.01)
        training._train_step(model, bucket, rng, state, 1)  # allocates the Adam sums
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            training._train_step(model, bucket, rng, state, 1)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 0.01 * (peak - before)

    def test_backward_releases_the_tape_a_held_loss_would_keep(self, corpus):
        # a caller that still holds the loss after its step keeps the node
        # values, but not the closures' saved arrays or interior gradients
        vocab = Vocabulary.from_corpus(corpus)
        model = Model(vocab, "joint-pos-stag", tiny_enc(hidden=32, layers=2), tiny_heads(),
                      np.random.default_rng(6))
        seq = max({len(s) for s in corpus}, key=lambda n: sum(len(s) == n for s in corpus))
        bucket = [s for s in corpus if len(s) == seq]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = joint_loss(model.forward(bucket, np.random.default_rng(7)), bucket,
                              vocab, model.mode)
            taped = tracemalloc.get_traced_memory()[0] - base
            grads = ad.gradients(loss, model.params)
            del grads
            ad.zero_grads(model.params)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss.value)
        assert held < 0.6 * taped


class TestEpochReport:
    def test_json_keeps_every_key_and_adds_timing(self):
        report = EpochReport(3, 1.25, {"uas": 91.0, "las": 90.0}, 90.0, 2.5, 400.0, 7.5)
        row = json.loads(report.to_json())
        # each new key comes after every key emitted before it
        assert list(row) == ["epoch", "train_loss", "dev_score", "uas", "las",
                             "seconds", "tokens_per_s", "grad_norm"]
        assert (row["seconds"], row["tokens_per_s"], row["grad_norm"]) == (2.5, 400.0, 7.5)

    def test_grad_norm_is_the_largest_step_norm_of_the_epoch(self, corpus, monkeypatch):
        norms = []
        real = training._train_step

        def recording(*args):
            loss, norm = real(*args)
            norms.append((args[-1], norm))
            return loss, norm

        monkeypatch.setattr(training, "_train_step", recording)
        cfg = TrainConfig(mode="parser", batch_size=4, patience=2, max_epochs=2, seed=0)
        result = train(corpus, corpus, cfg, tiny_enc(), tiny_heads())
        for report in result.history:
            epoch_norms = [n for epoch, n in norms if epoch == report.epoch]
            assert len(epoch_norms) > 1 and report.grad_norm == max(epoch_norms) > 0

    def test_step_norm_is_the_global_gradient_norm(self, setup, monkeypatch):
        vocab, _, bucket = setup
        model = Model(vocab, "joint-pos-stag", tiny_enc(), tiny_heads(),
                      np.random.default_rng(4))
        seen = []
        real = training.ad.gradients

        def keeping(loss, params):
            seen.append({k: g.copy() for k, g in real(loss, params).items()})
            return seen[-1]

        monkeypatch.setattr(training.ad, "gradients", keeping)
        _, norm = training._train_step(model, bucket, None, AdamState(), 1)
        flat = np.concatenate([g.ravel() for g in seen[0].values()])
        assert norm == pytest.approx(np.linalg.norm(flat), rel=1e-12)

    def test_train_times_each_epoch(self, corpus):
        cfg = TrainConfig(mode="parser", batch_size=8, patience=1, max_epochs=2, seed=0)
        result = train(corpus, corpus, cfg, tiny_enc(), tiny_heads())
        tokens = sum(len(s) for s in corpus)
        for report in result.history:
            assert report.seconds > 0
            assert report.tokens_per_s == pytest.approx(tokens / report.seconds)


class TestNonFiniteLoss:
    @pytest.mark.parametrize("bad, cause", [
        (np.nan, "the gradient of mlp.arc_dep.W is not finite"),
        (np.inf, "the gradient of mlp.arc_dep.W is not finite"),
        (1e200, "it overflows"),
    ], ids=["nan", "inf", "overflow"])
    def test_bad_gradient_stops_the_step_before_adam(self, setup, monkeypatch, bad, cause):
        vocab, _, bucket = setup
        model = Model(vocab, "joint-pos-stag", tiny_enc(), tiny_heads(),
                      np.random.default_rng(4))
        real = training.ad.gradients

        def patched(loss, params):
            grads = real(loss, params)
            grads["mlp.arc_dep.W"] = np.full_like(grads["mlp.arc_dep.W"], bad)
            return grads

        monkeypatch.setattr(training.ad, "gradients", patched)
        before = {k: p.value.copy() for k, p in model.params.items()}
        state = AdamState()
        with pytest.raises(FloatingPointError, match=rf"gradient norm (nan|inf) in epoch 2 on a"
                           rf" batch of 1 sentences of length \d+: {cause}"):
            training._train_step(model, bucket, None, state, 2)
        assert state.t == 0 and not state.s
        for k, p in model.params.items():
            np.testing.assert_array_equal(p.value, before[k])

    def test_nan_parameter_stops_training(self, corpus):
        # a NaN word vector makes the loss of the first batch holding the word NaN
        form = corpus[0].tokens[0].form
        cfg = TrainConfig(mode="parser", batch_size=8, max_epochs=2, seed=0)
        with pytest.raises(FloatingPointError,
                           match=r"loss nan in epoch 1 on a batch of \d+ sentences of length \d+"):
            train(corpus, corpus, cfg, tiny_enc(), tiny_heads(),
                  pretrained={form: np.full(6, np.nan)})


class TestJackknife:
    def test_fold_spans_contiguous(self):
        assert fold_spans(4, 2) == [(0, 2), (2, 4)]
        assert fold_spans(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_partition_property(self, corpus):
        cfg = TrainConfig(mode="supertagger", batch_size=8, lr=0.01, patience=1,
                          max_epochs=1, seed=0, folds=4)
        out, provenance = jackknife(corpus, cfg, tiny_enc(), tiny_heads())
        assert len(out) == len(corpus)
        assert len(provenance) == len(corpus)
        spans = fold_spans(len(corpus), 4)
        seen = set()
        for rec in provenance:
            lo, hi = spans[rec.fold]
            assert lo <= rec.sentence_index < hi
            assert rec.fold not in rec.trained_on
            assert rec.predicted_by_fold == rec.fold
            seen.add(rec.sentence_index)
        assert seen == set(range(len(corpus)))
        # predictions were filled, order and forms preserved
        for orig, filled in zip(corpus, out):
            assert [t.form for t in orig.tokens] == [t.form for t in filled.tokens]
            assert all(t.stag is not None for t in filled.tokens)

    def test_early_stops_on_a_fold_it_does_not_train_on(self, corpus, monkeypatch):
        calls = []
        real_train = training.train

        def spy(train_corpus, dev_corpus, *args, **kw):
            calls.append((train_corpus, dev_corpus))
            return real_train(train_corpus, dev_corpus, *args, **kw)

        monkeypatch.setattr(training, "train", spy)
        cfg = TrainConfig(mode="supertagger", batch_size=8, lr=0.01, patience=1,
                          max_epochs=1, seed=0, folds=4)
        _, provenance = jackknife(corpus, cfg, tiny_enc(), tiny_heads())
        spans = fold_spans(len(corpus), 4)
        trained_on = {rec.fold: rec.trained_on for rec in provenance}
        assert len(calls) == 4
        for f, (train_part, dev_part) in enumerate(calls):
            lo, hi = spans[(f + 1) % 4]
            assert [id(s) for s in dev_part] == [id(s) for s in corpus[lo:hi]]
            assert not {id(s) for s in train_part} & {id(s) for s in dev_part}
            assert trained_on[f] == tuple(g for g in range(4) if g not in (f, (f + 1) % 4))
            assert [id(s) for s in train_part] == \
                [id(s) for g in trained_on[f] for s in corpus[slice(*spans[g])]]

    def test_small_corpus_rejected(self, corpus):
        cfg = TrainConfig(mode="supertagger", folds=2)
        with pytest.raises(ValueError):
            jackknife(corpus[:1], cfg, tiny_enc(), tiny_heads())
        with pytest.raises(ValueError):
            jackknife(corpus, TrainConfig(mode="supertagger", folds=1), tiny_enc(), tiny_heads())
        with pytest.raises(ValueError, match="k >= 3"):
            jackknife(corpus, cfg, tiny_enc(), tiny_heads())

    def test_corpus_smaller_than_k_rejected(self, corpus):
        cfg = TrainConfig(mode="supertagger", folds=3)
        with pytest.raises(ValueError, match="corpus of 2 sentences is smaller than k=3"):
            jackknife(corpus[:2], cfg, tiny_enc(), tiny_heads())


class TestShuffleStags:
    def test_multiset_preserved(self, corpus):
        shuffled = shuffle_stag_targets(corpus, seed=3)
        before = collections.Counter(t.stag for s in corpus for t in s.tokens)
        after = collections.Counter(t.stag for s in shuffled for t in s.tokens)
        assert before == after
        # and it actually permutes something
        flat_before = [t.stag for s in corpus for t in s.tokens]
        flat_after = [t.stag for s in shuffled for t in s.tokens]
        assert flat_before != flat_after

    def test_seed_determinism(self, corpus):
        a = shuffle_stag_targets(corpus, seed=5)
        b = shuffle_stag_targets(corpus, seed=5)
        assert [t.stag for s in a for t in s.tokens] == \
               [t.stag for s in b for t in s.tokens]

    def test_single_token_corpus_unchanged(self):
        corpus = make_corpus(1, seed=0)
        single = [type(corpus[0])(corpus[0].tokens[:1])]
        out = shuffle_stag_targets(single, seed=1)
        assert out[0].tokens[0].stag == single[0].tokens[0].stag


@pytest.mark.parametrize("mode, inputs, tables", [
    ("parser", dict(use_pos_input=True, use_stag_input=True), {"emb.pos", "emb.stag"}),
    ("joint-stag", dict(use_pos_input=True), {"emb.pos"}),
], ids=["parser-reads-pos-and-stag", "joint-stag-reads-pos"])
def test_modes_read_the_columns_they_do_not_predict(corpus, mode, inputs, tables):
    cfg = TrainConfig(mode=mode, batch_size=8, patience=1, max_epochs=2, seed=0)
    result = train(corpus, corpus, cfg, tiny_enc(**inputs), tiny_heads())
    model = result.model
    assert {"emb.pos", "emb.stag"} & set(model.params) == tables
    assert all(np.isfinite(r.train_loss) for r in result.history)
    assert model.enc_config.input_dim(mode) == 6 + 5 + 4 * len(tables)
    for sent in model.predict(corpus[:4]):
        assert all(t.head != i for i, t in enumerate(sent.tokens, start=1))


@pytest.mark.parametrize("mode, keys, criterion", [
    ("pos-tagger", ["pos_acc"], "pos_acc"),
    ("supertagger", ["stag_acc"], "stag_acc"),
    ("parser", ["uas", "las"], "las"),
    ("joint-stag", ["uas", "las", "stag_acc", "joint_correct"], "joint_correct"),
    ("joint-pos-stag", ["uas", "las", "pos_acc", "stag_acc", "joint_correct"],
     "joint_correct"),
])
def test_dev_metrics_and_criterion_of_each_mode(corpus, mode, keys, criterion):
    model = Model(Vocabulary.from_corpus(corpus), mode, tiny_enc(), tiny_heads(),
                  np.random.default_rng(3))
    metrics = training.evaluate_dev(model, corpus[:6])
    assert list(metrics) == keys
    scores = {key: float(k) for k, key in enumerate(keys, start=1)}
    assert training.dev_criterion(mode, scores) == scores[criterion]
    assert training.dev_criterion(mode, {}) == 0.0

