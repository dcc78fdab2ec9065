"""Model assembly: batching consistency, decoding validity, persistence."""

import numpy as np
import pytest

from reference import encode_tokens

import tagparse.autodiff as ad
import tagparse.encoder
import tagparse.heads
import tagparse.model as tm
from tagparse.decoder import is_valid_tree
from tagparse.encoder import (GATES, MODE_TASKS, PARSER_MODES, TAGS, EncoderConfig,
                              bilstm_stack)
from tagparse.heads import HeadConfig
from tagparse.model import Model
from tagparse.serialize import FormatError, load_tensors, save_tensors
from tagparse.synthetic import make_corpus, random_tree_corpus
from tagparse.training import joint_loss
from tagparse.vocab import Vocabulary


def tiny_enc(**kw):
    base = dict(word_dim=8, pos_dim=6, stag_dim=6, char_dim=5, char_filters=6,
                hidden=7, layers=2, highway=True, dropout_input=0.0,
                dropout_layer=0.0, dropout_recurrent=0.0)
    base.update(kw)
    return EncoderConfig(**base)


def tiny_heads(**kw):
    base = dict(d_arc=9, d_rel=5, d_pos=8, d_stag=8, mlp_dropout=0.0)
    base.update(kw)
    return HeadConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(12, seed=3)


@pytest.fixture(scope="module")
def joint_model(corpus):
    vocab = Vocabulary.from_corpus(corpus)
    return Model(vocab, "joint-pos-stag", tiny_enc(), tiny_heads(),
                 np.random.default_rng(0))


def test_batched_encoder_matches_per_sentence_path(corpus, joint_model):
    model = joint_model
    sent = corpus[0]
    inputs = encode_tokens(sent, model.mode, model.params, model.vocab, model.enc_config)
    single = bilstm_stack(ad.reshape(inputs, (1,) + inputs.shape), model.params,
                          model.enc_config).value[0]
    batch_inputs = model._input_batch([sent])
    batched = bilstm_stack(batch_inputs, model.params, model.enc_config).value[0]
    np.testing.assert_allclose(batched, single, atol=1e-12)


@pytest.fixture(scope="module")
def mixed():
    """Shuffled sentences of 1 to 60 tokens, with repeated lengths."""
    corpus = random_tree_corpus(40, seed=5, max_len=60)
    lengths = [len(s) for s in corpus]
    assert min(lengths) == 1 and max(lengths) >= 40 and len(set(lengths)) < len(lengths)
    assert lengths != sorted(lengths) and lengths != sorted(lengths, reverse=True)
    return corpus


@pytest.mark.parametrize("mode", ["joint-pos-stag", "supertagger"])
def test_mixed_length_forward_matches_each_sentence_alone(mixed, mode):
    # a padded batch gives each sentence its own forward's logits, loss and gradients
    batch = mixed[:12]
    vocab = Vocabulary.from_corpus(mixed)
    model = Model(vocab, mode, tiny_enc(), tiny_heads(), np.random.default_rng(1))
    outs = model.forward(batch)
    loss = joint_loss(outs, batch, vocab, mode)
    grads = ad.gradients(loss, model.params)
    want_loss, want_grads, lo = 0.0, {k: 0.0 for k in model.params}, 0
    for b, sent in enumerate(batch):
        n = len(sent)
        alone = model.forward([sent])
        rows = slice(lo, lo + n)
        lo += n
        if "arcs" in model.tasks:
            np.testing.assert_allclose(outs.arc_logits[b].value, alone.arc_logits[0].value,
                                       rtol=0, atol=1e-12)
            assert np.all(outs.arc_scores.value[b, :, n + 1 :] == -np.inf)
            np.testing.assert_allclose(outs.label_logits.value[rows],
                                       alone.label_logits.value, rtol=0, atol=1e-12)
        for tag in TAGS:
            if tag in model.tasks:
                np.testing.assert_allclose(getattr(outs, f"{tag}_logits").value[rows],
                                           getattr(alone, f"{tag}_logits").value,
                                           rtol=0, atol=1e-12)
        alone_loss = joint_loss(alone, [sent], vocab, mode)
        want_loss += float(alone_loss.value)
        for name, g in ad.gradients(alone_loss, model.params).items():
            want_grads[name] = want_grads[name] + g
    assert lo == outs.stag_logits.shape[0]
    assert float(loss.value) == pytest.approx(want_loss, rel=1e-12)
    for name, g in grads.items():
        np.testing.assert_allclose(g, want_grads[name], rtol=1e-12, atol=1e-12, err_msg=name)


def test_bucketed_forward_matches_singleton_forward(corpus, joint_model):
    model = joint_model
    same_len = [s for s in corpus if len(s) == len(corpus[0])][:2]
    if len(same_len) < 2:
        pytest.skip("no same-length pair in fixture")
    both = model.forward(same_len)
    for k, sent in enumerate(same_len):
        solo = model.forward([sent])
        np.testing.assert_allclose(both.arc_logits[k].value,
                                   solo.arc_logits[0].value, atol=1e-10)
        n = len(sent)
        np.testing.assert_allclose(both.stag_logits.value[k * n:(k + 1) * n],
                                   solo.stag_logits.value, atol=1e-10)


def test_arc_logits_are_per_sentence_slices_on_the_tape(corpus, joint_model):
    bucket = [s for s in corpus if len(s) == len(corpus[0])]
    outs = joint_model.forward(bucket)
    seq = len(bucket[0])
    assert outs.arc_scores.shape == (len(bucket), seq, seq + 1)
    per_sentence = outs.arc_logits
    assert len(per_sentence) == len(bucket)
    for b, logits in enumerate(per_sentence):
        np.testing.assert_array_equal(logits.value, outs.arc_scores.value[b])
    w_arc = joint_model.params["biaffine.W_arc"]
    grads = ad.gradients(ad.reduce_sum(per_sentence[-1]), {"W": w_arc})
    assert np.any(grads["W"] != 0.0)


def test_predictions_are_valid_trees_with_filled_columns(corpus, joint_model):
    pred = joint_model.predict(corpus)
    assert len(pred) == len(corpus)
    for sent in pred:
        heads = np.array([-1] + [t.head for t in sent.tokens])
        assert is_valid_tree(heads)
        for t in sent.tokens:
            assert t.pred_pos is not None
            assert t.stag is not None
            assert t.rel in joint_model.vocab.rels


def test_mst_predictions_are_valid_trees(corpus, joint_model):
    for sent in joint_model.predict(corpus[:4], use_mst=True):
        heads = np.array([-1] + [t.head for t in sent.tokens])
        assert is_valid_tree(heads)


def _columns(sentences):
    return [[(t.head, t.rel, t.pred_pos, t.stag) for t in s.tokens] for s in sentences]


@pytest.mark.parametrize("use_mst", [False, True], ids=["greedy", "mst"])
def test_bucketed_predict_matches_one_at_a_time(corpus, joint_model, use_mst):
    # a bucket is decoded sentence by sentence, then labeled in one call
    seq = max({len(s) for s in corpus}, key=lambda n: sum(len(s) == n for s in corpus))
    bucket = [s for s in corpus if len(s) == seq]
    assert len(bucket) >= 3
    together = joint_model.predict(bucket, use_mst=use_mst)
    alone = [joint_model.predict([s], use_mst=use_mst)[0] for s in bucket]
    assert _columns(together) == _columns(alone)


def test_predict_labels_each_bucket_with_one_call(corpus, joint_model, monkeypatch):
    calls = []
    real = tm.label_logits_pairs

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(tm, "label_logits_pairs", counting)
    joint_model.predict(corpus)
    # the corpus is one chunk, and only its decoded heads are labeled: forward
    # under no_grad scores no argmax heads
    assert len(calls) == 1
    assert sum(calls) == sum(len(s) for s in corpus)
    calls.clear()
    monkeypatch.setattr(tm, "PREDICT_ROWS", 25)
    chunks = joint_model._chunks(corpus)
    assert len(chunks) > 2
    for chunk in chunks:
        lengths = [len(corpus[p]) for p in chunk]
        assert lengths == sorted(lengths)
        assert len(chunk) == 1 or len(chunk) * (max(lengths) + 1) <= 25
    assert sorted(p for chunk in chunks for p in chunk) == list(range(len(corpus)))
    joint_model.predict(corpus)
    assert calls == [sum(len(corpus[p]) for p in chunk) for chunk in chunks]


@pytest.mark.parametrize("use_mst", [False, True], ids=["greedy", "mst"])
def test_predict_matches_a_recording_forward_and_the_same_decode(corpus, joint_model,
                                                                   monkeypatch, use_mst):
    seen = []
    forward = Model.forward

    def spying(self, sentences, rng=None):
        outs = forward(self, sentences, rng)
        seen.append(outs)
        return outs

    monkeypatch.setattr(Model, "forward", spying)
    pred = joint_model.predict(corpus, use_mst=use_mst)
    # one forward for the whole corpus, which recorded no tape and no labels for
    # the argmax heads
    assert len(seen) == 1 and len(seen[0].sentences) == len(corpus)
    assert seen[0].arc_scores.parents == () and seen[0].label_logits is None
    monkeypatch.undo()
    # the same decode of one recording forward per sentence length
    want = []
    for n in sorted({len(s) for s in corpus}):
        bucket = [s for s in corpus if len(s) == n]
        outs = joint_model.forward(bucket)
        assert outs.arc_scores.parents != ()
        filled = [s.copy() for s in bucket]
        joint_model._fill_tags(filled, outs)
        joint_model._fill_parse(filled, outs, use_mst)
        want += filled
    by_len = sorted(pred, key=len)  # sorted() is stable: bucket order within a length
    assert _columns(by_len) == _columns(want)


@pytest.mark.parametrize("use_mst", [False, True], ids=["greedy", "mst"])
def test_predict_keeps_input_order_across_lengths(mixed, use_mst):
    vocab = Vocabulary.from_corpus(mixed)
    model = Model(vocab, "joint-pos-stag", tiny_enc(), tiny_heads(), np.random.default_rng(2))
    sents = mixed[:15]
    together = model.predict(sents, use_mst=use_mst)
    assert [[t.form for t in s.tokens] for s in together] == [
        [t.form for t in s.tokens] for s in sents]
    alone = [model.predict([s], use_mst=use_mst)[0] for s in sents]
    assert _columns(together) == _columns(alone)


def test_predict_of_no_sentences_is_empty(joint_model):
    assert joint_model.predict([]) == []
    assert joint_model.predict([], use_mst=True) == []


def test_label_logits_of_a_forward_by_grad_mode_and_dropout(corpus, joint_model):
    bucket = [s for s in corpus if len(s) == len(corpus[0])]
    recorded = joint_model.forward(bucket)
    # joint_loss reads them, as the gradient checks do on a dropout-free forward
    assert recorded.label_logits.shape == (len(bucket) * len(bucket[0]),
                                           joint_model.vocab.n_rels)
    with ad.no_grad():
        assert joint_model.forward(bucket).label_logits is None
        dropped = joint_model.forward(bucket, np.random.default_rng(0))
    assert dropped.label_logits is not None and dropped.label_logits.parents == ()


def test_load_draws_no_random_initialisation(tmp_path, corpus, joint_model, monkeypatch):
    path = tmp_path / "model.tpt"
    joint_model.save(path)
    draws = []
    for module in (tagparse.encoder, tagparse.heads):
        real = module.glorot

        def recording(rng, *args, real=real, **kwargs):
            draws.append(isinstance(rng, np.random.Generator))
            return real(rng, *args, **kwargs)

        monkeypatch.setattr(module, "glorot", recording)
    loaded = Model.load(path)
    # glorot is the one caller of Generator.uniform; no Generator reached it
    assert draws and not any(draws)
    monkeypatch.undo()
    assert list(loaded.params) == list(joint_model.params)
    for name, param in joint_model.params.items():
        np.testing.assert_array_equal(loaded.params[name].value, param.value)
    for use_mst in (False, True):
        assert (_columns(loaded.predict(corpus, use_mst=use_mst))
                == _columns(joint_model.predict(corpus, use_mst=use_mst)))


def test_save_load_round_trip(tmp_path, corpus, joint_model):
    path = tmp_path / "model.tpt"
    joint_model.save(path)
    loaded = Model.load(path)
    a = joint_model.predict(corpus[:5])
    b = loaded.predict(corpus[:5])
    for sa, sb in zip(a, b):
        assert [t.head for t in sa.tokens] == [t.head for t in sb.tokens]
        assert [t.rel for t in sa.tokens] == [t.rel for t in sb.tokens]
        assert [t.stag for t in sa.tokens] == [t.stag for t in sb.tokens]
        assert [t.pred_pos for t in sa.tokens] == [t.pred_pos for t in sb.tokens]


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.pop("rel.b"), "missing tensor 'rel.b'"),
    (lambda p: p.update({"lstm.0.fw.W_i": p["lstm.0.fw.W_i"][:, :3]}),
     r"tensor 'lstm.0.fw.W_i' has shape \(7, 3\), expected \(7, \d+\)"),
    (lambda p: p.update({"rel.extra": np.zeros(2)}), "unexpected tensor 'rel.extra'"),
    (lambda p: p.update({"lstm.0.fw.W_i": p["lstm.0.fw.W_i"][:, :3]}) or p.pop("rel.b"),
     "tensor 'lstm.0.fw.W_i' has shape"),  # the first mismatch in parameter order
], ids=["missing", "shape", "extra", "both"])
def test_load_rejects_tensors_that_do_not_fit_the_config(tmp_path, joint_model, edit, message):
    path = tmp_path / "model.tpt"
    joint_model.save(path)
    tensors, meta = load_tensors(path)
    edit(tensors)
    save_tensors(path, tensors, meta)
    with pytest.raises(FormatError, match=message):
        Model.load(path)


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.pop("vocab"), "metadata lacks 'vocab'"),
    (lambda m: m.pop("mode"), "metadata lacks 'mode'"),
    (lambda m: m.pop("encoder"), "metadata lacks 'encoder'"),
    (lambda m: m.pop("heads"), "metadata lacks 'heads'"),
    (lambda m: m.update(mode="nope"), "metadata 'mode' is 'nope'"),
    (lambda m: m["encoder"].update(bogus=1), "'encoder' has unknown field 'bogus'"),
    (lambda m: m["heads"].update(hidden=7), "'heads' has unknown field 'hidden'"),
    (lambda m: m["encoder"].update(hidden="7"), "'encoder' field 'hidden' is '7', expected int"),
    (lambda m: m["encoder"].update(hidden=7.0), "'encoder' field 'hidden' is 7.0, expected int"),
    (lambda m: m["encoder"].update(layers=True), "'encoder' field 'layers' is True"),
    (lambda m: m["encoder"].update(highway=1), "'encoder' field 'highway' is 1, expected bool"),
    (lambda m: m["heads"].update(mlp_dropout=None), "'heads' field 'mlp_dropout' is None"),
    (lambda m: m["heads"].update(d_arc=0), "'heads': HeadConfig.d_arc must be positive"),
    (lambda m: m.update(encoder=[]), "metadata 'encoder' is list, not an object"),
    (lambda m: m.update(vocab="{}"), "metadata 'vocab' is malformed"),
    (lambda m: m["encoder"].update(char_width=4), "'encoder': EncoderConfig.char_width must be odd"),
    # a mode may not read the gold value of a column it predicts
    (lambda m: m.update(mode="joint-stag") or m["encoder"].update(use_stag_input=True),
     "'joint-stag' predicts the stag column, so it cannot read it: use_stag_input"),
    (lambda m: m["encoder"].update(use_stag_input=True), "use_stag_input must be False"),
    (lambda m: m["encoder"].update(use_pos_input=True), "use_pos_input must be False"),
    # removed fields load only at the value the code now always uses
    (lambda m: m["encoder"].update(final_concat_only=True),
     "'final_concat_only' is True; the field is removed and loads only as False"),
    (lambda m: m["heads"].update(label_on_gold_heads=False), "'label_on_gold_heads' is False"),
    (lambda m: m["heads"].update(rel_affine_uses_dep=True), "field 'rel_affine_uses_dep' is True"),
    (lambda m: m["heads"].update(rel_affine_uses_dep=0), "field 'rel_affine_uses_dep' is 0"),
], ids=["no-vocab", "no-mode", "no-encoder", "no-heads", "mode", "encoder-field",
        "heads-field", "str-int", "float-int", "bool-int", "int-bool", "none-float",
        "range", "not-object", "vocab", "even-char-width", "joint-stag-reads-stag",
        "joint-pos-stag-reads-stag", "joint-pos-stag-reads-pos", "removed-final-concat",
        "removed-label-on-gold", "removed-uses-dep", "removed-as-int"])
def test_load_rejects_bad_metadata(tmp_path, joint_model, edit, message):
    path = tmp_path / "model.tpt"
    joint_model.save(path)
    tensors, meta = load_tensors(path)
    edit(meta)
    save_tensors(path, tensors, meta)
    with pytest.raises(FormatError, match=message):
        Model.load(path)


def gate_params(model, prefix):
    return [model.params[f"{prefix}.{k}_{g}"].value for k in ("W", "b") for g in GATES + ("r",)]


def test_loaded_model_keeps_its_gate_stacks(tmp_path, corpus, joint_model):
    path = tmp_path / "model.tpt"
    joint_model.save(path)
    loaded = Model.load(path)
    for prefix in ("lstm.0.fw", "lstm.1.bw"):
        w_i, *rest = gate_params(loaded, prefix)
        assert all(np.shares_memory(w_i.base, p) for p in rest[:4])
        for got, want in zip(gate_params(loaded, prefix), gate_params(joint_model, prefix)):
            np.testing.assert_array_equal(got, want)
    for use_mst in (False, True):
        a = joint_model.predict(corpus, use_mst)
        b = loaded.predict(corpus, use_mst)
        assert ([[(t.head, t.rel, t.pred_pos, t.stag) for t in s.tokens] for s in a]
                == [[(t.head, t.rel, t.pred_pos, t.stag) for t in s.tokens] for s in b])


def test_training_tape_copies_no_parameter(corpus, joint_model):
    # the LSTM reads its gate stacks as views: no concat node takes a parameter
    from tagparse.training import joint_loss

    bucket = [s for s in corpus if len(s) == len(corpus[0])]
    loss = joint_loss(joint_model.forward(bucket, np.random.default_rng(3)), bucket,
                      joint_model.vocab, joint_model.mode)
    params = {id(p) for p in joint_model.params.values()}
    seen, stack, layers = {id(loss)}, [loss], 0
    while stack:
        node = stack.pop()
        layers += node.op == "lstm_layer"
        assert node.op != "concat" or not any(id(p) in params for p in node.parents)
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    assert layers == 4


def test_odd_char_width_parses_one_character_words():
    sentences = make_corpus(200, seed=0)[:5]
    assert any(len(t.form) == 1 for s in sentences for t in s.tokens)
    model = Model(Vocabulary.from_corpus(sentences), "joint-pos-stag", tiny_enc(char_width=5),
                  tiny_heads(), np.random.default_rng(4))
    for sent in model.predict(sentences):
        assert is_valid_tree(np.array([-1] + [t.head for t in sent.tokens]))


def test_supertagger_mode_only_fills_stags(corpus):
    vocab = Vocabulary.from_corpus(corpus)
    model = Model(vocab, "supertagger", tiny_enc(), tiny_heads(),
                  np.random.default_rng(1))
    pred = model.predict(corpus[:3])
    for orig, sent in zip(corpus, pred):
        for t_orig, t in zip(orig.tokens, sent.tokens):
            assert t.stag is not None
            assert t.head == t_orig.head  # untouched


def test_gradients_flow_to_every_parameter(corpus):
    # one mixed-length pass; every parameter of the joint model gets a grad
    vocab = Vocabulary.from_corpus(corpus)
    model = Model(vocab, "joint-pos-stag", tiny_enc(layers=1), tiny_heads(),
                  np.random.default_rng(2))
    from tagparse.training import joint_loss

    bucket = [s for s in corpus if len(s) == len(corpus[0])][:2]
    loss = joint_loss(model.forward(bucket), bucket, vocab, model.mode)
    grads = ad.gradients(loss, model.params)
    nonzero = [k for k, g in grads.items() if np.any(g != 0)]
    # embeddings of unseen ids legitimately stay zero; weight matrices must move
    for key in model.params:
        if key.startswith(("lstm.", "mlp.", "biaffine.", "rel.", "out.", "cnn.")):
            assert np.any(grads[key] != 0), f"no gradient reached {key}"
    assert "emb.word" in nonzero


def test_every_gradient_is_c_ordered(corpus, joint_model):
    # adam_step walks a gradient as a flat view; an F-ordered one would be copied
    from tagparse.training import joint_loss

    bucket = [s for s in corpus if len(s) == len(corpus[0])]
    loss = joint_loss(joint_model.forward(bucket, np.random.default_rng(3)), bucket,
                      joint_model.vocab, joint_model.mode)
    grads = ad.gradients(loss, joint_model.params)
    assert [name for name, g in grads.items() if not g.flags.c_contiguous] == []


@pytest.mark.parametrize("mode, inputs", [
    ("joint-stag", dict(use_stag_input=True)),
    ("joint-pos-stag", dict(use_stag_input=True)),
    ("joint-pos-stag", dict(use_pos_input=True)),
], ids=["joint-stag-reads-stag", "joint-pos-stag-reads-stag", "joint-pos-stag-reads-pos"])
def test_a_mode_cannot_read_a_column_it_predicts(corpus, mode, inputs):
    (flag,) = inputs
    with pytest.raises(ValueError, match=f"{flag} must be False"):
        Model(Vocabulary.from_corpus(corpus), mode, tiny_enc(**inputs), tiny_heads(),
              np.random.default_rng(0))


@pytest.mark.parametrize("key, name, fixed", [
    ("encoder", "final_concat_only", False),
    ("heads", "label_on_gold_heads", True),
    ("heads", "rel_affine_uses_dep", False),
])
def test_removed_config_fields_load_at_their_fixed_value(tmp_path, corpus, joint_model,
                                                         key, name, fixed):
    path = tmp_path / "model.tpt"
    joint_model.save(path)
    tensors, meta = load_tensors(path)
    meta[key][name] = fixed
    save_tensors(path, tensors, meta)
    loaded = Model.load(path)
    assert not hasattr(getattr(loaded, "enc_config" if key == "encoder" else "head_config"),
                       name)
    a, b = joint_model.predict(corpus[:4]), loaded.predict(corpus[:4])
    assert ([[(t.head, t.rel, t.pred_pos, t.stag) for t in s.tokens] for s in a]
            == [[(t.head, t.rel, t.pred_pos, t.stag) for t in s.tokens] for s in b])


@pytest.mark.parametrize("mode", ["pos-tagger", "supertagger", "parser", "joint-stag",
                                  "joint-pos-stag"])
def test_parameters_and_outputs_follow_the_mode_table(corpus, mode):
    model = Model(Vocabulary.from_corpus(corpus), mode, tiny_enc(), tiny_heads(),
                  np.random.default_rng(5))
    tasks = MODE_TASKS[mode]
    assert model.with_root == (mode in PARSER_MODES) == ("arcs" in tasks)
    assert ("biaffine.W_arc" in model.params) == ("arcs" in tasks)
    for tag in TAGS:
        assert (f"out.{tag}.W" in model.params) == (tag in tasks)
        assert (f"emb.{tag}" in model.params) == (mode == "supertagger" and tag == "pos")
    bucket = [s for s in corpus if len(s) == len(corpus[0])]
    out = model.forward(bucket)
    assert (out.arc_scores is not None) == ("arcs" in tasks)
    assert (out.pos_logits is not None) == ("pos" in tasks)
    assert (out.stag_logits is not None) == ("stag" in tasks)
    for orig, sent in zip(bucket, model.predict(bucket)):
        for t_orig, t in zip(orig.tokens, sent.tokens):
            assert (t.pred_pos != t_orig.pred_pos) == ("pos" in tasks)
            if "arcs" not in tasks:
                assert (t.head, t.rel) == (t_orig.head, t_orig.rel)
