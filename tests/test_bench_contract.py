"""The traced benchmark run patches functions of `tagparse.model` by name.

`bench/spans.py` is loaded here from its file, unchanged, so that renaming
or dropping one of those names in `src/` fails a test instead of a
`--trace 1` run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import tagparse.model as tm
from tagparse.encoder import EncoderConfig
from tagparse.heads import HeadConfig
from tagparse.synthetic import make_corpus
from tagparse.vocab import Vocabulary

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_forward_and_parses_open_every_span(spans):
    corpus = make_corpus(12, seed=3)
    enc = EncoderConfig(word_dim=6, char_dim=4, char_filters=5, hidden=5, layers=1)
    heads = HeadConfig(d_arc=6, d_rel=4, d_pos=5, d_stag=5)
    model = tm.Model(Vocabulary.from_corpus(corpus), "joint-pos-stag", enc, heads,
                     np.random.default_rng(0))
    bucket = [s for s in corpus if len(s) == len(corpus[0])]
    saved = {attr: getattr(tm, attr) for attrs in spans.WRAPPED.values() for attr in attrs}
    forward = tm.Model.forward
    tracer = spans.Tracer(True)
    with spans.instrument(tracer):
        with tracer.phase_run("train"):
            model.forward(bucket, np.random.default_rng(1))
        with tracer.phase_run("greedy"):
            greedy = model.predict(corpus)
        with tracer.phase_run("mst"):
            mst = model.predict(corpus, use_mst=True)
    for phase, layers in spans.PHASE_LAYERS.items():
        for layer in layers:
            if layer not in spans.LOOP_SPANS:  # opened by the bench's own loop
                assert tracer.self_time[(phase, layer)] > 0, (phase, layer)
        assert tracer.counts[(phase, "model.forward_calls")] >= 1
    assert tracer.counts[("greedy", "heads.label_calls")] >= 1
    assert ("greedy", "decoder.repaired_sents") in tracer.counts
    assert len(greedy) == len(mst) == len(corpus)
    # instrument puts every function back
    assert tm.Model.forward is forward
    for attr, fn in saved.items():
        assert getattr(tm, attr) is fn, attr
