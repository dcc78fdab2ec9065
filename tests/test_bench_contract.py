"""The benchmark reaches into `src/` by name.

The traced run patches functions of `tagparse.model`, and every run checks
the gradients of parameters it names in `harness.GRAD_GROUPS`.
`bench/spans.py` and `bench/harness.py` are loaded here from their files,
unchanged, so that renaming or dropping one of those names in `src/` fails
a test instead of a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import tagparse.model as tm
from tagparse.encoder import EncoderConfig
from tagparse.heads import HeadConfig
from tagparse.synthetic import make_corpus
from tagparse.vocab import Vocabulary

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    """bench/<name>.py as a module; its own imports of bench modules resolve in bench/."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    added = str(BENCH) not in sys.path
    if added:
        sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        if added:
            sys.path.remove(str(BENCH))
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def harness():
    return _load("harness")


@pytest.mark.parametrize("workload", ["short-joint", "paper-dims"])
def test_every_gradient_checked_parameter_exists(harness, workload):
    w = harness.workloads.build(workload, 0)
    model = tm.Model(Vocabulary.from_corpus(w.train), harness.workloads.MODE, w.enc, w.heads,
                     np.random.default_rng(0))
    for group, names in harness.GRAD_GROUPS.items():
        for name in names:
            assert name in model.params, (group, name)


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
