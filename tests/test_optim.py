"""Adam recurrence checks."""

import tracemalloc

import numpy as np
import pytest

import reference

from tagparse import autodiff as ad
from tagparse.autodiff import ShapeError, parameter
from tagparse.encoder import parser_config
from tagparse.heads import HeadConfig
from tagparse.model import Model
from tagparse.optim import CHUNK, AdamState, adam_step
from tagparse.synthetic import make_corpus
from tagparse.vocab import Vocabulary


def test_zero_gradients_leave_parameters_unchanged():
    p = parameter(np.array([1.0, -2.0, 3.0]))
    before = p.value.copy()
    adam_step({"p": p}, {"p": np.zeros(3)}, AdamState(lr=0.01))
    np.testing.assert_array_equal(p.value, before)


def test_first_step_moves_by_learning_rate():
    # g=1, t=1: m_hat = v_hat = 1, so the update is -lr/(1+eps) ~ -lr
    p = parameter(np.array(0.0))
    adam_step({"p": p}, {"p": np.array(1.0)}, AdamState(lr=0.01))
    np.testing.assert_allclose(p.value, -0.01, atol=1e-9)


def test_hand_evaluated_two_steps():
    # recompute the recurrence by hand for two steps with g = 2 then 0.5
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    p = parameter(np.array(1.0))
    state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
    m = v = 0.0
    x = 1.0
    for t, g in [(1, 2.0), (2, 0.5)]:
        adam_step({"p": p}, {"p": np.array(g)}, state)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    np.testing.assert_allclose(p.value, x, atol=1e-14)


def test_converges_on_quadratic():
    # lr picked so the true recurrence is monotone and lands well below 1e-2
    p = parameter(np.array(1.0))
    state = AdamState(lr=0.013)
    traj = []
    for _ in range(200):
        loss = ad.mul(p, p)
        ad.backward(loss)
        adam_step({"p": p}, {"p": p.grad}, state)
        traj.append(abs(float(p.value)))
    warm = 30
    assert all(traj[i + 1] < traj[i] for i in range(warm, len(traj) - 1))
    assert traj[-1] < 1e-2


def test_shape_mismatch_rejected():
    p = parameter(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        adam_step({"p": p}, {"p": np.zeros(3)}, AdamState())


def model_shapes():
    corpus = make_corpus(40, seed=0)
    model = Model(Vocabulary.from_corpus(corpus), "joint-pos-stag", parser_config(hidden=32),
                  HeadConfig(d_arc=40, d_rel=20, d_pos=20, d_stag=20),
                  np.random.default_rng(0))
    return {name: p.shape for name, p in model.params.items()}


SHAPES = [
    {"p": (1,)}, {"p": (CHUNK,)}, {"p": (CHUNK + 1,)},
    {"scalar": (), "rows": (3, CHUNK // 2 + 5), "cube": (7, 11, 13)},
    model_shapes(),
]
SHAPE_IDS = ["one", "chunk", "chunk-plus-one", "mixed", "model"]


def gradient_steps(shapes):
    """Fifty steps of gradients over many magnitudes, some exactly zero."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        yield {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
               * (rng.random(size=shape) > 0.1) for name, shape in shapes.items()}


def fifty_steps(shapes, step, state):
    rng = np.random.default_rng(5)
    params = {name: parameter(rng.normal(size=shape)) for name, shape in shapes.items()}
    for grads in gradient_steps(shapes):
        step(params, grads, state)
    return params, state


@pytest.mark.parametrize("shapes", SHAPES, ids=SHAPE_IDS)
def test_bit_identical_to_whole_tensor_oracle(shapes):
    params, state = fifty_steps(shapes, adam_step, AdamState(lr=0.003))
    want, want_state = fifty_steps(shapes, reference.adam_step, AdamState(lr=0.003))
    for name in shapes:
        assert state.s[name].dtype == state.q[name].dtype == np.float32, name
        assert np.array_equal(params[name].value, want[name].value), name
        assert np.array_equal(state.s[name], want_state.s[name]), name
        assert np.array_equal(state.q[name], want_state.q[name]), name


U32 = 2.0**-24  # float32's unit roundoff


@pytest.mark.parametrize("shapes", SHAPES, ids=SHAPE_IDS)
def test_matches_textbook_adam(shapes):
    # float32 moments against the float64 textbook oracle, with bounds derived
    # from float32 rounding (u = 2^-24) over n = 50 steps at lr 0.003:
    # - a step moves a value by at most about 3 lr (|m_hat| <= 2.3 sqrt(v_hat) at
    #   these betas) with a relative error of at most about 4u (eight roundings of
    #   half an ulp), so the values drift by at most 12 u lr n = 1.1e-7;
    # - s rounds three times a step (the cast, the product, the sum) on values up
    #   to G / (1-b1), where G is the value's largest |g|, and each error decays
    #   by b1, so m = (1-b1) s is off by at most 1.5 u G / (1-b1);
    # - q rounds three times a step on values up to t G^2, so v = (1-b2) q is off
    #   by at most 1.5 u (1-b2) G^2 n^2 / 2.
    # The largest gaps seen were 2.1 u lr n, 0.87 u G and 0.06 u G^2. Where m is
    # a cancellation of much larger gradients its relative gap reaches 0.7%, so
    # the moments are compared against the gradient scale G, not against |m|.
    lr, n = 0.003, 50
    params, state = fifty_steps(shapes, adam_step, AdamState(lr=lr))
    want, want_state = fifty_steps(shapes, reference.textbook_adam_step,
                                   reference.TextbookAdamState(lr=lr))
    scale = {name: np.zeros(shape) for name, shape in shapes.items()}
    for grads in gradient_steps(shapes):
        for name, g in grads.items():
            np.maximum(scale[name], np.abs(g), out=scale[name])
    b1, b2 = state.beta1, state.beta2
    for name, big in scale.items():
        np.testing.assert_allclose(params[name].value, want[name].value,
                                   rtol=0, atol=12 * U32 * lr * n)
        assert np.all(np.abs((1 - b1) * state.s[name] - want_state.m[name])
                      <= 1.5 * U32 * big / (1 - b1)), name
        assert np.all(np.abs((1 - b2) * state.q[name].astype(np.float64) - want_state.v[name])
                      <= 1.5 * U32 * (1 - b2) * big**2 * n**2 / 2), name


def test_no_moment_is_subnormal_after_a_thousand_zero_gradient_steps():
    # gradients of 1e-30 square below float32's normal range at once; those of 1
    # decay into it after about 800 zero steps at b1 = 0.9
    p = parameter(np.zeros(6))
    state = AdamState()
    for _ in range(5):
        adam_step({"p": p}, {"p": np.array([1.0, -1.0, 1e-20, -1e-20, 1e-30, 0.0])}, state)
    for _ in range(1_000):
        adam_step({"p": p}, {"p": np.zeros(6)}, state)
    s, q = state.s["p"], state.q["p"]
    tiny = np.finfo(s.dtype).tiny
    assert np.count_nonzero((s != 0) & (np.abs(s) < tiny)) == 0
    assert np.count_nonzero(np.abs(q) < tiny) == 0
    assert np.count_nonzero(s) == 0


@pytest.mark.parametrize("big", [1e20, 1e39], ids=["square-overflows", "cast-overflows"])
def test_overflowing_gradient_raises_before_its_moments_are_written(big):
    # both have a finite float64 norm, so a norm check upstream lets them through
    p = parameter(np.zeros(4))
    state = AdamState()
    adam_step({"p": p}, {"p": np.ones(4)}, state)
    before = p.value.copy(), state.s["p"].copy(), state.q["p"].copy()
    grad = np.array([1.0, big, 1.0, 1.0])
    assert np.isfinite(np.linalg.norm(grad))
    with pytest.raises(FloatingPointError, match=r"gradient of p overflows"):
        adam_step({"p": p}, {"p": grad}, state)
    for got, want in zip((p.value, state.s["p"], state.q["p"]), before):
        assert np.array_equal(got, want)


def test_strided_parameter_updates_in_place():
    rng = np.random.default_rng(7)
    grad = rng.normal(size=(5, 3))
    got, want = np.arange(15.0).reshape(3, 5).T, np.arange(15.0).reshape(3, 5).T
    state, want_state = AdamState(), AdamState()
    for _ in range(3):
        adam_step({"p": got}, {"p": grad}, state)
        reference.adam_step({"p": want}, {"p": grad}, want_state)
    assert not got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(state.s["p"], want_state.s["p"])
    assert np.array_equal(state.q["p"], want_state.q["p"])


def test_step_allocates_no_full_size_temporary():
    # each whole-tensor temporary of a 1M-value tensor is 8 MB
    p = parameter(np.zeros(1_000_000))
    grad = np.random.default_rng(8).normal(size=p.shape)
    state = AdamState()
    adam_step({"p": p}, {"p": grad}, state)  # the first step allocates m and v
    tracemalloc.start()
    try:
        adam_step({"p": p}, {"p": grad}, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
