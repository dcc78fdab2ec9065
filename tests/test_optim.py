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


def fifty_steps(shapes, step, state):
    rng = np.random.default_rng(5)
    params = {name: parameter(rng.normal(size=shape)) for name, shape in shapes.items()}
    grads_rng = np.random.default_rng(6)
    for _ in range(50):
        # gradients over many magnitudes, some exactly zero
        grads = {name: grads_rng.normal(size=shape) * 10.0 ** grads_rng.integers(-6, 3)
                 * (grads_rng.random(size=shape) > 0.1) for name, shape in shapes.items()}
        step(params, grads, state)
    return params, state


@pytest.mark.parametrize("shapes", SHAPES, ids=SHAPE_IDS)
def test_bit_identical_to_whole_tensor_oracle(shapes):
    params, state = fifty_steps(shapes, adam_step, AdamState(lr=0.003))
    want, want_state = fifty_steps(shapes, reference.adam_step, AdamState(lr=0.003))
    for name in shapes:
        assert np.array_equal(params[name].value, want[name].value), name
        assert np.array_equal(state.s[name], want_state.s[name]), name
        assert np.array_equal(state.q[name], want_state.q[name]), name


@pytest.mark.parametrize("shapes", SHAPES, ids=SHAPE_IDS)
def test_matches_textbook_adam(shapes):
    # the sums form differs from the textbook one only in rounding; the largest
    # gaps seen were 8.9e-16 in the parameters, 6.4e-12 in m and 2.7e-15 in v
    params, state = fifty_steps(shapes, adam_step, AdamState(lr=0.003))
    want, want_state = fifty_steps(shapes, reference.textbook_adam_step,
                                   reference.TextbookAdamState(lr=0.003))
    for name in shapes:
        np.testing.assert_allclose(params[name].value, want[name].value, rtol=0, atol=1e-14)
        np.testing.assert_allclose((1 - state.beta1) * state.s[name], want_state.m[name],
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose((1 - state.beta2) * state.q[name], want_state.v[name],
                                   rtol=1e-13, atol=0)


def test_strided_parameter_updates_in_place():
    rng = np.random.default_rng(7)
    grad = rng.normal(size=(5, 3))
    got, want = np.arange(15.0).reshape(3, 5).T, np.arange(15.0).reshape(3, 5).T
    for _ in range(3):
        adam_step({"p": got}, {"p": grad}, AdamState())
    for _ in range(3):
        reference.adam_step({"p": want}, {"p": grad}, AdamState())
    assert not got.flags.c_contiguous
    assert np.array_equal(got, want)


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
