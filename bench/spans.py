"""Spans and counts for the traced run, recorded from outside the program.

`instrument` wraps the functions that `tagparse.model` calls by module-level
name (char_cnn, bilstm_stack, the heads and the decoders) and `Model.forward`
itself, so every call the program makes through them opens a span. The
benchmark's training loop opens its own spans around joint_loss,
ad.gradients and adam_step. A span's self time is its duration minus the
durations of its direct children; spans nest because everything runs on
one thread.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

import tagparse.model as tm

PHASES = ("train", "greedy", "mst")

# span name -> functions of tagparse.model it wraps
WRAPPED = {
    "encoder.char_cnn": ("char_cnn",),
    "encoder.bilstm": ("bilstm_stack",),
    "heads.mlp": ("head_features",),
    "heads.arc": ("arc_logit_matrix",),
    "heads.label": ("label_logits_pairs",),
    "heads.tagger": ("pos_logits", "stag_logits"),
    "decoder.repair": ("greedy_heads", "enforce_tree"),
    "decoder.mst": ("chu_liu_edmonds",),
    "decoder.labels": ("assign_labels",),
}
FORWARD = "model.forward_self"
LOOP_SPANS = ("training.loss", "autodiff.backward", "optim.adam")

# per-layer time metrics of each phase, in the order BENCHMARK.json lists them
FORWARD_LAYERS = ("encoder.char_cnn", "encoder.bilstm", FORWARD, "heads.mlp",
                  "heads.arc", "heads.label", "heads.tagger")
PHASE_LAYERS = {
    "train": FORWARD_LAYERS + LOOP_SPANS,
    "greedy": FORWARD_LAYERS + ("decoder.repair", "decoder.labels"),
    "mst": FORWARD_LAYERS + ("decoder.mst", "decoder.labels"),
}

_NULL = contextlib.nullcontext()


class Tracer:
    """Span recorder; a disabled tracer hands out a shared no-op context."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.phase = None
        self.self_time = defaultdict(float)   # (phase, name) -> seconds
        self.counts = defaultdict(float)      # (phase, name) -> count
        self.phase_time = defaultdict(float)  # phase -> wall seconds
        self.uncovered = defaultdict(float)   # phase -> seconds outside top spans
        self.runs = defaultdict(int)          # phase -> times the phase ran
        self._stack = []            # child seconds of each open span

    def span(self, name: str):
        if not self.enabled or self.phase is None:
            return _NULL
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name):
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._stack.pop()
            self.self_time[(self.phase, name)] += duration - children
            if self._stack:
                self._stack[-1] += duration
            else:
                self._top += duration

    @contextlib.contextmanager
    def phase_run(self, phase: str):
        """Time one run of a phase; spans and counts inside it belong to it."""
        if not self.enabled:
            yield
            return
        self.phase, self._top, self._excluded = phase, 0.0, 0.0
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start - self._excluded
            self.phase_time[phase] += wall
            self.uncovered[phase] += wall - self._top
            self.runs[phase] += 1
            self.phase = None

    @contextlib.contextmanager
    def excluded(self):
        """Bookkeeping of the tracer itself, left out of the phase's time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.enabled and self.phase is not None:
                self._excluded += time.perf_counter() - start

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled and self.phase is not None:
            self.counts[(self.phase, name)] += amount

    def layer_metrics(self) -> dict:
        """Self time per layer, uncovered and total time per phase run.

        Parse phases repeat to fill the run, so their times are per pass.
        """
        out = {}
        for phase in PHASES:
            runs = max(self.runs[phase], 1)
            for layer in PHASE_LAYERS[phase]:
                out[f"{phase}.{layer}_s"] = self.self_time[(phase, layer)] / runs
            out[f"{phase}.uncovered_s"] = self.uncovered[phase] / runs
            out[f"{phase}.total_s"] = self.phase_time[phase] / runs
        return out


def tape_nodes(root) -> int:
    """Number of distinct tape nodes reachable from `root` through parents."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _wrap(tracer: Tracer, name: str, fn):
    if fn.__name__ == "enforce_tree":
        def traced(sm, heads):
            with tracer.span(name):
                out = fn(sm, heads)
            changed = int(np.sum(np.asarray(out)[1:] != np.asarray(heads)[1:]))
            tracer.count("decoder.repaired_heads", changed)
            tracer.count("decoder.repaired_sents", changed > 0)
            return out
    elif fn.__name__ == "label_logits_pairs":
        def traced(*args, **kwargs):
            tracer.count("heads.label_calls")
            with tracer.span(name):
                return fn(*args, **kwargs)
    else:
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the program's calls into each layer through `tracer`'s spans."""
    if not tracer.enabled:
        yield
        return
    saved = {attr: getattr(tm, attr) for attrs in WRAPPED.values() for attr in attrs}
    forward = tm.Model.forward

    def traced_forward(self, sentences, rng=None):
        tracer.count("model.forward_calls")
        tracer.count("model.forward_sents", len(sentences))
        with tracer.span(FORWARD):
            return forward(self, sentences, rng)

    try:
        for name, attrs in WRAPPED.items():
            for attr in attrs:
                setattr(tm, attr, _wrap(tracer, name, saved[attr]))
        tm.Model.forward = traced_forward
        yield
    finally:
        for attr, fn in saved.items():
            setattr(tm, attr, fn)
        tm.Model.forward = forward
