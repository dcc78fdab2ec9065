"""One benchmark run: set up, train for a fixed budget, parse, check.

The program is reached only through public functions of its modules:
Vocabulary.from_corpus, Model, Model.forward, Model.predict, joint_loss,
make_batches, ad.gradients, adam_step and the metrics module, which the
checks compare against.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from tagparse import autodiff as ad
from tagparse.metrics import las_uas, tag_accuracy
from tagparse.model import Model
from tagparse.optim import AdamState, adam_step
from tagparse.training import joint_loss, make_batches
from tagparse.vocab import Vocabulary

import checks
import workloads
from spans import Tracer, instrument, tape_nodes

# parameter groups whose gradients are checked by finite differences
GRAD_GROUPS = {
    "embeddings": ("emb.word", "emb.char", "cnn.filters"),
    "lstm": ("lstm.0.fw.W_i", "lstm.0.bw.W_r"),
    "mlp": ("mlp.arc_dep.W", "mlp.stag.W"),
    "biaffine": ("biaffine.W_arc", "biaffine.b_arc"),
    "label": ("rel.U", "rel.W"),
}
ONE_AT_A_TIME = 4  # sentences re-parsed singly and compared with their buckets
MIN_PASSES = 2  # parse passes of each decoder, however long a pass takes
PARSE_WEIGHT = {"greedy": 1 / 3, "mst": 2 / 3}  # shares of the parse window


class Tally:
    """Operations attempted and failed; a failed output check fails the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ran(self, n: int) -> None:
        self.attempted += n

    def check(self, what: str, ok: bool) -> None:
        self.checks(what, 1, 0 if ok else 1)

    def checks(self, what: str, total: int, bad: int) -> None:
        self.attempted += total
        self.failed += bad
        if bad and len(self.failures) < 20:
            self.failures.append(what)


def _set_up(w: workloads.Workload) -> tuple:
    """Build the vocabulary and initialise the model; (seconds, model, vocab)."""
    start = time.perf_counter()
    vocab = Vocabulary.from_corpus(w.train)
    model = Model(vocab, workloads.MODE, w.enc, w.heads, np.random.default_rng(w.model_seed))
    return time.perf_counter() - start, model, vocab


def _noisy(sentences, rels: list, share: float, rng) -> list:
    """Copies with `share` of the relations redrawn uniformly from `rels`."""
    out = []
    for s in sentences:
        copy = s.copy()
        for tok in copy.tokens:
            if rng.random() < share:
                tok.rel = rels[int(rng.integers(len(rels)))]
        out.append(copy)
    return out


def _train(model, vocab, w, tracer: Tracer, tally: Tally) -> dict:
    """The fixed step budget.

    Every epoch runs the same batch shapes (sentence length, sentence count)
    in a new order. Throughput is one epoch's tokens over the sum, across
    shapes, of each shape's median step time in the epochs after the first,
    which is warm-up (README.md, "How times are taken").
    """
    rng = np.random.default_rng(w.train_seed)
    state = AdamState(lr=w.lr)
    rels = sorted(vocab.rels, key=vocab.rels.get)
    losses, epoch_mean, nodes = [], None, 0
    shape_times = defaultdict(list)  # (length, sentences) -> step seconds
    with tracer.phase_run("train"):
        for epoch in range(w.epochs):
            with tracer.excluded():
                data = _noisy(w.train, rels, workloads.LABEL_NOISE, rng)
            epoch_loss = epoch_tokens = 0
            for batch in make_batches(data, w.batch_size, rng):
                tokens = sum(len(s) for s in batch)
                start = time.perf_counter()
                ad.zero_grads(model.params)
                out = model.forward(batch, rng)
                with tracer.span("training.loss"):
                    loss = joint_loss(out, batch, vocab, workloads.MODE)
                with tracer.span("autodiff.backward"):
                    grads = ad.gradients(loss, model.params)
                with tracer.span("optim.adam"):
                    adam_step(model.params, grads, state)
                value = float(loss.value)
                if epoch:
                    shape_times[(len(batch[0]), len(batch))].append(
                        time.perf_counter() - start)
                if tracer.enabled:
                    with tracer.excluded():
                        nodes += tape_nodes(loss)
                losses.append(value / tokens)
                epoch_loss += value
                epoch_tokens += tokens
            epoch_mean = epoch_loss / epoch_tokens
    tally.ran(len(losses))
    epoch_tokens = sum(len(s) for s in w.train)
    epoch_s = sum(statistics.median(t) for t in shape_times.values())
    return {"losses": losses, "last_epoch": epoch_mean,
            "tokens_per_s": epoch_tokens / epoch_s,
            "nodes_per_token": nodes / (epoch_tokens * w.epochs)}


def _parse(model, w, stop: float, tracer: Tracer, tally: Tally) -> dict:
    """Whole passes over the held-out set until `stop`, and at least
    MIN_PASSES of each decoder. Greedy and MST passes alternate so that each
    decoder gets its PARSE_WEIGHT of the time, spread over the whole window;
    the window ends once greedy has caught up with its share. A set-up
    repetition precedes every pass, so that set-up too is sampled across the
    window. A rate is the held-out set's size over the median time of its
    decoder's passes."""
    times = {phase: [] for phase in PARSE_WEIGHT}
    setups, first = [], {}

    def behind() -> str:
        return min(PARSE_WEIGHT, key=lambda p: sum(times[p]) / PARSE_WEIGHT[p])

    while (min(len(t) for t in times.values()) < MIN_PASSES
           or time.perf_counter() < stop or behind() == "greedy"):
        setups.append(_set_up(w)[0])
        phase = behind()
        with tracer.phase_run(phase):
            start = time.perf_counter()
            pred = model.predict(w.heldout, use_mst=phase == "mst")
            times[phase].append(time.perf_counter() - start)
        tally.ran(len(pred))
        if phase in first:
            tally.check(f"repeated {phase} pass differs", _columns(pred) == _columns(first[phase]))
        else:
            first[phase] = pred
    out = dict(first)
    for phase, spent in times.items():
        out[f"{phase}_rate"] = len(w.heldout) / statistics.median(spent)
        out[f"{phase}_passes"] = len(spent)
    out["setups"] = setups
    return out


def _columns(sentences) -> list:
    return [[(t.head, t.rel, t.pred_pos, t.stag) for t in s.tokens] for s in sentences]


def _by_length(sentences) -> dict:
    buckets = {}
    for i, s in enumerate(sentences):
        buckets.setdefault(len(s), []).append(i)
    return buckets


def _score_matrices(model, sentences) -> list:
    """Log-probability arc matrices from dropout-free forward passes."""
    out = [None] * len(sentences)
    for positions in _by_length(sentences).values():
        logits = model.forward([sentences[i] for i in positions]).arc_logits
        for i, arc in zip(positions, logits):
            out[i] = checks.log_softmax_rows(arc.value)
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _check_trees_and_scores(model, w, parsed: dict, tally: Tally) -> None:
    greedy, mst = parsed["greedy"], parsed["mst"]
    for s in greedy + mst:
        tally.check("not a tree", checks.is_tree(s.heads()))
    for lp, g, m in zip(_score_matrices(model, w.heldout), greedy, mst):
        sg, sm = checks.tree_score(lp, g.heads()), checks.tree_score(lp, m.heads())
        tally.check("MST scores below greedy", sm >= sg or _close(sm, sg))
    oracle = model.predict(w.oracle, use_mst=True)
    for lp, s in zip(_score_matrices(model, w.oracle), oracle):
        tally.check("MST misses the brute-force optimum",
                    _close(checks.tree_score(lp, s.heads()), checks.brute_force_best(lp)))
    for s in oracle:
        tally.check("not a tree", checks.is_tree(s.heads()))
    tags = [[t.stag for t in s.tokens] for s in greedy]
    tally.check("tags depend on the decoder", tags == [[t.stag for t in s.tokens] for s in mst])


def _check_metrics(w, parsed: dict, tally: Tally) -> dict:
    out = {}
    for which in ("greedy", "mst"):
        pred = parsed[which]
        uas, las = checks.attachment_scores(pred, w.heldout)
        p_uas, p_las = las_uas(pred, w.heldout)
        tally.check(f"{which} UAS disagrees", _close(uas, p_uas))
        tally.check(f"{which} LAS disagrees", _close(las, p_las))
        out[f"{which}_las"] = las
    stag = checks.stag_accuracy(parsed["greedy"], w.heldout)
    tally.check("stag accuracy disagrees",
                _close(stag, tag_accuracy(parsed["greedy"], w.heldout, "stag")))
    out["stag_acc"] = stag
    return out


def _check_gradients(model, vocab, w, tally: Tally) -> None:
    """ad.gradients against central differences on one dropout-free batch."""
    longest = max(len(s) for s in w.oracle)
    batch = [s for s in w.oracle if len(s) == longest][:2]

    def loss_at():
        return float(joint_loss(model.forward(batch), batch, vocab, workloads.MODE).value)

    grads = ad.gradients(joint_loss(model.forward(batch), batch, vocab, workloads.MODE),
                         model.params)
    rng = np.random.default_rng(w.model_seed)
    for group, names in GRAD_GROUPS.items():
        for name in names:
            g, value = grads[name], model.params[name].value
            cands = [np.unravel_index(int(np.argmax(np.abs(g))), g.shape)]
            cands += [tuple(int(rng.integers(0, d)) for d in g.shape) for _ in range(3)]
            compared, bad = checks.finite_difference_mismatches(loss_at, g, value, cands)
            tally.checks(f"gradient of {name} ({group})", max(compared, 1), bad)


def _check_one_at_a_time(model, w, parsed: dict, tally: Tally) -> None:
    order = sorted(range(len(w.heldout)), key=lambda i: (len(w.heldout[i]), i))
    for i in order[:ONE_AT_A_TIME]:
        for which, use_mst in (("greedy", False), ("mst", True)):
            (alone,) = model.predict([w.heldout[i]], use_mst=use_mst)
            tally.check(f"{which} parse depends on its bucket",
                        _columns([alone]) == _columns([parsed[which][i]]))


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    w = workloads.build(name, seed)
    tally = Tally()
    tracer = Tracer(trace)
    setup_s, model, vocab = _set_up(w)
    untrained_las = checks.attachment_scores(model.predict(w.heldout), w.heldout)[1]

    with instrument(tracer):
        trained = _train(model, vocab, w, tracer, tally)
        parsed = _parse(model, w, max(start + seconds, time.perf_counter() + w.min_parse_s),
                        tracer, tally)
    setup_s = statistics.median([setup_s] + parsed["setups"])

    losses = trained["losses"]
    tally.check("non-finite training loss", all(math.isfinite(x) for x in losses))
    tally.check("training loss did not fall", trained["last_epoch"] < losses[0])
    _check_trees_and_scores(model, w, parsed, tally)
    scores = _check_metrics(w, parsed, tally)
    tally.check("training did not raise LAS", scores["greedy_las"] > untrained_las)
    _check_gradients(model, vocab, w, tally)
    _check_one_at_a_time(model, w, parsed, tally)

    figures = {
        "setup_s": (setup_s, "s"),
        "train_tokens_per_s": (trained["tokens_per_s"], "tokens/s"),
        "train_loss": (trained["last_epoch"], "nats/token"),
        "parse_greedy_sents_per_s": (parsed["greedy_rate"], "sents/s"),
        "parse_mst_sents_per_s": (parsed["mst_rate"], "sents/s"),
        "parse_greedy_las": (scores["greedy_las"], "%"),
        "parse_mst_las": (scores["mst_las"], "%"),
        "parse_stag_acc": (scores["stag_acc"], "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{name} seed={seed} passes={parsed['greedy_passes']}+{parsed['mst_passes']} "
          f"untrained_las={untrained_las:.2f}", file=sys.stderr)
    for failure in tally.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if trace:
        metrics = _layer_figures(tracer, trained, parsed, w)
        _report_trace(figures, metrics)
    else:
        metrics = figures
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _layer_figures(tracer: Tracer, trained: dict, parsed: dict, w) -> dict:
    out = {k: (v, "s") for k, v in tracer.layer_metrics().items()}
    c = tracer.counts
    passes = max(tracer.runs["greedy"], 1)
    greedy_sents = passes * len(w.heldout)
    out["train.autodiff.tape_nodes_per_token"] = (trained["nodes_per_token"], "nodes/token")
    for phase in ("train", "greedy"):
        out[f"{phase}.model.sents_per_forward"] = (
            c[(phase, "model.forward_sents")] / c[(phase, "model.forward_calls")], "sents/call")
    out["greedy.decoder.repaired_heads"] = (c[("greedy", "decoder.repaired_heads")] / passes,
                                            "count")
    out["greedy.decoder.repaired_sents"] = (c[("greedy", "decoder.repaired_sents")] / passes,
                                            "count")
    out["greedy.heads.label_calls_per_sent"] = (
        c[("greedy", "heads.label_calls")] / greedy_sents, "calls/sent")
    return out


def _report_trace(figures: dict, metrics: dict) -> None:
    """End-to-end figures of the traced run and each layer's share of its phase."""
    for k, (v, u) in figures.items():
        print(f"traced {k} = {v:.6g} {u}", file=sys.stderr)
    for phase in ("train", "greedy", "mst"):
        total = metrics[f"{phase}.total_s"][0]
        for k, (v, u) in metrics.items():
            if k.startswith(phase + ".") and u == "s" and not k.endswith("total_s"):
                print(f"{k:40s} {v:10.4f} s {100 * v / total:6.1f}%", file=sys.stderr)
