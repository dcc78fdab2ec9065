"""Derivation graphs: parsed trees plus rule-added arcs, with audit traces.

An arc (child, parent, label) points from parent to child; node 0 is ROOT.
Parsed arcs always form a tree; transformation rules only ever add arcs, so
a graph may become multi-headed but never loses information. Every added
arc remembers the rule that created it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Arc", "GraphToken", "DepGraph", "RuleTrace", "replay_trace"]

PARSED = "parsed"


@dataclass(frozen=True, order=True)
class Arc:
    child: int
    parent: int
    label: str

    def __iter__(self):
        return iter((self.child, self.parent, self.label))


@dataclass
class GraphToken:
    index: int
    form: str
    pos: str
    stag: str | None = None

    @property
    def lower(self) -> str:
        return self.form.lower()


@dataclass
class RuleTrace:
    """Ordered (rule id, arcs added) records; replaying them on the input
    graph reproduces the output graph exactly."""

    entries: list = field(default_factory=list)

    def add(self, rule_id: str, arcs: list) -> None:
        self.entries.append((rule_id, tuple(arcs)))

    def all_arcs(self) -> list:
        return [a for _, arcs in self.entries for a in arcs]

    def lines(self) -> str:
        out = []
        for rule_id, arcs in self.entries:
            for a in arcs:
                out.append(f"{rule_id}\t{a.child}\t{a.parent}\t{a.label}")
        return "\n".join(out) + ("\n" if out else "")


class DepGraph:
    def __init__(self, tokens: list):
        self.tokens = list(tokens)
        self._arcs: dict = {}  # (child, parent, label) -> origin rule id

    # ----- construction -----------------------------------------------------

    @classmethod
    def from_sentence(cls, sentence) -> "DepGraph":
        """The parsed tree of `sentence`, with each token's predicted POS
        where it has one, else its gold POS, as the encoder reads them."""
        tokens = [
            GraphToken(index=i, form=t.form,
                       pos=t.pred_pos if t.pred_pos is not None else t.gold_pos, stag=t.stag)
            for i, t in enumerate(sentence.tokens, start=1)
        ]
        g = cls(tokens)
        for i, t in enumerate(sentence.tokens, start=1):
            g.add_arc(i, t.head, t.rel, origin=PARSED)
        return g

    def copy(self) -> "DepGraph":
        g = DepGraph(self.tokens)
        g._arcs = dict(self._arcs)
        return g

    def add_arc(self, child: int, parent: int, label: str, origin: str) -> Arc | None:
        """Add an arc; duplicates and self-loops are skipped, not errors."""
        n = len(self.tokens)
        if not 1 <= child <= n or not 0 <= parent <= n:
            raise IndexError(f"arc ({child}, {parent}) out of range for {n} tokens")
        if child == parent:
            return None
        key = (child, parent, label)
        if key in self._arcs:
            return None
        self._arcs[key] = origin
        return Arc(child, parent, label)

    # ----- queries ----------------------------------------------------------

    def __len__(self):
        return len(self.tokens)

    def token(self, index: int) -> GraphToken:
        return self.tokens[index - 1]

    def arcs(self) -> list:
        return [Arc(*key) for key in self._arcs]

    def origin(self, arc: Arc) -> str:
        return self._arcs[(arc.child, arc.parent, arc.label)]

    def has_arc(self, child: int, parent: int, label: str) -> bool:
        return (child, parent, label) in self._arcs

    def arcs_with_child(self, child: int) -> list:
        return [Arc(*k) for k in self._arcs if k[0] == child]

    def arcs_with_parent(self, parent: int) -> list:
        return [Arc(*k) for k in self._arcs if k[1] == parent]

    def arcs_involving(self, node: int) -> list:
        return [Arc(*k) for k in self._arcs if k[0] == node or k[1] == node]

    def sorted_arcs(self) -> list:
        return sorted(self._arcs)

    def canonical(self) -> str:
        """Deterministic one-line-per-arc rendering, for byte-exact replay checks."""
        lines = [f"{c}\t{p}\t{l}\t{self._arcs[(c, p, l)]}" for c, p, l in self.sorted_arcs()]
        return "\n".join(lines) + "\n"


def replay_trace(graph: DepGraph, trace: RuleTrace) -> DepGraph:
    """Apply the recorded additions to a copy of `graph`."""
    out = graph.copy()
    for rule_id, arcs in trace.entries:
        for a in arcs:
            out.add_arc(a.child, a.parent, a.label, origin=rule_id)
    return out
