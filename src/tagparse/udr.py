"""Unbounded-dependency targets: file format, containment check, scoring.

Target file: one tab-separated record per example —
sentence id (1-based index into the parsed corpus), construction tag,
child index, parent index, UDR label.
"""

from __future__ import annotations

from dataclasses import dataclass

from .depgraph import DepGraph
from .rules import ConversionContext, convert_udr_label

__all__ = ["UdrTarget", "CONSTRUCTIONS", "read_targets", "contains_arc",
           "evaluate_udr", "UdrReport", "format_udr_table"]

CONSTRUCTIONS = ("ObRC", "ObRed", "SbRC", "Free", "ObQ", "RNR", "SbEm")


@dataclass(frozen=True)
class UdrTarget:
    sentence_id: int
    construction: str
    child: int
    parent: int
    udr_label: str

    def __post_init__(self):
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(
                f"unknown construction {self.construction!r}; expected one of {CONSTRUCTIONS}"
            )


def read_targets(path) -> list:
    """The targets of a target file; ValueError names `path:line` of a malformed record."""
    targets = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 columns, got {len(cols)}")
            sid, construction, child, parent, label = cols
            try:
                targets.append(UdrTarget(int(sid), construction, int(child), int(parent), label))
            except ValueError as e:  # a non-integer field or an unknown construction
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return targets


def contains_arc(graph: DepGraph, target: UdrTarget) -> bool:
    """True iff the converted target arc is present in the graph."""
    n = len(graph)
    if not 1 <= target.child <= n or not 0 <= target.parent <= n:
        raise IndexError(
            f"target ({target.child}, {target.parent}) out of range for {n} tokens"
        )
    child_tok = graph.token(target.child)
    parent_pos = parent_form = ""
    if target.parent >= 1:
        parent_tok = graph.token(target.parent)
        parent_pos, parent_form = parent_tok.pos, parent_tok.form
    ctx = ConversionContext(
        child_form=child_tok.form,
        child_pos=child_tok.pos,
        parent_form=parent_form,
        parent_pos=parent_pos,
        construction=target.construction,
    )
    label = convert_udr_label(target.udr_label, ctx)
    return graph.has_arc(target.child, target.parent, label)


@dataclass
class UdrReport:
    per_construction: dict  # construction -> (hits, total)
    total_hits: int
    total: int

    def accuracy(self, construction: str) -> float:
        hits, total = self.per_construction.get(construction, (0, 0))
        return 100.0 * hits / total if total else 0.0

    @property
    def total_accuracy(self) -> float:
        return 100.0 * self.total_hits / self.total if self.total else 0.0

    @property
    def average_accuracy(self) -> float:
        """Mean accuracy over the constructions that have examples."""
        present = [c for c in CONSTRUCTIONS if self.per_construction.get(c, (0, 0))[1]]
        if not present:
            return 0.0
        return sum(self.accuracy(c) for c in present) / len(present)


def evaluate_udr(graphs: list, targets: list) -> UdrReport:
    """Score targets against transformed graphs (indexed by sentence id)."""
    per: dict = {c: [0, 0] for c in CONSTRUCTIONS}
    hits = 0
    for t in targets:
        if not 1 <= t.sentence_id <= len(graphs):
            raise IndexError(
                f"target sentence id {t.sentence_id} outside corpus of {len(graphs)}"
            )
        ok = contains_arc(graphs[t.sentence_id - 1], t)
        per[t.construction][0] += int(ok)
        per[t.construction][1] += 1
        hits += int(ok)
    return UdrReport(
        per_construction={c: tuple(v) for c, v in per.items() if v[1]},
        total_hits=hits,
        total=len(targets),
    )


def format_udr_table(report: UdrReport) -> str:
    """Construction columns plus Total and Avg, one header and one value row."""
    header = list(CONSTRUCTIONS) + ["Total", "Avg"]
    values = [f"{report.accuracy(c):.1f}" for c in CONSTRUCTIONS]
    values += [f"{report.total_accuracy:.1f}", f"{report.average_accuracy:.1f}"]
    width = max(len(h) for h in header) + 2
    line1 = "".join(h.rjust(width) for h in header)
    line2 = "".join(v.rjust(width) for v in values)
    return line1 + "\n" + line2 + "\n"
