"""UDR containment scoring and PETE entailment checks on gold fixtures."""

import re

import pytest

import fixtures_rules as fx
from tagparse.depgraph import DepGraph
from tagparse.pete import pete_check
from tagparse.rules import apply_udr_pipeline
from tagparse.udr import (
    UdrTarget,
    contains_arc,
    evaluate_udr,
    format_udr_table,
    read_targets,
)


def transformed_udr_graphs():
    return [apply_udr_pipeline(DepGraph.from_sentence(s))[0] for s in fx.UDR_SENTENCES]


def udr_targets():
    return [UdrTarget(*t) for t in fx.UDR_TARGETS]


class TestContainsArc:
    def test_arc_present(self):
        g = apply_udr_pipeline(DepGraph.from_sentence(fx.UDR_SENTENCES[0]))[0]
        assert contains_arc(g, UdrTarget(1, "ObRC", 2, 4, "dobj"))

    def test_same_endpoints_wrong_label(self):
        g = apply_udr_pipeline(DepGraph.from_sentence(fx.UDR_SENTENCES[0]))[0]
        assert not contains_arc(g, UdrTarget(1, "ObRC", 2, 4, "nsubj"))

    def test_out_of_range_rejected(self):
        g = DepGraph.from_sentence(fx.UDR_SENTENCES[0])
        with pytest.raises(IndexError):
            contains_arc(g, UdrTarget(1, "ObRC", 99, 4, "dobj"))

    def test_coanchor_figure_target_found_after_pipeline(self):
        # (what, for, pobj) converts to (4, 8, "1") and the pipeline adds it
        g = apply_udr_pipeline(DepGraph.from_sentence(fx.CO_ANCHOR_FIGURE))[0]
        assert contains_arc(g, UdrTarget(6, "Free", 4, 8, "pobj"))


class TestEvaluateUdr:
    def test_hand_counted_percentages(self):
        report = evaluate_udr(transformed_udr_graphs(), udr_targets())
        assert report.per_construction == fx.UDR_EXPECT
        assert report.total == 11
        assert report.total_hits == 7
        assert abs(report.total_accuracy - 100 * 7 / 11) < 1e-9
        want_avg = (100 + 100 + 50 + 100 + 50 + 0 + 50) / 7
        assert abs(report.average_accuracy - want_avg) < 1e-9

    def test_all_targets_present_gives_100_everywhere(self):
        graphs = transformed_udr_graphs()
        hits = [t for t in udr_targets() if contains_arc(graphs[t.sentence_id - 1], t)]
        report = evaluate_udr(graphs, hits)
        for construction in report.per_construction:
            assert report.accuracy(construction) == 100.0
        assert report.total_accuracy == 100.0
        assert report.average_accuracy == 100.0

    def test_avg_is_mean_of_construction_accuracies(self):
        report = evaluate_udr(transformed_udr_graphs(), udr_targets())
        accs = [report.accuracy(c) for c in report.per_construction]
        assert abs(report.average_accuracy - sum(accs) / len(accs)) < 1e-9

    def test_table_layout(self):
        table = format_udr_table(evaluate_udr(transformed_udr_graphs(), udr_targets()))
        header, values = table.strip().split("\n")
        assert header.split() == ["ObRC", "ObRed", "SbRC", "Free", "ObQ", "RNR",
                                  "SbEm", "Total", "Avg"]
        assert values.split() == ["100.0", "100.0", "50.0", "100.0", "50.0", "0.0",
                                  "50.0", "63.6", "64.3"]

    def test_bad_sentence_id_rejected(self):
        with pytest.raises(IndexError):
            evaluate_udr(transformed_udr_graphs(), [UdrTarget(99, "ObRC", 1, 2, "dobj")])


def test_target_file_round_trip(tmp_path):
    path = tmp_path / "targets.tsv"
    lines = ["# comment line"] + [
        "\t".join(str(x) for x in t) for t in fx.UDR_TARGETS
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    targets = read_targets(path)
    assert targets == udr_targets()


@pytest.mark.parametrize("record, error", [
    ("1\tObRC\ttwo\t4\tdobj", "invalid literal for int"),
    ("1\tObRCC\t2\t4\tdobj", "unknown construction 'ObRCC'"),
], ids=["non-integer", "construction"])
def test_malformed_target_names_its_line(tmp_path, record, error):
    path = tmp_path / "targets.tsv"
    path.write_text("# comment line\n1\tObRC\t2\t4\tdobj\n" + record + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {error}"):
        read_targets(path)


class TestPete:
    def premise(self):
        return DepGraph.from_sentence(fx.PETE_PREMISE)

    def test_identical_sentence_entails(self):
        result = pete_check(self.premise(), self.premise())
        assert result.entails

    def test_relative_clause_hypothesis_entails(self):
        # "John loves Mary" needs the relative-clause reverse arc
        result = pete_check(self.premise(), DepGraph.from_sentence(fx.PETE_HYP_LOVES))
        assert result.entails
        assert all(d.found for d in result.diagnostics)

    def test_main_clause_hypothesis_entails(self):
        result = pete_check(self.premise(), DepGraph.from_sentence(fx.PETE_HYP_SAW))
        assert result.entails
        # the determiner arc is not a content-word arc
        forms = {(d.child_form, d.parent_form) for d in result.diagnostics}
        assert ("a", "squirrel") not in forms

    def test_unrelated_verb_does_not_entail(self):
        result = pete_check(self.premise(), DepGraph.from_sentence(fx.PETE_HYP_KNOWS))
        assert not result.entails
        missing = [d for d in result.diagnostics if not d.found]
        assert missing and all(d.parent_form == "knows" for d in missing)

    def test_all_rules_flag(self):
        result = pete_check(self.premise(), DepGraph.from_sentence(fx.PETE_HYP_LOVES),
                            rules="all")
        assert result.entails
        with pytest.raises(ValueError):
            pete_check(self.premise(), self.premise(), rules="some")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            pete_check(self.premise(), DepGraph([]))
