"""Transformation rules: per-rule fixtures, label conversion, pipeline order."""

import pytest

import fixtures_rules as fx
from tagparse.depgraph import Arc, DepGraph, replay_trace
from tagparse.rules import (
    RULE_IDS,
    RULE_ORDER,
    ConversionContext,
    SupertagLexicon,
    UDR_INVENTORY,
    apply_rule,
    apply_udr_pipeline,
    convert_udr_label,
    lemma,
)


class TestLabelConversion:
    @pytest.mark.parametrize("udr,tag", [
        ("nsubj", "0"), ("cop", "0"),
        ("dobj", "1"), ("pobj", "1"), ("obj2", "1"), ("nsubjpass", "1"),
        ("advmod", "adj"), ("aux", "adj"), ("det", "adj"),
    ])
    def test_table(self, udr, tag):
        assert convert_udr_label(udr) == tag

    def test_total_over_inventory(self):
        for label in UDR_INVENTORY:
            assert convert_udr_label(label) in {"0", "1", "adj"}

    def test_unknown_label_lists_inventory(self):
        with pytest.raises(ValueError, match="advmod"):
            convert_udr_label("nmod")

    def test_wh_adverb_exception(self):
        # "where is the city located?": verb -> wh-adverb arcs become adjunction
        ctx = ConversionContext(child_form="where", child_pos="WRB",
                                parent_form="located", parent_pos="VBN")
        assert convert_udr_label("pobj", ctx) == "adj"
        assert convert_udr_label("advmod", ctx) == "adj"

    def test_causative_inchoative_exception(self):
        # "hold the door shut": the door is the underlying object of "shut"
        ctx = ConversionContext(child_form="door", child_pos="NN",
                                parent_form="shut", parent_pos="VBN",
                                construction="SbEm")
        assert convert_udr_label("nsubj", ctx) == "1"
        # outside SbEm, or with a non-alternating predicate, the table applies
        assert convert_udr_label("nsubj", ConversionContext(
            child_form="guy", parent_form="liar", parent_pos="NN",
            construction="SbEm")) == "0"
        ctx_other = ConversionContext(child_form="door", parent_form="shut",
                                      parent_pos="VBN", construction="SbRC")
        assert convert_udr_label("nsubj", ctx_other) == "0"


def test_lemma_table_covers_inspected_classes():
    assert lemma("is") == "be"
    assert lemma("'m") == "be"
    assert lemma("stayed") == "stay"
    assert lemma("became") == "become"
    assert lemma("dog") == "dog"  # identity fallback


class TestPerRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(fx.RULE_FIXTURES))
    def test_positive_fixture_adds_documented_arcs(self, rule_id):
        positive, expected, _ = fx.RULE_FIXTURES[rule_id]
        g = DepGraph.from_sentence(positive)
        out, (rid, added) = apply_rule(g, rule_id)
        assert rid == rule_id
        assert set(added) == expected
        for arc in expected:
            assert out.has_arc(*arc)
            assert out.origin(arc) == rule_id
        # the input graph is untouched
        assert not any(g.has_arc(*a) for a in expected)

    @pytest.mark.parametrize("rule_id", sorted(fx.RULE_FIXTURES))
    def test_negative_fixture_is_noop(self, rule_id):
        _, _, negative = fx.RULE_FIXTURES[rule_id]
        g = DepGraph.from_sentence(negative)
        out, (_, added) = apply_rule(g, rule_id)
        assert added == ()
        assert out.canonical() == g.canonical()

    def test_rules_never_delete(self):
        for rule_id in RULE_IDS:
            positive, _, _ = fx.RULE_FIXTURES[rule_id]
            g = DepGraph.from_sentence(positive)
            out, _ = apply_rule(g, rule_id)
            assert set(g.sorted_arcs()) <= set(out.sorted_arcs())

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError):
            apply_rule(DepGraph.from_sentence(fx.SMALL_CLAUSE), "no-such-rule")


def test_graph_reads_predicted_pos_where_set():
    # "John" heads the relative clause; predicted as a verb, it no longer licenses the rule
    sentence = fx.RELATIVE_CLAUSE.copy()
    for tok in sentence.tokens:
        tok.pred_pos = tok.gold_pos
    sentence.tokens[0].pred_pos = "VBD"
    sentence.tokens[3].pred_pos = None  # falls back to the gold column
    g = DepGraph.from_sentence(sentence)
    assert [t.pos for t in g.tokens] == ["VBD", "WP", "VBZ", "NNP", "VBD", "DT", "NN"]
    assert apply_rule(g, "relative-clause")[1] == ("relative-clause", ())
    gold = DepGraph.from_sentence(fx.RELATIVE_CLAUSE)
    assert apply_rule(gold, "relative-clause")[1] == ("relative-clause", (Arc(1, 3, "0"),))


class TestPipeline:
    def test_rule_order_matches_documentation(self):
        assert RULE_IDS == (
            "relative-clause", "sentential-complement", "coordination-vp",
            "coordination-relative", "small-clause", "co-anchor", "wh-word",
            "copula-be", "copula-nonbe", "partitive", "modal",
            "existential-there", "determiner-sentence",
        )

    def test_noop_graph_is_identity(self):
        g = DepGraph.from_sentence(fx.sent([
            ("the", "DT", "tD", 2, "adj"),
            ("dog", "NN", "tN", 3, "0"),
            ("ran", "VBD", "tVi", 0, "root"),
        ]))
        out, trace = apply_udr_pipeline(g)
        assert trace.entries == []
        assert out.canonical() == g.canonical()

    def test_monotone_and_deterministic(self):
        for sentence in fx.UDR_SENTENCES:
            g = DepGraph.from_sentence(sentence)
            out1, trace1 = apply_udr_pipeline(g)
            out2, trace2 = apply_udr_pipeline(g)
            assert set(g.sorted_arcs()) <= set(out1.sorted_arcs())
            assert out1.canonical() == out2.canonical()
            assert trace1.lines() == trace2.lines()

    def test_trace_replay_reproduces_output(self):
        for sentence in fx.UDR_SENTENCES + [fx.CHAINED_ORDER]:
            g = DepGraph.from_sentence(sentence)
            out, trace = apply_udr_pipeline(g)
            assert replay_trace(g, trace).canonical() == out.canonical()

    def test_pipeline_idempotent_on_fixtures(self):
        for sentence in fx.UDR_SENTENCES:
            g = DepGraph.from_sentence(sentence)
            once, _ = apply_udr_pipeline(g)
            twice, _ = apply_udr_pipeline(once)
            assert twice.canonical() == once.canonical()

    def test_chained_firing_order_matters(self):
        g = DepGraph.from_sentence(fx.CHAINED_ORDER)
        # documented order: sentential-complement first, then co-anchor
        step1, _ = apply_rule(g, "sentential-complement")
        step2, _ = apply_rule(step1, "co-anchor")
        assert step2.has_arc(5, 3, "1")  # (left, out, 1) via the chained copy
        # reversed order misses the copied arc
        rev1, _ = apply_rule(g, "co-anchor")
        rev2, _ = apply_rule(rev1, "sentential-complement")
        assert not rev2.has_arc(5, 3, "1")
        assert step2.canonical() != rev2.canonical()
        # the full pipeline uses the documented order
        full, _ = apply_udr_pipeline(g)
        assert full.has_arc(5, 3, "1")

    def test_coanchor_figure_produces_documented_arc(self):
        g = DepGraph.from_sentence(fx.CO_ANCHOR_FIGURE)
        out, trace = apply_udr_pipeline(g)
        # (what, for, 1) is obtained from (what, hoping, 1)
        assert out.has_arc(4, 7, "1")  # relative-clause reverse arc
        assert out.has_arc(4, 8, "1")  # co-anchor copy
        rule_of = dict((arc, rid) for rid, arcs in trace.entries for arc in arcs)
        assert rule_of[Arc(4, 7, "1")] == "relative-clause"
        assert rule_of[Arc(4, 8, "1")] == "co-anchor"

    def test_wh_figure_produces_documented_arc(self):
        g = DepGraph.from_sentence(fx.WH_WORD)
        out, trace = apply_udr_pipeline(g)
        assert out.has_arc(2, 5, "1")  # (songs, sing, 1)
        rule_of = dict((arc, rid) for rid, arcs in trace.entries for arc in arcs)
        assert rule_of[Arc(2, 5, "1")] == "wh-word"


def test_explicit_lexicon_overrides_markers():
    lex = SupertagLexicon(rc_roles={"alpha": "1"}, pred_aux={"beta"})
    assert lex.rc_role("alpha") == "1"
    assert lex.rc_role("tVt+rc0") is None  # markers ignored with explicit maps
    assert lex.is_pred_aux("beta")
    assert not lex.is_pred_aux("tVt+pa")
    default = SupertagLexicon()
    assert default.rc_role("tVt+rc0") == "0"
    assert default.is_pred_aux("tVt+pa")
