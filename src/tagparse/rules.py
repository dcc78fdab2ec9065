"""Derivation-graph transformations and the UDR label conversion.

Rules fire in a fixed order (RULE_ORDER) so earlier additions can feed
later rules. A rule only proposes arcs: it is a generator of (child,
parent, label) triples, and one runner adds each proposal under the
rule's id before it asks the rule for the next, so a rule also reads its
own earlier additions. Rules never remove arcs. Arc notation throughout:
(child, parent, label), the arc pointing from parent to child.

Rule catalog (trigger -> additions); each pattern has a positive and a
negative fixture in the test suite:

relative-clause      (v, n, adj) where v's supertag is a relative-clause
                     tree with extraction role R and n is a noun
                     -> add (n, v, R)
sentential-complement(a, h, adj) where a's supertag is a predicative
                     auxiliary tree -> add (h, a, "1")
coordination-vp      coordinator c (CC): (c, v1, adj) + (v2, c, "1"), both
                     verbs -> copy v1's subject arcs (label 0) and its
                     modal/negation adjuncts onto v2
coordination-relative coordinator c (CC): (c, v1, adj) + (v2, c, "1")
                     where v1 is a relative-clause predicate modifying
                     noun n, and a wh-pronoun attaches to v2 with label R
                     -> add (n, v2, R)
small-clause         (p, v, L in {1,2}) with v a verb, p a noun/adjective
                     predicate owning a nominal subject (s, p, "0")
                     -> add (s, v, "1")
co-anchor            (co, h, CO) -> copy every arc involving h onto co
                     (both directions, ROOT arcs excluded)
wh-word              (w, wh, adj) with wh a wh-word -> for every arc
                     (wh, p, L) add (w, p, L)
copula-be            complement substitution (x, b, L in {1..4}) into a
                     be-verb b -> add (b, x, "0")
copula-nonbe         (c, p, adj) where c's lemma is stay/become/seem/remain
                     -> copy arcs involving the predicate p onto c
partitive            w in {lot, lots, kind, kinds, none} with child "of"
                     whose object is o -> copy arcs involving w onto o
modal                modal m (MD) with head v; the nearest following
                     verbal adjunct child a of v -> add (m, a, adj)
existential-there    (there, b, "0") -> add (b, there, "0")
determiner-sentence  (d, v, adj) with d a determiner modifying verb v and
                     an adjective child a of d -> add (a, v, "1")
"""

from __future__ import annotations

from dataclasses import dataclass

from .depgraph import DepGraph, RuleTrace

__all__ = [
    "SupertagLexicon",
    "ConversionContext",
    "convert_udr_label",
    "lemma",
    "apply_rule",
    "apply_udr_pipeline",
    "RULE_ORDER",
    "PETE_RULES",
    "ADJUNCT_LABEL",
    "UDR_INVENTORY",
]

ADJUNCT_LABEL = "adj"
CO_LABEL = "CO"
SUBSTITUTION_LABELS = ("0", "1", "2", "3", "4")
COMPLEMENT_LABELS = ("1", "2", "3", "4")

# lemma exceptions for exactly the word classes the rules inspect
_LEMMAS = {}
for _lemma, _forms in {
    "be": ["am", "is", "are", "was", "were", "be", "been", "being", "'s", "'re", "'m"],
    "stay": ["stay", "stays", "stayed", "staying"],
    "become": ["become", "becomes", "became", "becoming"],
    "seem": ["seem", "seems", "seemed", "seeming"],
    "remain": ["remain", "remains", "remained", "remaining"],
    "have": ["have", "has", "had", "having", "'ve"],
    "do": ["do", "does", "did", "doing"],
    "shut": ["shut", "shuts", "shutting"],
    "open": ["open", "opens", "opened", "opening"],
    "close": ["close", "closes", "closed", "closing"],
    "break": ["break", "breaks", "broke", "broken", "breaking"],
    "turn": ["turn", "turns", "turned", "turning"],
}.items():
    for _f in _forms:
        _LEMMAS[_f] = _lemma


def lemma(form: str) -> str:
    return _LEMMAS.get(form.lower(), form.lower())


NONBE_COPULAS = ("stay", "become", "seem", "remain")
# unaccusative alternators for the subject-embedded conversion exception
CAUSATIVE_ALTERNATORS = ("shut", "open", "close", "break", "turn")
PARTITIVE_WORDS = ("lot", "lots", "kind", "kinds", "none")
NEGATION_FORMS = ("not", "n't", "never")
WH_POS = ("WDT", "WP", "WP$", "WRB")
WH_WORDS = ("what", "who", "whom", "whose", "which", "where", "when", "why", "how")


def is_verb(pos: str) -> bool:
    return pos.startswith("VB") or pos == "MD"


def is_noun(pos: str) -> bool:
    return pos.startswith("NN") or pos in ("PRP", "WP")


def is_adjectival(pos: str) -> bool:
    return pos.startswith("JJ") or pos == "VBN"


def is_wh(token) -> bool:
    return token.pos in WH_POS or token.lower in WH_WORDS


class SupertagLexicon:
    """Elementary-tree properties of supertags.

    The shipped grammar is synthetic, so properties are read from marker
    suffixes: `+rcR` marks a relative-clause tree extracting role R
    (e.g. tVt+rc0), `+pa` marks a predicative auxiliary tree. A real
    grammar can pass explicit maps instead.
    """

    def __init__(self, rc_roles: dict | None = None, pred_aux: set | None = None):
        self._rc_roles = rc_roles
        self._pred_aux = pred_aux

    def rc_role(self, stag: str | None) -> str | None:
        if stag is None:
            return None
        if self._rc_roles is not None:
            return self._rc_roles.get(stag)
        if "+rc" in stag:
            role = stag.split("+rc", 1)[1][:1]
            if role in SUBSTITUTION_LABELS:
                return role
        return None

    def is_pred_aux(self, stag: str | None) -> bool:
        if stag is None:
            return False
        if self._pred_aux is not None:
            return stag in self._pred_aux
        return "+pa" in stag


# ---------------------------------------------------------------------------
# UDR label conversion
# ---------------------------------------------------------------------------

_UDR_ARGUMENT = {"nsubj": "0", "cop": "0",
                 "dobj": "1", "pobj": "1", "obj2": "1", "nsubjpass": "1"}
_UDR_ADJUNCT = ("advmod", "aux", "rcmod", "xcomp", "prep", "det", "amod", "conj")
UDR_INVENTORY = tuple(sorted(set(_UDR_ARGUMENT) | set(_UDR_ADJUNCT)))


@dataclass
class ConversionContext:
    """What the conversion exceptions need to know about the target arc."""

    child_form: str = ""
    child_pos: str = ""
    parent_form: str = ""
    parent_pos: str = ""
    construction: str | None = None


def convert_udr_label(label: str, context: ConversionContext | None = None) -> str:
    """Map a UDR dependency label to the TAG inventory.

    Exceptions: arcs from a verb to a wh-adverb become adjunction, and in
    the subject-embedded construction the subject of an unaccusative
    alternator (hold the door shut) becomes its object.
    """
    if label not in UDR_INVENTORY:
        raise ValueError(f"unknown UDR label {label!r}; inventory: {list(UDR_INVENTORY)}")
    ctx = context or ConversionContext()
    child_is_wh_adverb = ctx.child_pos == "WRB" or ctx.child_form.lower() in (
        "where", "when", "why", "how")
    if is_verb(ctx.parent_pos) and child_is_wh_adverb:
        return ADJUNCT_LABEL
    if (ctx.construction == "SbEm" and label == "nsubj"
            and lemma(ctx.parent_form) in CAUSATIVE_ALTERNATORS):
        return "1"
    if label in _UDR_ARGUMENT:
        return _UDR_ARGUMENT[label]
    return ADJUNCT_LABEL


# ---------------------------------------------------------------------------
# transformation rules
# ---------------------------------------------------------------------------


def _rule_relative_clause(g: DepGraph, lex: SupertagLexicon):
    for child, parent, label in g.sorted_arcs():
        if label != ADJUNCT_LABEL or parent == 0:
            continue
        role = lex.rc_role(g.token(child).stag)
        if role is not None and is_noun(g.token(parent).pos):
            yield parent, child, role


def _rule_sentential_complement(g: DepGraph, lex: SupertagLexicon):
    for child, parent, label in g.sorted_arcs():
        if label == ADJUNCT_LABEL and parent != 0 and lex.is_pred_aux(g.token(child).stag):
            yield parent, child, "1"


def _conjunct_pairs(g: DepGraph):
    """(coordinator, first conjunct, second conjunct) triples."""
    for child, parent, label in g.sorted_arcs():
        if label != ADJUNCT_LABEL or parent == 0:
            continue
        c = child
        if g.token(c).pos != "CC":
            continue
        for child2, parent2, label2 in g.sorted_arcs():
            if parent2 == c and label2 == "1":
                yield c, parent, child2


def _rule_coordination_vp(g: DepGraph, lex: SupertagLexicon):
    for _c, v1, v2 in list(_conjunct_pairs(g)):
        if not (is_verb(g.token(v1).pos) and is_verb(g.token(v2).pos)):
            continue
        for child, _, label in sorted(g.arcs_with_parent(v1)):
            if label == "0" or (label == ADJUNCT_LABEL and (
                g.token(child).pos == "MD" or g.token(child).lower in NEGATION_FORMS
            )):
                yield child, v2, label


def _rule_coordination_relative(g: DepGraph, lex: SupertagLexicon):
    for _c, v1, v2 in list(_conjunct_pairs(g)):
        if lex.rc_role(g.token(v1).stag) is None:
            continue
        modified = [a.parent for a in g.arcs_with_child(v1)
                    if a.label == ADJUNCT_LABEL and a.parent != 0
                    and is_noun(g.token(a.parent).pos)]
        wh_arcs = [a for a in sorted(g.arcs_with_parent(v2)) if is_wh(g.token(a.child))]
        if modified and wh_arcs:
            yield modified[0], v2, wh_arcs[0].label


def _rule_small_clause(g: DepGraph, lex: SupertagLexicon):
    for child, parent, label in g.sorted_arcs():
        if label not in ("1", "2") or parent == 0:
            continue
        p, v = child, parent
        if not is_verb(g.token(v).pos):
            continue
        pos_p = g.token(p).pos
        if not (is_noun(pos_p) or is_adjectival(pos_p)):
            continue
        for sub in sorted(g.arcs_with_parent(p)):
            if sub.label == "0" and is_noun(g.token(sub.child).pos):
                yield sub.child, v, "1"


def _copy_involving(g: DepGraph, source: int, target: int, skip=()):
    """Every arc touching `source`, with `target` in its place."""
    for arc in sorted(g.arcs_involving(source)):
        if (arc.child, arc.parent, arc.label) in skip:
            continue
        if arc.child == source:
            if arc.parent not in (0, target):
                yield target, arc.parent, arc.label
        elif arc.child != target:
            yield arc.child, target, arc.label


def _rule_co_anchor(g: DepGraph, lex: SupertagLexicon):
    for child, parent, label in g.sorted_arcs():
        if label == CO_LABEL and parent != 0:
            yield from _copy_involving(g, parent, child, skip=((child, parent, label),))


def _rule_wh_word(g: DepGraph, lex: SupertagLexicon):
    for child, parent, label in g.sorted_arcs():
        if label != ADJUNCT_LABEL or parent == 0:
            continue
        w, wh = child, parent
        if not is_wh(g.token(wh)):
            continue
        for arc in sorted(g.arcs_with_child(wh)):
            if arc.parent != w:
                yield w, arc.parent, arc.label


def _rule_copula_be(g: DepGraph, lex: SupertagLexicon):
    for child, parent, label in g.sorted_arcs():
        if label not in COMPLEMENT_LABELS or parent == 0:
            continue
        b = parent
        if lemma(g.token(b).form) == "be" and is_verb(g.token(b).pos):
            yield b, child, "0"


def _rule_copula_nonbe(g: DepGraph, lex: SupertagLexicon):
    for child, parent, label in g.sorted_arcs():
        if label != ADJUNCT_LABEL or parent == 0:
            continue
        c, p = child, parent
        if is_verb(g.token(c).pos) and lemma(g.token(c).form) in NONBE_COPULAS:
            yield from _copy_involving(g, p, c, skip=((c, p, label),))


def _rule_partitive(g: DepGraph, lex: SupertagLexicon):
    for w_tok in g.tokens:
        if w_tok.lower not in PARTITIVE_WORDS:
            continue
        w = w_tok.index
        of_nodes = [a.child for a in sorted(g.arcs_with_parent(w))
                    if g.token(a.child).lower == "of"]
        for of_node in of_nodes:
            objects = sorted(g.arcs_with_parent(of_node),
                             key=lambda a: (a.label != "1", a.child))
            if objects:
                yield from _copy_involving(g, w, objects[0].child)


def _rule_modal(g: DepGraph, lex: SupertagLexicon):
    for child, parent, label in g.sorted_arcs():
        if label != ADJUNCT_LABEL or parent == 0:
            continue
        m, v = child, parent
        if g.token(m).pos != "MD":
            continue
        following = [a.child for a in g.arcs_with_parent(v)
                     if a.label == ADJUNCT_LABEL and a.child != m
                     and a.child > m and g.token(a.child).pos.startswith("VB")]
        if following:
            yield m, min(following), ADJUNCT_LABEL


def _rule_existential_there(g: DepGraph, lex: SupertagLexicon):
    for child, parent, label in g.sorted_arcs():
        if label != "0" or parent == 0:
            continue
        tok = g.token(child)
        if tok.pos == "EX" or tok.lower == "there":
            yield parent, child, "0"


def _rule_determiner_sentence(g: DepGraph, lex: SupertagLexicon):
    for child, parent, label in g.sorted_arcs():
        if label != ADJUNCT_LABEL or parent == 0:
            continue
        d, v = child, parent
        if g.token(d).pos != "DT" or not is_verb(g.token(v).pos):
            continue
        adjectives = [a.child for a in sorted(g.arcs_with_parent(d))
                      if is_adjectival(g.token(a.child).pos)]
        if adjectives:
            yield adjectives[0], v, "1"


PETE_RULES = (
    ("relative-clause", _rule_relative_clause),
    ("sentential-complement", _rule_sentential_complement),
    ("coordination-vp", _rule_coordination_vp),
)

RULE_ORDER = PETE_RULES + (
    ("coordination-relative", _rule_coordination_relative),
    ("small-clause", _rule_small_clause),
    ("co-anchor", _rule_co_anchor),
    ("wh-word", _rule_wh_word),
    ("copula-be", _rule_copula_be),
    ("copula-nonbe", _rule_copula_nonbe),
    ("partitive", _rule_partitive),
    ("modal", _rule_modal),
    ("existential-there", _rule_existential_there),
    ("determiner-sentence", _rule_determiner_sentence),
)

_RULES = dict(RULE_ORDER)
RULE_IDS = tuple(rid for rid, _ in RULE_ORDER)


def _run(g: DepGraph, rule_id: str, lexicon: SupertagLexicon) -> list:
    """Add each arc the rule proposes to `g`, under the rule's id, before
    asking for the next: a rule reads its own earlier additions. Returns
    the arcs that were new."""
    if rule_id not in _RULES:
        raise KeyError(f"unknown rule {rule_id!r}; rules: {list(RULE_IDS)}")
    added = []
    for child, parent, label in _RULES[rule_id](g, lexicon):
        arc = g.add_arc(child, parent, label, origin=rule_id)
        if arc:
            added.append(arc)
    return added


def apply_rule(graph: DepGraph, rule_id: str,
               lexicon: SupertagLexicon | None = None) -> tuple:
    """Apply one rule to a copy of `graph`; returns (new graph, trace entry)."""
    out = graph.copy()
    added = _run(out, rule_id, lexicon or SupertagLexicon())
    return out, (rule_id, tuple(added))


def apply_udr_pipeline(graph: DepGraph, lexicon: SupertagLexicon | None = None,
                       rules=None) -> tuple:
    """Run the documented rule sequence; returns (new graph, RuleTrace)."""
    lexicon = lexicon or SupertagLexicon()
    out = graph.copy()
    trace = RuleTrace()
    for rule_id in RULE_IDS if rules is None else rules:
        added = _run(out, rule_id, lexicon)
        if added:
            trace.add(rule_id, added)
    return out, trace
