"""Hand-built derivation-tree fixtures for every transformation rule.

Each row is (form, pos, supertag, head, relation). Expected additions are
the exact arcs the named rule adds when applied alone to the fixture.
"""

from tagparse.corpus import Sentence, Token
from tagparse.depgraph import Arc, DepGraph


def sent(rows):
    return Sentence([
        Token(form=f, gold_pos=p, stag=s, head=h, rel=r) for f, p, s, h, r in rows
    ])


def graph(rows):
    return DepGraph.from_sentence(sent(rows))


RELATIVE_CLAUSE = sent([
    ("John", "NNP", "tN", 5, "0"),
    ("who", "WP", "tWH", 3, "0"),
    ("loves", "VBZ", "tVt+rc0", 1, "adj"),
    ("Mary", "NNP", "tN", 3, "1"),
    ("saw", "VBD", "tVt", 0, "root"),
    ("a", "DT", "tD", 7, "adj"),
    ("squirrel", "NN", "tN", 5, "1"),
])

RELATIVE_CLAUSE_NEG = sent([
    ("John", "NNP", "tN", 5, "0"),
    ("who", "WP", "tWH", 3, "0"),
    ("loves", "VBZ", "tVt", 1, "adj"),  # plain transitive tree: no rc marker
    ("Mary", "NNP", "tN", 3, "1"),
    ("saw", "VBD", "tVt", 0, "root"),
    ("a", "DT", "tD", 7, "adj"),
    ("squirrel", "NN", "tN", 5, "1"),
])

SENTENTIAL_COMPLEMENT = sent([
    ("I", "PRP", "tN", 2, "0"),
    ("think", "VBP", "tVt+pa", 4, "adj"),
    ("John", "NNP", "tN", 4, "0"),
    ("left", "VBD", "tVi", 0, "root"),
])

SENTENTIAL_COMPLEMENT_NEG = sent([
    ("I", "PRP", "tN", 2, "0"),
    ("think", "VBP", "tVt", 4, "adj"),
    ("John", "NNP", "tN", 4, "0"),
    ("left", "VBD", "tVi", 0, "root"),
])

COORDINATION_VP = sent([
    ("John", "NNP", "tN", 4, "0"),
    ("can", "MD", "tM", 4, "adj"),
    ("not", "RB", "tNeg", 4, "adj"),
    ("smile", "VB", "tVi", 0, "root"),
    ("and", "CC", "tCC", 4, "adj"),
    ("sleep", "VB", "tVi", 5, "1"),
])

COORDINATION_VP_NEG = sent([  # NP coordination: first conjunct is not a verb
    ("John", "NNP", "tN", 2, "0"),
    ("saw", "VBD", "tVt", 0, "root"),
    ("cats", "NNS", "tN", 2, "1"),
    ("and", "CC", "tCC", 3, "adj"),
    ("dogs", "NNS", "tN", 4, "1"),
])

COORDINATION_RELATIVE = sent([
    ("the", "DT", "tD", 2, "adj"),
    ("stump", "NN", "tN", 11, "0"),
    ("which", "WDT", "tWH", 4, "0"),
    ("impaled", "VBD", "tVt+rc0", 2, "adj"),
    ("the", "DT", "tD", 6, "adj"),
    ("car", "NN", "tN", 4, "1"),
    ("and", "CC", "tCC", 4, "adj"),
    ("which", "WDT", "tWH", 10, "1"),
    ("he", "PRP", "tN", 10, "0"),
    ("removed", "VBD", "tVt", 7, "1"),
    ("fell", "VBD", "tVi", 0, "root"),
])

COORDINATION_RELATIVE_NEG = sent([  # no wh-pronoun under the second conjunct
    ("the", "DT", "tD", 2, "adj"),
    ("stump", "NN", "tN", 8, "0"),
    ("which", "WDT", "tWH", 4, "0"),
    ("impaled", "VBD", "tVt+rc0", 2, "adj"),
    ("cars", "NNS", "tN", 4, "1"),
    ("and", "CC", "tCC", 4, "adj"),
    ("rusted", "VBD", "tVi", 6, "1"),
    ("fell", "VBD", "tVi", 0, "root"),
])

SMALL_CLAUSE = sent([
    ("I", "PRP", "tN", 2, "0"),
    ("term", "VBP", "tVt", 0, "root"),
    ("it", "PRP", "tN", 4, "0"),
    ("capitalism", "NN", "tN", 2, "1"),
])

SMALL_CLAUSE_NEG = sent([  # full-clause complement: predicate is a verb
    ("I", "PRP", "tN", 2, "0"),
    ("think", "VBP", "tVt", 0, "root"),
    ("he", "PRP", "tN", 4, "0"),
    ("left", "VBD", "tVi", 2, "1"),
])

CO_ANCHOR = sent([
    ("he", "PRP", "tN", 2, "0"),
    ("gave", "VBD", "tVt", 0, "root"),
    ("up", "RP", "tCO", 2, "CO"),
    ("the", "DT", "tD", 5, "adj"),
    ("fight", "NN", "tN", 2, "1"),
])

CO_ANCHOR_NEG = sent([
    ("he", "PRP", "tN", 2, "0"),
    ("gave", "VBD", "tVt", 0, "root"),
    ("the", "DT", "tD", 4, "adj"),
    ("fight", "NN", "tN", 2, "1"),
])

WH_WORD = sent([  # figure-level: "What songs did he sing?"
    ("What", "WDT", "tWH", 5, "1"),
    ("songs", "NNS", "tN", 1, "adj"),
    ("did", "VBD", "tD0", 5, "adj"),
    ("he", "PRP", "tN", 5, "0"),
    ("sing", "VB", "tVt", 0, "root"),
])

WH_WORD_NEG = sent([
    ("What", "WP", "tWH", 3, "1"),
    ("he", "PRP", "tN", 3, "0"),
    ("sang", "VBD", "tVt", 0, "root"),
])

COPULA_BE = sent([
    ("what", "WP", "tWH", 3, "1"),
    ("conservatism", "NN", "tN", 3, "0"),
    ("is", "VBZ", "tBe", 0, "root"),
])

COPULA_BE_NEG = sent([  # plain copula adjunction, no substitution into "is"
    ("John", "NNP", "tN", 3, "0"),
    ("is", "VBZ", "tBe", 3, "adj"),
    ("tall", "JJ", "tA", 0, "root"),
])

COPULA_NONBE = sent([
    ("he", "PRP", "tN", 3, "0"),
    ("seems", "VBZ", "tV", 3, "adj"),
    ("happy", "JJ", "tA", 0, "root"),
])

COPULA_NONBE_NEG = sent([
    ("he", "PRP", "tN", 3, "0"),
    ("is", "VBZ", "tBe", 3, "adj"),
    ("happy", "JJ", "tA", 0, "root"),
])

PARTITIVE = sent([
    ("a", "DT", "tD", 2, "adj"),
    ("lot", "NN", "tN", 5, "0"),
    ("of", "IN", "tP", 2, "adj"),
    ("people", "NNS", "tN", 3, "1"),
    ("came", "VBD", "tVi", 0, "root"),
])

PARTITIVE_NEG = sent([
    ("a", "DT", "tD", 2, "adj"),
    ("group", "NN", "tN", 5, "0"),
    ("of", "IN", "tP", 2, "adj"),
    ("people", "NNS", "tN", 3, "1"),
    ("came", "VBD", "tVi", 0, "root"),
])

MODAL = sent([
    ("he", "PRP", "tN", 4, "0"),
    ("may", "MD", "tM", 4, "adj"),
    ("have", "VB", "tHave", 4, "adj"),
    ("known", "VBN", "tVt", 0, "root"),
])

MODAL_NEG = sent([
    ("he", "PRP", "tN", 3, "0"),
    ("may", "MD", "tM", 3, "adj"),
    ("know", "VB", "tVt", 0, "root"),
])

EXISTENTIAL_THERE = sent([
    ("there", "EX", "tEx", 2, "0"),
    ("is", "VBZ", "tBe", 0, "root"),
    ("legislation", "NN", "tN", 2, "1"),
])

EXISTENTIAL_THERE_NEG = sent([
    ("there", "RB", "tAdv", 2, "adj"),
    ("slept", "VBD", "tVi", 0, "root"),
])

DETERMINER_SENTENCE = sent([
    ("the", "DT", "tD", 6, "adj"),
    ("more", "RBR", "tAdv", 3, "adj"),
    ("concerned", "JJ", "tA", 1, "adj"),
    ("they", "PRP", "tN", 6, "0"),
    ("have", "VBP", "tHave", 6, "adj"),
    ("become", "VBN", "tV", 0, "root"),
])

DETERMINER_SENTENCE_NEG = sent([
    ("the", "DT", "tD", 3, "adj"),
    ("they", "PRP", "tN", 3, "0"),
    ("slept", "VBD", "tVi", 0, "root"),
])

# figure-level: "that is exactly what I 'm hoping for"
CO_ANCHOR_FIGURE = sent([
    ("that", "DT", "tD", 2, "0"),
    ("is", "VBZ", "tBe", 0, "root"),
    ("exactly", "RB", "tAdv", 4, "adj"),
    ("what", "WP", "tWH", 2, "1"),
    ("I", "PRP", "tN", 7, "0"),
    ("'m", "VBP", "tBe", 7, "adj"),
    ("hoping", "VBG", "tVt+rc1", 4, "adj"),
    ("for", "IN", "tCO", 7, "CO"),
])

# order-matters chain: the sentential-complement reverse arc must exist
# before the co-anchor copy can propagate it to the particle
CHAINED_ORDER = sent([
    ("I", "PRP", "tN", 2, "0"),
    ("figure", "VBP", "tVt+pa", 5, "adj"),
    ("out", "RP", "tCO", 2, "CO"),
    ("he", "PRP", "tN", 5, "0"),
    ("left", "VBD", "tVi", 0, "root"),
])

# a rule reads its own earlier additions: co-anchor copies (he, ate, 0) onto
# drank, then copies arcs of drank onto gulped, the fresh (he, drank, 0) too
CHAINED_CO = sent([
    ("ate", "VBD", "tVt", 0, "root"),
    ("drank", "VBD", "tCO", 1, "CO"),
    ("gulped", "VBD", "tCO", 2, "CO"),
    ("he", "PRP", "tN", 1, "0"),
])

# rule id -> (positive fixture, expected adds, negative fixture)
RULE_FIXTURES = {
    "relative-clause": (RELATIVE_CLAUSE, {Arc(1, 3, "0")}, RELATIVE_CLAUSE_NEG),
    "sentential-complement": (SENTENTIAL_COMPLEMENT, {Arc(4, 2, "1")},
                              SENTENTIAL_COMPLEMENT_NEG),
    "coordination-vp": (COORDINATION_VP,
                        {Arc(1, 6, "0"), Arc(2, 6, "adj"), Arc(3, 6, "adj")},
                        COORDINATION_VP_NEG),
    "coordination-relative": (COORDINATION_RELATIVE, {Arc(2, 10, "1")},
                              COORDINATION_RELATIVE_NEG),
    "small-clause": (SMALL_CLAUSE, {Arc(3, 2, "1")}, SMALL_CLAUSE_NEG),
    "co-anchor": (CO_ANCHOR, {Arc(1, 3, "0"), Arc(5, 3, "1")}, CO_ANCHOR_NEG),
    "wh-word": (WH_WORD, {Arc(2, 5, "1")}, WH_WORD_NEG),
    "copula-be": (COPULA_BE, {Arc(3, 1, "0")}, COPULA_BE_NEG),
    "copula-nonbe": (COPULA_NONBE, {Arc(1, 2, "0")}, COPULA_NONBE_NEG),
    "partitive": (PARTITIVE, {Arc(4, 5, "0"), Arc(1, 4, "adj"), Arc(3, 4, "adj")},
                  PARTITIVE_NEG),
    "modal": (MODAL, {Arc(2, 3, "adj")}, MODAL_NEG),
    "existential-there": (EXISTENTIAL_THERE, {Arc(2, 1, "0")}, EXISTENTIAL_THERE_NEG),
    "determiner-sentence": (DETERMINER_SENTENCE, {Arc(3, 6, "1")},
                            DETERMINER_SENTENCE_NEG),
}

# ---------------------------------------------------------------------------
# UDR fixture corpus: 11 examples over the 7 constructions with hand-counted
# outcomes: ObRC 1/1, ObRed 1/1, SbRC 1/2, Free 2/2, ObQ 1/2, RNR 0/1, SbEm 1/2
# Total 7/11; Avg = (100+100+50+100+50+0+50)/7
# ---------------------------------------------------------------------------

UDR_SENTENCES = [
    sent([  # 1 ObRC hit: "the car which he bought broke"
        ("the", "DT", "tD", 2, "adj"),
        ("car", "NN", "tN", 6, "0"),
        ("which", "WDT", "tWH", 4, "1"),
        ("bought", "VBD", "tVt+rc1", 2, "adj"),
        ("he", "PRP", "tN", 4, "0"),
        ("broke", "VBD", "tVi", 0, "root"),
    ]),
    sent([  # 2 ObRed hit: "the car he bought broke"
        ("the", "DT", "tD", 2, "adj"),
        ("car", "NN", "tN", 5, "0"),
        ("he", "PRP", "tN", 4, "0"),
        ("bought", "VBD", "tVt+rc1", 2, "adj"),
        ("broke", "VBD", "tVi", 0, "root"),
    ]),
    sent([  # 3 SbRC hit: "the man who slept snored"
        ("the", "DT", "tD", 2, "adj"),
        ("man", "NN", "tN", 5, "0"),
        ("who", "WP", "tWH", 4, "0"),
        ("slept", "VBD", "tVi+rc0", 2, "adj"),
        ("snored", "VBD", "tVi", 0, "root"),
    ]),
    sent([  # 4 SbRC miss: supertagger got a plain tree, no extraction marker
        ("the", "DT", "tD", 2, "adj"),
        ("man", "NN", "tN", 5, "0"),
        ("who", "WP", "tWH", 4, "0"),
        ("slept", "VBD", "tVi", 2, "adj"),
        ("snored", "VBD", "tVi", 0, "root"),
    ]),
    sent([  # 5 Free hit: "we adopted what I term capitalism"
        ("we", "PRP", "tN", 2, "0"),
        ("adopted", "VBD", "tVt", 0, "root"),
        ("what", "WP", "tWH", 2, "1"),
        ("I", "PRP", "tN", 5, "0"),
        ("term", "VBP", "tVt+rc1", 3, "adj"),
        ("capitalism", "NN", "tN", 5, "1"),
    ]),
    CO_ANCHOR_FIGURE,  # 6 Free hit via the co-anchor copy: (what, for, pobj)
    WH_WORD,           # 7 ObQ hit: "What songs did he sing?"
    sent([  # 8 ObQ miss: wrong attachment, nothing recovers (what, say, 1)
        ("what", "WP", "tWH", 2, "1"),
        ("did", "VBD", "tVt", 0, "root"),
        ("he", "PRP", "tN", 2, "0"),
        ("say", "VB", "tVi", 2, "2"),
    ]),
    sent([  # 9 RNR miss: object sharing is not copied by coordination
        ("John", "NNP", "tN", 2, "0"),
        ("bought", "VBD", "tVt", 0, "root"),
        ("and", "CC", "tCC", 2, "adj"),
        ("Mary", "NNP", "tN", 5, "0"),
        ("sold", "VBD", "tVt", 3, "1"),
        ("stocks", "NNS", "tN", 2, "1"),
    ]),
    sent([  # 10 SbEm hit: "she held the door shut" (unaccusative object)
        ("she", "PRP", "tN", 2, "0"),
        ("held", "VBD", "tVt", 0, "root"),
        ("the", "DT", "tD", 4, "adj"),
        ("door", "NN", "tN", 5, "1"),
        ("shut", "VBN", "tA", 2, "2"),
    ]),
    sent([  # 11 SbEm miss: "the guy who I call a liar left"
        ("the", "DT", "tD", 2, "adj"),
        ("guy", "NN", "tN", 8, "0"),
        ("who", "WP", "tWH", 7, "0"),
        ("I", "PRP", "tN", 5, "0"),
        ("call", "VBP", "tVt", 2, "adj"),
        ("a", "DT", "tD", 7, "adj"),
        ("liar", "NN", "tN", 5, "1"),
        ("left", "VBD", "tVi", 0, "root"),
    ]),
]

# (sentence id, construction, child, parent, UDR label)
UDR_TARGETS = [
    (1, "ObRC", 2, 4, "dobj"),
    (2, "ObRed", 2, 4, "dobj"),
    (3, "SbRC", 2, 4, "nsubj"),
    (4, "SbRC", 2, 4, "nsubj"),
    (5, "Free", 3, 2, "pobj"),
    (6, "Free", 4, 8, "pobj"),
    (7, "ObQ", 2, 5, "dobj"),
    (8, "ObQ", 1, 4, "dobj"),
    (9, "RNR", 6, 5, "dobj"),
    (10, "SbEm", 4, 5, "nsubj"),
    (11, "SbEm", 2, 7, "nsubj"),
]

UDR_EXPECT = {
    "ObRC": (1, 1), "ObRed": (1, 1), "SbRC": (1, 2), "Free": (2, 2),
    "ObQ": (1, 2), "RNR": (0, 1), "SbEm": (1, 2),
}

# PETE: premise and hypotheses with hand-built gold parses
PETE_PREMISE = RELATIVE_CLAUSE  # "John who loves Mary saw a squirrel"

PETE_HYP_LOVES = sent([
    ("John", "NNP", "tN", 2, "0"),
    ("loves", "VBZ", "tVt", 0, "root"),
    ("Mary", "NNP", "tN", 2, "1"),
])

PETE_HYP_SAW = sent([
    ("John", "NNP", "tN", 2, "0"),
    ("saw", "VBD", "tVt", 0, "root"),
    ("a", "DT", "tD", 4, "adj"),
    ("squirrel", "NN", "tN", 2, "1"),
])

PETE_HYP_KNOWS = sent([
    ("John", "NNP", "tN", 2, "0"),
    ("knows", "VBZ", "tVt", 0, "root"),
    ("Mary", "NNP", "tN", 2, "1"),
])
