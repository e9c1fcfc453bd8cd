"""Property: ``SearchEngine.find`` of a multi-word needle equals the scan.

A needle of several words is answered from the token index — every
inner word as a whole token, the first as the tail and the last as
the head of one — and a substring test confirms the candidates.  The
scan over the string runs is the definition.  Needles are slices of
the generated values: cut through words, across punctuation, over
letters whose case folding changes length (İ) or depends on the
neighbours (Σ, ß upper-cases to SS), padded with whitespace (" Bit "
is a substring, not the token ``bit``), asked in both case modes, over
the whole store and over every span of a three-shard plan.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datamodel.document import Document
from repro.datamodel.node import Node
from repro.exec import compute_shard_plan
from repro.fulltext.search import SearchEngine
from repro.fulltext.tokenizer import tokenize
from repro.monet.transform import monet_transform

VOCABULARY = (
    "How", "to", "Hack", "Hacking", "RSI", "g", "R", "Bit", "bitmap",
    "1999", "İstanbul", "straße", "STRASSE", "ΟΔΟΣ", "Σίσυφος", "ας",
)
SEPARATORS = (" ", " & ", ", ", "-", "'", "/", "")
CASINGS = (str, str.upper, str.lower, str.swapcase)
PADDINGS = ("", " ", "  ")


@st.composite
def documents(draw):
    """A document whose texts and attribute values join 2-4 words
    with separators (an empty one fuses two words), and its values."""

    def value():
        words = draw(st.lists(st.sampled_from(VOCABULARY), min_size=2, max_size=4))
        joined = words[0]
        for word in words[1:]:
            joined += draw(st.sampled_from(SEPARATORS)) + word
        return joined

    values = []
    nodes = [Node("root")]
    for index in range(1, draw(st.integers(2, 12))):
        attributes = {
            name: value() for name in ("a", "b")[: draw(st.integers(0, 2))]
        }
        values.extend(attributes.values())
        node = Node(draw(st.sampled_from(("x", "y"))), attributes)
        nodes[draw(st.integers(0, index - 1))].append(node)
        nodes.append(node)
        if draw(st.booleans()):
            node.text = value()
            values.append(node.text)
    assume(values)
    return Document(nodes[0]), values


def _rows(hits):
    return {(posting.pid, posting.oid) for posting in hits.postings}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), case_sensitive=st.booleans())
def test_multi_word_find_equals_scan(data, case_sensitive):
    document, values = data.draw(documents())
    value = data.draw(st.sampled_from(values))
    start = data.draw(st.integers(0, len(value) - 1))
    stop = data.draw(st.integers(start + 1, len(value)))
    sliced = value[start:stop]
    if not case_sensitive:
        sliced = data.draw(st.sampled_from(CASINGS))(sliced)
    pad = st.sampled_from(PADDINGS)
    needle = data.draw(pad) + sliced + data.draw(pad)
    assume(len(tokenize(needle, case_sensitive)) > 1 or needle != sliced)

    store = monet_transform(document)
    engine = SearchEngine(store, case_sensitive=case_sensitive)
    plan = compute_shard_plan(store, 3)
    spans = [None] + [plan.span(shard) for shard in range(plan.shard_count)]
    for span in spans:
        found = _rows(engine.find(needle, span))
        assert found == _rows(engine.scan(needle, span)), (needle, span)
    if case_sensitive and needle == sliced:  # folding may change the length
        assert _rows(engine.find(needle)), needle  # the slice's own value
