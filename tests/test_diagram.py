import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle

from biqknot.diagram import (
    CrossingClass,
    DiagramSyntaxError,
    LongDiagram,
    PairingError,
    Pass,
    PassKind,
    arcs,
    builtin_trefoil,
    classify,
    _tokenize,
    parse_diagram,
    serialize,
)
from conftest import make_random_diagram


def test_parse_empty_diagram():
    d = parse_diagram("longknot unknot\n")
    assert d.name == "unknot"
    assert d.passes == ()
    assert d.arc_count == 1


def test_parse_and_serialize_round_trip():
    text = "longknot demo\nV1 U1+ O2+ O1+ V1 U2+\n"
    d = parse_diagram(text)
    assert serialize(d) == text
    assert d.arc_count == 5
    # comments and odd whitespace normalize away
    messy = "longknot demo  # comment\n V1\nU1+   O2+ # x\nO1+ V1 U2+\n"
    assert serialize(parse_diagram(messy)) == text


def test_parse_errors():
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("nope\n")
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("longknot x\nQ1+\n")
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("longknot x\nO1\n")  # missing sign
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("longknot x\nV\n")   # missing id


def test_pairing_errors():
    with pytest.raises(PairingError):
        parse_diagram("longknot x\nO1+ U1-\n")     # sign mismatch
    with pytest.raises(PairingError):
        parse_diagram("longknot x\nO1+\n")          # missing under
    with pytest.raises(PairingError):
        parse_diagram("longknot x\nV1\n")           # virtual passed once
    with pytest.raises(PairingError):
        parse_diagram("longknot x\nV1 V1 V1\n")     # passed three times
    with pytest.raises(PairingError):
        parse_diagram("longknot x\nO1+ O1+ U1+\n")  # two overs


def test_classify_by_pass_order():
    d = parse_diagram("longknot x\nO1+ U1+ U2- O2-\n")
    cls = classify(d)
    assert cls["1"] is CrossingClass.EARLY_OVER
    assert cls["2"] is CrossingClass.EARLY_UNDER


def test_classify_stable_under_id_renaming():
    d1 = parse_diagram("longknot x\nO7+ U7+ U9- O9-\n")
    cls = classify(d1)
    assert cls["7"] is CrossingClass.EARLY_OVER
    assert cls["9"] is CrossingClass.EARLY_UNDER


def test_virtual_ids_in_first_seen_order():
    d = parse_diagram("longknot v\nV3 O1+ V10 U1+ V3 v2 V10 O4- V2 U4-\n")
    assert d.virtual_ids() == ["3", "10", "2"]
    assert parse_diagram("longknot c\nO1+ U1+\n").virtual_ids() == []


def test_arcs_assignment():
    d = parse_diagram("longknot x\nV1 O2+ U2+ V1\n")
    asg = arcs(d)
    # V1 runs from arc 1 to 2, O2 lies on arc 2, U2 runs from 2 to 3 and
    # the second V1 from 3 to 4
    assert asg.arc_count == 4
    assert asg.over_arcs == {"2": 2}
    assert asg.classes == {"2": CrossingClass.EARLY_OVER}
    with pytest.raises(KeyError):
        asg.over_arcs["1"]


def test_double_virtual_gives_three_arcs():
    d = parse_diagram("longknot x\nV1 V1\n")
    assert d.arc_count == 3


def test_builtin_trefoils_structure():
    right = builtin_trefoil("right")
    left = builtin_trefoil("left")
    assert right.arc_count == 5
    assert left.arc_count == 5
    # identical pass multisets, different over/under order
    key = lambda p: (p.kind.value, p.crossing_id, p.sign or "")
    assert sorted(right.passes, key=key) == sorted(left.passes, key=key)
    assert right.passes != left.passes
    rc, lc = classify(right), classify(left)
    assert set(rc.values()) == {CrossingClass.EARLY_OVER}
    assert set(lc.values()) == {CrossingClass.EARLY_UNDER}
    with pytest.raises(ValueError):
        builtin_trefoil("upside-down")


def test_arc_count_formula_random():
    rng = random.Random(99)
    for _ in range(200):
        d = make_random_diagram(rng, max_classical=3, max_virtual=2,
                                max_breaks=7)
        unders = sum(1 for p in d.passes if p.kind is PassKind.UNDER)
        virtuals = sum(1 for p in d.passes if p.kind is PassKind.VIRTUAL)
        assert d.arc_count == unders + virtuals + 1
        assert serialize(parse_diagram(serialize(d))) == serialize(d)


def test_construction_validates():
    with pytest.raises(PairingError):
        LongDiagram(name="bad", passes=(Pass(PassKind.OVER, "1", "+"),))


def _tokenize_by_loop(text):
    """The character-by-character scanner the regex scan replaced."""
    out, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace():
            j += 1
        out.append((text[i:j], i))
        i = j
    return out


def test_tokenize_offsets_with_tabs_crlf_and_comments():
    texts = [
        "longknot\tdemo\r\nV1\tU1+  O2+ # note\r\nO1+ V1 U2+\r\n",
        "\t\r\n  longknot x # c\r\n\r\n\tO1+\x0bU1+\x0c\x1cV2 V2  ",
        "",
        " \t\r\n",
        "# only a comment\r\n",
    ]
    for text in texts:
        assert _tokenize(text) == _tokenize_by_loop(text), repr(text)
    # the offsets errors report are unchanged (values from the loop
    # scanner); comments are padded, so every offset is into the text
    cases = [
        ("longknot demo\r\n\tO1+ X9\r\n", 20, "X9"),
        ("# header first\r\n\tnope\r\n", 17, "nope"),
        ("longknot d # c\r\n\tV1 U1 V1\r\n", 20, "U1"),
        ("longknot d\t# O1+\r\n  O1+\tU1+ O2\r\n", 28, "O2"),
        ("longknot d\r\n\tO1+ # U1+\r\n\t V1 V1 \tV1+ #x\r\n", 33, "V1+"),
    ]
    for text, offset, token in cases:
        with pytest.raises(DiagramSyntaxError) as err:
            parse_diagram(text)
        assert err.value.offset == offset, repr(text)
        assert text[offset:].split()[0] == token


# ids mix ASCII and Arabic-Indic digits, a superscript digit (str.isalnum
# but not str.isdecimal), a letter-number (Roman numeral eight, str.isalnum),
# letters, and a combining accent and the '_' the grammar refuses
_ID_CHARS = "07\u0663\u00b2x\u00e9\u2167\u0301"
_SEPARATORS = [" ", "\t", "\r\n", "\n", "\x0b", "\x1c", "\u2028", "  ",
               " # c\n", "#O1+\x1c", "\t#\u2028"]
_OTHER_SIGN = str.maketrans("+-", "-+")
_ALPHABET = "OoUuVv" + _ID_CHARS + "_+-#" + " \t\r\n\x0b\x1c\u2028"


@st.composite
def _diagram_texts(draw):
    if draw(st.booleans()):
        # arbitrary text over the token alphabet, after a likely header
        head = draw(st.sampled_from(["", "longknot", "longknot d ",
                                     "longknot #c\n d ", "LONGKNOT d "]))
        return head + draw(st.text(_ALPHABET, max_size=30))
    # a pairing-valid pass sequence, sometimes with one token replaced
    ids = st.text(st.sampled_from(_ID_CHARS + "_"), min_size=1, max_size=2)
    toks = []
    for cid in draw(st.lists(ids, max_size=4, unique=True)):
        sign = draw(st.sampled_from("+-"))
        toks += [draw(st.sampled_from("Oo")) + cid + sign,
                 draw(st.sampled_from("Uu")) + cid + sign]
    for vid in draw(st.lists(ids, max_size=2, unique=True)):
        toks += [draw(st.sampled_from("Vv")) + vid for _ in range(2)]
    toks = draw(st.permutations(toks))
    if toks and draw(st.booleans()):
        # any text, a repeat of another pass, or the other sign
        i = draw(st.integers(0, len(toks) - 1))
        toks[i] = draw(st.one_of(st.text(_ALPHABET, min_size=1, max_size=4),
                                 st.sampled_from(toks),
                                 st.just(toks[i].translate(_OTHER_SIGN))))
    sep = st.sampled_from(_SEPARATORS)
    return "".join(t + draw(sep) for t in ["longknot", "d", *toks])


def _outcome(parse, text):
    try:
        return parse(text)
    except (DiagramSyntaxError, PairingError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_diagram_texts())
def test_parser_matches_reference(text):
    def tuned(t):
        d = parse_diagram(t)
        assert all(type(p) is Pass for p in d.passes)
        return d.name, d.passes
    got = _outcome(tuned, text)
    assert got == _outcome(oracle.parse_diagram, text)
    if not isinstance(got[0], type):
        d = parse_diagram(text)
        assert parse_diagram(serialize(d)) == d
