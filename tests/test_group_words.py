import random

import pytest
from hypothesis import given, settings, strategies as st

from biqknot.group_words import (
    MAX_NESTING,
    Concat,
    Letter,
    Power,
    WordSyntaxError,
    eval_text,
    eval_word,
    format_normal,
    parse_word,
)
from biqknot.torus_group import ALL_ELEMENTS, GroupElement


def test_parse_single_letter():
    assert parse_word("a") == Letter("a")
    assert parse_word("e") == Letter("e")


def test_parse_conjugated_power_word():
    expr = parse_word("(ab)^-3 a (ab)^3")
    assert expr == Concat((
        Power(Concat((Letter("a"), Letter("b"))), -3),
        Letter("a"),
        Power(Concat((Letter("a"), Letter("b"))), 3),
    ))


def test_parse_errors_carry_offsets():
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("a^")
    assert exc.value.offset == 2
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("")
    assert exc.value.offset == 0
    with pytest.raises(WordSyntaxError):
        parse_word("(ab")
    with pytest.raises(WordSyntaxError):
        parse_word("a$b")
    with pytest.raises(WordSyntaxError):
        parse_word("a ^ 2 )")


def test_whitespace_insensitive(group):
    assert eval_text("a  b ^ 2", group) == eval_text("ab^2", group)


def test_eval_basics(group):
    assert eval_text("e", group) == group.identity
    assert eval_text("a a^-1", group) == group.identity
    assert eval_text("a^0", group) == group.identity
    assert eval_text("a^3 b^2", group) == GroupElement(3, 2)
    assert eval_text("b^-2", group) == eval_text("b^6", group)


def test_eval_reference_products(group):
    assert eval_text("(ab)^-3 a (ab)^3", group) == GroupElement(7, 6)
    assert eval_text("(ab^3)^3 (ab) (ab^3)^-3", group) == GroupElement(1, 5)
    assert eval_text("(ab^3)^3 (ab^2) (ab^3)^-3", group) == GroupElement(7, 0)
    assert eval_text("a (a b a^-1 b^-1)", group) == GroupElement(3, 2)
    assert eval_text("(a b a^-1 b^-1) a", group) == GroupElement(3, 6)


def test_format_normal_golden():
    assert format_normal(GroupElement(0, 0)) == "e"
    assert format_normal(GroupElement(7, 6)) == "a^7 b^6"
    assert format_normal(GroupElement(0, 3)) == "b^3"
    assert format_normal(GroupElement(1, 1)) == "a b"
    assert format_normal(GroupElement(2, 0)) == "a^2"


def test_normal_form_round_trip(group):
    for g in ALL_ELEMENTS:
        assert eval_text(format_normal(g), group) == g


def test_power_law_random(group):
    rng = random.Random(11)
    words = ["a", "b", "ab", "a^2 b", "(a b^3)", "b a^-1", "(ab)^2 a^-1"]
    for _ in range(60):
        w = rng.choice(words)
        m = rng.randint(-16, 16)
        base = eval_text(w, group)
        expected = group.identity
        step = base if m >= 0 else group.inv(base)
        for _ in range(abs(m)):
            expected = group.mul(expected, step)
        assert eval_text(f"({w})^{m}", group) == expected


def test_parser_totality_fuzz(group):
    rng = random.Random(4242)
    alphabet = "ab e^-()0123456789$z"
    for _ in range(400):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 14)))
        try:
            expr = parse_word(text)
        except WordSyntaxError as exc:
            assert 0 <= exc.offset <= len(text)
        else:
            eval_word(expr, group)  # must evaluate without error


def test_nesting_limit(group):
    deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert eval_text(deepest, group) == group.generator_a
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("(" * 1200 + "a" + ")" * 1200)
    assert exc.value.offset == MAX_NESTING  # the first parenthesis too deep


def test_oversized_exponent_is_a_syntax_error(group):
    # more digits than int() converts: a syntax error at the exponent
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("a^" + "9" * 5000)
    assert exc.value.offset == 2
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("b ^ -" + "1" * 5000)
    assert exc.value.offset == 4
    # a long exponent below the limit still evaluates (99...9 = 7 mod 8)
    assert (eval_text("a^" + "9" * 4000, group)
            == group.power(group.generator_a, 7))
    # a digit int() rejects ends the exponent instead of reaching int()
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("a^\u00b2")
    assert exc.value.offset == 2


# decimal digits int() accepts (ASCII, Arabic-Indic, fullwidth) and a
# superscript digit it refuses (str.isdigit but not str.isdecimal)
_DIGITS = "07\u0663\uff19\u00b2"
# whitespace str.isspace accepts, ASCII and not
_SPACES = ["", " ", "\t", "\r\n", "\x0b", "\x1c", "\xa0", "\u2028", "\u3000"]
_WORD_ALPHABET = "abe()^-$" + _DIGITS + "".join(_SPACES)


def _draw_word(draw, depth):
    """A well-formed word: 1-3 factors, parenthesised at most 3 deep."""
    space = st.sampled_from(_SPACES)
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        if depth < 3 and draw(st.booleans()):
            base = "(" + _draw_word(draw, depth + 1) + draw(space) + ")"
        else:
            base = draw(st.sampled_from("abe"))
        if draw(st.booleans()):
            digits = draw(st.text(st.sampled_from(_DIGITS[:-1]),
                                  min_size=1, max_size=3))
            base += (draw(space) + "^" + draw(space)
                     + draw(st.sampled_from(["", "-"])) + digits)
        factors.append(draw(space) + base)
    return "".join(factors)


@st.composite
def _word_texts(draw):
    """(text, well_formed): arbitrary text over the word alphabet, or a
    well-formed word with at most one character replaced or deleted."""
    if draw(st.booleans()):
        return draw(st.text(_WORD_ALPHABET, max_size=30)), False
    text = _draw_word(draw, 0) + draw(st.sampled_from(_SPACES))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        repl = draw(st.one_of(st.just(""), st.sampled_from(_WORD_ALPHABET)))
        return text[:i] + repl + text[i + 1:], False
    return text, True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_word_texts())
def test_parse_word_raises_only_syntax_errors(group, case):
    text, well_formed = case
    try:
        expr = parse_word(text)
    except WordSyntaxError as exc:
        assert not well_formed, repr(text)
        assert 0 <= exc.offset <= len(text)
        return
    g = eval_word(expr, group)
    assert eval_text(format_normal(g), group) == g
