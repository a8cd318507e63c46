import random

import pytest

from biqknot.group_words import (
    MAX_NESTING,
    Concat,
    Inverse,
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


def test_inverse_node_evaluates(group):
    expr = Inverse(Concat((Letter("a"), Letter("b"))))
    ab = group.mul(group.generator_a, group.generator_b)
    assert eval_word(expr, group) == group.inv(ab)


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
