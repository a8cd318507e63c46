"""Parser and evaluator for textual group words.

Grammar (whitespace between tokens is ignored)::

    word   := factor+
    factor := base ('^' int)?
    base   := 'a' | 'b' | 'e' | '(' word ')'
    int    := '-'? digit+

Juxtaposition is group multiplication, '^' binds tightest, 'e' is the
identity.  "a^-1" and "(ab)^-3" are both legal.  Parentheses nest at
most MAX_NESTING deep, well inside Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple, Union

if TYPE_CHECKING:  # torus_group evaluates its anchor words with eval_text
    from .torus_group import GroupElement, TorusGroup

MAX_NESTING = 200


class WordSyntaxError(ValueError):
    """Malformed word; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Letter:
    sym: str  # 'a', 'b' or 'e'


@dataclass(frozen=True)
class Power:
    expr: "WordExpr"
    exponent: int


@dataclass(frozen=True)
class Concat:
    parts: Tuple["WordExpr", ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("Concat requires at least one factor")


WordExpr = Union[Letter, Power, Concat]


def parse_word(text: str) -> WordExpr:
    expr, pos = _parse_concat(text, 0, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
    return expr


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_concat(text: str, pos: int, depth: int) -> Tuple[WordExpr, int]:
    parts = []
    pos = _skip_ws(text, pos)
    while pos < len(text) and text[pos] not in ")":
        factor, pos = _parse_factor(text, pos, depth)
        parts.append(factor)
        pos = _skip_ws(text, pos)
    if not parts:
        raise WordSyntaxError("empty word", pos)
    if len(parts) == 1:
        return parts[0], pos
    return Concat(tuple(parts)), pos


def _parse_factor(text: str, pos: int, depth: int) -> Tuple[WordExpr, int]:
    base, pos = _parse_base(text, pos, depth)
    pos_ws = _skip_ws(text, pos)
    if pos_ws < len(text) and text[pos_ws] == "^":
        exponent, pos = _parse_int(text, _skip_ws(text, pos_ws + 1))
        return Power(base, exponent), pos
    return base, pos


def _parse_base(text: str, pos: int, depth: int) -> Tuple[WordExpr, int]:
    pos = _skip_ws(text, pos)
    if pos >= len(text):
        raise WordSyntaxError("expected a letter or '('", pos)
    ch = text[pos]
    if ch in "abe":
        return Letter(ch), pos + 1
    if ch == "(":
        if depth == MAX_NESTING:
            raise WordSyntaxError(
                f"parentheses nested deeper than {MAX_NESTING}", pos)
        inner, pos2 = _parse_concat(text, pos + 1, depth + 1)
        pos2 = _skip_ws(text, pos2)
        if pos2 >= len(text) or text[pos2] != ")":
            raise WordSyntaxError("unbalanced parenthesis", pos2)
        return inner, pos2 + 1
    raise WordSyntaxError(f"illegal character {ch!r}", pos)


def _parse_int(text: str, pos: int) -> Tuple[int, int]:
    start = pos
    if pos < len(text) and text[pos] == "-":
        pos += 1
    digits = pos
    while pos < len(text) and text[pos].isdecimal():  # what int() accepts
        pos += 1
    if pos == digits:
        raise WordSyntaxError("expected an integer exponent", start)
    try:
        return int(text[start:pos]), pos
    except ValueError:  # past the interpreter's integer digit limit
        raise WordSyntaxError("exponent has too many digits", start) from None


def eval_word(expr: WordExpr, group: TorusGroup) -> GroupElement:
    if isinstance(expr, Letter):
        if expr.sym == "a":
            return group.generator_a
        if expr.sym == "b":
            return group.generator_b
        return group.identity
    if isinstance(expr, Power):
        return group.power(eval_word(expr.expr, group), expr.exponent)
    if isinstance(expr, Concat):
        acc = group.identity
        for part in expr.parts:
            acc = group.mul(acc, eval_word(part, group))
        return acc
    raise TypeError(f"not a word expression: {expr!r}")


def eval_text(text: str, group: TorusGroup) -> GroupElement:
    return eval_word(parse_word(text), group)


def format_normal(g: GroupElement) -> str:
    """Canonical string for a normal form; round-trips through the parser."""
    k, l = g.k % 8, g.l % 8
    if k == 0 and l == 0:
        return "e"
    parts = []
    if k:
        parts.append("a" if k == 1 else f"a^{k}")
    if l:
        parts.append("b" if l == 1 else f"b^{l}")
    return " ".join(parts)
