"""Long virtual knot diagrams as traversal sequences of crossing passes.

The text format is one diagram per file::

    longknot <name>
    O2+ V1 U2+ O1+ V1 U1+     # passes in traversal order

'#' starts a comment that runs to the end of its line (any line break
``str.splitlines`` knows).  Tokens are separated by ``str.isspace``
whitespace.  The first two are the word ``longknot`` and the name (any
token); every later token is one pass:

    pass  = ("O" | "U") id ("+" | "-")     over / under pass
          | "V" id                         virtual pass
    id    = one or more Unicode letters or digits (``str.isalnum``; no "_")

The letters O, U and V may be lower case.  Every classical crossing id
must appear exactly once as O and once as U with equal signs; every
virtual id exactly twice.  Classical and virtual ids are independent
namespaces.  A new arc starts after every under pass and after every
virtual pass, so arc count = unders + virtual passes + 1.

One walk goes from text to equations.  ``parse_diagram`` checks the
comment-free text with one compiled ``fullmatch`` of the grammar above
and splits it with ``str.split``; it finds the offset of a bad token
only when it rejects a text.  The pairing check then walks the pass
tokens once.  Along the way it records the arc count and, per classical
crossing, the over pass's arc and the crossing's class, and it emits the
equation t[x, y] = z, written (x, y, z, k), of every under and virtual
pass, k a table id of the biquandle's stack.  An early-under crossing's
over arc is filled in when its over pass arrives.  ``arcs`` hands that
record out read-only.  A parsed diagram builds its ``Pass`` tuples only
when ``passes`` is first read; ``LongDiagram(name, passes)`` writes each
pass as its token and runs the same walk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .biquandle import _F, _OP_NAMES


_TOKEN = re.compile(r"\S+")
# '#' up to, not including, the next line break of str.splitlines
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")
# the pass grammar: [^\W_] is exactly str.isalnum, \s exactly str.isspace
_PASS_FORMS = (r"[OoUu][^\W_]+[+-]", r"[Vv][^\W_]+")
_PASS = re.compile("|".join(_PASS_FORMS))
# a whole comment-free text; "\s+" leads each form, which matches faster
# than one group after it
_TEXT = re.compile(r"\s*longknot\s+\S+(?:%s)*\s*"
                   % "|".join(r"\s+" + form for form in _PASS_FORMS))


class PassKind(Enum):
    OVER = "O"
    UNDER = "U"
    VIRTUAL = "V"


class Pass(NamedTuple):
    kind: PassKind
    crossing_id: str
    sign: Optional[str]  # '+' or '-' for classical passes, None for virtual


class CrossingClass(Enum):
    EARLY_OVER = "EarlyOver"
    EARLY_UNDER = "EarlyUnder"


_VIRTUAL = PassKind.VIRTUAL
_EARLY_OVER, _EARLY_UNDER = CrossingClass.EARLY_OVER, CrossingClass.EARLY_UNDER
# the head letter of a pass token -> its kind
_KIND = {c: kind for kind in PassKind for c in (kind.value, kind.value.lower())}
_CIRC, _STAR = _OP_NAMES.index("circ"), _OP_NAMES.index("star")


class DiagramSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class PairingError(ValueError):
    """Crossing passes do not pair up correctly."""


@dataclass(frozen=True, slots=True)
class ArcAssignment:
    """The arc count of a diagram's passes, per classical crossing id the
    arc of its over pass and its class, and the equation of every under
    and virtual pass; read-only, made by the diagram's pairing walk and
    handed out by ``arcs``.

    Arcs are numbered 1..arc_count in traversal order: the k-th under or
    virtual pass runs from arc k to arc k + 1, and an over pass lies on
    the arc the traversal is on.  ``equations`` holds, in traversal
    order, t[x, y] = z as (x, y, z, k): an under pass is
    (in, over, out, k), k the table id of circ at an early-over crossing
    and of star at an early-under one; a virtual pass is f(x) = z as
    (x, x, z, 4), pulled back at the first visit, (out, out, in, 4), and
    pushed forward at the second, (in, in, out, 4).
    """

    arc_count: int
    over_arcs: Mapping[str, int] = field(repr=False, compare=False)
    classes: Mapping[str, CrossingClass] = field(repr=False, compare=False)
    equations: Tuple[tuple, ...] = field(repr=False, compare=False)


class LongDiagram:
    """A named sequence of passes in traversal order, pair-checked.

    Equality, hash and repr are over ``(name, passes)``, and the
    attributes are read-only.  A diagram holds its pass tokens and the
    record of their pairing walk.  ``LongDiagram(name, passes)`` writes
    each pass as its token and runs the walk ``parse_diagram`` runs; a
    parsed diagram builds its ``Pass`` tuple the first time ``passes``
    is read.  ``passes`` may be any iterable of passes; it is kept as a
    tuple.  Raises ValueError for a classical pass whose sign is not '+'
    or '-'.
    """

    __slots__ = ("name", "_tokens", "_passes", "_arcs")

    def __init__(self, name: str, passes: Tuple[Pass, ...]):
        passes = tuple(passes)
        for kind, cid, sign in passes:
            if kind is not _VIRTUAL and sign not in ("+", "-"):
                raise ValueError(
                    f"classical pass of crossing {cid!r} has sign {sign!r}, "
                    "not '+' or '-'")
        _fill(self, name, [_token(p) for p in passes], passes)

    @property
    def passes(self) -> Tuple[Pass, ...]:
        passes = self._passes
        if passes is None:
            passes = _passes(self._tokens)
            object.__setattr__(self, "_passes", passes)
        return passes

    @property
    def arc_count(self) -> int:
        return self._arcs.arc_count

    def has_virtual(self) -> bool:
        # every classical crossing has two passes; the rest are virtual
        return len(self._tokens) > 2 * len(self._arcs.classes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.passes) == (other.name, other.passes)

    def __hash__(self):
        return hash((self.name, self.passes))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(name={self.name!r}, "
                f"passes={self.passes!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor
        return self.__class__, (self.name, self.passes)


def _fill(d: LongDiagram, name: str, tokens: List[str],
          passes: Optional[Tuple[Pass, ...]]) -> LongDiagram:
    """Give ``d`` its name, its pass tokens, their pairing walk's record
    and its passes (None: built when read)."""
    arcs = _walk(tokens)
    setattr_ = object.__setattr__
    setattr_(d, "name", name)
    setattr_(d, "_tokens", tokens)
    setattr_(d, "_passes", passes)
    setattr_(d, "_arcs", arcs)
    return d


def _walk(tokens: List[str]) -> ArcAssignment:
    """The pairing walk over pass tokens that are already checked.

    Raise the first pairing error: a repeated pass in traversal order,
    then lonely classical ids, a sign mismatch, a virtual id passed once.
    Else return the tokens' arc assignment with the equation of every
    under and virtual pass, all recorded along the same walk."""
    overs: Dict[str, str] = {}
    unders: Dict[str, str] = {}
    virtuals: Dict[str, int] = {}
    over_arcs: Dict[str, int] = {}
    classes: Dict[str, CrossingClass] = {}
    # early-under crossing id -> the index of its equation, until its
    # over pass arrives
    waiting: Dict[str, int] = {}
    equations: List[Optional[tuple]] = []
    equation = equations.append
    # the k-th under or virtual pass runs from arc k to arc k + 1, and
    # its equation is equations[k - 1]
    arc = 1
    for tok in tokens:
        head = tok[0]
        if head in "Oo":
            cid = tok[1:-1]
            if cid in overs:
                raise PairingError(f"crossing {cid!r} has two over passes")
            overs[cid] = tok[-1]
            over_arcs[cid] = arc
            if waiting and cid in waiting:
                i = waiting.pop(cid)
                equations[i] = (i + 1, arc, i + 2, _STAR)
        elif head in "Uu":
            cid = tok[1:-1]
            if cid in unders:
                raise PairingError(f"crossing {cid!r} has two under passes")
            unders[cid] = tok[-1]
            over = over_arcs.get(cid)
            if over is None:
                classes[cid] = _EARLY_UNDER
                waiting[cid] = arc - 1
                equation(None)
            else:
                classes[cid] = _EARLY_OVER
                equation((arc, over, arc + 1, _CIRC))
            arc += 1
        else:
            cid = tok[1:]
            visits = virtuals.get(cid)
            if visits is None:
                virtuals[cid] = 1
                equation((arc + 1, arc + 1, arc, _F))
            elif visits == 1:
                virtuals[cid] = 2
                equation((arc, arc, arc + 1, _F))
            else:
                raise PairingError(
                    f"virtual crossing {cid!r} passed more than twice")
            arc += 1
    if overs != unders:
        if overs.keys() != unders.keys():
            lonely = sorted(overs.keys() ^ unders.keys())
            raise PairingError(
                f"classical crossing(s) missing an over or under pass: {lonely}")
        cid = next(c for c, s in overs.items() if s != unders[c])
        raise PairingError(
            f"crossing {cid!r} has mismatched signs "
            f"{overs[cid]!r} vs {unders[cid]!r}")
    if len(tokens) - 2 * len(overs) != 2 * len(virtuals):
        half = sorted(cid for cid, n in virtuals.items() if n != 2)
        raise PairingError(
            f"virtual crossing(s) not passed exactly twice: {half}")
    return ArcAssignment(arc_count=arc,
                         over_arcs=MappingProxyType(over_arcs),
                         classes=MappingProxyType(classes),
                         equations=tuple(equations))


def parse_diagram(text: str) -> LongDiagram:
    body = _COMMENT.sub("", text) if "#" in text else text
    if _TEXT.fullmatch(body) is None:
        raise _syntax_error(text)
    tokens = body.split()
    return _fill(object.__new__(LongDiagram), tokens[1], tokens[2:], None)


def _passes(tokens: List[str]) -> Tuple[Pass, ...]:
    """The passes of checked pass tokens."""
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    new, kind_of = tuple.__new__, _KIND.__getitem__
    return tuple(new(Pass, (_VIRTUAL, tok[1:], None)) if tok[0] in "Vv"
                 else new(Pass, (kind_of(tok[0]), tok[1:-1], tok[-1]))
                 for tok in tokens)


def _syntax_error(text: str) -> DiagramSyntaxError:
    """The error of a text ``parse_diagram`` rejects, at its offset."""
    # blank out comments with spaces, so offsets stay those of the text
    flat = _COMMENT.sub(lambda m: " " * len(m.group()), text)
    tokens = _tokenize(flat)
    if not tokens or tokens[0][0] != "longknot":
        pos = tokens[0][1] if tokens else 0
        return DiagramSyntaxError("expected header 'longknot <name>'", pos)
    if len(tokens) < 2:
        return DiagramSyntaxError("missing diagram name", len(flat))
    for tok, pos in tokens[2:]:
        if _PASS.fullmatch(tok) is None:
            return _pass_error(tok, pos)
    raise AssertionError(f"no syntax error in {text!r}")


def _tokenize(text: str) -> List[Tuple[str, int]]:
    return [(m.group(), m.start()) for m in _TOKEN.finditer(text)]


def _pass_error(tok: str, pos: int) -> DiagramSyntaxError:
    """Why ``tok``, which is not a pass token, is rejected."""
    head = tok[0].upper()
    if head not in ("O", "U", "V"):
        return DiagramSyntaxError(f"unknown pass token {tok!r}", pos)
    if head == "V":
        return DiagramSyntaxError(f"bad virtual token {tok!r}", pos)
    if tok[-1] not in "+-":
        return DiagramSyntaxError(
            f"classical token {tok!r} needs a trailing sign", pos)
    return DiagramSyntaxError(f"bad crossing id in {tok!r}", pos)


def _token(p: Pass) -> str:
    kind, cid, sign = p
    return f"V{cid}" if kind is _VIRTUAL else f"{kind.value}{cid}{sign}"


def serialize(d: LongDiagram) -> str:
    toks = [_token(p) for p in d.passes]
    body = " ".join(toks)
    return f"longknot {d.name}\n{body}\n" if toks else f"longknot {d.name}\n"


def classify(d: LongDiagram) -> Mapping[str, CrossingClass]:
    """EarlyOver iff the over pass precedes the under pass in traversal."""
    return arcs(d).classes


def arcs(d: LongDiagram) -> ArcAssignment:
    """Sequential arc indices 1..m; a new arc starts after U and V passes."""
    return d._arcs


# -- builtin diagrams ----------------------------------------------------------

# Frozen golden encodings, derived once by enumerating every
# two-classical/one-virtual traversal against the calibrated biquandle
# and keeping the pair that reproduces the reference arc chains.  The
# two texts have identical pass-multisets; the over/under order at each
# classical crossing is swapped between them.
_RIGHT_TREFOIL = "longknot right-trefoil\nO2+ V1 U2+ O1+ V1 U1+\n"
_LEFT_TREFOIL = "longknot left-trefoil\nU1+ V1 U2+ O1+ V1 O2+\n"


def builtin_trefoil(hand: str) -> LongDiagram:
    if hand == "right":
        return parse_diagram(_RIGHT_TREFOIL)
    if hand == "left":
        return parse_diagram(_LEFT_TREFOIL)
    raise ValueError(f"hand must be 'right' or 'left', got {hand!r}")
