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

Each stage walks the passes once: ``parse_diagram`` checks and builds
each pass token in one loop (a head-letter lookup, the sign, then
``str.isalnum`` on the id), and finds the offset of a bad token only
when it rejects a text; the pairing check every ``LongDiagram`` makes
records, along the same walk, the arc count and, per classical crossing,
the over pass's arc and the crossing's class, with no per-pass record.
``arcs`` hands that record out read-only, without a walk of its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple


_TOKEN = re.compile(r"\S+")
# '#' up to, not including, the next line break of str.splitlines
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


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


_OVER, _UNDER, _VIRTUAL = PassKind.OVER, PassKind.UNDER, PassKind.VIRTUAL
_EARLY_OVER, _EARLY_UNDER = CrossingClass.EARLY_OVER, CrossingClass.EARLY_UNDER
# the head letter of a pass token -> its kind
_KIND = {"O": _OVER, "o": _OVER, "U": _UNDER, "u": _UNDER,
         "V": _VIRTUAL, "v": _VIRTUAL}


class DiagramSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class PairingError(ValueError):
    """Crossing passes do not pair up correctly."""


@dataclass(frozen=True, slots=True)
class ArcAssignment:
    """The arc count of a diagram's passes, and per classical crossing id
    the arc of its over pass and its class; read-only, made by the
    diagram's pairing check and handed out by ``arcs``.

    Arcs are numbered 1..arc_count in traversal order: the k-th under or
    virtual pass runs from arc k to arc k + 1, and an over pass lies on
    the arc the traversal is on.
    """

    arc_count: int
    over_arcs: Mapping[str, int] = field(repr=False, compare=False)
    classes: Mapping[str, CrossingClass] = field(repr=False, compare=False)


@dataclass(frozen=True)
class LongDiagram:
    name: str
    passes: Tuple[Pass, ...]
    _arcs: ArcAssignment = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_arcs", _pair_passes(self.passes))

    @property
    def arc_count(self) -> int:
        return self._arcs.arc_count

    def has_virtual(self) -> bool:
        # every classical crossing has two passes; the rest are virtual
        return len(self.passes) > 2 * len(self._arcs.classes)


def _pair_passes(passes: Tuple[Pass, ...]) -> ArcAssignment:
    """Raise the first pairing error: a repeated pass in traversal order,
    then lonely classical ids, a sign mismatch, a virtual id passed once.
    Else return the passes' arc assignment, recorded along the same walk."""
    overs: Dict[str, str] = {}
    unders: Dict[str, str] = {}
    virtuals: Dict[str, int] = {}
    over_arcs: Dict[str, int] = {}
    classes: Dict[str, CrossingClass] = {}
    arc = 1
    for kind, cid, sign in passes:
        if kind is _OVER:
            if cid in overs:
                raise PairingError(f"crossing {cid!r} has two over passes")
            overs[cid] = sign
            over_arcs[cid] = arc
            continue
        arc += 1
        if kind is _UNDER:
            if cid in unders:
                raise PairingError(f"crossing {cid!r} has two under passes")
            unders[cid] = sign
            classes[cid] = _EARLY_OVER if cid in overs else _EARLY_UNDER
        elif cid in virtuals:
            if virtuals[cid] == 2:
                raise PairingError(
                    f"virtual crossing {cid!r} passed more than twice")
            virtuals[cid] = 2
        else:
            virtuals[cid] = 1
    if overs != unders:
        if overs.keys() != unders.keys():
            lonely = sorted(overs.keys() ^ unders.keys())
            raise PairingError(
                f"classical crossing(s) missing an over or under pass: {lonely}")
        cid = next(c for c, s in overs.items() if s != unders[c])
        raise PairingError(
            f"crossing {cid!r} has mismatched signs "
            f"{overs[cid]!r} vs {unders[cid]!r}")
    if len(passes) - 2 * len(overs) != 2 * len(virtuals):
        half = sorted(cid for cid, n in virtuals.items() if n != 2)
        raise PairingError(
            f"virtual crossing(s) not passed exactly twice: {half}")
    return ArcAssignment(arc_count=arc,
                         over_arcs=MappingProxyType(over_arcs),
                         classes=MappingProxyType(classes))


def parse_diagram(text: str) -> LongDiagram:
    tokens = (_COMMENT.sub("", text) if "#" in text else text).split()
    if len(tokens) >= 2 and tokens[0] == "longknot":
        passes = _passes(tokens[2:])
        if len(passes) == len(tokens) - 2:
            return LongDiagram(name=tokens[1], passes=tuple(passes))
    raise _syntax_error(text)


def _passes(tokens: List[str]) -> List[Pass]:
    """The passes the tokens spell, up to the first token that is not a
    pass token."""
    passes = []
    append, kind_of, new, virtual = (passes.append, _KIND.get,
                                     tuple.__new__, _VIRTUAL)
    for tok in tokens:
        kind = kind_of(tok[0])
        if kind is virtual:
            cid, sign = tok[1:], None
        elif kind is None:
            break
        else:
            cid, sign = tok[1:-1], tok[-1]
            if sign not in "+-":
                break
        if not cid.isalnum():
            break
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        append(new(Pass, (kind, cid, sign)))
    return passes


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
    rest = tokens[2:]
    good = len(_passes([tok for tok, _ in rest]))
    if good < len(rest):
        return _pass_error(*rest[good])
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


def serialize(d: LongDiagram) -> str:
    toks = []
    for p in d.passes:
        if p.kind is PassKind.VIRTUAL:
            toks.append(f"V{p.crossing_id}")
        else:
            toks.append(f"{p.kind.value}{p.crossing_id}{p.sign}")
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
