"""Long virtual knot diagrams as traversal sequences of crossing passes.

The text format is one diagram per file::

    longknot <name>
    O2+ V1 U2+ O1+ V1 U1+     # passes in traversal order

Tokens are "O<id><sign>" (over pass), "U<id><sign>" (under pass) and
"V<id>" (virtual pass); '#' starts a comment.  Every classical crossing
id must appear exactly once as O and once as U with equal signs; every
virtual id exactly twice.  Classical and virtual ids are independent
namespaces.  A new arc starts after every under pass and after every
virtual pass, so arc count = unders + virtual passes + 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple


_TOKEN = re.compile(r"\S+")


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


class DiagramSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class PairingError(ValueError):
    """Crossing passes do not pair up correctly."""


@dataclass(frozen=True)
class LongDiagram:
    name: str
    passes: Tuple[Pass, ...]

    def __post_init__(self):
        _check_pairing(self.passes)

    @property
    def arc_count(self) -> int:
        breaks = sum(1 for p in self.passes if p.kind is not PassKind.OVER)
        return breaks + 1

    def virtual_ids(self) -> List[str]:
        seen = []
        for p in self.passes:
            if p.kind is PassKind.VIRTUAL and p.crossing_id not in seen:
                seen.append(p.crossing_id)
        return seen

    def has_virtual(self) -> bool:
        return any(p.kind is PassKind.VIRTUAL for p in self.passes)


def _check_pairing(passes: Tuple[Pass, ...]) -> None:
    overs: Dict[str, Pass] = {}
    unders: Dict[str, Pass] = {}
    virtuals: Dict[str, int] = {}
    for p in passes:
        if p.kind is PassKind.VIRTUAL:
            virtuals[p.crossing_id] = virtuals.get(p.crossing_id, 0) + 1
            if virtuals[p.crossing_id] > 2:
                raise PairingError(
                    f"virtual crossing {p.crossing_id!r} passed more than twice")
        elif p.kind is PassKind.OVER:
            if p.crossing_id in overs:
                raise PairingError(
                    f"crossing {p.crossing_id!r} has two over passes")
            overs[p.crossing_id] = p
        else:
            if p.crossing_id in unders:
                raise PairingError(
                    f"crossing {p.crossing_id!r} has two under passes")
            unders[p.crossing_id] = p
    if set(overs) != set(unders):
        lonely = sorted(set(overs) ^ set(unders))
        raise PairingError(
            f"classical crossing(s) missing an over or under pass: {lonely}")
    for cid, po in overs.items():
        if po.sign != unders[cid].sign:
            raise PairingError(
                f"crossing {cid!r} has mismatched signs "
                f"{po.sign!r} vs {unders[cid].sign!r}")
    half = [cid for cid, cnt in virtuals.items() if cnt != 2]
    if half:
        raise PairingError(
            f"virtual crossing(s) not passed exactly twice: {sorted(half)}")


def parse_diagram(text: str) -> LongDiagram:
    stripped = []
    for line in text.splitlines(keepends=True):
        body = line.split("#", 1)[0]
        # keep byte offsets stable: pad stripped comments with spaces
        stripped.append(body + " " * (len(line) - len(body)))
    flat = "".join(stripped)

    tokens = _tokenize(flat)
    if not tokens or tokens[0][0] != "longknot":
        pos = tokens[0][1] if tokens else 0
        raise DiagramSyntaxError("expected header 'longknot <name>'", pos)
    if len(tokens) < 2:
        raise DiagramSyntaxError("missing diagram name", len(flat))
    name = tokens[1][0]
    passes = [_parse_pass(tok, pos) for tok, pos in tokens[2:]]
    return LongDiagram(name=name, passes=tuple(passes))


def _tokenize(text: str) -> List[Tuple[str, int]]:
    return [(m.group(), m.start()) for m in _TOKEN.finditer(text)]


def _parse_pass(tok: str, pos: int) -> Pass:
    head = tok[0].upper()
    if head not in ("O", "U", "V"):
        raise DiagramSyntaxError(f"unknown pass token {tok!r}", pos)
    if head == "V":
        cid = tok[1:]
        if not cid or not cid.isalnum():
            raise DiagramSyntaxError(f"bad virtual token {tok!r}", pos)
        return Pass(PassKind.VIRTUAL, cid, None)
    if len(tok) < 3 or tok[-1] not in "+-":
        raise DiagramSyntaxError(
            f"classical token {tok!r} needs a trailing sign", pos)
    cid = tok[1:-1]
    if not cid or not cid.isalnum():
        raise DiagramSyntaxError(f"bad crossing id in {tok!r}", pos)
    kind = PassKind.OVER if head == "O" else PassKind.UNDER
    return Pass(kind, cid, tok[-1])


def serialize(d: LongDiagram) -> str:
    toks = []
    for p in d.passes:
        if p.kind is PassKind.VIRTUAL:
            toks.append(f"V{p.crossing_id}")
        else:
            toks.append(f"{p.kind.value}{p.crossing_id}{p.sign}")
    body = " ".join(toks)
    return f"longknot {d.name}\n{body}\n" if toks else f"longknot {d.name}\n"


def classify(d: LongDiagram) -> Dict[str, CrossingClass]:
    """EarlyOver iff the over pass precedes the under pass in traversal."""
    out: Dict[str, CrossingClass] = {}
    for p in d.passes:
        if p.kind is PassKind.VIRTUAL or p.crossing_id in out:
            continue
        out[p.crossing_id] = (CrossingClass.EARLY_OVER
                              if p.kind is PassKind.OVER
                              else CrossingClass.EARLY_UNDER)
    return out


class ArcStep(NamedTuple):
    pass_: Pass
    incoming_arc: int
    outgoing_arc: int  # equals incoming_arc for over passes


@dataclass(frozen=True)
class ArcAssignment:
    steps: Tuple[ArcStep, ...]
    arc_count: int
    _over_arcs: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # crossing id -> arc of its (first, hence reversed) over pass
        over_arcs = {s.pass_.crossing_id: s.incoming_arc
                     for s in reversed(self.steps)
                     if s.pass_.kind is PassKind.OVER}
        object.__setattr__(self, "_over_arcs", over_arcs)

    def over_arc(self, crossing_id: str) -> int:
        return self._over_arcs[crossing_id]


def arcs(d: LongDiagram) -> ArcAssignment:
    """Sequential arc indices 1..m; a new arc starts after U and V passes."""
    arc = 1
    steps = []
    for p in d.passes:
        if p.kind is PassKind.OVER:
            steps.append(ArcStep(p, arc, arc))
        else:
            steps.append(ArcStep(p, arc, arc + 1))
            arc += 1
    return ArcAssignment(steps=tuple(steps), arc_count=arc)


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
