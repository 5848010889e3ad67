"""Minimal G-code dialect: planning, emission, parsing, and measurement.

Six commands only: G0 (rapid), G1 (linear+extrude), G21, G90, G28, M2.
Positioning and extrusion are absolute; numbers are emitted with exactly
5 decimal places, and the planner quantizes to the same grid so emitted
programs reparse to equal values.

Text is read by one line rule: the bytes are decoded as UTF-8 and split
where `str.splitlines` splits, so VT, FF, FS, GS, RS, NEL, LS and PS end a
line as LF, CR and CRLF do.  `;` starts a comment that runs to the end of
its line.  A record is a line that still holds code once its comment and
surrounding whitespace are removed; each record is one command.  `scan`
applies the line rule and parses each line, and `fold` applies the layer
rule; `parse_text`, `count_records` and `path_length` are views over the
two.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .slicer import LayerPlan, contour_perimeter

log = logging.getLogger(__name__)


class GCodeError(ValueError):
    """Malformed G-code text or an invalid program.  `line` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class RapidMove:
    x: float | None = None
    y: float | None = None
    z: float | None = None


@dataclass(frozen=True)
class LinearMove:
    x: float | None = None
    y: float | None = None
    z: float | None = None
    e: float | None = None
    f: float | None = None


@dataclass(frozen=True)
class UseMillimeters:
    pass


@dataclass(frozen=True)
class AbsolutePositioning:
    pass


@dataclass(frozen=True)
class Home:
    pass


@dataclass(frozen=True)
class ProgramEnd:
    pass


Command = RapidMove | LinearMove | UseMillimeters | AbsolutePositioning | Home | ProgramEnd

PROLOGUE: tuple[Command, ...] = (UseMillimeters(), AbsolutePositioning(), Home())


@dataclass(frozen=True)
class GCodeProgram:
    commands: tuple[Command, ...]


@dataclass(frozen=True)
class ToolpathParams:
    feed_rate: float = 1800.0       # mm/min for extruding moves
    extrusion_per_mm: float = 0.05  # filament mm per toolpath mm

    def __post_init__(self) -> None:
        for name in ("feed_rate", "extrusion_per_mm"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be > 0")


def check_program(prog: GCodeProgram) -> None:
    """Raise GCodeError unless the program satisfies its invariants."""
    cmds = prog.commands
    if len(cmds) < 4 or cmds[:3] != PROLOGUE:
        raise GCodeError("program must begin with G21, G90, G28")
    if not isinstance(cmds[-1], ProgramEnd):
        raise GCodeError("program must end with M2")
    if any(isinstance(c, ProgramEnd) for c in cmds[:-1]):
        raise GCodeError("M2 before end of program")
    last_e = 0.0
    for i, c in enumerate(cmds):
        if isinstance(c, (RapidMove, LinearMove)):
            for name in _FIELD_ORDER[type(c)]:
                v = getattr(c, name)
                if v is not None and not math.isfinite(v):
                    raise GCodeError(f"command {i}: non-finite {name.upper()} value")
        if isinstance(c, LinearMove):
            if c.f is not None and not (c.f > 0.0):
                raise GCodeError(f"command {i}: feed rate must be > 0")
            if c.e is not None:
                if c.e < last_e:
                    raise GCodeError(f"command {i}: extrusion decreased")
                last_e = c.e


def _q(v: float) -> float:
    # quantize to the dialect's 5-decimal grid
    return round(v, 5)


def plan_toolpath(layers: list[LayerPlan], p: ToolpathParams) -> GCodeProgram:
    """Perimeter toolpath: one rapid per contour, one extruding move per edge.

    Open contours are skipped with a logged warning.  All emitted values are
    quantized to 5 decimals, so the planned program reparses identically
    from its own text emission.
    """
    cmds: list[Command] = list(PROLOGUE)
    e_total = 0.0
    feed = _q(p.feed_rate)
    for layer in layers:
        z = _q(layer.z)
        for ci, contour in enumerate(layer.contours):
            if not contour.closed:
                log.warning("skipping open contour %d on layer %d", ci, layer.index)
                continue
            pts = [(_q(x), _q(y)) for x, y in contour.vertices]
            cmds.append(RapidMove(x=pts[0][0], y=pts[0][1], z=z))
            prev = pts[0]
            for nxt in pts[1:] + [pts[0]]:
                e_total += math.hypot(nxt[0] - prev[0], nxt[1] - prev[1]) * p.extrusion_per_mm
                cmds.append(LinearMove(x=nxt[0], y=nxt[1], e=_q(e_total), f=feed))
                prev = nxt
    cmds.append(ProgramEnd())
    return GCodeProgram(tuple(cmds))


_FIELD_ORDER = {
    RapidMove: ("x", "y", "z"),
    LinearMove: ("x", "y", "z", "e", "f"),
}
_PLAIN_WORDS = {
    UseMillimeters: "G21",
    AbsolutePositioning: "G90",
    Home: "G28",
    ProgramEnd: "M2",
}


def emit_text(prog: GCodeProgram) -> bytes:
    """Render to ASCII text, LF line endings, 5 decimal places."""
    lines = []
    for c in prog.commands:
        kind = type(c)
        if kind in _PLAIN_WORDS:
            lines.append(_PLAIN_WORDS[kind])
            continue
        word = "G0" if isinstance(c, RapidMove) else "G1"
        parts = [word]
        for name in _FIELD_ORDER[kind]:
            v = getattr(c, name)
            if v is not None:
                parts.append(f"{name.upper()}{v:.5f}")
        lines.append(" ".join(parts))
    return ("\n".join(lines) + "\n").encode("ascii")


_PLAIN_COMMANDS = {word: kind() for kind, word in _PLAIN_WORDS.items()}
_MOVE_KINDS = {"G0": RapidMove, "G1": LinearMove}


def _words(line: str) -> list[str]:
    # a line is a record when this is non-empty
    return line.split(";", 1)[0].split()


def _parse_line(line: str, line_no: int) -> Command | None:
    tokens = _words(line)
    if not tokens:
        return None
    word = tokens[0]
    head = word.upper()
    if len(head) < 2 or head[0] not in "GM":
        raise GCodeError(f"unknown word {word!r}", line_no)
    try:
        number = int(head[1:])
    except ValueError:
        raise GCodeError(f"malformed number {head[1:]!r} in word {word!r}", line_no) from None
    head = f"{head[0]}{number}"

    if head in _PLAIN_COMMANDS:
        if len(tokens) > 1:
            raise GCodeError(f"{head} takes no arguments", line_no)
        return _PLAIN_COMMANDS[head]
    if head not in _MOVE_KINDS:
        raise GCodeError(f"unknown G/M code {word!r}", line_no)

    kind = _MOVE_KINDS[head]
    allowed = _FIELD_ORDER[kind]
    fields: dict[str, float] = {}
    for token in tokens[1:]:
        name = token[0].lower()
        if name not in allowed:
            raise GCodeError(f"unknown word {token!r} for {head}", line_no)
        if name in fields:
            raise GCodeError(f"duplicate word {name.upper()} on one line", line_no)
        body = token[1:]
        try:
            value = float(body)
        except ValueError:
            raise GCodeError(f"malformed number {body!r} in word {token!r}", line_no) from None
        if not math.isfinite(value):
            raise GCodeError(f"non-finite number {body!r} in word {token!r}", line_no)
        fields[name] = value
    return kind(**fields)


def _lines(data: bytes) -> Iterator[tuple[int, int, str]]:
    """The dialect's one line rule: (start_byte, end_byte, line) per line.

    Bytes that are not UTF-8 are kept as surrogate escapes, so offsets stay
    exact on damaged text.
    """
    text = data.decode("utf-8", "surrogateescape")
    ascii_text = text.isascii()
    start = 0
    for line in text.splitlines(keepends=True):
        end = start + (len(line) if ascii_text else len(line.encode("utf-8", "surrogateescape")))
        yield start, end, line
        start = end


Line = tuple[int, int, Command | GCodeError | None]


def scan(data: bytes) -> Iterator[Line]:
    """Yield (start_byte, end_byte, item) for each line of dialect text.

    `item` is the line's command, the GCodeError that rejects the line, or
    None for a blank or comment-only line.  Text that is not valid UTF-8
    first yields one zero-width error at offset 0 (line None), so a strict
    reader rejects it before any line.
    """
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            yield 0, 0, GCodeError(f"not valid UTF-8 text: {exc}")
    for line_no, (start, end, line) in enumerate(_lines(data), 1):
        try:
            item = _parse_line(line, line_no)
        except GCodeError as err:
            item = err
        yield start, end, item


@dataclass(frozen=True)
class Layer:
    index: int
    z: float
    extruded_mm: float
    start_offset: int  # byte offset of the line that changes z
    end_offset: int    # byte offset just past the layer's last move line


@dataclass(frozen=True)
class Reading:
    commands: tuple[Command, ...]
    layers: tuple[Layer, ...]
    travel_mm: float           # Euclidean G0 distance from the origin
    extruded_mm: float         # Euclidean G1 distance from the origin
    error: GCodeError | None   # the first bad line of a strict fold


def fold(lines: Iterable[Line], tolerant: bool = False) -> Reading:
    """Fold scanned lines into commands, print layers and path totals.

    A move command that changes the current z starts a new layer; extruding
    distance before the first z change (the planner emits none) counts in
    the path totals but in no layer.  A strict fold stops at the first bad
    line, keeping what came before it; a tolerant fold skips bad lines.
    """
    x = y = z = 0.0
    travel = extruded = 0.0
    commands: list[Command] = []
    layers: list[Layer] = []
    current: list | None = None  # [z, extruded, start_offset, end_offset]
    error = None
    for start, end, cmd in lines:
        if cmd is None:
            continue
        if isinstance(cmd, GCodeError):
            if tolerant:
                continue
            error = cmd
            break
        commands.append(cmd)
        if isinstance(cmd, Home):
            x = y = z = 0.0
        elif isinstance(cmd, (RapidMove, LinearMove)):
            nx = cmd.x if cmd.x is not None else x
            ny = cmd.y if cmd.y is not None else y
            nz = cmd.z if cmd.z is not None else z
            if nz != z:
                if current is not None:
                    layers.append(Layer(len(layers), *current))
                current = [nz, 0.0, start, end]
            d = math.sqrt((nx - x) ** 2 + (ny - y) ** 2 + (nz - z) ** 2)
            if isinstance(cmd, RapidMove):
                travel += d
            else:
                extruded += d
                if current is not None:
                    current[1] += d
            if current is not None:
                current[3] = end
            x, y, z = nx, ny, nz
    if current is not None:
        layers.append(Layer(len(layers), *current))
    return Reading(tuple(commands), tuple(layers), travel, extruded, error)


def parse_text(data: bytes) -> GCodeProgram:
    """Parse dialect text strictly; raise GCodeError for the first bad line."""
    reading = fold(scan(data))
    if reading.error is not None:
        raise reading.error
    return GCodeProgram(reading.commands)


def path_length(prog: GCodeProgram) -> Reading:
    """Euclidean travel (G0) and extruded (G1) distances from the origin.

    They are the `travel_mm` and `extruded_mm` of the program's fold.
    """
    return fold((0, 0, c) for c in prog.commands)


def count_records(text: bytes) -> int:
    """Record count: lines that hold code, whether or not it parses.

    Each such line is one item of `scan` that is not None.

    For well-formed dialect text this equals the parsed command count; it is
    the record definition used when wrapping toolpaths in an integrity
    envelope, so the printer can cross-check the declared count.
    """
    return sum(1 for _, _, line in _lines(text) if _words(line))


def intended_perimeters(layers: list[LayerPlan]) -> list[float]:
    """Per-layer closed-contour perimeter sums for layers the planner prints."""
    sums = [
        sum(contour_perimeter(c) for c in lp.contours if c.closed)
        for lp in layers
    ]
    return [s for s in sums if s > 0.0]
