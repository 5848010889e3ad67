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
rule and checks the program invariants in the same pass; `count_records`
and `read_program` are views over the two.

Commands are tuple records: the two moves are NamedTuples, and each of the
four commands without arguments is a `Word` holding its code, so words are
equal exactly when their codes are.
The planner writes every move in one of two canonical forms, `G1 X Y E F`
and `G0 X Y Z`.  `emit_text` renders each with one f-string, and `scan`
matches each line against one compiled regex per form; a line that matches
neither goes through the general parser, `_parse_line`.
"""

from __future__ import annotations

import logging
import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple

from .slicer import LayerPlan, contour_perimeter

log = logging.getLogger(__name__)


class GCodeError(ValueError):
    """Malformed G-code text or an invalid program.  `line` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RapidMove(NamedTuple):
    x: float | None = None
    y: float | None = None
    z: float | None = None


class LinearMove(NamedTuple):
    x: float | None = None
    y: float | None = None
    z: float | None = None
    e: float | None = None
    f: float | None = None


class Word(NamedTuple):
    """A command without arguments, named by its code."""

    code: str


G21, G90, G28, M2 = Word("G21"), Word("G90"), Word("G28"), Word("M2")

Command = RapidMove | LinearMove | Word

PROLOGUE: tuple[Command, ...] = (G21, G90, G28)


@dataclass(frozen=True)
class GCodeProgram:
    commands: tuple[Command, ...]


@dataclass(frozen=True)
class ToolpathParams:
    feed_rate: float = 1800.0       # mm/min for extruding moves
    extrusion_per_mm: float = 0.05  # filament mm per toolpath mm

    def __post_init__(self) -> None:
        # the planner writes F rounded to 5 decimals, and the reader wants it > 0
        if not (0.0 < self.feed_rate < math.inf and round(self.feed_rate, 5) > 0.0):
            raise ValueError("feed_rate must be finite and > 0 at 5 decimals")
        if not (0.0 < self.extrusion_per_mm < math.inf):
            raise ValueError("extrusion_per_mm must be finite and > 0")


# builds a record from its full field tuple, skipping the keyword __new__
_record = tuple.__new__


def plan_toolpath(layers: list[LayerPlan], p: ToolpathParams) -> GCodeProgram:
    """Perimeter toolpath: one rapid per contour, one extruding move per edge.

    Open contours are skipped with a logged warning.  All emitted values are
    quantized to 5 decimals, so the planned program reparses identically
    from its own text emission.  Raises ValueError when the running
    extrusion total overflows a double, which no reader would accept.
    """
    cmds: list[Command] = list(PROLOGUE)
    add = cmds.append
    hypot = math.hypot
    ratio = p.extrusion_per_mm
    e_total = 0.0
    feed = round(p.feed_rate, 5)
    for layer in layers:
        z = round(layer.z, 5)
        for ci, contour in enumerate(layer.contours):
            if not contour.closed:
                log.warning("skipping open contour %d on layer %d", ci, layer.index)
                continue
            # quantize to the dialect's 5-decimal grid
            pts = [(round(x, 5), round(y, 5)) for x, y in contour.vertices]
            px, py = pts[0]
            add(_record(RapidMove, (px, py, z)))
            pts.append(pts[0])
            for nx, ny in pts[1:]:
                e_total += hypot(nx - px, ny - py) * ratio
                add(_record(LinearMove, (nx, ny, None, round(e_total, 5), feed)))
                px, py = nx, ny
    if e_total == math.inf:
        raise ValueError("the extrusion total overflows a double")
    add(M2)
    return GCodeProgram(tuple(cmds))


def _emit_command(c: Command) -> str:
    kind = type(c)
    if kind is Word:
        return c.code
    parts = ["G0" if kind is RapidMove else "G1"]
    for name, v in zip(c._fields, c):
        if v is not None:
            parts.append(f"{name.upper()}{v:.5f}")
    return " ".join(parts)


def emit_text(prog: GCodeProgram) -> bytes:
    """Render to ASCII text, LF line endings, 5 decimal places.

    The planner's two move forms, `G1 X Y E F` and `G0 X Y Z`, each render
    through one f-string; any other command takes the generic path.
    """
    lines = []
    add = lines.append
    for c in prog.commands:
        kind = type(c)
        if kind is LinearMove:
            x, y, z, e, f = c
            if z is None and x is not None and y is not None and e is not None and f is not None:
                add(f"G1 X{x:.5f} Y{y:.5f} E{e:.5f} F{f:.5f}")
                continue
        elif kind is RapidMove:
            x, y, z = c
            if x is not None and y is not None and z is not None:
                add(f"G0 X{x:.5f} Y{y:.5f} Z{z:.5f}")
                continue
        add(_emit_command(c))
    return ("\n".join(lines) + "\n").encode("ascii")


_WORDS = {w.code: w for w in (G21, G90, G28, M2)}
_MOVE_KINDS = {"G0": RapidMove, "G1": LinearMove}


def _parse_line(line: str, line_no: int) -> Command | None:
    tokens = line.split(";", 1)[0].split()
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

    if head in _WORDS:
        if len(tokens) > 1:
            raise GCodeError(f"{head} takes no arguments", line_no)
        return _WORDS[head]
    if head not in _MOVE_KINDS:
        raise GCodeError(f"unknown G/M code {word!r}", line_no)

    kind = _MOVE_KINDS[head]
    allowed = kind._fields
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


# The planner's two line forms, as emitted.  At most 300 integer digits keep
# every value finite, so a match parses exactly as _parse_line would parse
# the line; any other line goes through _parse_line.
_NUMBER = r"(-?[0-9]{1,300}\.[0-9]+)"
_CANONICAL_G1 = re.compile(rf"G1 X{_NUMBER} Y{_NUMBER} E{_NUMBER} F{_NUMBER}\n?")
_CANONICAL_G0 = re.compile(rf"G0 X{_NUMBER} Y{_NUMBER} Z{_NUMBER}\n?")


def _split(data: bytes) -> tuple[list[str], bool]:
    """The dialect's one line rule: the lines of `data`, ends kept, and
    whether the text is ASCII (so a line's length is its byte length).

    Bytes that are not UTF-8 are kept as surrogate escapes, so offsets stay
    exact on damaged text.
    """
    text = data.decode("utf-8", "surrogateescape")
    return text.splitlines(keepends=True), text.isascii()


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
    lines, ascii_text = _split(data)
    g1, g0 = _CANONICAL_G1.fullmatch, _CANONICAL_G0.fullmatch
    start = 0
    for line_no, line in enumerate(lines, 1):
        end = start + (len(line) if ascii_text else len(line.encode("utf-8", "surrogateescape")))
        if m := g1(line):
            x, y, e, f = m.groups()
            item = _record(LinearMove, (float(x), float(y), None, float(e), float(f)))
        elif m := g0(line):
            x, y, z = m.groups()
            item = _record(RapidMove, (float(x), float(y), float(z)))
        else:
            try:
                item = _parse_line(line, line_no)
            except GCodeError as err:
                item = err
        yield start, end, item
        start = end


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
    invalid: GCodeError | None  # the first program invariant the commands break


def _command_error(i: int, cmd: RapidMove | LinearMove) -> GCodeError:
    """Why move `i` breaks the per-command invariants, given it breaks one."""
    for name, v in zip(cmd._fields, cmd):
        if v is not None and not math.isfinite(v):
            return GCodeError(f"command {i}: non-finite {name.upper()} value")
    if type(cmd) is LinearMove and cmd.f is not None and not (cmd.f > 0.0):
        return GCodeError(f"command {i}: feed rate must be > 0")
    return GCodeError(f"command {i}: extrusion decreased")


def fold(lines: Iterable[Line], tolerant: bool = False) -> Reading:
    """Fold scanned lines into commands, print layers and path totals.

    A move command that changes the current z starts a new layer; extruding
    distance before the first z change (the planner emits none) counts in
    the path totals but in no layer.  A strict fold stops at the first bad
    line, keeping what came before it; a tolerant fold skips bad lines.

    The same pass checks the program invariants over the commands it keeps:
    the G21, G90, G28 prologue, one M2 and only at the end, finite move
    values, feed rates above 0 and extrusion that never decreases.  The
    first one broken is `Reading.invalid`.
    """
    sqrt, isfinite = math.sqrt, math.isfinite
    x = y = z = 0.0
    travel = extruded = 0.0
    commands: list[Command] = []
    add = commands.append
    layers: list[Layer] = []
    current: list | None = None  # [z, extruded, start_offset, end_offset]
    error = None
    last_e = 0.0
    ends = 0  # M2 commands kept
    broken = None  # the first move that breaks a per-command invariant
    for start, end, cmd in lines:
        kind = type(cmd)
        if kind is LinearMove:
            nx, ny, nz, e, f = cmd
        elif kind is RapidMove:
            nx, ny, nz = cmd
            e = f = None
        elif cmd is None:
            continue
        elif isinstance(cmd, GCodeError):
            if tolerant:
                continue
            error = cmd
            break
        else:
            add(cmd)
            if cmd == G28:
                x = y = z = 0.0
            elif cmd == M2:
                ends += 1
            continue
        add(cmd)
        if nx is None:
            nx = x
        if ny is None:
            ny = y
        if nz is None:
            nz = z
        if nz != z:
            if current is not None:
                layers.append(Layer(len(layers), *current))
            current = [nz, 0.0, start, end]
        try:
            d = sqrt((nx - x) ** 2 + (ny - y) ** 2 + (nz - z) ** 2)
        except OverflowError:  # a finite move too long to square
            d = math.hypot(nx - x, ny - y, nz - z)
        if kind is RapidMove:
            travel += d
        else:
            extruded += d
            if current is not None:
                current[1] += d
        if current is not None:
            current[3] = end
        # while no move has broken an invariant, x, y and z are finite, so
        # testing the new position tests the values this move gives
        if broken is None:
            if not (
                isfinite(nx) and isfinite(ny) and isfinite(nz)
                and (e is None or (isfinite(e) and e >= last_e))
                and (f is None or (isfinite(f) and f > 0.0))
            ):
                broken = _command_error(len(commands) - 1, cmd)
            elif e is not None:
                last_e = e
        x, y, z = nx, ny, nz
    if current is not None:
        layers.append(Layer(len(layers), *current))
    return Reading(tuple(commands), tuple(layers), travel, extruded, error,
                   _invalid(commands, ends, broken))


def _invalid(commands: list[Command], ends: int, broken: GCodeError | None) -> GCodeError | None:
    """The first program invariant broken, in the order they are checked."""
    if len(commands) < 4 or tuple(commands[:3]) != PROLOGUE:
        return GCodeError("program must begin with G21, G90, G28")
    if commands[-1] != M2:
        return GCodeError("program must end with M2")
    if ends > 1:
        return GCodeError("M2 before end of program")
    return broken


def read_program(prog: GCodeProgram, text: bytes) -> Reading:
    """`fold(scan(text))` for `text == emit_text(prog)`, without parsing `text`:
    each planned command is one LF-ended line that reparses to an equal
    command, so the commands are folded at the line offsets of `text`."""
    ends = list(accumulate(map(len, text.splitlines(keepends=True))))
    return fold(zip(chain((0,), ends), ends, prog.commands))


def count_records(text: bytes) -> int:
    """Record count: lines that hold code, whether or not it parses.

    These are the lines, under the same line rule, whose `scan` item is not
    None: their first character that is not whitespace is not `;`.

    For well-formed dialect text this equals the parsed command count; it is
    the record definition used when wrapping toolpaths in an integrity
    envelope, so the printer can cross-check the declared count.
    """
    lines, _ = _split(text)
    stripped = list(map(str.lstrip, lines))
    return len(stripped) - stripped.count("") - sum(s.startswith(";") for s in stripped)


def intended_perimeters(layers: list[LayerPlan]) -> list[float]:
    """Per-layer closed-contour perimeter sums for layers the planner prints."""
    sums = [
        sum(contour_perimeter(c) for c in lp.contours if c.closed)
        for lp in layers
    ]
    return [s for s in sums if s > 0.0]
