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
rule and checks the program invariants in the same pass, stopping at the
first bad line; `read_program` is a view over the two.  A sender reads its
text once: an envelope declares that reading's command count.

A `Reading` holds what a printer reads: the commands, the layers (each
with the G1 distance it extrudes) and the errors; `extruded_mm` measures a
whole program's G1 path from its commands.  At the start of each layer
`fold` records its whole state, its counts, position and last E, as a
`Checkpoint` on the `Reading`: the golden-run snapshots of fault-injection
tools (Schirmeier et al., FAIL*, EDCC 2015).  `resume` reads a damaged copy
of a text from the last checkpoint before its first differing byte, and
stops early once its state matches the pristine reading's again at a layer
start past the damage, with the rest of the bytes equal (GangES, Hari et
al., ISCA 2014), so a fault that moves one point but no layer's last
position is read only up to the next layer start.  The result equals
`fold(scan(payload))` field by field.

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
import struct
from bisect import bisect_left
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


class GCodeProgram(NamedTuple):
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


def _utf8_error(data: bytes) -> UnicodeDecodeError | None:
    """Why `data` is not UTF-8 text, or None when it is."""
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            return exc.with_traceback(None)  # its frame holds `data`
    return None


Line = tuple[int, int, Command | GCodeError | None]


def scan(data: bytes, offset: int = 0, first_line: int = 1) -> Iterator[Line]:
    """Yield (start_byte, end_byte, item) for each line of dialect text.

    `item` is the line's command, the GCodeError that rejects the line, or
    None for a blank or comment-only line.  Text that is not valid UTF-8
    first yields one zero-width error at its first offset (line None), so a
    strict reader rejects it before any line.  `data` may be the tail of a
    longer text, starting at its byte `offset` and its line `first_line`.
    """
    if (exc := _utf8_error(data)) is not None:
        yield offset, offset, GCodeError(f"not valid UTF-8 text: {exc}")
    # bytes that are not UTF-8 are kept as surrogate escapes, so offsets stay
    # exact on damaged text; on ASCII text a line's length is its byte length
    text = data.decode("utf-8", "surrogateescape")
    ascii_text = text.isascii()
    g1, g0 = _CANONICAL_G1.fullmatch, _CANONICAL_G0.fullmatch
    start = offset
    for line_no, line in enumerate(text.splitlines(keepends=True), first_line):
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
                # the traceback and the ValueError behind it hold this
                # generator's frame, and so its text and lines, in cycles
                err.__context__ = None
                item = err.with_traceback(None)
        yield start, end, item
        start = end


class Layer(NamedTuple):
    index: int
    z: float
    extruded_mm: float
    start_offset: int  # byte offset of the line that changes z
    end_offset: int    # byte offset just past the layer's last move line


class Checkpoint(NamedTuple):
    """The fold's state at the start of a layer, before the line that changes z."""

    offset: int                   # byte offset of that line
    line: int                     # its 1-based line number
    commands: int                 # commands kept before it
    layers: int                   # layers begun before it, the last one still open
    ends: int                     # M2 commands kept before it
    broken: GCodeError | None     # the first move before it that breaks an invariant
    x: float
    y: float
    z: float
    last_e: float                 # the last E of a move that broke no invariant
    open: tuple[float, float, int, int] | None  # that layer: z, extruded, start, end


# the state before the first line
_START = Checkpoint(0, 1, 0, 0, 0, None, 0.0, 0.0, 0.0, 0.0, None)
# x, y, z and last_e, as bits: -0.0 is a state apart from 0.0
_FLOAT_BITS = struct.Struct("<4d").pack


class Reading(NamedTuple):
    commands: tuple[Command, ...]
    layers: tuple[Layer, ...]
    error: GCodeError | None   # the first bad line of a strict fold
    invalid: GCodeError | None  # the first program invariant the commands break
    checkpoints: tuple[Checkpoint, ...]  # one per layer, in order


def _command_error(i: int, cmd: RapidMove | LinearMove) -> GCodeError:
    """Why move `i` breaks the per-command invariants, given it breaks one."""
    for name, v in zip(cmd._fields, cmd):
        if v is not None and not math.isfinite(v):
            return GCodeError(f"command {i}: non-finite {name.upper()} value")
    if type(cmd) is LinearMove and cmd.f is not None and not (cmd.f > 0.0):
        return GCodeError(f"command {i}: feed rate must be > 0")
    return GCodeError(f"command {i}: extrusion decreased")


def fold(lines: Iterable[Line]) -> Reading:
    """Fold scanned lines into commands and print layers.

    A move command that changes the current z starts a new layer, and each
    layer measures the G1 distance it extrudes; extruding before the first
    z change (the planner emits none) counts in no layer, and rapid moves
    are not measured.  The fold stops at the first bad line,
    keeping what came before it: a streaming printer cannot print past a
    line it cannot parse.

    The same pass checks the program invariants over the commands it keeps:
    the G21, G90, G28 prologue, one M2 and only at the end, finite move
    values, feed rates above 0 and extrusion that never decreases.  The
    first one broken is `Reading.invalid`.  Each layer start records the
    fold's state before its line in `Reading.checkpoints`.
    """
    return _fold(lines, _NOTHING, _START)


def _fold(
    lines: Iterable[Line],
    prior: Reading,
    origin: Checkpoint,
    shift: int = 0,
    same_from: float = math.inf,
) -> Reading:
    """`fold` from `origin`, `_START` or a checkpoint of `prior`, over the
    lines from its offset on; what came before is taken from `prior`.

    At a layer start at or past byte `same_from`, a state equal to the one
    `prior` recorded `shift` bytes earlier ends the fold: the rest is
    `prior`'s (see `resume`).
    """
    sqrt, isfinite = math.sqrt, math.isfinite
    _, line, kept, begun, ends, broken, x, y, z, last_e, current = origin
    commands: list[Command] = list(prior.commands[:kept])
    add = commands.append
    checkpoints = list(prior.checkpoints[:begun])
    if current is not None:  # [z, extruded, start_offset, end_offset]
        current = list(current)
        begun -= 1
    layers: list[Layer] = list(prior.layers[:begun])
    skipped = line - 1 - kept  # lines read that hold no kept command
    error = None
    for start, end, cmd in lines:
        kind = type(cmd)
        if kind is LinearMove:
            nx, ny, nz, e, f = cmd
        elif kind is RapidMove:
            nx, ny, nz = cmd
            e = f = None
        elif cmd is None:
            skipped += 1
            continue
        elif isinstance(cmd, GCodeError):
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
            here = _record(Checkpoint, (
                start, len(commands) + skipped, len(commands) - 1, len(checkpoints), ends, broken,
                x, y, z, last_e, current and tuple(current),
            ))
            checkpoints.append(here)
            if current is not None:
                layers.append(Layer(len(layers), *current))
            if start >= same_from and (k := _converged(prior, here, shift)) is not None:
                del commands[-1]
                return _spliced(prior, k, commands, layers, checkpoints, shift)
            current = [nz, 0.0, start, end]
        if current is not None:
            if kind is LinearMove:
                try:
                    current[1] += sqrt((nx - x) ** 2 + (ny - y) ** 2 + (nz - z) ** 2)
                except OverflowError:  # a finite move too long to square
                    current[1] += math.hypot(nx - x, ny - y, nz - z)
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
    return Reading(tuple(commands), tuple(layers), error, _invalid(commands, ends, broken),
                   tuple(checkpoints))


_NOTHING = Reading((), (), None, None, ())


def _converged(prior: Reading, here: Checkpoint, shift: int) -> int | None:
    """The index of the checkpoint of `prior` that lies `shift` bytes before
    `here` and holds the same state, floats by their bits; else None."""
    k = bisect_left(prior.checkpoints, (here.offset - shift,))
    if k < len(prior.checkpoints):
        there = prior.checkpoints[k]
        if (
            there.offset == here.offset - shift
            and there[1:6] == here[1:6]
            and _FLOAT_BITS(*there[6:10]) == _FLOAT_BITS(*here[6:10])
        ):
            return k
    return None


def _spliced(
    prior: Reading,
    k: int,
    commands: list[Command],
    layers: list[Layer],
    checkpoints: list[Checkpoint],
    shift: int,
) -> Reading:
    """A fold that reached the state of `prior.checkpoints[k]`, `shift`
    bytes later, with the rest of its bytes equal to `prior`'s: its commands,
    layers and checkpoints so far, then `prior`'s from there, offsets
    shifted.  `prior` is a valid program's reading, so the fold ends with
    one M2 and no broken move."""
    there = prior.checkpoints[k]
    commands += prior.commands[there.commands:]
    rest_layers = prior.layers[there.layers:]
    rest_checkpoints = prior.checkpoints[k + 1:]
    if shift:
        rest_layers = [
            Layer(lay.index, lay.z, lay.extruded_mm, lay.start_offset + shift, lay.end_offset + shift)
            for lay in rest_layers
        ]
        rest_checkpoints = [
            cp._replace(offset=cp.offset + shift,
                        open=(*cp.open[:2], cp.open[2] + shift, cp.open[3] + shift))
            for cp in rest_checkpoints
        ]
    layers += rest_layers
    checkpoints += rest_checkpoints
    return Reading(tuple(commands), tuple(layers), None, _invalid(commands, 1, None),
                   tuple(checkpoints))


def _first_diff(a: bytes, b: bytes) -> int | None:
    """Index of the first differing byte (the shorter length when one is a
    prefix of the other), or None when equal.  Bisects over slice equality,
    so the comparisons run at C speed."""
    if a == b:
        return None
    lo, hi = 0, min(len(a), len(b))
    # a[:lo] == b[:lo], and the first difference lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if a[lo : mid + 1] == b[lo : mid + 1]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _common_suffix(a: bytes, b: bytes) -> int:
    """The length of the longest common suffix of `a` and `b`, bisected as
    `_first_diff` bisects prefixes."""
    la, lb = len(a), len(b)
    lo, hi = 0, min(la, lb)
    # the last lo bytes agree, and the suffix is at most hi bytes long
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[la - mid : la - lo] == b[lb - mid : lb - lo]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def resume(reading: Reading, text: bytes, payload: bytes) -> Reading:
    """`fold(scan(payload))`, for `reading == fold(scan(text))`.

    An equal payload is `reading` itself.  Any other is read from the last
    checkpoint strictly before its first differing byte (a byte at the
    checkpoint could join the line before it, as LF joins CR).  A tail that
    is not UTF-8 is read from byte 0, since `scan` rejects the whole payload
    at offset 0.

    When `reading` is a valid program, the fold stops at the first layer
    start where the rest of the payload equals the rest of `text` and the
    fold's state equals `reading`'s checkpoint at the same place, shifted by
    the payload's change in length; the rest is then `reading`'s.
    """
    diff = _first_diff(text, payload)
    if diff is None:
        return reading
    k = bisect_left(reading.checkpoints, (diff,))
    origin = reading.checkpoints[k - 1] if k else _START
    tail = payload[origin.offset:]
    if _utf8_error(tail) is not None:
        origin, tail = _START, payload
    same_from = math.inf
    if reading.error is None and reading.invalid is None:
        same_from = len(payload) - _common_suffix(text, payload)
    return _fold(scan(tail, origin.offset, origin.line), reading, origin,
                 len(payload) - len(text), same_from)


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


def extruded_mm(commands: Iterable[Command]) -> float:
    """The Euclidean length of the G1 moves in `commands`, from the origin,
    each measured and added in order as `fold` adds up a layer's."""
    sqrt = math.sqrt
    x = y = z = total = 0.0
    for cmd in commands:
        if type(cmd) is Word:
            if cmd == G28:
                x = y = z = 0.0
            continue
        nx = x if cmd[0] is None else cmd[0]
        ny = y if cmd[1] is None else cmd[1]
        nz = z if cmd[2] is None else cmd[2]
        if type(cmd) is LinearMove:
            try:
                total += sqrt((nx - x) ** 2 + (ny - y) ** 2 + (nz - z) ** 2)
            except OverflowError:  # a finite move too long to square
                total += math.hypot(nx - x, ny - y, nz - z)
        x, y, z = nx, ny, nz
    return total


def intended_perimeters(layers: list[LayerPlan]) -> list[float]:
    """Per-layer closed-contour perimeter sums for layers the planner prints."""
    sums = [
        sum(contour_perimeter(c) for c in lp.contours if c.closed)
        for lp in layers
    ]
    return [s for s in sums if s > 0.0]
