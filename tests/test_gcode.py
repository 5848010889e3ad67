import functools
import gc
import importlib.util
import logging
import math
import re
import struct
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amstpa_lab import gcode, mesh_io, shapes
from amstpa_lab.gcode import (
    G21,
    G28,
    G90,
    M2,
    GCodeError,
    GCodeProgram,
    Layer,
    LinearMove,
    RapidMove,
    ToolpathParams,
    Word,
    _emit_command,
    _parse_line,
    emit_text,
    extruded_mm,
    fold,
    intended_perimeters,
    plan_toolpath,
    read_program,
    resume,
    scan,
)
from amstpa_lab.slicer import Contour, LayerPlan, SliceParams, slice_mesh

PROLOGUE = (G21, G90, G28)

SQUARE = Contour(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), True)


def square_layer(index=0, z=0.125):
    return LayerPlan(index=index, z=z, contours=(SQUARE,))


def program_layers(prog):
    return fold((0, 0, c) for c in prog.commands).layers


def scan_text_layers(text):
    return fold(scan(text)).layers


class TestPlan:
    def test_zero_layers_prologue_epilogue_only(self):
        prog = plan_toolpath([], ToolpathParams())
        assert prog.commands == PROLOGUE + (M2,)
        assert fold((0, 0, c) for c in prog.commands).invalid is None

    def test_single_square_final_e(self):
        prog = plan_toolpath([square_layer()], ToolpathParams(extrusion_per_mm=0.05))
        linear = [c for c in prog.commands if isinstance(c, LinearMove)]
        assert len(linear) == 4
        assert linear[-1].e == pytest.approx(0.2, abs=1e-12)

    def test_cube_program_shape(self, cube_program):
        linear = [c for c in cube_program.commands if isinstance(c, LinearMove)]
        rapids = [c for c in cube_program.commands if isinstance(c, RapidMove)]
        assert len(linear) == 16
        assert len(rapids) == 4
        assert len(cube_program.commands) == 24
        es = [c.e for c in linear]
        assert es == sorted(es)
        assert fold((0, 0, c) for c in cube_program.commands).invalid is None

    def test_open_contour_skipped_with_warning(self, caplog):
        open_layer = LayerPlan(
            index=0, z=0.1, contours=(Contour(((0.0, 0.0), (1.0, 0.0)), False), SQUARE)
        )
        with caplog.at_level(logging.WARNING):
            prog = plan_toolpath([open_layer], ToolpathParams())
        assert any("open contour" in r.message for r in caplog.records)
        linear = [c for c in prog.commands if isinstance(c, LinearMove)]
        assert len(linear) == 4  # only the closed square

    def test_params_validated(self):
        # a feed rate must also stay above 0 once written with 5 decimals
        for feed in (0.0, math.inf, math.nan, 1e-320, 4e-6):
            with pytest.raises(ValueError, match="feed_rate"):
                ToolpathParams(feed_rate=feed)
        for ratio in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="extrusion_per_mm"):
                ToolpathParams(extrusion_per_mm=ratio)

    def test_smallest_written_feed_rate_reads_back(self):
        prog = plan_toolpath([square_layer()], ToolpathParams(feed_rate=1e-5))
        reading = fold(scan(emit_text(prog)))
        assert reading.invalid is None and reading.commands == prog.commands

    def test_extrusion_total_overflow_refused(self):
        with pytest.raises(ValueError, match="overflows"):
            plan_toolpath([square_layer()], ToolpathParams(extrusion_per_mm=1e308))


class TestTextFormat:
    def test_minimal_program(self):
        reading = fold(scan(b"G21\nG90\nG28\nM2\n"))
        assert reading.error is None and reading.commands == PROLOGUE + (M2,)

    def test_linear_move_fields(self):
        reading = fold(scan(b"G1 X1.00000 Y0.00000 E0.05000 F1800.00000\n"))
        assert reading.error is None
        assert reading.commands == (LinearMove(x=1.0, y=0.0, e=0.05, f=1800.0),)

    def test_comments_and_blanks_ignored(self):
        reading = fold(scan(b"; job start\nG21\n\nG90 ; absolute\nG28\nM2\n"))
        assert reading.error is None and reading.commands == PROLOGUE + (M2,)

    def test_unknown_code_rejected_with_line(self):
        with pytest.raises(GCodeError, match="line 2"):
            raise fold(scan(b"G21\nG2 X1 Y1\n")).error

    def test_malformed_number_rejected(self):
        with pytest.raises(GCodeError, match="malformed number"):
            raise fold(scan(b"G1 Xabc\n")).error

    def test_nonfinite_number_rejected(self):
        with pytest.raises(GCodeError, match="non-finite"):
            raise fold(scan(b"G1 X1e309\n")).error
        with pytest.raises(GCodeError, match="non-finite"):
            raise fold(scan(b"G1 Xnan\n")).error

    def test_unknown_word_rejected(self):
        with pytest.raises(GCodeError, match="unknown word"):
            raise fold(scan(b"T0\n")).error

    def test_e_on_rapid_rejected(self):
        with pytest.raises(GCodeError, match="unknown word"):
            raise fold(scan(b"G0 X1.0 E0.5\n")).error

    def test_duplicate_word_rejected(self):
        with pytest.raises(GCodeError, match="duplicate"):
            raise fold(scan(b"G1 X1.0 X2.0\n")).error

    def test_arguments_on_plain_words_rejected(self):
        with pytest.raises(GCodeError, match="no arguments"):
            raise fold(scan(b"G28 X0\n")).error

    def test_cube_round_trip(self, cube_program, cube_text):
        reading = fold(scan(cube_text))
        assert reading.error is None and reading.commands == cube_program.commands

    def test_emitted_text_shape(self, cube_text):
        lines = cube_text.decode().splitlines()
        assert lines[0] == "G21"
        assert lines[-1] == "M2"
        assert all("\t" not in line for line in lines)
        assert cube_text.endswith(b"\n")

    def test_scan_offsets_follow_the_one_line_rule(self):
        data = b"G21\r\nG90\x0bG28\n; \xc3\xa9\nG1 X\xff\n\x1cM2"
        lines = list(scan(data))
        assert isinstance(lines[0][2], GCodeError) and lines[0][:2] == (0, 0)
        assert lines[0][2].line is None  # invalid UTF-8 flags the whole text
        spans = [(start, end) for start, end, _ in lines[1:]]
        assert spans == [(0, 5), (5, 9), (9, 13), (13, 18), (18, 24), (24, 25), (25, 27)]
        items = [item for _, _, item in lines[1:]]
        assert items[:3] == [G21, G90, G28]
        assert items[3] is None and items[5] is None
        assert isinstance(items[4], GCodeError) and items[4].line == 5
        assert items[6] == M2

    def test_invalid_utf8_rejected_whole(self):
        with pytest.raises(GCodeError, match="not valid UTF-8"):
            raise fold(scan(b"G21\nG90\nG28\nM2 ; \xff\n")).error
        # so its reading holds no command, and an envelope declares none
        assert fold(scan(b"G21\n; \xff\nG1 X\xfe\n")).commands == ()

    def test_count_records(self, cube_text, cube_program):
        # each record, a line that holds code, is one command of the reading
        assert len(fold(scan(cube_text)).commands) == len(cube_program.commands)
        assert fold(scan(b"; comment\n\nG21\n")).commands == (G21,)


class TestProgramInvariants:
    def test_missing_prologue(self):
        with pytest.raises(GCodeError, match="begin"):
            raise fold((0, 0, c) for c in (G21, M2)).invalid

    def test_missing_end(self):
        with pytest.raises(GCodeError, match="end with M2"):
            raise fold((0, 0, c) for c in PROLOGUE + (RapidMove(x=0.0),)).invalid

    def test_decreasing_extrusion(self):
        prog = GCodeProgram(
            PROLOGUE
            + (LinearMove(x=1.0, e=0.5), LinearMove(x=2.0, e=0.25), M2)
        )
        with pytest.raises(GCodeError, match="decreased"):
            raise fold((0, 0, c) for c in prog.commands).invalid

    def test_nonpositive_feed(self):
        prog = GCodeProgram(PROLOGUE + (LinearMove(x=1.0, f=0.0), M2))
        with pytest.raises(GCodeError, match="feed"):
            raise fold((0, 0, c) for c in prog.commands).invalid

    def test_interior_m2(self):
        prog = GCodeProgram(PROLOGUE + (M2, M2))
        with pytest.raises(GCodeError, match="before end"):
            raise fold((0, 0, c) for c in prog.commands).invalid

    def test_nonfinite_coordinate(self):
        prog = GCodeProgram(PROLOGUE + (RapidMove(x=float("inf")), M2))
        with pytest.raises(GCodeError, match="non-finite"):
            raise fold((0, 0, c) for c in prog.commands).invalid


def read_planned(prog):
    return read_program(prog, emit_text(prog))


class TestPathLength:
    """The Euclidean G1 length of a planned program's commands, `extruded_mm`."""

    def test_prologue_only(self):
        prog = plan_toolpath([], ToolpathParams())
        assert extruded_mm(read_planned(prog).commands) == 0.0

    def test_single_square_perimeter(self):
        prog = plan_toolpath([square_layer()], ToolpathParams())
        assert extruded_mm(read_planned(prog).commands) == pytest.approx(4.0, abs=1e-12)

    def test_cube_extrusion(self, cube_program):
        assert extruded_mm(read_planned(cube_program).commands) == pytest.approx(16.0, abs=1e-9)

    def test_home_returns_to_the_origin(self):
        # G1 X3 from the origin, then X4 from the origin again after G28
        reading = fold(scan(b"G21\nG90\nG28\nG0 X0 Y0 Z1\nG1 X3 E1 F1\nG28\nG1 X4 E2 F1\nM2\n"))
        assert extruded_mm(reading.commands) == reading.layers[0].extruded_mm == 7.0

    def test_final_e_matches_extruded_length(self, cube_program):
        linear = [c for c in cube_program.commands if isinstance(c, LinearMove)]
        length = extruded_mm(read_planned(cube_program).commands)
        ratio = ToolpathParams().extrusion_per_mm
        assert linear[-1].e == pytest.approx(length * ratio, rel=1e-9)


# ---------------------------------------------------------------------------
# read_program against its oracle, fold(scan(text)), field by field
# ---------------------------------------------------------------------------


def bits(value):
    """`value` with every float as its IEEE-754 bytes, so -0.0 differs from 0.0."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return type(value), tuple(map(bits, value))
    if isinstance(value, GCodeError):
        return type(value), str(value), value.line
    return value


def assert_reads_as_scanned(prog):
    text = emit_text(prog)
    assert bits(read_program(prog, text)) == bits(fold(scan(text)))


def _perfbench_sphere():
    """The benchmark's level-4 geodesic sphere, built by perfbench's own code."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    lab = SimpleNamespace(mesh_io=mesh_io, shapes=shapes)
    return workloads.geodesic_sphere(lab, workloads.SPHERE_LEVEL, workloads.SPHERE_RADIUS)


class TestReadProgram:
    def test_bits_tell_signed_zeros_apart(self):
        assert bits(Layer(0, -0.0, 0.0, 0, 1)) != bits(Layer(0, 0.0, 0.0, 0, 1))
        assert bits(RapidMove(-0.0)) != bits(RapidMove(0.0))

    @pytest.mark.parametrize(
        "mesh, layer_height",
        [
            pytest.param(lambda: shapes.box(), 0.25, id="cube"),
            pytest.param(lambda: shapes.ngon_prism(64, 10, 10), 0.25, id="ngon64"),
            pytest.param(lambda: shapes.ngon_prism(160, 10, 10), 0.1, id="ngon160-0.1mm"),
            pytest.param(_perfbench_sphere, 1.0, id="sphere-1mm"),
            pytest.param(_perfbench_sphere, 0.1, id="sphere-0.1mm"),
            pytest.param(lambda: mesh_io.TriangleMesh(()), 0.25, id="empty"),
        ],
    )
    def test_reads_as_scanned(self, mesh, layer_height):
        layers = slice_mesh(mesh(), SliceParams(layer_height=layer_height))
        prog = plan_toolpath(layers, ToolpathParams())
        if not layers:
            assert prog.commands == PROLOGUE + (M2,)
        assert_reads_as_scanned(prog)

    @given(
        sides=st.integers(3, 24),
        radius=st.floats(0.01, 50.0),
        layer_height=st.sampled_from([0.1, 0.25, 0.3, 0.5]),
        feed_rate=st.floats(1e-5, 1e6),
        extrusion_per_mm=st.floats(1e-9, 1e3),
    )
    def test_reads_as_scanned_for_any_params(
        self, sides, radius, layer_height, feed_rate, extrusion_per_mm
    ):
        layers = slice_mesh(shapes.ngon_prism(sides, radius, 1.0),
                            SliceParams(layer_height=layer_height))
        params = ToolpathParams(feed_rate=feed_rate, extrusion_per_mm=extrusion_per_mm)
        assert_reads_as_scanned(plan_toolpath(layers, params))


# ---------------------------------------------------------------------------
# resume against its oracle, fold(scan(payload)), field by field
# ---------------------------------------------------------------------------


def _planned(mesh, layer_height):
    prog = plan_toolpath(slice_mesh(mesh, SliceParams(layer_height=layer_height)),
                         ToolpathParams())
    text = emit_text(prog)
    return text, read_program(prog, text)


def _read(text):
    return text, fold(scan(text))


PRISTINES = {
    "cube": lambda: _planned(shapes.box(), 0.25),
    # CR line ends: LF written at a layer start would join the line before it
    "cube-cr": lambda: _read(pristine("cube")[0].replace(b"\n", b"\r")),
    # lines that hold no command still count toward line numbers
    "cube-commented": lambda: _read(pristine("cube")[0].replace(b"\nG0", b"\n; layer\n\nG0")),
    "ngon64": lambda: _planned(shapes.ngon_prism(64, 10, 10), 0.25),
    "ngon160-0.1mm": lambda: _planned(shapes.ngon_prism(160, 10, 10), 0.1),
    "sphere": lambda: _planned(_perfbench_sphere(), 1.0),
}


@functools.cache
def pristine(name):
    """(text, fold(scan(text))) of a pristine job."""
    return PRISTINES[name]()


# bytes that end a line, join two, start a number or a comment, or break UTF-8
SPECIAL_BYTES = [b"\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x85", b"\xc2", b"\xe2", b"-", b"0",
                 b" ", b";"]
any_byte = (
    st.sampled_from(SPECIAL_BYTES)
    | st.integers(0x80, 0xFF).map(lambda b: bytes([b]))
    | st.binary(min_size=1, max_size=1)
)


@st.composite
def damaged(draw, text, reading):
    """`text` with one fault, often at or next to a layer start."""
    starts = [cp.offset for cp in reading.checkpoints]
    at = draw(
        st.integers(0, len(text) - 1)
        | st.sampled_from(starts).flatmap(
            lambda o: st.integers(max(o - 2, 0), min(o + 2, len(text) - 1)))
    )
    kind = draw(st.sampled_from(["flip", "set", "truncate", "insert", "delete"]))
    if kind == "flip":
        return text[:at] + bytes([text[at] ^ 1 << draw(st.integers(0, 7))]) + text[at + 1:]
    if kind == "set":
        return text[:at] + draw(any_byte) + text[at + 1:]
    if kind == "truncate":
        return text[:at]
    if kind == "insert":
        return text[:at] + b"".join(draw(st.lists(any_byte, min_size=1, max_size=3))) + text[at:]
    return text[:at] + text[at + draw(st.integers(1, 3)):]


def assert_resumes_as_folded(name, data):
    text, reading = pristine(name)
    payload = data.draw(damaged(text, reading))
    assert bits(resume(reading, text, payload)) == bits(fold(scan(payload)))


@pytest.fixture
def scanned(monkeypatch):
    """The lines `gcode.scan` yields from here on, in order."""
    read = []

    def counting_scan(*args):
        for item in scan(*args):
            read.append(item)
            yield item

    monkeypatch.setattr(gcode, "scan", counting_scan)
    return read


class TestResume:
    @pytest.mark.parametrize("name", ["cube", "cube-cr", "cube-commented", "ngon64", "sphere"],
                             ids=lambda name: f"{name}-strict")
    @given(data=st.data())
    def test_reads_as_folded(self, name, data):
        assert_resumes_as_folded(name, data)

    @pytest.mark.parametrize("name", ["cube", "ngon64"])
    @given(data=st.data())
    def test_reads_as_folded_from_a_damaged_text(self, name, data):
        # an after-slice fault's text, whose reading may stop at a bad line,
        # then damaged again on its way to the printer
        text, reading = pristine(name)
        sent = data.draw(damaged(text, reading))
        sent_reading = resume(reading, text, sent)
        assume(sent_reading.checkpoints)  # damage the sent text near a layer start, too
        payload = data.draw(damaged(sent, sent_reading))
        assert bits(resume(sent_reading, sent, payload)) == bits(fold(scan(payload)))

    # 0.72 MB of text: a fold of it takes about 0.1 s
    @settings(max_examples=12)
    @given(data=st.data())
    def test_reads_as_folded_on_ngon160_at_0_1_mm(self, data):
        assert_resumes_as_folded("ngon160-0.1mm", data)

    @pytest.mark.parametrize("name", list(PRISTINES))
    def test_every_checkpoint_is_a_layer_start(self, name):
        text, reading = pristine(name)
        assert [cp.offset for cp in reading.checkpoints] == [
            lay.start_offset for lay in reading.layers
        ]
        # its line number counts the lines before it
        for cp in reading.checkpoints:
            assert cp.line == len(text[:cp.offset].decode().splitlines()) + 1

    def test_equal_payload_is_the_reading(self):
        text, reading = pristine("ngon64")
        assert resume(reading, text, text) is reading
        assert resume(reading, text, bytes(bytearray(text))) is reading
        # so is a text that stops at a bad line: every checkpoint lies before it
        at = reading.checkpoints[3].offset + 40
        bad = text[:at] + b"Q" + text[at + 1:]
        stopped = fold(scan(bad))
        assert stopped.error is not None and len(stopped.checkpoints) == 4
        assert resume(stopped, bad, bad) is stopped

    def test_a_line_end_at_a_layer_start_joins_the_line_before(self):
        # CR then LF is one line end: a damaged byte at a checkpoint can move
        # the checkpoint's line start, so the read resumes from the one before
        text, reading = pristine("cube-cr")
        at = reading.checkpoints[2].offset
        payload = text[:at] + b"\n" + text[at + 1:]
        resumed = resume(reading, text, payload)
        assert bits(resumed) == bits(fold(scan(payload)))
        assert resumed.layers[1].end_offset == at + 1

    @pytest.mark.parametrize(
        "before, after",
        [(b" X", b" X0"), (b" Y", b"  Y"), (b"\nG1", b"\ng1"), (b"0 F", b" F")],
        ids=["leading-zero", "two-spaces", "lower-case", "trailing-zero"],
    )
    def test_converged_read_takes_the_rest_from_the_pristine(self, scanned, before, after):
        # the damage, in layer 2's first G1, leaves every value as it was, so
        # the read resumes at layer 2's start; a payload of the same length
        # stops at layer 3's and takes the rest from the pristine, and one of
        # another length never rejoins it, so it is read to its last line
        text, reading = pristine("ngon64")
        at = text.index(before, reading.layers[2].start_offset + 1)
        payload = text[:at] + after + text[at + len(before):]
        resumed = resume(reading, text, payload)
        assert scanned[0][0] == reading.layers[2].start_offset
        if len(payload) == len(text):
            assert scanned[-1][0] == reading.layers[3].start_offset
            assert all(a is b for a, b in zip(resumed.layers[3:], reading.layers[3:]))
        else:
            assert scanned[-1][1] == len(payload)
        assert bits(resumed) == bits(fold(scan(payload)))
        assert resumed.commands == reading.commands

    @pytest.mark.parametrize("longer", [False, True], ids=["equal-length", "one-digit-longer"])
    def test_a_moved_point_is_read_to_the_next_layer_start(self, scanned, longer):
        # an X in the middle of layer 2 moves one point of its contour: the
        # layer's extrusion changes, but the fold's state at layer 3's start
        # is the pristine's, so an edit of the same length stops the read
        # there; a longer one moves layer 3's start and is read to the end
        text, reading = pristine("ngon64")
        layer = reading.layers[2]
        number = re.compile(rb"X-?[0-9]+\.[0-9]+").search(
            text, (layer.start_offset + layer.end_offset) // 2)
        at = number.end() - 1
        digit = text[at:at + 1]
        edit = digit + b"7" if longer else str((int(digit) + 1) % 10).encode()
        payload = text[:at] + edit + text[at + 1:]
        resumed = resume(reading, text, payload)
        if longer:
            assert scanned[-1][1] == len(payload)
        else:
            assert len(scanned) <= 2 * text.count(b"\n", layer.start_offset, layer.end_offset)
            assert resumed.layers[-1] is reading.layers[-1]
        assert bits(resumed) == bits(fold(scan(payload)))
        assert resumed.layers[2].extruded_mm != layer.extruded_mm

    def test_signed_zero_is_a_state_apart(self):
        # X-0 leaves x at -0.0 through layer 1, which moves no X, so layer
        # 2's checkpoint records -0.0: the read must not take the pristine's
        text = (b"G21\nG90\nG28\nG0 X0 Y0 Z1\nG1 X1 Y0 E1 F100\nG1 X0 Y0 E2 F100\n"
                b"G0 Z2\nG1 Y1 E3 F100\nG0 Z3\nG1 X1 E4 F100\nM2\n")
        reading = fold(scan(text))
        payload = text.replace(b"G1 X0", b"G1 X-0")
        resumed = resume(reading, text, payload)
        assert math.copysign(1.0, resumed.checkpoints[2].x) == -1.0
        assert bits(resumed) == bits(fold(scan(payload)))

    def test_a_tail_that_is_not_utf8_reads_from_byte_0(self):
        text, reading = pristine("ngon64")
        at = reading.checkpoints[5].offset + 3
        payload = text[:at] + b"\xff" + text[at + 1:]
        resumed = resume(reading, text, payload)
        assert bits(resumed) == bits(fold(scan(payload)))
        assert resumed.commands == ()


    @pytest.mark.parametrize("damage", [b"Q", b"..", b"\xff"])
    def test_a_damaged_read_leaves_no_cyclic_garbage(self, damage):
        # the errors a damaged read keeps hold no frame, so the payload tail
        # it was read from is freed with the reading, not at the next gc pass
        text, reading = pristine("ngon64")
        at = reading.checkpoints[5].offset + 6
        payload = text[:at] + damage + text[at + 1:]
        gc.collect()
        gc.disable()
        try:
            resumed = resume(reading, text, payload)
            assert resumed.error is not None
            del resumed
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLayerAccounting:
    def test_program_layers_cube(self, cube_program):
        layers = program_layers(cube_program)
        assert [(p.index, p.z) for p in layers] == [
            (0, 0.125), (1, 0.375), (2, 0.625), (3, 0.875)
        ]
        assert all(p.extruded_mm == pytest.approx(4.0, abs=1e-12) for p in layers)

    def test_scan_agrees_with_program_layers(self, cube_program, cube_text):
        scanned = scan_text_layers(cube_text)
        parsed = program_layers(cube_program)
        assert [(s.index, s.z, s.extruded_mm) for s in scanned] == [
            (p.index, p.z, p.extruded_mm) for p in parsed
        ]
        offsets = [s.start_offset for s in scanned]
        assert offsets == sorted(offsets)
        for s in scanned:
            line = cube_text[s.start_offset : cube_text.index(b"\n", s.start_offset)]
            assert line.startswith(b"G0 ")

    def test_scan_tolerates_garbage(self, cube_text):
        mangled = cube_text.replace(b"G1", b"QQ", 1)
        items = [item for _, _, item in scan(mangled)]
        assert sum(isinstance(item, GCodeError) for item in items) == 1
        # every line past the garbage still parses, layer starts included
        assert sum(type(item) is RapidMove and item.z is not None for item in items) == 4
        # but the fold stops at it, inside layer 0
        assert len(scan_text_layers(mangled)) == 1

    def test_intended_perimeters(self, cube_layers):
        assert intended_perimeters(cube_layers) == pytest.approx([4.0] * 4)


quant = st.integers(min_value=-(10**7), max_value=10**7).map(lambda n: n / 10**5)
positive_quant = st.integers(min_value=1, max_value=10**7).map(lambda n: n / 10**5)
maybe = lambda s: st.none() | s  # noqa: E731


def _moves():
    rapid = st.builds(RapidMove, x=maybe(quant), y=maybe(quant), z=maybe(quant))
    linear = st.builds(
        LinearMove,
        x=maybe(quant),
        y=maybe(quant),
        z=maybe(quant),
        e=st.none(),
        f=maybe(positive_quant),
    )
    return st.one_of(rapid, linear)


@st.composite
def programs(draw):
    body = list(draw(st.lists(_moves(), max_size=30)))
    # assign a non-decreasing quantized extrusion to linear moves
    e = 0.0
    fixed = []
    for cmd in body:
        if isinstance(cmd, LinearMove) and draw(st.booleans()):
            e = round(e + draw(positive_quant), 5)
            cmd = LinearMove(x=cmd.x, y=cmd.y, z=cmd.z, e=e, f=cmd.f)
        fixed.append(cmd)
    return GCodeProgram(PROLOGUE + tuple(fixed) + (M2,))


@given(programs())
def test_parse_emit_identity(prog):
    assert fold((0, 0, c) for c in prog.commands).invalid is None
    reading = fold(scan(emit_text(prog)))
    assert reading.error is None and reading.commands == prog.commands


@given(programs())
def test_parse_emit_parse_round_trip(prog):
    text = emit_text(prog)
    reparsed = fold(scan(text))
    assert reparsed.error is None
    assert emit_text(GCodeProgram(reparsed.commands)) == text
    again = fold(scan(emit_text(GCodeProgram(reparsed.commands))))
    assert again.error is None
    assert again.commands == reparsed.commands == prog.commands
    assert [type(c) for c in again.commands] == [type(c) for c in prog.commands]


@given(programs())
def test_emit_fast_forms_match_generic_path(prog):
    generic = ("\n".join(map(_emit_command, prog.commands)) + "\n").encode("ascii")
    assert emit_text(prog) == generic


# ---------------------------------------------------------------------------
# Tuple command records: moves are equal by kind and fields, words by code
# ---------------------------------------------------------------------------

# the four words, each with its meaning as its test id
WORDS = [
    pytest.param(G21, id="UseMillimeters"),
    pytest.param(G90, id="AbsolutePositioning"),
    pytest.param(G28, id="Home"),
    pytest.param(M2, id="ProgramEnd"),
]


class TestRecordEquality:
    @pytest.mark.parametrize("a", WORDS)
    @pytest.mark.parametrize("b", WORDS)
    def test_zero_field_commands_equal_only_their_own_kind(self, a, b):
        assert (a == b) is (a.code == b.code)
        assert (a != b) is (a.code != b.code)
        assert a == Word(a.code) and hash(a) == hash(Word(a.code))
        assert a != ()
        assert not (a == ())

    def test_moves_differ_from_words(self):
        assert RapidMove() != LinearMove()
        assert RapidMove(x=1.0) == RapidMove(x=1.0)
        assert len({RapidMove(x=1.0), RapidMove(x=1.0), G28, G28, M2}) == 3

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"G90\nG21\nG28\nG0 X1.00000 Y1.00000 Z0.10000\nM2\n", "begin"),
            (b"G21\nG90\nM2\nM2\n", "begin"),
            (b"G21\nG90\nG28\nM2\nM2\n", "before end"),
        ],
    )
    def test_permuted_prologue_rejected(self, text, message):
        with pytest.raises(GCodeError, match=message):
            raise fold(scan(text)).invalid
        with pytest.raises(GCodeError, match=message):
            oracle_check_program(GCodeProgram(fold(scan(text)).commands))

    def test_repr_and_fields(self):
        assert repr(LinearMove(x=1.0, e=0.5)) == "LinearMove(x=1.0, y=None, z=None, e=0.5, f=None)"
        assert repr(RapidMove(z=0.25)) == "RapidMove(x=None, y=None, z=0.25)"
        assert [repr(w) for w in (G21, G90, G28, M2)] == [
            "Word(code='G21')", "Word(code='G90')", "Word(code='G28')", "Word(code='M2')"
        ]
        assert LinearMove(f=1.0).f == 1.0 and LinearMove._fields == ("x", "y", "z", "e", "f")
        assert Word._fields == ("code",) and type(G28) is type(M2) is Word


# ---------------------------------------------------------------------------
# Oracles: the reader, fold, program check and planner the fast paths replaced
# ---------------------------------------------------------------------------


def oracle_scan(data):
    """Every line through _parse_line, offsets from each line's UTF-8 length."""
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            yield 0, 0, GCodeError(f"not valid UTF-8 text: {exc}")
    text = data.decode("utf-8", "surrogateescape")
    start = 0
    for line_no, line in enumerate(text.splitlines(keepends=True), 1):
        end = start + len(line.encode("utf-8", "surrogateescape"))
        try:
            item = _parse_line(line, line_no)
        except GCodeError as err:
            item = err
        yield start, end, item
        start = end


def oracle_fold(lines):
    """(commands, layers, extruded, error) by the isinstance fold, where
    `extruded` is the G1 length of all the commands, `extruded_mm`'s oracle."""
    x = y = z = 0.0
    extruded = 0.0
    commands, layers = [], []
    current = None
    error = None
    for start, end, cmd in lines:
        if cmd is None:
            continue
        if isinstance(cmd, GCodeError):
            error = cmd
            break
        commands.append(cmd)
        if cmd == G28:
            x = y = z = 0.0
        elif isinstance(cmd, (RapidMove, LinearMove)):
            nx = cmd.x if cmd.x is not None else x
            ny = cmd.y if cmd.y is not None else y
            nz = cmd.z if cmd.z is not None else z
            if nz != z:
                if current is not None:
                    layers.append(Layer(len(layers), *current))
                current = [nz, 0.0, start, end]
            try:
                d = math.sqrt((nx - x) ** 2 + (ny - y) ** 2 + (nz - z) ** 2)
            except OverflowError:  # the fold's one rule for a move too long to square
                d = math.hypot(nx - x, ny - y, nz - z)
            if isinstance(cmd, LinearMove):
                extruded += d
                if current is not None:
                    current[1] += d
            if current is not None:
                current[3] = end
            x, y, z = nx, ny, nz
    if current is not None:
        layers.append(Layer(len(layers), *current))
    return tuple(commands), tuple(layers), extruded, error


def oracle_check_program(prog):
    cmds = prog.commands
    if len(cmds) < 4 or cmds[:3] != PROLOGUE:
        raise GCodeError("program must begin with G21, G90, G28")
    if cmds[-1] != M2:
        raise GCodeError("program must end with M2")
    if M2 in cmds[:-1]:
        raise GCodeError("M2 before end of program")
    last_e = 0.0
    for i, c in enumerate(cmds):
        if isinstance(c, (RapidMove, LinearMove)):
            for name in c._fields:
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


def oracle_plan_toolpath(layers, p):
    cmds = list(PROLOGUE)
    e_total = 0.0
    feed = round(p.feed_rate, 5)
    for layer in layers:
        z = round(layer.z, 5)
        for contour in layer.contours:
            if not contour.closed:
                continue
            pts = [(round(x, 5), round(y, 5)) for x, y in contour.vertices]
            cmds.append(RapidMove(x=pts[0][0], y=pts[0][1], z=z))
            prev = pts[0]
            for nxt in pts[1:] + [pts[0]]:
                e_total += math.hypot(nxt[0] - prev[0], nxt[1] - prev[1]) * p.extrusion_per_mm
                cmds.append(LinearMove(x=nxt[0], y=nxt[1], e=round(e_total, 5), f=feed))
                prev = nxt
    cmds.append(M2)
    return GCodeProgram(tuple(cmds))


def described(item):
    # repr tells -0.0 from 0.0 and a record's kind from a bare tuple
    if isinstance(item, GCodeError):
        return ("error", str(item), item.line)
    return repr(item)


def oracle_invalid(commands):
    try:
        oracle_check_program(GCodeProgram(commands))
    except GCodeError as err:
        return described(err)
    return None


PLANNED_TEXT = emit_text(
    plan_toolpath(slice_mesh(shapes.box(), SliceParams(layer_height=0.25)), ToolpathParams())
)
LINE_BREAKS = b"\x0b\x0c\x1c\x1d\x1e\r"
# Arabic-Indic, Devanagari and fullwidth digits: float() reads them, [0-9] does not
OTHER_DIGITS = ["\u0663", "\u0969", "\uff13"]


def _at(data, pattern, k):
    """Span of the k-th match of `pattern` in data (wrapping), or None."""
    spans = [m.span() for m in re.finditer(pattern, bytes(data))]
    return spans[k % len(spans)] if spans else None


def _mutate(data: bytearray, op: str, pos: int, value: int) -> bytearray:
    pos %= len(data)
    if op == "flip":
        data[pos] ^= 1 << (value % 8)
    elif op == "set":
        data[pos] = value % 256
    elif op == "break":
        data[pos] = LINE_BREAKS[value % len(LINE_BREAKS)]
    elif op == "lower" and (span := _at(data, rb"G[01] ", value)):
        data[span[0]] = ord("g")
    elif op == "space":
        data[pos:pos] = b" " * (1 + value % 3)
    elif op == "zero" and (span := _at(data, rb"[GXYZEF](?=[0-9])", value)):
        data[span[1]:span[1]] = b"0" * (1 + value % 2)
    elif op == "negzero" and (span := _at(data, rb"(?<=[XYZEF])-?[0-9]+\.[0-9]+", value)):
        data[span[0]:span[1]] = b"-0.00000"
    elif op == "digit" and (span := _at(data, rb"[0-9]", value)):
        data[span[0]:span[1]] = OTHER_DIGITS[value % len(OTHER_DIGITS)].encode()
    return data


OPS = ["flip", "set", "break", "lower", "space", "zero", "negzero", "digit"]


@st.composite
def mutated_texts(draw):
    if draw(st.booleans()):
        data = bytearray(PLANNED_TEXT)
    else:
        data = bytearray(emit_text(draw(programs())))
    steps = st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16), st.integers(0, 255))
    for op, pos, value in draw(st.lists(steps, max_size=4)):
        data = _mutate(data, op, pos, value)
    return bytes(data)


class TestFastPathMatchesOracle:
    def check(self, data):
        assert [(s, e, described(i)) for s, e, i in scan(data)] == [
            (s, e, described(i)) for s, e, i in oracle_scan(data)
        ]
        reading = fold(scan(data))
        commands, layers, extruded, error = oracle_fold(oracle_scan(data))
        assert list(map(repr, reading.commands)) == list(map(repr, commands))
        assert repr(reading.layers) == repr(layers)
        assert repr(extruded_mm(reading.commands)) == repr(extruded)
        assert described(reading.error) == described(error)
        got = described(reading.invalid) if reading.invalid is not None else None
        assert got == oracle_invalid(commands)
        if reading.error is None:  # every record, a line that holds code, is a command
            text = data.decode("utf-8")
            assert len(reading.commands) == sum(
                1 for line in text.splitlines() if line.split(";", 1)[0].split()
            )

    def test_planned_text_takes_the_fast_path_unchanged(self):
        self.check(PLANNED_TEXT)
        assert fold(scan(PLANNED_TEXT)).invalid is None

    def test_planned_prism_takes_the_fast_path_unchanged(self):
        # a 64-gon's edges are not axis-aligned, so each length is rounded
        self.check(pristine("ngon64")[0])

    @pytest.mark.parametrize(
        "line",
        [
            b"g1 X1.00000 Y1.00000 E0.10000 F1800.00000",
            b"G1  X1.00000 Y1.00000 E0.10000 F1800.00000",
            b"G1 X01.00000 Y1.00000 E0.10000 F1800.00000",
            b"G01 X1.00000 Y1.00000 E0.10000 F1800.00000",
            b"G0 X-0.00000 Y1.00000 Z0.12500",
            b"G0 X1.00000 Y1.00000 Z0.12500 ; comment",
            b"G0 X1.00000 Y1.00000 Z0.12500\r",
            b"G1 X1.00000 Y1.00000 E-0.10000 F1800.00000",
            b"G1 X1.00000 Y1.00000 E0.10000 F0.00000",
            b"G1 X\xd9\xa3.00000 Y1.00000 E0.10000 F1800.00000",
            b"G1 X\xef\xbc\x93.00000 Y1.00000 E0.10000 F1800.00000",
            b"G1 X1" + b"0" * 400 + b".00000 Y1.00000 E0.10000 F1800.00000",
            b"G0 X1" + b"0" * 299 + b".00000 Y1.00000 Z0.12500",
            b"G1 X1.00000 Y1.00000 Z0.5 E0.10000 F1800.00000",
            b"G1 Y1.00000 X1.00000 E0.10000 F1800.00000",
        ],
    )
    def test_near_canonical_lines(self, line):
        for text in (line, line + b"\n", b"G21\nG90\nG28\n" + line + b"\nM2\n"):
            self.check(text)

    @given(mutated_texts())
    def test_mutated_planner_text(self, data):
        self.check(data)


def test_long_finite_move_does_not_overflow():
    # 1e200 squared overflows a double; the move's length is still finite
    reading = fold(scan(b"G21\nG90\nG28\nG0 X1e200 Y0 Z1\nG1 X-1e200 E1 F1\nM2\n"))
    assert reading.layers[0].extruded_mm == 2e200
    assert extruded_mm(reading.commands) == 2e200
    assert reading.invalid is None and reading.error is None


@pytest.mark.parametrize("sides, layer_height", [(5, 0.5), (24, 0.3), (64, 0.25)])
def test_plan_matches_oracle(sides, layer_height):
    layers = slice_mesh(shapes.ngon_prism(sides, 10, 10), SliceParams(layer_height=layer_height))
    params = ToolpathParams(feed_rate=1234.567891, extrusion_per_mm=0.0333)
    planned = plan_toolpath(layers, params)
    oracle = oracle_plan_toolpath(layers, params)
    assert list(map(repr, planned.commands)) == list(map(repr, oracle.commands))
