import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amstpa_lab.gcode import (
    AbsolutePositioning,
    GCodeError,
    GCodeProgram,
    Home,
    LinearMove,
    ProgramEnd,
    RapidMove,
    ToolpathParams,
    UseMillimeters,
    check_program,
    count_records,
    emit_text,
    fold,
    intended_perimeters,
    parse_text,
    path_length,
    plan_toolpath,
    scan,
)
from amstpa_lab.slicer import Contour, LayerPlan

PROLOGUE = (UseMillimeters(), AbsolutePositioning(), Home())

SQUARE = Contour(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), True)


def square_layer(index=0, z=0.125):
    return LayerPlan(index=index, z=z, contours=(SQUARE,))


def program_layers(prog):
    return fold((0, 0, c) for c in prog.commands).layers


def scan_text_layers(text):
    return fold(scan(text), tolerant=True).layers


class TestPlan:
    def test_zero_layers_prologue_epilogue_only(self):
        prog = plan_toolpath([], ToolpathParams())
        assert prog.commands == PROLOGUE + (ProgramEnd(),)
        check_program(prog)

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
        check_program(cube_program)

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
        with pytest.raises(ValueError):
            ToolpathParams(feed_rate=0.0)
        with pytest.raises(ValueError):
            ToolpathParams(extrusion_per_mm=-1.0)


class TestTextFormat:
    def test_minimal_program(self):
        prog = parse_text(b"G21\nG90\nG28\nM2\n")
        assert prog.commands == PROLOGUE + (ProgramEnd(),)

    def test_linear_move_fields(self):
        prog = parse_text(b"G1 X1.00000 Y0.00000 E0.05000 F1800.00000\n")
        assert prog.commands == (LinearMove(x=1.0, y=0.0, e=0.05, f=1800.0),)

    def test_comments_and_blanks_ignored(self):
        prog = parse_text(b"; job start\nG21\n\nG90 ; absolute\nG28\nM2\n")
        assert prog.commands == PROLOGUE + (ProgramEnd(),)

    def test_unknown_code_rejected_with_line(self):
        with pytest.raises(GCodeError, match="line 2"):
            parse_text(b"G21\nG2 X1 Y1\n")

    def test_malformed_number_rejected(self):
        with pytest.raises(GCodeError, match="malformed number"):
            parse_text(b"G1 Xabc\n")

    def test_nonfinite_number_rejected(self):
        with pytest.raises(GCodeError, match="non-finite"):
            parse_text(b"G1 X1e309\n")
        with pytest.raises(GCodeError, match="non-finite"):
            parse_text(b"G1 Xnan\n")

    def test_unknown_word_rejected(self):
        with pytest.raises(GCodeError, match="unknown word"):
            parse_text(b"T0\n")

    def test_e_on_rapid_rejected(self):
        with pytest.raises(GCodeError, match="unknown word"):
            parse_text(b"G0 X1.0 E0.5\n")

    def test_duplicate_word_rejected(self):
        with pytest.raises(GCodeError, match="duplicate"):
            parse_text(b"G1 X1.0 X2.0\n")

    def test_arguments_on_plain_words_rejected(self):
        with pytest.raises(GCodeError, match="no arguments"):
            parse_text(b"G28 X0\n")

    def test_cube_round_trip(self, cube_program, cube_text):
        assert parse_text(cube_text) == cube_program

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
        assert items[:3] == [UseMillimeters(), AbsolutePositioning(), Home()]
        assert items[3] is None and items[5] is None
        assert isinstance(items[4], GCodeError) and items[4].line == 5
        assert items[6] == ProgramEnd()

    def test_invalid_utf8_rejected_whole(self):
        with pytest.raises(GCodeError, match="not valid UTF-8"):
            parse_text(b"G21\nG90\nG28\nM2 ; \xff\n")
        assert count_records(b"G21\n; \xff\nG1 X\xfe\n") == 2

    def test_count_records(self, cube_text, cube_program):
        assert count_records(cube_text) == len(cube_program.commands)
        assert count_records(b"; comment\n\nG21\n") == 1


class TestProgramInvariants:
    def test_missing_prologue(self):
        with pytest.raises(GCodeError, match="begin"):
            check_program(GCodeProgram((UseMillimeters(), ProgramEnd())))

    def test_missing_end(self):
        with pytest.raises(GCodeError, match="end with M2"):
            check_program(GCodeProgram(PROLOGUE + (RapidMove(x=0.0),)))

    def test_decreasing_extrusion(self):
        prog = GCodeProgram(
            PROLOGUE
            + (LinearMove(x=1.0, e=0.5), LinearMove(x=2.0, e=0.25), ProgramEnd())
        )
        with pytest.raises(GCodeError, match="decreased"):
            check_program(prog)

    def test_nonpositive_feed(self):
        prog = GCodeProgram(PROLOGUE + (LinearMove(x=1.0, f=0.0), ProgramEnd()))
        with pytest.raises(GCodeError, match="feed"):
            check_program(prog)

    def test_interior_m2(self):
        prog = GCodeProgram(PROLOGUE + (ProgramEnd(), ProgramEnd()))
        with pytest.raises(GCodeError, match="before end"):
            check_program(prog)

    def test_nonfinite_coordinate(self):
        prog = GCodeProgram(PROLOGUE + (RapidMove(x=float("inf")), ProgramEnd()))
        with pytest.raises(GCodeError, match="non-finite"):
            check_program(prog)


class TestPathLength:
    def test_prologue_only(self):
        prog = plan_toolpath([], ToolpathParams())
        lengths = path_length(prog)
        assert lengths.travel_mm == 0.0
        assert lengths.extruded_mm == 0.0

    def test_single_square_perimeter(self):
        prog = plan_toolpath([square_layer()], ToolpathParams())
        assert path_length(prog).extruded_mm == pytest.approx(4.0, abs=1e-12)

    def test_cube_extrusion(self, cube_program):
        assert path_length(cube_program).extruded_mm == pytest.approx(16.0, abs=1e-9)

    def test_final_e_matches_extruded_length(self, cube_program):
        linear = [c for c in cube_program.commands if isinstance(c, LinearMove)]
        lengths = path_length(cube_program)
        ratio = ToolpathParams().extrusion_per_mm
        assert linear[-1].e == pytest.approx(lengths.extruded_mm * ratio, rel=1e-9)


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
        scanned = scan_text_layers(mangled)
        assert len(scanned) == 4  # layer starts unaffected

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
    return GCodeProgram(PROLOGUE + tuple(fixed) + (ProgramEnd(),))


@given(programs())
def test_parse_emit_identity(prog):
    check_program(prog)
    assert parse_text(emit_text(prog)) == prog
