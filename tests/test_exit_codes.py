"""Fuzz gate for the CLI's exit-code contract.

Whatever the argv, campaign config, fault spec or input artifact, `amstpa`
exits 0 (success), 1 (findings) or 2 (usage or parse error), and never with
a traceback.  Inputs are drawn small (the unit cube, a few faults, coarse
layers), so each example costs milliseconds.
"""

import io
import json
import math
import os
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from enum import EnumMeta
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amstpa_lab import shapes
from amstpa_lab.cli import main
from amstpa_lab.faultlab import CAMPAIGN_KEYS, FAULT_FIELDS, MitigationEvidence
from amstpa_lab.jsondoc import NUMBER
from amstpa_lab.mesh_io import Vec3, emit_stl_ascii, emit_stl_binary
from amstpa_lab.slicer import LAYERS_KEYS
from amstpa_lab.stpa_core import MODEL_KEYS

CUBE_STL = emit_stl_binary(shapes.box())
CUBE_ASCII = emit_stl_ascii(shapes.box())
MODEL_JSON = (
    Path(__file__).parent.parent / "src" / "amstpa_lab" / "data" / "am_reference_model.json"
).read_bytes()

FEW = settings(max_examples=25)

NUMBERS = [0, 1, -1, 3, 0.25, 0.5, 2.0, 1e-300, 1e30, 1e200, 1e308, -0.0,
           math.nan, math.inf, -math.inf]
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.sampled_from(NUMBERS),
    st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2),
)


def either(*good):
    """Mostly one of `good`, sometimes any junk value."""
    return st.one_of(st.sampled_from(good), st.sampled_from(good), junk)


def run(argv: list[str]) -> tuple[int | None, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    return code, err.getvalue()


def assert_contract(argv: list[str]) -> None:
    code, err = run(argv)
    assert "Traceback" not in err, (argv, err)
    assert code in (0, 1, 2), (argv, code, err)


def _write(directory: str, name: str, data) -> str:
    path = Path(directory) / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# mesh files
# ---------------------------------------------------------------------------

vertex_values = st.sampled_from(["0", "1", "-1", "0.5", "1e30", "1e39", "1e200", "1e308",
                                 "-1e308", "nan", "inf", "x"])


@st.composite
def stl_files(draw):
    kind = draw(st.sampled_from(["cube", "ascii", "wide", "facet", "bytes", "cut"]))
    if kind == "cube":
        return CUBE_STL
    if kind == "ascii":
        return CUBE_ASCII
    if kind == "wide":  # a box as wide as the float range allows, and wider
        width = draw(st.sampled_from([2.0, 1e30, 1e200, 1e308]))
        return emit_stl_ascii(shapes.box(hi=Vec3(width, 1.0, 1.0)))
    if kind == "cut":  # a binary or ASCII cube cut short
        data = draw(st.sampled_from([CUBE_STL, CUBE_ASCII]))
        return data[: draw(st.integers(0, len(data)))]
    if kind == "bytes":
        return draw(st.binary(max_size=120))
    coords = [" ".join(draw(vertex_values) for _ in range(3)) for _ in range(3)]
    return ("solid one\nfacet normal 1 0 0\nouter loop\n"
            + "".join(f"vertex {c}\n" for c in coords)
            + "endloop\nendfacet\nendsolid one\n").encode()


# ---------------------------------------------------------------------------
# campaign configs and fault specs
# ---------------------------------------------------------------------------

KINDS = ["bit_flip", "byte_set", "truncate", "scale_coords", "flip_normals", "drop_packets"]
STAGES = ["after_cad", "after_slice", "in_transit"]


@st.composite
def fault_specs(draw):
    spec = {"kind": draw(either(*KINDS)), "stage": draw(either(*STAGES))}
    optional = {
        "offset": either(0, 7, 100, 10**6),
        "value": either(0, 46, 101, 255, 300),
        "new_len": either(0, 1, 30, 10**6),
        "factor": either(0.5, 2.0, 1e30, 1e200, 0.0),
        "loss_prob": either(0.0, 0.3, 1.0, 1.5),
        "seed": either(0, 1, 2**64),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            spec[key] = draw(values)
    return spec


@st.composite
def campaign_configs(draw, mesh_path):
    doc = {}
    mesh = draw(st.sampled_from(["cube", "octahedron", "path", "junk", None]))
    if mesh == "path":
        doc["mesh"] = {"path": mesh_path}
    elif mesh == "junk":
        doc["mesh"] = draw(st.one_of(junk, st.fixed_dictionaries({"builtin": junk})))
    elif mesh is not None:
        doc["mesh"] = {"builtin": mesh}
    blocks = {
        "slice": {"layer_height": either(0.25, 0.5, 1e-300, 0, -1), "snap_eps": either(1e-7)},
        "toolpath": {"feed_rate": either(1800.0, 0), "extrusion_per_mm": either(0.05, -1)},
        "channel": {"latency_ms": either(1.0, 0.0), "jitter_ms": either(0.0, 2.0),
                    "bandwidth_bytes_per_s": either(125000.0, 1e-300),
                    "loss_prob": either(0.0, 0.2, 1.0)},
        "printer": {"buffer_capacity": either(1 << 20, 16, 0),
                    "policy": either("fullimage", "streaming"),
                    "technology": either("material_extrusion", "binder_jetting"),
                    "nominal_layer_time_ms": either(None, 0.0, 10.0)},
    }
    for key, fields in blocks.items():
        if draw(st.booleans()):
            doc[key] = draw(st.one_of(
                st.fixed_dictionaries({}, optional=fields),
                junk,
            ))
    scalars = {
        "mode": either("reliable", "besteffort"),
        "packet_size": either(256, 16, 1, 0),
        "envelope": either(True, False),
        "ecc": either(True, False),
        "geometry_tol_mm": either(1e-6, 0.0),
        "seed": either(0, 5),
    }
    for key, values in scalars.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    how = draw(st.sampled_from(["faults", "generate", "demo", "none"]))
    if how == "faults":
        doc["faults"] = draw(st.one_of(st.lists(fault_specs(), max_size=3), junk))
    elif how == "generate":
        doc["generate"] = draw(st.fixed_dictionaries({}, optional={
            "count": either(0, 1, 3, -1),
            "kind": either("bit_flip", "truncate"),
            "stage": either(*STAGES),
        }))
    elif how == "demo":
        doc["demo"] = draw(either(True, False))
        doc["generate"] = {"count": draw(st.integers(0, 3))}
    return doc


def table_entries(table: dict, where: str = ""):
    """(dotted path, rule, default) for every key of a config table, nested
    blocks included."""
    for key, (rule, default) in table.items():
        yield where + key, rule, default
        if isinstance(rule, dict):
            yield from table_entries(rule, where + key + ".")


def wrong_typed(rule, default) -> list:
    """JSON values that break `rule`; null breaks it unless null is the default."""
    if isinstance(rule, dict):
        values = [[], "x", 5, True]
    elif isinstance(rule, list):
        values = [{}, "x", 5, True, [5], [[]]]
    elif isinstance(rule, EnumMeta):
        values = ["bogus", "", 1, True, [], {}]
    else:
        values = {
            int: [True, False, 2.5, 2.0, "7", [], {}],
            float: [True, False, "0.5", "1", [], {}],
            NUMBER: [True, False, "0.5", "1", [], {}],
            bool: [0, 1, "false", "true", [], {}],
            str: [5, True, ["cube"], {}],
        }[rule]
    return values + ([] if default is None else [None])


CAMPAIGN_BASE = {"mesh": {"builtin": "cube"}, "generate": {"count": 1}}
ENTRIES = [
    pytest.param(CAMPAIGN_BASE, (), path, rule, default, id=path)
    for path, rule, default in table_entries(CAMPAIGN_KEYS)
] + [
    pytest.param({"mesh": {"builtin": "cube"},
                  "faults": [{"kind": "bit_flip", "stage": "in_transit"}]},
                 ("faults", 0), path, rule, default, id=f"faults.0.{path}")
    for path, rule, default in table_entries(FAULT_FIELDS)
]


@pytest.mark.parametrize("base, at, path, rule, default", ENTRIES)
@settings(max_examples=10)
@given(st.data())
def test_each_table_entry_refuses_a_wrong_type(base, at, path, rule, default, data):
    doc = json.loads(json.dumps(base))
    block = doc
    for key in at:
        block = block[key]
    *outer, key = path.split(".")
    for name in outer:
        block = block.setdefault(name, {})
    block[key] = data.draw(st.sampled_from(wrong_typed(rule, default)))
    with tempfile.TemporaryDirectory() as d:
        code, err = run(["campaign", "--config", _write(d, "config.json", doc)])
    assert code == 2, (doc, err)
    assert err.startswith("error: bad campaign config: ") and "Traceback" not in err, err
    assert ".".join(map(str, at + (path,))) in err, err


def file_entries(table: dict, at: tuple = ()):
    """(key path, rule, default) for every key of a file's table, through
    nested tables and the first object of each array of tables."""
    for key, (rule, default) in table.items():
        yield at + (key,), rule, default
        if isinstance(rule, dict):
            yield from file_entries(rule, at + (key,))
        elif isinstance(rule, list) and isinstance(rule[0], dict):
            yield from file_entries(rule[0], at + (key, 0))


LAYERS_BASE = {"layer_height": 0.5, "layers": [{"index": 0, "z": 0.25, "contours": [
    {"closed": True, "vertices": [[0, 0], [1, 0], [0, 1]]}]}]}
MODEL_BASE = {
    "name": "m",
    "components": [{"id": "a", "name": "A", "kind": "Printer", "subsystem": "Printing"},
                   {"id": "b", "name": "B", "kind": "Display", "subsystem": "Printing"}],
    "paths": [{"id": "p", "source": "a", "target": "b", "kind": "Feedback", "label": "status"}],
}
FILE_ENTRIES = [
    pytest.param(argv, base, at, rule, default, id=f"{argv[0]}:{'.'.join(map(str, at))}")
    for argv, base, table in ((["gcode", "plan"], LAYERS_BASE, LAYERS_KEYS),
                              (["stpa", "--model"], MODEL_BASE, MODEL_KEYS))
    for at, rule, default in file_entries(table)
]


@pytest.mark.parametrize("argv, base, at, rule, default", FILE_ENTRIES)
def test_each_file_table_entry_refuses_a_wrong_type(argv, base, at, rule, default):
    with tempfile.TemporaryDirectory() as d:
        assert run([*argv, _write(d, "base.json", base)])[0] == 0
        for value in wrong_typed(rule, default):
            doc = json.loads(json.dumps(base))
            block = doc
            for key in at[:-1]:
                block = block[key]
            block[at[-1]] = value
            code, err = run([*argv, _write(d, "input.json", doc)])
            assert code == 2 and "Traceback" not in err, (doc, err)
            assert ".".join(map(str, at)) in err, err


# ---------------------------------------------------------------------------
# the gates
# ---------------------------------------------------------------------------

OUT_PATHS = st.sampled_from(["-", "out.json", "out.txt", "out.md", "missing/dir/out.json"])


def _out(directory: str, name: str) -> str:
    return name if name == "-" else str(Path(directory) / name)


@FEW
@given(st.data())
def test_campaign_configs(data):
    with tempfile.TemporaryDirectory() as d:
        mesh = _write(d, "mesh.stl", data.draw(stl_files()))
        doc = data.draw(st.one_of(campaign_configs(mesh), junk))
        config = _write(d, "config.json", doc)
        assert_contract(["campaign", "--config", config, "--out", _out(d, data.draw(OUT_PATHS))])


CHANNELS = st.sampled_from(["", "loss=0.2", "loss=abc", "latency=nan", "jitter=-1", "bw=0",
                            "bw=1e-300", "seed=-1", "seed=x", "loss", "foo=1",
                            "loss=0.5,latency=1,jitter=0.5,bw=125000,seed=7", "loss=1"])


@st.composite
def simulate_argv(draw, mesh):
    argv = ["simulate", "--mesh", mesh]
    flags = {
        "--layer-height": st.sampled_from(["0.25", "0.5", "1e-300", "0", "-1", "nan", "inf", "x"]),
        "--channel": CHANNELS,
        "--mode": st.sampled_from(["reliable", "besteffort", "fast"]),
        "--policy": st.sampled_from(["fullimage", "streaming", "later"]),
        "--buffer": st.sampled_from(["1048576", "16", "0", "-1", "x"]),
        "--packet-size": st.sampled_from(["256", "16", "1", "0", "-5"]),
        "--technology": st.sampled_from(["material_extrusion", "vat_photopolymerization", "x"]),
        "--layer-time-ms": st.sampled_from(["0", "10", "nan", "inf", "-5"]),
        "--feed-rate": st.sampled_from(["1800", "0", "nan", "1e308"]),
        "--extrusion-per-mm": st.sampled_from(["0.05", "-1", "inf"]),
    }
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    for flag in ("--no-envelope", "--ecc"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@FEW
@given(st.data())
def test_simulate_argv(data):
    with tempfile.TemporaryDirectory() as d:
        mesh = _write(d, "mesh.stl", data.draw(stl_files()))
        argv = data.draw(simulate_argv(mesh))
        assert_contract(argv + ["--out", _out(d, data.draw(OUT_PATHS))])


@pytest.mark.parametrize("command", ["campaign", "simulate"])
def test_ecc_without_the_envelope_exits_2(command):
    # check bytes ride in the envelope: without it, ecc would have no effect
    with tempfile.TemporaryDirectory() as d:
        if command == "campaign":
            doc = {"mesh": {"builtin": "cube"}, "envelope": False, "ecc": True,
                   "generate": {"count": 1}}
            argv = ["campaign", "--config", _write(d, "config.json", doc)]
        else:
            argv = ["simulate", "--mesh", _write(d, "mesh.stl", CUBE_STL), "--no-envelope", "--ecc"]
        code, err = run(argv + ["--out", str(Path(d) / "out.json")])
        assert code == 2, err
        assert "ecc" in err and "envelope" in err
        assert not (Path(d) / "out.json").exists()


@st.composite
def layer_docs(draw):
    vertex = st.one_of(st.lists(st.sampled_from([0.0, 1.0, 0.5, 1e200, "x"]), min_size=2,
                                max_size=2), junk)
    contour = st.fixed_dictionaries({}, optional={
        "closed": either(True, False), "vertices": st.one_of(st.lists(vertex, max_size=4), junk)
    })
    layer = st.fixed_dictionaries({}, optional={
        "index": either(0, 1), "z": either(0.1, 0.5), "contours": st.lists(contour, max_size=2)
    })
    return draw(st.one_of(st.fixed_dictionaries({"layers": st.lists(layer, max_size=3)}), junk))


@st.composite
def report_docs(draw):
    stages = st.sampled_from(["parse_error", "undetected", "integrity_verify"]) | st.text(max_size=3)
    histogram = st.dictionaries(stages, either(0, 1, 3), max_size=3)
    campaign = st.fixed_dictionaries({}, optional={
        "trials": either(0, 3),
        "histogram": st.one_of(histogram, junk),
        "undetected_trials": st.one_of(st.lists(fault_specs(), max_size=2), junk),
    })
    evidence = st.dictionaries(st.sampled_from(["fullimage_trials", "raw_trials",
                                                "reliable_loss_prob"]), junk, max_size=3)
    return draw(st.one_of(
        campaign,
        st.fixed_dictionaries({"campaign": campaign, "evidence": evidence}),
        st.fixed_dictionaries({"candidates": junk}),
        junk,
    ))


@FEW
@given(st.data())
def test_artifacts(data):
    with tempfile.TemporaryDirectory() as d:
        command = data.draw(st.sampled_from(["stl", "slice", "gcode", "report", "stpa"]))
        if command == "stl":
            stl = _write(d, "mesh.stl", data.draw(stl_files()))
            argv = ["stl", "validate", stl,
                    "--area-tol", data.draw(st.sampled_from(["1e-12", "0", "-1", "nan"]))]
        elif command == "slice":
            stl = _write(d, "mesh.stl", data.draw(stl_files()))
            argv = ["slice", stl, "--layer-height",
                    data.draw(st.sampled_from(["0.25", "1e-300", "0", "nan", "x"])),
                    "--snap-eps", data.draw(st.sampled_from(["1e-7", "0", "1e308", "inf"]))]
        elif command == "gcode":
            layers = _write(d, "layers.json", data.draw(layer_docs()))
            argv = ["gcode", data.draw(st.sampled_from(["plan", "run"])), layers]
        elif command == "report":
            inputs = [_write(d, f"in{i}.json", doc)
                      for i, doc in enumerate(data.draw(st.lists(report_docs(), max_size=2)))]
            if data.draw(st.booleans()):
                inputs.append(_write(d, "bad.json", data.draw(st.binary(max_size=8))))
            argv = ["report", "--inputs", *inputs]
        else:
            model = json.loads(MODEL_JSON)
            key = data.draw(st.sampled_from(sorted(model)))
            model[key] = data.draw(junk)
            doc = data.draw(st.sampled_from([model, json.loads(MODEL_JSON)]) | junk)
            argv = ["stpa", "--model", _write(d, "model.json", doc)]
        assert_contract(argv + ["--out", _out(d, data.draw(OUT_PATHS))])


FLIP = {"kind": "bit_flip", "stage": "in_transit", "seed": 1}
EVIDENCE = {name: {float: 0.5, int: 3, bool: True}[t]
            for name, t in get_type_hints(MitigationEvidence).items()}


@pytest.mark.parametrize(
    "doc, code",
    [
        pytest.param({"trials": 2, "histogram": {"undetected": 1, "parse_error": 1},
                      "undetected_trials": [FLIP]}, 0, id="consistent"),
        pytest.param({"trials": -5, "histogram": {"undetected": -3, "parse_error": 1},
                      "undetected_trials": []}, 2, id="negative-counts"),
        pytest.param({"trials": 0, "histogram": {"parse_error": -1, "geometry_diff": 1},
                      "undetected_trials": []}, 2, id="negative-count-summing-to-trials"),
        pytest.param({"trials": 3, "histogram": {"parse_error": 1},
                      "undetected_trials": []}, 2, id="histogram-short-of-trials"),
        pytest.param({"trials": 1, "histogram": {"undetected": 1},
                      "undetected_trials": []}, 2, id="undetected-spec-missing"),
        pytest.param({"trials": 1, "histogram": {"parse_error": 1},
                      "undetected_trials": [FLIP]}, 2, id="undetected-spec-extra"),
        pytest.param({"campaign": {"trials": 1, "histogram": {}, "undetected_trials": []},
                      "evidence": EVIDENCE}, 2, id="demo-histogram-short-of-trials"),
    ],
)
def test_report_refuses_impossible_campaign_artifacts(doc, code):
    with tempfile.TemporaryDirectory() as d:
        got, err = run(["report", "--inputs", _write(d, "c.json", doc),
                        "--out", str(Path(d) / "report.md")])
    assert "Traceback" not in err
    assert got == code, err


WORDS = ["stpa", "stl", "slice", "gcode", "simulate", "campaign", "report", "validate", "plan",
         "--builtin-am", "--model", "--out", "--format", "--layer-height", "--mesh", "--config",
         "--inputs", "--channel", "--buffer", "--ecc", "-", "json", "md", "txt", "0.25", "-1",
         "nan", "", "x", "--help", "-h"]


@FEW
@given(st.lists(st.sampled_from(WORDS), max_size=6))
def test_argv_words(argv):
    # run in an empty directory: the files named here do not exist, and any
    # output file lands there
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            assert_contract(argv)
        finally:
            os.chdir(home)
