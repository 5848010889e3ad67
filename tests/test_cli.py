import argparse
import hashlib
import importlib.resources
import io
import json
import math
import re
import subprocess
import sys
from contextlib import redirect_stdout
from enum import Enum
from pathlib import Path
from typing import get_type_hints

import pytest

from amstpa_lab import cli, faultlab, gcode, shapes
from amstpa_lab.cli import main
from amstpa_lab.faultlab import CAMPAIGN_KEYS, SIMULATE_KEYS, MitigationEvidence, PipelineConfig
from amstpa_lab.gcode import ToolpathParams
from amstpa_lab.jsondoc import read_doc
from amstpa_lab.mesh_io import TriangleMesh, Vec3, emit_stl_ascii, emit_stl_binary
from amstpa_lab.netsim import ChannelParams, TransferMode
from amstpa_lab.printer_sim import PrinterConfig, PrinterTechnology, PrintPolicy
from amstpa_lab.slicer import SliceParams


@pytest.fixture()
def cube_file(tmp_path, cube):
    path = tmp_path / "cube.stl"
    path.write_bytes(emit_stl_binary(cube))
    return path


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main([str(a) for a in argv])
    return code, buffer.getvalue()


class TestStpaCommand:
    def test_builtin_to_stdout(self):
        code, out = run_cli(["stpa", "--builtin-am", "--out", "-"])
        assert code == 0
        doc = json.loads(out)
        assert doc["candidate_count"] == 4 * (doc["component_count"] + doc["path_count"])

    def test_byte_identical_across_runs(self, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert run_cli(["stpa", "--builtin-am", "--out", path])[0] == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_text_format(self, tmp_path):
        path = tmp_path / "hazards.txt"
        assert run_cli(["stpa", "--builtin-am", "--out", path])[0] == 0
        assert "total: 80 candidates" in path.read_text()

    def test_model_file(self, tmp_path):
        model = {
            "name": "tiny",
            "components": [
                {"id": "a", "name": "A", "kind": "Printer", "subsystem": "Printing"}
            ],
            "paths": [],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, out = run_cli(["stpa", "--model", path, "--out", "-"])
        assert code == 0
        assert json.loads(out)["candidate_count"] == 4

    def test_bad_model_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert run_cli(["stpa", "--model", path, "--out", "-"])[0] == 2

    def test_missing_source_exits_2(self):
        assert run_cli(["stpa", "--out", "-"])[0] == 2

    def test_non_finite_model_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"name": "m", "components": [], "paths": [], "x": NaN, "y": Infinity}')
        assert main(["stpa", "--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: model file is not valid JSON: NaN is not a finite number\n"
        assert captured.out == ""


class TestStlCommand:
    def test_clean_cube(self, cube_file):
        code, out = run_cli(["stl", "validate", cube_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["watertight"] is True
        assert doc["facet_count"] == 12

    def test_broken_mesh_exits_1(self, tmp_path, cube):
        broken = TriangleMesh(cube.facets[1:], cube.source_encoding)
        path = tmp_path / "broken.stl"
        path.write_bytes(emit_stl_binary(broken))
        code, out = run_cli(["stl", "validate", path])
        assert code == 1
        assert json.loads(out)["nonmanifold_edges"] == 3

    def test_unparseable_exits_2(self, tmp_path):
        path = tmp_path / "junk.stl"
        path.write_bytes(b"not an stl at all")
        assert run_cli(["stl", "validate", path])[0] == 2

    def test_missing_file_exits_2(self):
        assert run_cli(["stl", "validate", "/no/such/file.stl"])[0] == 2


class TestSliceAndGcode:
    def test_slice_then_plan(self, tmp_path, cube_file):
        layers = tmp_path / "layers.json"
        code, _ = run_cli(["slice", cube_file, "--layer-height", "0.25", "--out", layers])
        assert code == 0
        doc = json.loads(layers.read_text())
        assert len(doc["layers"]) == 4

        job = tmp_path / "job.gcode"
        code, _ = run_cli(["gcode", "plan", layers, "--out", job])
        assert code == 0
        text = job.read_text()
        assert text.startswith("G21\nG90\nG28\n")
        assert text.endswith("M2\n")
        assert text.count("G1 ") == 16

    def test_bad_layer_height_exits_2(self, cube_file):
        assert run_cli(["slice", cube_file, "--layer-height", "-1"])[0] == 2

    def test_gcode_rejects_non_layer_file(self, tmp_path, cube_file):
        assert run_cli(["gcode", "plan", cube_file, "--out", "-"])[0] == 2

    def test_no_partial_output_on_error(self, tmp_path, cube_file):
        out = tmp_path / "never.json"
        code, _ = run_cli(["gcode", "plan", cube_file, "--out", out])
        assert code == 2
        assert not out.exists()


class TestSimulate:
    def test_lossless_completes(self, cube_file):
        code, out = run_cli(
            [
                "simulate", "--mesh", cube_file,
                "--channel", "loss=0,latency=1,jitter=0,bw=125000,seed=5",
                "--mode", "reliable", "--policy", "fullimage", "--buffer", "1048576",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == {"status": "completed", "layers_printed": 4, "reason": None}
        assert doc["planned_extrusion_mm"] == pytest.approx(16.0, abs=1e-9)
        assert doc["geometry_diff"] == {"max_extrusion_error_mm": 0.0, "layers_missing": 0}

    def test_small_buffer_rejects_and_exits_1(self, cube_file):
        code, out = run_cli(
            ["simulate", "--mesh", cube_file, "--policy", "fullimage", "--buffer", "64"]
        )
        assert code == 1
        assert json.loads(out)["outcome"]["reason"] == "buffer_too_small"

    def test_streaming_besteffort_lossy_exits_1(self, cube_file):
        code, out = run_cli(
            [
                "simulate", "--mesh", cube_file, "--channel", "loss=0.4,seed=9",
                "--mode", "besteffort", "--policy", "streaming",
            ]
        )
        assert code == 1
        assert json.loads(out)["outcome"]["status"] in (
            "scrapped_mid_print", "rejected_before_print"
        )

    def test_intact_delivery_scans_nothing(self, cube_file, monkeypatch):
        calls = []

        def counting(data, *args, _scan=gcode.scan):
            calls.append(data)
            return _scan(data, *args)

        monkeypatch.setattr(gcode, "scan", counting)
        code, out = run_cli(["simulate", "--mesh", cube_file, "--policy", "streaming"])
        assert code == 0
        assert json.loads(out)["outcome"]["layers_printed"] == 4
        assert calls == []

    def test_bad_channel_spec_exits_2(self, cube_file):
        assert run_cli(["simulate", "--mesh", cube_file, "--channel", "zap=1"])[0] == 2

    @pytest.mark.parametrize(
        "flags",
        [["--buffer", "0"], ["--packet-size", "0"], ["--channel", "loss=abc"],
         ["--feed-rate", "inf"]],
        ids=["buffer-0", "packet-size-0", "channel-loss-not-a-number", "feed-rate-inf"],
    )
    def test_bad_flag_exits_2_before_slicing(self, cube_file, monkeypatch, capsys, flags):
        calls = []
        for module in (cli, faultlab):
            sliced = module.slice_mesh

            def counting(*args, _sliced=sliced, **kwargs):
                calls.append(args)
                return _sliced(*args, **kwargs)

            monkeypatch.setattr(module, "slice_mesh", counting)
        assert main(["simulate", "--mesh", str(cube_file), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    @pytest.mark.parametrize(
        "flags, code, digest",
        [
            (["--no-envelope"], 0,
             "d60bc38e6e0de79ab3c4e59d19521453684a99a84fd75cb569f466357ca30ade"),
            (["--ecc"], 0,
             "43813821bdbc6ec2219bc49829ea9aea91e43a411f4fa93b60ab3f4e7e78b1fa"),
            (["--policy", "streaming"], 0,
             "bc6d830e802eb4a84d1b24c30c5a0a7d90db688c90092d37fca0cba5960cc19c"),
            (["--mode", "besteffort", "--channel", "loss=0.2,seed=3"], 1,
             "651f4e30cf867a3827e52f1a40144a122c0a8302719a60f941ce388504dc1043"),
        ],
        ids=["no-envelope", "ecc", "streaming", "besteffort-lossy"],
    )
    def test_output_unchanged(self, cube_file, monkeypatch, flags, code, digest):
        # digests of the JSON recorded before simulate built its job through
        # faultlab.build_job and transfer merged its per-mode loops
        monkeypatch.chdir(cube_file.parent)
        got_code, out = run_cli(["simulate", "--mesh", cube_file.name, *flags])
        assert got_code == code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestCampaignAndReport:
    def test_generated_campaign(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "seed": 7,
                    "mesh": {"builtin": "cube"},
                    "generate": {"kind": "bit_flip", "count": 50, "stage": "in_transit"},
                }
            )
        )
        code, out = run_cli(["campaign", "--config", config])
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 50
        assert doc["histogram"] == {"integrity_verify": 50}

    def test_explicit_faults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "mesh": {"builtin": "cube"},
                    "faults": [
                        {"kind": "scale_coords", "stage": "after_cad", "factor": 1.001},
                        {"kind": "flip_normals", "stage": "after_cad"},
                    ],
                }
            )
        )
        code, out = run_cli(["campaign", "--config", config])
        assert code == 0
        doc = json.loads(out)
        assert doc["histogram"] == {"geometry_diff": 1, "mesh_validation": 1}

    def test_demo_campaign_feeds_report(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"seed": 42, "mesh": {"builtin": "cube"}, "demo": True,
                 "generate": {"count": 80}}
            )
        )
        campaign_out = tmp_path / "campaign.json"
        assert run_cli(["campaign", "--config", config, "--out", campaign_out])[0] == 0

        hazards_out = tmp_path / "hazards.json"
        assert run_cli(["stpa", "--builtin-am", "--out", hazards_out])[0] == 0

        report_md = tmp_path / "report.md"
        code, _ = run_cli(
            ["report", "--inputs", hazards_out, campaign_out, "--out", report_md]
        )
        assert code == 0
        text = report_md.read_text()
        for mid in range(1, 6):
            assert f"| {mid} | Demonstrated |" in text
        assert "| 6 | CatalogOnly |" in text

        report_json = tmp_path / "report.json"
        code, _ = run_cli(
            ["report", "--inputs", hazards_out, campaign_out, "--out", report_json]
        )
        doc = json.loads(report_json.read_text())
        demonstrated = [m["id"] for m in doc["mitigations"] if m["status"] == "Demonstrated"]
        assert demonstrated == [1, 2, 3, 4, 5]

    def test_empty_report(self):
        code, out = run_cli(["report", "--out", "-", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["hazards"] is None
        assert len(doc["mitigations"]) == 25

    def test_unknown_input_artifact_exits_2(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"what": 1}')
        assert run_cli(["report", "--inputs", bogus, "--out", "-"])[0] == 2

    def test_missing_campaign_spec_exits_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mesh": {"builtin": "cube"}}))
        assert run_cli(["campaign", "--config", config])[0] == 2


CUBE_FLIPS = {"mesh": {"builtin": "cube"}, "generate": {"count": 2}}
EVIDENCE_FIELDS = list(MitigationEvidence._fields)


def _one_fault(kind, stage, **params):
    return {"mesh": {"builtin": "cube"}, "faults": [{"kind": kind, "stage": stage, **params}]}


def _demo_artifact(**evidence):
    """A demo campaign artifact whose evidence is well typed but for `evidence`."""
    typed = {float: 0.5, int: 3, bool: True}
    fields = {name: typed[t] for name, t in get_type_hints(MitigationEvidence).items()}
    return {
        "campaign": {"trials": 0, "histogram": {}, "undetected_trials": []},
        "evidence": fields | evidence,
    }


@pytest.mark.parametrize(
    "command, payload",
    [
        pytest.param("simulate", ["--channel", "loss=abc"], id="channel-loss-not-a-number"),
        pytest.param("simulate", ["--channel", "loss"], id="channel-item-not-key-value"),
        pytest.param("simulate", ["--packet-size", "0"], id="simulate-packet-size-0"),
        pytest.param("simulate", ["--channel", "latency=nan"], id="channel-latency-nan"),
        pytest.param("simulate", ["--channel", "jitter=inf"], id="channel-jitter-inf"),
        pytest.param("simulate", ["--channel", "bw=inf"], id="channel-bandwidth-inf"),
        pytest.param("simulate", ["--layer-time-ms", "nan"], id="layer-time-nan"),
        pytest.param("simulate", ["--layer-time-ms", "-5"], id="layer-time-negative"),
        # finite numbers whose products overflow: the result would hold Infinity
        pytest.param("simulate", ["--channel", "bw=5e-308"], id="simulate-time-overflows"),
        pytest.param(
            "simulate",
            ["--channel", "latency=1e308", "--layer-time-ms", "1e308"],
            id="simulate-latency-and-layer-time-overflow",
        ),
        pytest.param(
            "campaign",
            {"demo": True, "generate": {"count": 3}, "channel": {"latency_ms": 1e308}},
            id="demo-evidence-time-overflows",
        ),
        pytest.param(
            "campaign", {**CUBE_FLIPS, "channel": {"latency_ms": math.nan}}, id="config-latency-nan"
        ),
        pytest.param(
            "campaign", {**CUBE_FLIPS, "channel": {"jitter_ms": math.inf}}, id="config-jitter-inf"
        ),
        pytest.param(
            "campaign",
            {**CUBE_FLIPS, "channel": {"bandwidth_bytes_per_s": math.inf}},
            id="config-bandwidth-inf",
        ),
        pytest.param(
            "campaign",
            {**CUBE_FLIPS, "printer": {"nominal_layer_time_ms": math.nan}},
            id="config-layer-time-nan",
        ),
        pytest.param(
            "campaign",
            {**CUBE_FLIPS, "printer": {"nominal_layer_time_ms": -5}},
            id="config-layer-time-negative",
        ),
        pytest.param("campaign", [CUBE_FLIPS], id="config-top-level-list"),
        pytest.param("campaign", {**CUBE_FLIPS, "slice": []}, id="config-block-not-object"),
        pytest.param("campaign", {"mesh": {"builtin": ["cube"]}}, id="builtin-mesh-not-a-name"),
        pytest.param("campaign", {"faults": [5]}, id="fault-not-object"),
        pytest.param(
            "campaign",
            {**CUBE_FLIPS, "printer": {"nominal_layer_time_ms": "abc"}},
            id="layer-time-not-a-number",
        ),
        pytest.param("campaign", {**CUBE_FLIPS, "packet_size": 0}, id="config-packet-size-0"),
        pytest.param(
            "campaign", {**CUBE_FLIPS, "geometry_tol_mm": -1}, id="config-geometry-tol-negative"
        ),
        pytest.param(
            "campaign", {**CUBE_FLIPS, "geometry_tol_mm": math.inf}, id="config-geometry-tol-inf"
        ),
        pytest.param("campaign", {**CUBE_FLIPS, "seed": math.inf}, id="config-seed-inf"),
        pytest.param(
            "campaign", {**CUBE_FLIPS, "printer": {"buffer_capacity": math.inf}},
            id="config-buffer-inf",
        ),
        pytest.param(
            "campaign", {"generate": {"count": -math.inf}}, id="generate-count-inf"
        ),
        pytest.param(
            "campaign", {"faults": [{"kind": "bit_flip", "stage": "in_transit", "seed": math.nan}]},
            id="fault-seed-nan",
        ),
        pytest.param(
            "campaign", {**CUBE_FLIPS, "demo": True, "envelope": False}, id="demo-without-envelope"
        ),
        pytest.param("campaign", {**CUBE_FLIPS, "demo": "false"}, id="config-demo-string"),
        pytest.param("campaign", {**CUBE_FLIPS, "ecc": "false"}, id="config-ecc-string"),
        pytest.param("campaign", {**CUBE_FLIPS, "envelope": "no"}, id="config-envelope-string"),
        pytest.param(
            "campaign",
            _one_fault("drop_packets", "after_slice", loss_prob=0.5),
            id="drop-packets-after-slice",
        ),
        pytest.param(
            "campaign", _one_fault("scale_coords", "in_transit", factor=1.1), id="scale-in-transit"
        ),
        pytest.param(
            "campaign", _one_fault("scale_coords", "after_cad", factor=0), id="scale-factor-0"
        ),
        pytest.param(
            "campaign",
            _one_fault("scale_coords", "after_cad", factor=10**400),
            id="scale-factor-int-past-double-range",
        ),
        pytest.param(
            "campaign", _one_fault("drop_packets", "in_transit"), id="drop-packets-no-loss-prob"
        ),
        pytest.param(
            "campaign", _one_fault("byte_set", "in_transit", value=300), id="byte-set-value-300"
        ),
        pytest.param(
            "campaign", _one_fault("bit_flip", "after_slice", offset=-3), id="bit-flip-offset-neg"
        ),
        pytest.param(
            "campaign", _one_fault("truncate", "in_transit", new_len="abc"), id="truncate-len-abc"
        ),
        pytest.param(
            "campaign",
            _one_fault("bit_flip", "after_slice", offset=999999999),
            id="bit-flip-offset-past-target",
        ),
        pytest.param(
            "campaign",
            _one_fault("byte_set", "in_transit", offset=1 << 40),
            id="byte-set-offset-past-target",
        ),
        pytest.param(
            "campaign",
            _one_fault("truncate", "after_cad", new_len=1 << 40),
            id="truncate-len-past-target",
        ),
        # a wrongly typed value is refused, not coerced into another experiment
        pytest.param("campaign", {**CUBE_FLIPS, "packet_size": True}, id="config-packet-size-true"),
        pytest.param("campaign", {**CUBE_FLIPS, "seed": "7"}, id="config-seed-string"),
        pytest.param("campaign", {"generate": {"count": 2.9}}, id="generate-count-fraction"),
        pytest.param(
            "campaign", {**CUBE_FLIPS, "slice": {"layer_height": "0.5"}},
            id="config-layer-height-string",
        ),
        pytest.param(
            "campaign", {**CUBE_FLIPS, "printer": {"nominal_layer_time_ms": "12"}},
            id="config-layer-time-string",
        ),
        pytest.param(
            "campaign", {**CUBE_FLIPS, "printer": {"buffer_capacity": 4096.7}},
            id="config-buffer-fraction",
        ),
        pytest.param(
            "campaign", _one_fault("byte_set", "in_transit", offset=True), id="fault-offset-true"
        ),
        pytest.param(
            "campaign", _one_fault("byte_set", "in_transit", value=True), id="fault-value-true"
        ),
        pytest.param(
            "campaign", _one_fault("byte_set", "in_transit", seed=2.5), id="fault-seed-fraction"
        ),
        pytest.param(
            "campaign", _one_fault("scale_coords", "after_cad", factor=True), id="scale-factor-true"
        ),
        pytest.param("campaign", {"generate": {"count": -4}}, id="generate-count-negative"),
        pytest.param("campaign", {"generate": {"kind": "truncate"}}, id="generate-kind-truncate"),
        pytest.param(
            "campaign", {"demo": True, "faults": [{"kind": "truncate", "stage": "in_transit"}]},
            id="demo-with-faults-only",
        ),
        pytest.param(
            "campaign", {"mesh": {"builtin": "sphere"}, "generate": {"count": 1}},
            id="builtin-mesh-unknown",
        ),
        pytest.param("campaign", {"mesh": {}, "generate": {"count": 1}}, id="mesh-block-empty"),
        pytest.param(
            "campaign",
            {"demo": True, "generate": {"count": 1},
             "faults": [{"kind": "truncate", "stage": "in_transit"}]},
            id="demo-with-faults",
        ),
        pytest.param(
            "campaign", {"demo": True, "generate": {"count": 1, "stage": "after_cad"}},
            id="demo-stage-after-cad",
        ),
        pytest.param(
            "report",
            {"trials": 1, "histogram": {"bogus": 1}, "undetected_trials": []},
            id="report-unknown-stage",
        ),
        pytest.param("report", {"campaign": {}, "evidence": {}}, id="report-empty-demo-artifact"),
        pytest.param("report", {"trials": math.inf, "histogram": {}}, id="report-trials-inf"),
        pytest.param(
            "report",
            {"trials": 1, "histogram": {"integrity_verify": 1e400}, "undetected_trials": []},
            id="report-count-1e400",
        ),
        pytest.param(
            "report",
            {
                "campaign": {"trials": 0, "histogram": {}, "undetected_trials": []},
                "evidence": dict.fromkeys(EVIDENCE_FIELDS, "abc"),
            },
            id="report-evidence-not-numbers",
        ),
        pytest.param(
            "report", {"trials": "5", "histogram": {"undetected": 2}, "undetected_trials": []},
            id="report-trials-string",
        ),
        pytest.param("report", _demo_artifact(raw_trials=True), id="report-evidence-count-true"),
        pytest.param(
            "report", _demo_artifact(raw_trials=2.5), id="report-evidence-count-fraction"
        ),
        pytest.param(
            "report", _demo_artifact(reliable_intact_under_loss=1), id="report-evidence-flag-1"
        ),
        pytest.param(
            "campaign",
            {"mesh": {"builtin": "cube", "path": "/nonexistent.stl"},
             "faults": [{"kind": "bit_flip", "stage": "in_transit", "seed": 1}],
             "generate": {"count": 5}},
            id="config-faults-and-generate-and-two-meshes",
        ),
        pytest.param(
            "campaign",
            {"faults": [{"kind": "bit_flip", "stage": "in_transit", "seed": 1}],
             "generate": {"count": 5}},
            id="config-faults-and-generate",
        ),
        pytest.param(
            "campaign",
            {"mesh": {"builtin": "cube", "path": "/nonexistent.stl"}, "generate": {"count": 1}},
            id="config-mesh-builtin-and-path",
        ),
        pytest.param(
            "report", {"trials": 5, "histogram": {"undetected": 2.9}, "undetected_trials": []},
            id="report-count-fraction",
        ),
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, cube_file, capsys, command, payload):
    if command == "simulate":
        argv = ["simulate", "--mesh", str(cube_file), *payload]
    else:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        flag = "--config" if command == "campaign" else "--inputs"
        argv = [command, flag, str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["stpa", "gcode", "campaign", "report"])
def test_deeply_nested_json_exits_2_without_traceback(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "stpa": ["stpa", "--model"],
        "gcode": ["gcode", "plan"],
        "campaign": ["campaign", "--config"],
        "report": ["report", "--inputs"],
    }[command]
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "recursion depth" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("vertex", ["0 0 inf", "0 0 nan", "nan 0 1"])
@pytest.mark.parametrize("command", ["slice", "simulate", "campaign"])
def test_nonfinite_mesh_exits_2_without_traceback(tmp_path, capsys, command, vertex):
    mesh = tmp_path / "bad.stl"
    mesh.write_text(
        "solid bad\nfacet normal 0 -1 0\nouter loop\n"
        f"vertex 0 0 0\nvertex 1 0 1\nvertex {vertex}\n"
        "endloop\nendfacet\nendsolid bad\n"
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mesh": {"path": str(mesh)}, "generate": {"count": 2}}))
    argv = {
        "slice": ["slice", str(mesh), "--layer-height", "0.25"],
        "simulate": ["simulate", "--mesh", str(mesh)],
        "campaign": ["campaign", "--config", str(config)],
    }[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {mesh}: facet 0 has a non-finite coordinate\n"
    assert captured.out == ""


def test_unknown_key_is_named_on_stderr_and_changes_no_output(tmp_path):
    def campaign(name, doc):
        config, result = tmp_path / f"{name}.json", tmp_path / f"{name}-result.json"
        config.write_text(json.dumps(doc))
        argv = [sys.executable, "-m", "amstpa_lab", "campaign", "--config", str(config)]
        to_stdout = subprocess.run(argv, capture_output=True, text=True)
        to_file = subprocess.run(argv + ["--out", str(result)], capture_output=True, text=True)
        assert to_stdout.returncode == to_file.returncode == 0
        return to_stdout.stdout, result.read_bytes(), to_stdout.stderr + to_file.stderr

    plain = campaign("plain", CUBE_FLIPS)
    misspelled = campaign("misspelled", {**CUBE_FLIPS, "chanel": {"loss_prob": 0.5}})
    assert misspelled[:2] == plain[:2]
    assert plain[2] == ""
    assert misspelled[2] == "ignoring unknown key chanel\n" * 2


def test_pipeline_flags_hold_no_defaults():
    # a flag left out is left out of the config, so it takes the default of
    # the table or class that reads it: argparse holds no copy of one
    (commands,) = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    for name in ("stl", "slice", "gcode", "simulate"):
        for action in commands.choices[name]._actions:
            if action.dest not in ("help", "out"):
                assert action.default is None, (name, action.option_strings)


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], PipelineConfig(SliceParams(0.25), ToolpathParams(), ChannelParams(),
                            PrinterConfig(1 << 20, PrintPolicy.FULL_IMAGE))),
        (["--layer-height", "0.5", "--feed-rate", "1200", "--extrusion-per-mm", "0.1",
          "--channel", "loss=0.1,latency=2,jitter=0.5,bw=1000,seed=9", "--mode", "besteffort",
          "--policy", "streaming", "--buffer", "4096", "--packet-size", "64",
          "--technology", "vat_photopolymerization", "--layer-time-ms", "5", "--ecc"],
         PipelineConfig(SliceParams(0.5), ToolpathParams(1200.0, 0.1),
                        ChannelParams(2.0, 0.5, 1000.0, 0.1, 9),
                        PrinterConfig(4096, PrintPolicy.STREAMING,
                                      PrinterTechnology.VAT_PHOTOPOLYMERIZATION, 5.0),
                        TransferMode.BEST_EFFORT, 64, ecc=True)),
        (["--no-envelope"], PipelineConfig(SliceParams(0.25), ToolpathParams(), ChannelParams(),
                                           PrinterConfig(1 << 20, PrintPolicy.FULL_IMAGE),
                                           enveloped=False)),
    ],
    ids=["none", "every-flag", "no-envelope"],
)
def test_each_simulate_flag_sets_its_config_key(cube_file, monkeypatch, flags, expected):
    built = []

    def build_job(cfg, mesh):
        built.append(cfg)
        raise ValueError("stop")

    monkeypatch.setattr(cli, "build_job", build_job)
    assert main(["simulate", "--mesh", str(cube_file), *flags]) == 2
    assert built == [expected]


README = Path(__file__).resolve().parent.parent / "README.md"


def _dotted(doc: dict, where: str = "") -> dict:
    """A read config's values by dotted key, each member by its JSON value."""
    flat = {}
    for key, value in doc.items():
        if type(value) is dict:
            flat.update(_dotted(value, f"{where}{key}."))
        else:
            flat[where + key] = value.value if isinstance(value, Enum) else value
    return flat


def test_readme_states_every_config_default():
    text = README.read_text(encoding="utf-8")
    table = text.split("| key | type | default |\n|---|---|---|\n")[1].split("\n\n")[0]
    documented = {}
    for row in table.splitlines():
        key, _, default = (cell.strip() for cell in row.strip("|").split("|"))
        documented[key.strip("`")] = json.loads(re.match(r"`([^`]*)`", default)[1])
    campaign = _dotted(read_doc({}, CAMPAIGN_KEYS))
    assert documented == campaign
    # simulate's defaults are a campaign's, but for the keys its paragraph names
    (paragraph,) = (p for p in text.split("\n\n") if p.startswith("`simulate` reads its flags"))
    stated = {key: json.loads(v) for key, v in re.findall(r"`([\w.]+)` is `([^`]*)`", paragraph)}
    simulate = _dotted(read_doc({}, SIMULATE_KEYS))
    assert stated == {k: v for k, v in simulate.items() if k not in campaign or campaign[k] != v}


def _amstpa(*argv):
    """(exit code, stdout bytes, stderr) of the CLI in a fresh process, where
    its warnings reach stderr."""
    run = subprocess.run([sys.executable, "-m", "amstpa_lab", *map(str, argv)],
                         capture_output=True)
    return run.returncode, run.stdout, run.stderr.decode()


def test_stpa_and_slice_then_plan_write_nothing_to_stderr(tmp_path, cube_file):
    assert _amstpa("stpa", "--builtin-am", "--out", "-")[::2] == (0, "")
    layers = tmp_path / "layers.json"
    assert _amstpa("slice", cube_file, "--layer-height", "0.25", "--out", layers) == (0, b"", "")
    code, out, err = _amstpa("gcode", "plan", layers)
    assert (code, err) == (0, "") and out.endswith(b"M2\n")


def test_unknown_model_key_is_named_on_stderr_and_changes_no_output(tmp_path):
    bundled = importlib.resources.files("amstpa_lab") / "data" / "am_reference_model.json"
    doc = json.loads(bundled.read_bytes())
    doc["notes"] = "draft"
    doc["paths"][3]["notes"] = "check the label"
    model = tmp_path / "notes.json"
    model.write_text(json.dumps(doc))
    plain_code, plain_out, plain_err = _amstpa("stpa", "--model", bundled, "--out", "-")
    code, out, err = _amstpa("stpa", "--model", model, "--out", "-")
    assert plain_code == code == 0 and out == plain_out
    assert plain_err == ""
    assert err == "ignoring unknown key model.notes\nignoring unknown key model.paths.3.notes\n"


def test_unknown_layers_key_is_named_on_stderr_and_changes_no_output(tmp_path):
    plain, extra = tmp_path / "plain.json", tmp_path / "extra.json"
    plain.write_text(json.dumps(LAYERS_DOC))
    doc = _layers_with(("units",), "mm")
    doc["layers"][0]["contours"][0]["colour"] = "red"
    extra.write_text(json.dumps(doc))
    plain_code, plain_out, plain_err = _amstpa("gcode", "plan", plain)
    code, out, err = _amstpa("gcode", "plan", extra)
    assert plain_code == code == 0 and out == plain_out != b""
    assert plain_err == ""
    assert err == ("ignoring unknown key units\n"
                   "ignoring unknown key layers.0.contours.0.colour\n")


def test_after_cad_faults_on_an_invalid_base_mesh_exit_2(tmp_path, capsys, cube):
    # the unit cube less one facet fails mesh validation, so every after-CAD
    # trial would land there, whatever its fault changed
    mesh = tmp_path / "open-cube.stl"
    mesh.write_bytes(emit_stl_binary(TriangleMesh(cube.facets[1:])))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mesh": {"path": str(mesh)}, "faults": [
        {"kind": "byte_set", "stage": "after_cad", "offset": 3, "value": 65},
        {"kind": "flip_normals", "stage": "after_cad"},
    ]}))
    code = main(["campaign", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: after-CAD faults need a base mesh that passes mesh validation\n"
    )
    assert captured.out == ""


def _one_facet(tmp_path, a, b, c):
    mesh = tmp_path / "facet.stl"
    mesh.write_text(
        "solid one\nfacet normal 1 0 0\nouter loop\n"
        f"vertex {a}\nvertex {b}\nvertex {c}\n"
        "endloop\nendfacet\nendsolid one\n"
    )
    return mesh


@pytest.mark.usefixtures("in_process")
def test_campaign_mesh_beyond_float32_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    mesh = _one_facet(tmp_path, "1e39 0 1", "0 1 1", "0 0 1")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mesh": {"path": str(mesh)}, "generate": {"count": 1}}))
    trials = []
    monkeypatch.setattr(faultlab, "_run_trial", lambda *args: trials.append(args))
    code = main(["campaign", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: cannot prepare the pristine job: "
        "facet 0 has a coordinate beyond 32-bit float range\n"
    )
    assert captured.out == "" and trials == []


def test_slice_whose_crossings_overflow_exits_2(tmp_path, capsys):
    # finite vertices, but the crossing points at z = 0.25 overflow a double
    mesh = _one_facet(tmp_path, "-1e308 -1e308 0", "1e308 1e308 1", "1e308 -1e308 0.5")
    out = tmp_path / "layers.json"
    code = main(["slice", str(mesh), "--layer-height", "0.5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: the result has a number that overflows a double\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "number, error",
    [
        *((n, f"not valid JSON: {n} is not a finite number")
          for n in ("Infinity", "-Infinity", "NaN", "1e400")),
        ("1" + "0" * 400, "not a layers file: int too large to convert to float"),
    ],
    ids=["Infinity", "-Infinity", "NaN", "1e400", "int-past-double-range"],
)
def test_gcode_plan_refuses_a_non_finite_layers_file(tmp_path, capsys, number, error):
    layers = tmp_path / "layers.json"
    layers.write_text(
        '{"layer_height": 0.5, "layers": [{"index": 0, "z": 0.25, "contours": '
        f'[{{"closed": true, "vertices": [[0, 0], [{number}, 0], [0, 1]]}}]}}]}}'
    )
    code = main(["gcode", "plan", str(layers)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {layers}: {error}\n"
    assert captured.out == ""


LAYERS_DOC = {
    "layer_height": 0.5,
    "layers": [
        {"index": 0, "z": 0.25,
         "contours": [{"closed": True, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}]},
    ],
}


def _layers_with(path, value):
    doc = json.loads(json.dumps(LAYERS_DOC))
    *outer, key = path
    block = doc
    for name in outer:
        block = block[name]
    block[key] = value
    return doc


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("layers", 0, "contours", 0, "closed"), "false", "layers.0.contours.0.closed"),
        (("layers", 0, "contours", 0, "closed"), 1, "layers.0.contours.0.closed"),
        (("layers", 0, "index"), 2.9, "layers.0.index"),
        (("layers", 0, "index"), True, "layers.0.index"),
        (("layers", 0, "index"), "0", "layers.0.index"),
        (("layers", 0, "z"), "0.25", "layers.0.z"),
        (("layers", 0, "z"), False, "layers.0.z"),
        (("layers", 0, "contours", 0, "vertices", 1, 0), True, "layers.0.contours.0.vertices"),
        (("layers", 0, "contours", 0, "vertices", 2, 1), "1", "layers.0.contours.0.vertices"),
    ],
    ids=["closed-string", "closed-1", "index-fraction", "index-true", "index-string",
         "z-string", "z-false", "vertex-true", "vertex-string"],
)
def test_gcode_plan_refuses_a_mistyped_layers_file(tmp_path, capsys, path, value, named):
    layers = tmp_path / "layers.json"
    layers.write_text(json.dumps(_layers_with(path, value)))
    code = main(["gcode", "plan", str(layers)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {layers}: not a layers file: {named} must be ")
    assert captured.out == ""


def test_gcode_plan_reads_integral_numbers_as_floats(tmp_path, capsys):
    # a JSON integer is a number: it plans exactly as the same float
    written = {}
    for name, doc in (
        ("floats", LAYERS_DOC),
        ("ints", _layers_with(("layers", 0, "contours", 0, "vertices"), [[0, 0], [1, 0], [0, 1]])),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["gcode", "plan", str(path)]) == 0
        written[name] = capsys.readouterr().out
    assert written["ints"] == written["floats"] != ""


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--feed-rate", "inf"], "feed_rate must be finite and > 0 at 5 decimals"),
        (["--feed-rate", "1e-320"], "feed_rate must be finite and > 0 at 5 decimals"),
        (["--extrusion-per-mm", "1e308"], "{layers}: the extrusion total overflows a double"),
    ],
    ids=["feed-rate-inf", "feed-rate-rounds-to-0", "extrusion-total-overflows"],
)
def test_gcode_plan_writes_only_what_its_reader_reads(tmp_path, cube_file, capsys, flags, error):
    # each of these once wrote Finf, F0.00000 or Einf and exited 0
    layers = tmp_path / "layers.json"
    assert main(["slice", str(cube_file), "--layer-height", "0.25", "--out", str(layers)]) == 0
    code = main(["gcode", "plan", str(layers), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: " + error.format(layers=layers) + "\n"
    assert captured.out == ""


def _refuse_constant(token):
    raise AssertionError(f"{token} in strict JSON output")


def test_stl_validate_nan_mesh_writes_strict_json(tmp_path):
    mesh = _one_facet(tmp_path, "0 0 0", "1 0 1", "nan 0 1")
    code, out = run_cli(["stl", "validate", mesh])
    assert code == 1
    doc = json.loads(out, parse_constant=_refuse_constant)
    assert doc["nonfinite_facets"] == [0]
    assert doc["bbox_min"] is None and doc["bbox_max"] is None


@pytest.mark.parametrize(
    "command, z, layer_height",
    [
        ("slice", 1e308, 0.25),
        ("simulate", 1e308, 0.25),
        # within float32 range, so the campaign reaches the slicer
        ("campaign", 3e38, 1e-300),
    ],
)
def test_overflowing_layer_count_exits_2(tmp_path, capsys, command, z, layer_height):
    mesh = _one_facet(tmp_path, f"0 0 {-z}", f"0 1 {z}", f"0 0 {z}")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mesh": {"path": str(mesh)},
        "slice": {"layer_height": layer_height},
        "generate": {"count": 1},
    }))
    argv = {
        "slice": ["slice", str(mesh), "--layer-height", str(layer_height)],
        "simulate": ["simulate", "--mesh", str(mesh), "--layer-height", str(layer_height)],
        "campaign": ["campaign", "--config", str(config)],
    }[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.endswith(
        f"z extent {-z:g} to {z:g} mm over layer height {layer_height:g} mm "
        "overflows the layer count\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "envelope, stage", [(True, "integrity_verify"), (False, "printer_outcome")]
)
def test_in_transit_truncate_to_nothing_is_classified(tmp_path, envelope, stage):
    config = tmp_path / "config.json"
    doc = {**_one_fault("truncate", "in_transit", new_len=0), "envelope": envelope}
    config.write_text(json.dumps(doc))
    code, out = run_cli(["campaign", "--config", config])
    assert code == 0
    assert json.loads(out)["histogram"] == {stage: 1}


def test_overflowing_scale_fault_is_classified(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_one_fault("scale_coords", "after_cad", factor=1e200)))
    code, out = run_cli(["campaign", "--config", config])
    assert code == 0
    assert json.loads(out)["histogram"] == {"mesh_validation": 1}


def test_move_too_long_to_square_is_measured(tmp_path):
    # an X extent of 1e200 mm: squaring a move's length overflows a double,
    # but the length itself is finite
    mesh = tmp_path / "wide.stl"
    mesh.write_bytes(emit_stl_ascii(shapes.box(hi=Vec3(1e200, 1.0, 1.0))))
    code, out = run_cli(["simulate", "--mesh", mesh])
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"]["status"] == "completed"
    assert doc["planned_extrusion_mm"] >= 2e200


@pytest.mark.parametrize("command", ["slice", "simulate"])
def test_layer_count_past_the_cap_exits_2(cube_file, capsys, command):
    # 1e300 planes: refused before the list of plane heights is built
    argv = {
        "slice": ["slice", str(cube_file), "--layer-height", "1e-300"],
        "simulate": ["simulate", "--mesh", str(cube_file), "--layer-height", "1e-300"],
    }[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.endswith("needs 1e+300 layers, more than 1000000\n")
    assert captured.out == ""


def test_scale_fault_past_the_layer_cap_is_classified(tmp_path):
    # the scaled cube fits binary STL and validates clean, but needs 4e30
    # layers at 0.25 mm
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_one_fault("scale_coords", "after_cad", factor=1e30)))
    code, out = run_cli(["campaign", "--config", config])
    assert code == 0
    assert json.loads(out)["histogram"] == {"mesh_validation": 1}


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_module_entry_point(self, cube_file):
        proc = subprocess.run(
            [sys.executable, "-m", "amstpa_lab", "stl", "validate", str(cube_file)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["watertight"] is True
