"""Every record type is a NamedTuple; no class in the package is a dataclass.

Defining a frozen dataclass generates and runs about six methods, several
times what a NamedTuple costs, and `import dataclasses` loads `inspect`,
`ast` and `dis`: every `amstpa` command paid for both at start-up.  On
Python 3.12 and later `importlib.resources` loads `inspect` too, so the
package imports it only where the bundled model is read.  The
records keep the fields, defaults, repr, hashing and immutability of the
frozen dataclasses they were; like any tuple, a record equals the plain
tuple of its fields.  The six configs check their fields on every instance
built, by the constructor, `_replace`, `_make` or unpickling (`jsondoc.checked`).
"""

import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import amstpa_lab
from amstpa_lab import (
    faultlab,
    gcode,
    integrity,
    mesh_io,
    netsim,
    printer_sim,
    report,
    slicer,
    stpa_core,
)


def package_classes():
    for info in pkgutil.iter_modules(amstpa_lab.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"amstpa_lab.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield f"{info.name}.{cls.__qualname__}", cls


def test_no_class_is_a_dataclass():
    assert [name for name, cls in package_classes() if dataclasses.is_dataclass(cls)] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import amstpa_lab.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(amstpa_lab.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


# every record that was a frozen dataclass: its fields and defaults as they were
RECORDS = {
    gcode.GCodeProgram: (("commands",), {}),
    gcode.Layer: (("index", "z", "extruded_mm", "start_offset", "end_offset"), {}),
    gcode.Reading: (("commands", "layers", "error", "invalid", "checkpoints"), {}),
    integrity.SecdedBlock: (("data", "check"), {}),
    integrity.SecdedResult: (("data", "corrected", "double_error"), {}),
    integrity.VerifyResult: (
        ("ok", "payload", "record_count", "corrected_bits", "mismatch", "detail"),
        {"payload": None, "record_count": None, "corrected_bits": 0, "mismatch": None,
         "detail": ""},
    ),
    mesh_io.TriangleMesh: (("facets", "source_encoding"),
                           {"source_encoding": mesh_io.Encoding.ASCII}),
    mesh_io.MeshReport: (
        ("facet_count", "degenerate_facets", "nonfinite_facets", "nonmanifold_edges",
         "inverted_normals", "bbox_min", "bbox_max", "watertight"),
        {},
    ),
    netsim.TransferResult: (
        ("delivered", "intact", "elapsed_ms", "packets_sent", "packets_lost", "retransmissions",
         "gap_map", "down_at"),
        {"gap_map": (), "down_at": None},
    ),
    printer_sim.JobOutcome: (("status", "layers_printed", "reason"),
                             {"layers_printed": 0, "reason": None}),
    printer_sim.Job: (("layers", "text", "sent", "reading"), {}),
    printer_sim.PrintTrace: (("layers", "time_ms", "integrity_corrected_bits"),
                             {"layers": (), "time_ms": 0.0, "integrity_corrected_bits": 0}),
    printer_sim.GeometryDiff: (("max_extrusion_error_mm", "layers_missing"), {}),
    slicer.Contour: (("vertices", "closed"), {}),
    slicer.LayerPlan: (("index", "z", "contours"), {"contours": ()}),
    stpa_core.Component: (("id", "name", "kind", "subsystem"), {}),
    stpa_core.Path: (("id", "source", "target", "kind", "label"), {}),
    stpa_core.ControlStructure: (("name", "components", "paths"),
                                 {"components": (), "paths": ()}),
    stpa_core.CandidateHazard: (
        ("subject_kind", "subject_id", "phrase_set", "phrase_index", "generated_text",
         "mitigation_ids"),
        {},
    ),
    stpa_core.Mitigation: (("id", "text", "executable"), {}),
    report.DefectRateRow: (
        ("domain", "projects", "error_low", "error_high", "normative", "normative_label", "note"),
        {},
    ),
    report.ReportDoc: (("hazards", "campaign", "evidence", "statuses"), {}),
    faultlab.CampaignResult: (("trials", "histogram", "undetected_trials"), {}),
    faultlab._Pristine: (("mesh", "stl", "job", "cad"), {"cad": None}),
    faultlab.MitigationEvidence: (
        ("reliable_loss_prob", "reliable_intact_under_loss", "lossless_elapsed_ms",
         "lossy_elapsed_ms", "lossy_packets_lost", "fullimage_trials",
         "fullimage_rejected_integrity", "fullimage_scrapped", "fullimage_corrupt_printed_layers",
         "streaming_scrapped", "streaming_scrapped_with_layers", "envelope_undetected",
         "raw_trials", "raw_late_detections"),
        {},
    ),
    faultlab.DemoResult: (("campaign", "evidence"), {}),
    slicer.SliceParams: (("layer_height", "snap_eps"), {"snap_eps": 1e-7}),
    gcode.ToolpathParams: (("feed_rate", "extrusion_per_mm"),
                           {"feed_rate": 1800.0, "extrusion_per_mm": 0.05}),
    netsim.ChannelParams: (
        ("latency_ms", "jitter_ms", "bandwidth_bytes_per_s", "loss_prob", "seed"),
        {"latency_ms": 0.0, "jitter_ms": 0.0, "bandwidth_bytes_per_s": 1_000_000.0,
         "loss_prob": 0.0, "seed": 1},
    ),
    printer_sim.PrinterConfig: (
        ("buffer_capacity", "policy", "technology", "nominal_layer_time_ms"),
        {"technology": printer_sim.PrinterTechnology.MATERIAL_EXTRUSION,
         "nominal_layer_time_ms": None},
    ),
    faultlab.FaultSpec: (
        ("kind", "stage", "offset", "value", "new_len", "factor", "loss_prob", "seed"),
        {"offset": None, "value": None, "new_len": None, "factor": None, "loss_prob": None,
         "seed": 0},
    ),
    faultlab.PipelineConfig: (
        ("slice", "toolpath", "channel", "printer", "mode", "packet_size", "envelope",
         "ecc", "geometry_tol_mm", "seed"),
        {"mode": netsim.TransferMode.RELIABLE_ORDERED, "packet_size": 256, "envelope": True,
         "ecc": False, "geometry_tol_mm": 1e-6, "seed": 0},
    ),
}
record_types = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)

# values the configs accept and keep as given; any other record takes 0, 1, 2, ...
CONFIG_SAMPLES = {
    slicer.SliceParams: (0.2, 1e-6),
    gcode.ToolpathParams: (1500.0, 0.04),
    netsim.ChannelParams: (2.0, 0.5, 125_000.0, 0.1, 7),
    printer_sim.PrinterConfig: (4096, printer_sim.PrintPolicy.STREAMING,
                                printer_sim.PrinterTechnology.BINDER_JETTING, 250.0),
    faultlab.FaultSpec: (faultlab.FaultKind.BIT_FLIP, faultlab.FaultStage.IN_TRANSIT,
                         3, 65, 10, 2.0, 0.5, 9),
    faultlab.PipelineConfig: (
        slicer.SliceParams(0.2), gcode.ToolpathParams(), netsim.ChannelParams(),
        printer_sim.PrinterConfig(4096, printer_sim.PrintPolicy.FULL_IMAGE),
        netsim.TransferMode.BEST_EFFORT, 64, False, False, 1e-3, 5,
    ),
}
config_types = pytest.mark.parametrize("cls", CONFIG_SAMPLES, ids=lambda cls: cls.__qualname__)

# a default a config completes when it is built: a null layer time takes the technology's
COMPLETED = {printer_sim.PrinterConfig: {"nominal_layer_time_ms": 12_000.0}}


def sample(cls) -> list:
    return list(CONFIG_SAMPLES.get(cls, range(len(RECORDS[cls][0]))))


class TestRecords:
    @record_types
    def test_fields_and_defaults(self, cls):
        fields, defaults = RECORDS[cls]
        assert cls._fields == fields
        assert cls._field_defaults == defaults
        assert tuple(inspect.signature(cls).parameters) == fields
        record = cls(*sample(cls)[:len(fields) - len(defaults)])
        built = {name: getattr(record, name) for name in defaults}
        assert built == {**defaults, **COMPLETED.get(cls, {})}

    @record_types
    def test_repr_as_the_dataclass_wrote_it(self, cls):
        fields = RECORDS[cls][0]
        values = CONFIG_SAMPLES.get(cls) or [f"v{i}" for i in range(len(fields))]
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({body})"

    @record_types
    def test_equality_and_hash(self, cls):
        fields = RECORDS[cls][0]
        values = sample(cls)
        record = cls(*values)
        again = cls(**dict(zip(fields, values)))
        assert record == again and hash(record) == hash(again)
        # the frozen dataclass hashed the tuple of its fields
        assert hash(record) == hash(tuple(values))
        assert record != cls(*values[:-1], values[-1] + 1)

    @record_types
    def test_frozen_and_picklable(self, cls):
        fields = RECORDS[cls][0]
        record = cls(*sample(cls))
        with pytest.raises(AttributeError):
            setattr(record, fields[0], -1)
        # pooled campaign trials send their records through a pipe
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls and back == record

    def test_reprs_of_real_records(self):
        outcome = printer_sim.JobOutcome(printer_sim.JobStatus.COMPLETED)
        assert repr(outcome) == (
            "JobOutcome(status=<JobStatus.COMPLETED: 'completed'>, layers_printed=0, reason=None)"
        )
        result = integrity.SecdedResult(None, corrected=0, double_error=True)
        assert repr(result) == "SecdedResult(data=None, corrected=0, double_error=True)"
        layer = slicer.LayerPlan(2, 0.75)
        assert repr(layer) == "LayerPlan(index=2, z=0.75, contours=())"

    def test_evidence_to_dict_follows_field_order(self):
        values = dict(zip(RECORDS[faultlab.MitigationEvidence][0], range(14)))
        doc = faultlab.MitigationEvidence(**values).to_dict()
        assert list(doc.items()) == list(values.items())


# one bad value per config, and the message its constructor raises for it
BAD_VALUES = {
    slicer.SliceParams: ("layer_height", -1.0, "layer_height must be finite and > 0"),
    gcode.ToolpathParams: ("feed_rate", 0.0, "feed_rate must be finite and > 0 at 5 decimals"),
    netsim.ChannelParams: ("loss_prob", 1.5, "loss_prob must be within [0, 1]"),
    printer_sim.PrinterConfig: ("buffer_capacity", 0, "buffer_capacity must be > 0"),
    faultlab.FaultSpec: ("value", 256, "byte value must be an int within 0..255"),
    faultlab.PipelineConfig: ("packet_size", 0, "packet_size must be >= 1"),
}


class TestConfigsCheckThemselves:
    @config_types
    @pytest.mark.parametrize("build", ["constructor", "_replace", "_make", "unpickling"])
    def test_every_build_checks(self, cls, build):
        name, bad, message = BAD_VALUES[cls]
        good = cls(*sample(cls))
        values = [bad if field == name else v for field, v in zip(cls._fields, good)]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if build == "constructor":
                cls(*values)
            elif build == "_replace":
                good._replace(**{name: bad})
            elif build == "_make":
                cls._make(values)
            else:  # an unchecked record pickles as any record of cls would
                pickle.loads(pickle.dumps(tuple.__new__(cls, values)))

    @pytest.mark.parametrize("build", ["constructor", "_replace", "_make", "unpickling"])
    def test_ecc_needs_the_envelope_on_every_build(self, build):
        cls = faultlab.PipelineConfig
        raw = cls(*sample(cls))  # sends no envelope, so no ECC either
        assert (raw.envelope, raw.ecc) == (False, False)
        assert raw._replace(envelope=True, ecc=True).ecc
        values = [True if name == "ecc" else v for name, v in zip(cls._fields, raw)]
        message = "'ecc' adds check bytes to the envelope: it needs 'envelope': true"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if build == "constructor":
                cls(*values)
            elif build == "_replace":
                raw._replace(ecc=True)
            elif build == "_make":
                cls._make(values)
            else:  # an unchecked record pickles as any record of cls would
                pickle.loads(pickle.dumps(tuple.__new__(cls, values)))

    @pytest.mark.parametrize("technology", printer_sim.PrinterTechnology, ids=lambda t: t.value)
    def test_printer_config_completes_its_layer_time(self, technology):
        default = printer_sim.DEFAULT_LAYER_TIME_MS[technology]
        policy = printer_sim.PrintPolicy.FULL_IMAGE
        cfg = printer_sim.PrinterConfig(64, policy, technology)
        back = pickle.loads(pickle.dumps(cfg))
        assert type(back) is printer_sim.PrinterConfig and back == cfg
        assert back.nominal_layer_time_ms == default
        # a record pickled with a null layer time is completed as it is read back
        null = tuple.__new__(printer_sim.PrinterConfig, (64, policy, technology, None))
        assert pickle.loads(pickle.dumps(null)) == cfg
        for built in (printer_sim.PrinterConfig(64, policy, technology, 5),
                      cfg._replace(nominal_layer_time_ms=5)):
            assert type(built.nominal_layer_time_ms) is float and built.nominal_layer_time_ms == 5.0
