"""Record types are NamedTuples; only the configs that validate stay dataclasses.

Importing a frozen dataclass generates and runs about six methods, several
times what a NamedTuple costs, and every `amstpa` command pays for it at
start-up.  The records keep the fields, defaults, repr, equality and hashing
of the frozen dataclasses they were.
"""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

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

# each checks its fields in __post_init__, which a NamedTuple never runs
VALIDATED_CONFIGS = {
    "faultlab.FaultSpec",
    "faultlab.PipelineConfig",
    "gcode.ToolpathParams",
    "netsim.ChannelParams",
    "printer_sim.PrinterConfig",
    "slicer.SliceParams",
}


def package_classes():
    for info in pkgutil.iter_modules(amstpa_lab.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"amstpa_lab.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield f"{info.name}.{cls.__qualname__}", cls


def test_only_validated_configs_are_dataclasses():
    found = {name: cls for name, cls in package_classes() if dataclasses.is_dataclass(cls)}
    assert [name for name, cls in found.items() if not hasattr(cls, "__post_init__")] == []
    assert set(found) == VALIDATED_CONFIGS


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
}
record_types = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)


class TestRecords:
    @record_types
    def test_fields_and_defaults(self, cls):
        fields, defaults = RECORDS[cls]
        assert cls._fields == fields
        assert cls._field_defaults == defaults
        record = cls(*range(len(fields) - len(defaults)))
        assert [getattr(record, name) for name in defaults] == list(defaults.values())

    @record_types
    def test_repr_as_the_dataclass_wrote_it(self, cls):
        fields = RECORDS[cls][0]
        values = [f"v{i}" for i in range(len(fields))]
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({body})"

    @record_types
    def test_equality_and_hash(self, cls):
        fields = RECORDS[cls][0]
        values = list(range(len(fields)))
        record = cls(*values)
        again = cls(**dict(zip(fields, values)))
        assert record == again and hash(record) == hash(again)
        # the frozen dataclass hashed the tuple of its fields
        assert hash(record) == hash(tuple(values))
        assert record != cls(*values[:-1], -1)

    @record_types
    def test_frozen_and_picklable(self, cls):
        fields = RECORDS[cls][0]
        record = cls(*range(len(fields)))
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
