"""Command-line interface.

Subcommands: stpa, stl, slice, gcode, simulate, campaign, report.
Exit codes: 0 success, 1 validation findings, 2 usage or parse errors.
A flag left out takes the default of the table or class that reads it:
`simulate` reads its flags as a config, by faultlab.SIMULATE_KEYS.
Output paths accept "-" for standard output; files are written only after
the full output is rendered, so failures leave no partial files.  JSON is
strict both ways: no NaN or Infinity is read or written.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import shapes
from .faultlab import (
    CAMPAIGN_KEYS,
    SIMULATE_KEYS,
    CampaignError,
    CampaignResult,
    FaultSpec,
    FaultStage,
    FaultKind,
    MitigationEvidence,
    PipelineConfig,
    bit_flip_specs,
    build_job,
    pipeline_config,
    run_campaign,
    run_demo_campaign,
)
from .gcode import GCodeError, ToolpathParams, emit_text, extruded_mm, plan_toolpath
from .jsondoc import loads, read_doc
from .mesh_io import StlError, parse_stl, require_finite, validate_mesh
from .netsim import TransferMode
from .printer_sim import (
    JobStatus,
    PrintPolicy,
    PrinterTechnology,
    geometry_diff,
    outcome_to_dict,
    run_job,
    trace_to_dict,
)
from .report import build_report, render_json, render_markdown
from .slicer import SliceParams, layers_from_dict, layers_to_dict, slice_mesh
from .stpa_core import (
    ModelError,
    builtin_am_reference_model,
    candidates_to_dict,
    candidates_to_text,
    enumerate_candidates,
    load_model,
)

BUILTIN_MESHES = {
    "cube": lambda: shapes.box(),
    "tetrahedron": shapes.corner_tetrahedron,
    "octahedron": shapes.octahedron,
}


class CliError(Exception):
    """Usage-level failure; maps to exit code 2."""


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write_output(path: str, data: str | bytes) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    if path == "-":
        out = sys.stdout
        if hasattr(out, "buffer"):
            out.buffer.write(data)
            out.flush()
        else:  # redirected stdout (tests) may be text-only
            out.write(data.decode("utf-8"))
        return
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _read_json(path: str):
    """Parse a JSON input file by jsondoc's strict rules."""
    try:
        return loads(_read_file(path))
    except ValueError as exc:
        raise CliError(f"{path}: not valid JSON: {exc}") from None


def _dump_json(doc: dict) -> str:
    """JSON with no Infinity or NaN token, which strict readers reject."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise CliError("the result has a number that overflows a double") from None


def _load_mesh_file(path: str):
    data = _read_file(path)
    try:
        return parse_stl(data)
    except StlError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_finite_mesh(path: str):
    """A mesh the pipeline can take: parsed, with every coordinate finite."""
    mesh = _load_mesh_file(path)
    try:
        require_finite(mesh)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None
    return mesh


def _parse_channel(spec: str | None) -> dict:
    """The channel block of a config doc, from `--channel`'s key=value items."""
    keys = {
        "loss": "loss_prob",
        "latency": "latency_ms",
        "jitter": "jitter_ms",
        "bw": "bandwidth_bytes_per_s",
        "seed": "seed",
    }
    block: dict = {}
    for item in spec.split(",") if spec else ():
        if "=" not in item:
            raise CliError(f"channel parameter {item!r} is not key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise CliError(f"unknown channel parameter {key!r} (use {'/'.join(keys)})")
        try:
            block[keys[key]] = int(raw) if key == "seed" else float(raw)
        except ValueError as exc:
            raise CliError(f"bad channel parameters: {exc}") from None
    return block


def _given(doc: dict) -> dict:
    """`doc` without the flags left unset (None), block by block, so that
    each takes the default of the table or class that reads it."""
    return {k: _given(v) if type(v) is dict else v for k, v in doc.items() if v is not None}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_stpa(args) -> int:
    if args.builtin_am:
        cs = builtin_am_reference_model()
    elif args.model:
        cs = load_model(_read_file(args.model))
    else:
        raise CliError("stpa needs --model FILE or --builtin-am")
    hazards = enumerate_candidates(cs)
    fmt = args.format or ("txt" if args.out.endswith(".txt") else "json")
    if fmt == "txt":
        _write_output(args.out, candidates_to_text(cs, hazards))
    else:
        _write_output(args.out, _dump_json(candidates_to_dict(cs, hazards)))
    return 0


def _cmd_stl(args) -> int:
    mesh = _load_mesh_file(args.file)
    report = validate_mesh(mesh, **_given({"area_tol": args.area_tol}))
    lo, hi = report.bbox_min, report.bbox_max
    doc = {
        "file": args.file,
        "encoding": mesh.source_encoding.value,
        "facet_count": report.facet_count,
        "degenerate_facets": list(report.degenerate_facets),
        "nonfinite_facets": list(report.nonfinite_facets),
        "nonmanifold_edges": report.nonmanifold_edges,
        "inverted_normals": list(report.inverted_normals),
        # a non-finite coordinate leaves the bounding box undefined
        "bbox_min": None if report.nonfinite_facets else [lo.x, lo.y, lo.z],
        "bbox_max": None if report.nonfinite_facets else [hi.x, hi.y, hi.z],
        "watertight": report.watertight,
    }
    _write_output(args.out, _dump_json(doc))
    return 0 if report.is_clean() else 1


def _cmd_slice(args) -> int:
    mesh = _load_finite_mesh(args.file)
    try:
        params = SliceParams(**_given({"layer_height": args.layer_height,
                                       "snap_eps": args.snap_eps}))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    try:
        layers = slice_mesh(mesh, params)
    except ValueError as exc:
        raise CliError(f"{args.file}: {exc}") from None
    _write_output(args.out, _dump_json(layers_to_dict(layers, args.layer_height)))
    return 0


def _cmd_gcode(args) -> int:
    toolpath = {"feed_rate": args.feed_rate, "extrusion_per_mm": args.extrusion_per_mm}
    try:
        params = ToolpathParams(**_given(toolpath))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    doc = _read_json(args.layers)
    try:
        layers = layers_from_dict(doc)
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer past a double
        raise CliError(f"{args.layers}: not a layers file: {exc}") from None
    try:
        prog = plan_toolpath(layers, params)
    except ValueError as exc:  # the extrusion total overflows
        raise CliError(f"{args.layers}: {exc}") from None
    _write_output(args.out, emit_text(prog))
    return 0


def _cmd_simulate(args) -> int:
    doc = _given({
        "slice": {"layer_height": args.layer_height},
        "toolpath": {"feed_rate": args.feed_rate, "extrusion_per_mm": args.extrusion_per_mm},
        "channel": _parse_channel(args.channel),
        "printer": {"buffer_capacity": args.buffer, "policy": args.policy,
                    "technology": args.technology, "nominal_layer_time_ms": args.layer_time_ms},
        "mode": args.mode,
        "packet_size": args.packet_size,
        "envelope": args.envelope,
        "ecc": args.ecc,
    })
    try:
        cfg = pipeline_config(read_doc(doc, SIMULATE_KEYS))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    mesh = _load_finite_mesh(args.mesh)
    try:
        job = build_job(cfg, mesh)
    except ValueError as exc:
        raise CliError(f"{args.mesh}: {exc}") from None
    outcome, trace = run_job(
        job, cfg.printer, cfg.channel, cfg.mode,
        packet_size=cfg.packet_size, enveloped=cfg.enveloped,
    )
    gd = geometry_diff(job.layers, trace)
    doc = {
        "mesh": args.mesh,
        "layers": len(job.layers),
        "program_commands": len(job.reading.commands),
        "planned_extrusion_mm": extruded_mm(job.reading.commands),
        "payload_bytes": len(job.sent),
        "mode": cfg.mode.value,
        "policy": cfg.printer.policy.value,
        "outcome": outcome_to_dict(outcome),
        "trace": trace_to_dict(trace),
        "geometry_diff": {
            "max_extrusion_error_mm": gd.max_extrusion_error_mm,
            "layers_missing": gd.layers_missing,
        },
    }
    _write_output(args.out, _dump_json(doc))
    return 0 if outcome.status is JobStatus.COMPLETED else 1


def _campaign_config(doc) -> tuple[PipelineConfig, list[FaultSpec] | None, int | None, object]:
    """Check a whole campaign config before any trial runs.

    Returns (config, fault specs, demo corruption count or None, base mesh).
    Every key is read by its rule in faultlab.CAMPAIGN_KEYS.
    """
    try:
        c = read_doc(doc, CAMPAIGN_KEYS)
        cfg = pipeline_config(c)
        specs = None if c["faults"] is None else [FaultSpec(**f) for f in c["faults"]]
        if specs is not None and "generate" in doc:
            raise ValueError("give 'faults' or 'generate', not both")
        gen, count = c["generate"], c["generate"]["count"]
        if count is not None and count < 0:
            raise ValueError("generate.count must be >= 0")
        if gen["kind"] is not FaultKind.BIT_FLIP:
            raise ValueError("generate currently supports kind 'bit_flip' only")
        if c["demo"]:
            if specs is not None:
                raise ValueError("the demonstration campaign plants its own faults: drop 'faults'")
            if gen["stage"] is not FaultStage.IN_TRANSIT:
                raise ValueError("the demonstration campaign plants its faults in_transit")
    except (ValueError, OverflowError) as exc:
        raise CliError(f"bad campaign config: {exc}") from None

    name, path = c["mesh"]["builtin"], c["mesh"]["path"]
    if name is not None and path is not None:
        raise CliError("campaign config 'mesh' needs 'builtin' or 'path', not both")
    if name is not None:
        if name not in BUILTIN_MESHES:
            raise CliError(f"unknown builtin mesh {name!r} (use {'/'.join(BUILTIN_MESHES)})")
        base_mesh = BUILTIN_MESHES[name]()
    elif path is not None:
        base_mesh = _load_finite_mesh(path)
    else:
        raise CliError("campaign config 'mesh' needs 'builtin' or 'path'")

    if c["demo"]:
        return cfg, None, 200 if count is None else count, base_mesh
    if specs is None:
        if "generate" not in doc:
            raise CliError("campaign config needs 'faults', 'generate', or 'demo': true")
        specs = bit_flip_specs(100 if count is None else count, gen["stage"], cfg.campaign_seed)
    return cfg, specs, None, base_mesh


def _cmd_campaign(args) -> int:
    cfg, specs, demo_count, base_mesh = _campaign_config(_read_json(args.config))
    if demo_count is not None:
        result = run_demo_campaign(cfg, base_mesh, corruption_count=demo_count)
    else:
        result = run_campaign(cfg, specs, base_mesh)
    _write_output(args.out, _dump_json(result.to_dict()))
    return 0


def _cmd_report(args) -> int:
    hazards = None
    campaign = None
    evidence = None
    for path in args.inputs or []:
        doc = _read_json(path)
        if not isinstance(doc, dict):
            raise CliError(f"{path}: not a known artifact")
        try:
            if "candidates" in doc:
                hazards = doc
            elif "campaign" in doc and "evidence" in doc:
                campaign = CampaignResult.from_dict(doc["campaign"])
                evidence = MitigationEvidence.from_dict(doc["evidence"])
            elif "histogram" in doc:
                campaign = CampaignResult.from_dict(doc)
            else:
                raise CliError(f"{path}: not a known artifact")
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise CliError(f"{path}: malformed campaign artifact: {exc!r}") from None
    doc = build_report(hazards=hazards, campaign=campaign, evidence=evidence)
    fmt = args.format or ("md" if args.out.endswith(".md") else "json")
    _write_output(args.out, render_markdown(doc) if fmt == "md" else render_json(doc))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_toolpath_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--feed-rate", type=float, help="extrusion feed, mm/min")
    p.add_argument("--extrusion-per-mm", type=float, help="filament mm per toolpath mm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amstpa",
        description="Deterministic AM toolchain lab: STPA hazard enumeration, "
        "STL/slice/G-code pipeline, integrity envelopes, channel and printer "
        "simulation, and fault-injection campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stpa", help="enumerate hazard candidates for a control structure")
    p.add_argument("--model", help="control-structure model JSON")
    p.add_argument("--builtin-am", action="store_true", help="use the bundled AM model")
    p.add_argument("--out", default="-", help="output path (.json or .txt), - for stdout")
    p.add_argument("--format", choices=["json", "txt"], help="override format sniffing")
    p.set_defaults(func=_cmd_stpa)

    p = sub.add_parser("stl", help="STL utilities")
    p.add_argument("action", choices=["validate"], help="what to do")
    p.add_argument("file", help="STL file (ASCII or binary)")
    p.add_argument("--area-tol", type=float, help="degenerate-facet area, mm^2")
    p.add_argument("--out", default="-", help="report output path, - for stdout")
    p.set_defaults(func=_cmd_stl)

    p = sub.add_parser("slice", help="slice a mesh into layer contours")
    p.add_argument("file", help="STL file")
    p.add_argument("--layer-height", type=float, required=True, help="layer height, mm")
    p.add_argument("--snap-eps", type=float, help="contour chaining tolerance, mm")
    p.add_argument("--out", default="-", help="layers JSON output, - for stdout")
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("gcode", help="toolpath planning")
    p.add_argument("action", choices=["plan"], help="what to do")
    p.add_argument("layers", help="layers JSON from the slice command")
    _add_toolpath_flags(p)
    p.add_argument("--out", default="-", help="G-code output path, - for stdout")
    p.set_defaults(func=_cmd_gcode)

    p = sub.add_parser("simulate", help="end-to-end transfer and print simulation")
    p.add_argument("--mesh", required=True, help="STL file")
    p.add_argument("--layer-height", type=float)
    _add_toolpath_flags(p)
    p.add_argument("--channel", help="loss=P,latency=L,jitter=J,bw=B,seed=S (defaults: lossless)")
    p.add_argument("--mode", choices=[m.value for m in TransferMode])
    p.add_argument("--policy", choices=[m.value for m in PrintPolicy])
    p.add_argument("--buffer", type=int, help="printer buffer, bytes")
    p.add_argument("--packet-size", type=int)
    p.add_argument("--technology", choices=[t.value for t in PrinterTechnology])
    p.add_argument("--layer-time-ms", type=float)
    p.add_argument("--no-envelope", dest="envelope", action="store_false", default=None,
                   help="send raw G-code text")
    p.add_argument("--ecc", action="store_true", default=None, help="add SECDED check bytes")
    p.add_argument("--out", default="-", help="result JSON, - for stdout")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("campaign", help="run a fault-injection campaign")
    p.add_argument("--config", required=True, help="campaign config JSON")
    p.add_argument("--out", default="-", help="result JSON, - for stdout")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("report", help="render the assurance report")
    p.add_argument("--inputs", nargs="*", default=[],
                   help="prior artifacts: hazards JSON and/or campaign JSON")
    p.add_argument("--out", default="-", help="output path (.json or .md), - for stdout")
    p.add_argument("--format", choices=["json", "md"], help="override format sniffing")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, StlError, GCodeError, ModelError, CampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
