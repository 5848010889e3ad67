"""Span recording for the traced run, from outside the program.

The traced run rebinds the functions one module of the package imports from
another (for example `faultlab.slice_mesh` or `printer_sim.transfer`) to
timing wrappers, so every call across a layer boundary becomes a span.
Nothing in the package is edited. Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import HEADER_SIZE

LAYERS = (
    "cli", "mesh_io", "slicer", "gcode", "integrity",
    "netsim", "printer_sim", "faultlab", "stpa_core", "report",
)


# Hooks record counts at the span's boundary: hook(counts, args, kwargs, result).


def _count_facets(counts, args, kwargs, mesh):
    counts["mesh_io.facets"] += len(mesh.facets)


def _count_slices(counts, args, kwargs, layers):
    counts["slicer.slice_mesh.calls"] += 1
    counts["slicer.layers"] += len(layers)
    counts["slicer.contour_vertices"] += sum(
        len(c.vertices) for layer in layers for c in layer.contours
    )


def _count_parsed(counts, args, kwargs, prog):
    counts["gcode.bytes_parsed"] += len(args[0])


def _count_wrap(counts, args, kwargs, wrapped):
    if kwargs.get("with_ecc", args[2] if len(args) > 2 else False):
        counts["integrity.ecc_bytes"] += len(wrapped) - HEADER_SIZE - len(args[0])


def _count_verify(counts, args, kwargs, result):
    counts["integrity.verify.calls"] += 1
    counts["integrity.verify.ok"] += bool(result.ok)
    wrapped = args[0]
    # AMI1 header: payload length at bytes 4..12 (little-endian), ECC flag at 24
    if len(wrapped) >= HEADER_SIZE and wrapped[24]:
        counts["integrity.ecc_bytes"] += (int.from_bytes(wrapped[4:12], "little") + 7) // 8


def _count_transfer(counts, args, kwargs, result):
    counts["netsim.packets_sent"] += result.packets_sent
    counts["netsim.packets_lost"] += result.packets_lost


def _count_job(counts, args, kwargs, result):
    outcome, _ = result
    counts["printer_sim.run_job.calls"] += 1
    counts[f"printer_sim.status.{outcome.status.value}"] += 1


def _count_candidates(counts, args, kwargs, hazards):
    counts["stpa_core.candidates"] += len(hazards)


# (module, attribute, span name, hook, starts a trial)
BINDINGS = (
    ("cli", "parse_stl", "mesh_io.parse_stl", _count_facets, False),
    ("faultlab", "parse_stl", "mesh_io.parse_stl", _count_facets, False),
    ("cli", "validate_mesh", "mesh_io.validate_mesh", None, False),
    ("faultlab", "validate_mesh", "mesh_io.validate_mesh", None, False),
    ("faultlab", "emit_stl_binary", "mesh_io.emit_stl", None, False),
    ("cli", "slice_mesh", "slicer.slice_mesh", _count_slices, False),
    ("faultlab", "slice_mesh", "slicer.slice_mesh", _count_slices, False),
    ("cli", "plan_toolpath", "gcode.plan_toolpath", None, False),
    ("faultlab", "plan_toolpath", "gcode.plan_toolpath", None, False),
    ("cli", "emit_text", "gcode.emit_text", None, False),
    ("faultlab", "emit_text", "gcode.emit_text", None, False),
    ("cli", "path_length", "gcode.path_length", None, False),
    ("faultlab", "count_records", "gcode.count_records", None, False),
    ("printer_sim", "parse_text", "gcode.parse_text", _count_parsed, False),
    ("printer_sim", "check_program", "gcode.check_program", None, False),
    ("printer_sim", "scan_text_layers", "gcode.scan_text_layers", None, False),
    ("printer_sim", "program_layers", "gcode.program_layers", None, False),
    ("printer_sim", "intended_perimeters", "gcode.intended_perimeters", None, False),
    ("cli", "wrap", "integrity.wrap", _count_wrap, False),
    ("faultlab", "wrap", "integrity.wrap", _count_wrap, False),
    # printer_sim calls integrity.verify through the module object
    ("integrity", "verify", "integrity.verify", _count_verify, False),
    ("printer_sim", "transfer", "netsim.transfer", _count_transfer, False),
    ("faultlab", "transfer", "netsim.transfer", _count_transfer, False),
    ("cli", "run_job", "printer_sim.run_job", _count_job, False),
    ("faultlab", "run_job", "printer_sim.run_job", _count_job, False),
    ("cli", "geometry_diff", "printer_sim.geometry_diff", None, False),
    ("faultlab", "geometry_diff", "printer_sim.geometry_diff", None, False),
    ("cli", "run_campaign", "faultlab.campaign", None, False),
    ("cli", "run_demo_campaign", "faultlab.campaign", None, False),
    ("cli", "bit_flip_specs", "faultlab.bit_flip_specs", None, False),
    ("faultlab", "inject", "faultlab.inject", None, False),
    # the one private binding: it marks where each trial starts and ends
    ("faultlab", "_run_trial", "faultlab.trial", None, True),
    ("cli", "builtin_am_reference_model", "stpa_core.builtin_model", None, False),
    ("cli", "enumerate_candidates", "stpa_core.enumerate_candidates", _count_candidates, False),
    ("cli", "attach_mitigations", "stpa_core.attach_mitigations", None, False),
    ("cli", "candidates_to_dict", "stpa_core.candidates_to_dict", None, False),
    ("cli", "build_report", "report.build", None, False),
    ("cli", "render_markdown", "report.render", None, False),
    ("cli", "render_json", "report.render", None, False),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, trace id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._trace_id = 0
        self._last_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def new_trace(self) -> None:
        """Start a new trace id: one per command, and one per campaign trial."""
        self._last_id += 1
        self._trace_id = self._last_id

    def wrap(self, name: str, fn, hook=None, starts_trial: bool = False):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            outer_id = self._trace_id
            if starts_trial:
                self.new_trace()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._trace_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                self._trace_id = outer_id
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self, lab) -> None:
        """Rebind every binding that exists in this version of the package."""
        for module_name, attr, name, hook, starts_trial in BINDINGS:
            module = getattr(lab, module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, hook, starts_trial))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total, self) seconds per span name.

        Calls are nested on one thread, so the time a span's children cover
        is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[i]
        return dict(total), dict(own)

    def layer_self_times(self) -> dict[str, float]:
        _, own = self.self_times()
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in own.items():
            layers[name.split(".", 1)[0]] += seconds
        return layers

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": summary}) + "\n")
            for name, start, end, parent, trace in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "trace": trace}
                ) + "\n")
