"""Printer firmware state machine: receive, verify, and print toolpaths.

Two buffering policies contrast the receive-then-print discipline:

* FULL_IMAGE: the whole job is received and its envelope verified before
  any layer is printed, so corrupt jobs are rejected with nothing wasted.
* STREAMING: commands are consumed as packets arrive and the envelope can
  only be checked at end-of-stream, so damage discovered late scraps a
  partially printed part.

Streaming damage is attributed to the layer of the sender's strict reading
that holds the first corrupted byte (prologue bytes count toward the first
layer, trailer bytes toward the last); this deliberately simple model makes
the reject-early vs scrap-late contrast measurable.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from . import integrity
from .gcode import Layer, Reading, _first_diff, intended_perimeters, resume
from .jsondoc import checked
from .netsim import ChannelParams, TransferMode, transfer
from .slicer import LayerPlan


class PrinterTechnology(Enum):
    BINDER_JETTING = "binder_jetting"
    DIRECTED_ENERGY_DEPOSITION = "directed_energy_deposition"
    MATERIAL_EXTRUSION = "material_extrusion"
    MATERIAL_JETTING = "material_jetting"
    POWDER_BED_FUSION = "powder_bed_fusion"
    SHEET_LAMINATION = "sheet_lamination"
    VAT_PHOTOPOLYMERIZATION = "vat_photopolymerization"


# metadata-grade defaults; technology carries no algorithmic meaning
DEFAULT_LAYER_TIME_MS: dict[PrinterTechnology, float] = {
    PrinterTechnology.BINDER_JETTING: 9_000.0,
    PrinterTechnology.DIRECTED_ENERGY_DEPOSITION: 15_000.0,
    PrinterTechnology.MATERIAL_EXTRUSION: 12_000.0,
    PrinterTechnology.MATERIAL_JETTING: 10_000.0,
    PrinterTechnology.POWDER_BED_FUSION: 20_000.0,
    PrinterTechnology.SHEET_LAMINATION: 7_000.0,
    PrinterTechnology.VAT_PHOTOPOLYMERIZATION: 8_000.0,
}


class PrintPolicy(Enum):
    FULL_IMAGE = "fullimage"
    STREAMING = "streaming"


@checked
class PrinterConfig(NamedTuple):
    buffer_capacity: int
    policy: PrintPolicy
    technology: PrinterTechnology = PrinterTechnology.MATERIAL_EXTRUSION
    nominal_layer_time_ms: float | None = None

    def _check(self) -> PrinterConfig:
        if not (self.buffer_capacity > 0):
            raise ValueError("buffer_capacity must be > 0")
        layer_time = self.nominal_layer_time_ms
        if layer_time is None:
            layer_time = DEFAULT_LAYER_TIME_MS[self.technology]
        # a non-numeric layer time fails here, before any job runs
        layer_time = float(layer_time)
        if not (0 <= layer_time < math.inf):
            raise ValueError("nominal_layer_time_ms must be finite and >= 0")
        return tuple.__new__(PrinterConfig, (*self[:-1], layer_time))


class JobStatus(Enum):
    COMPLETED = "completed"
    REJECTED_BEFORE_PRINT = "rejected_before_print"
    SCRAPPED_MID_PRINT = "scrapped_mid_print"


class FailReason(Enum):
    BUFFER_TOO_SMALL = "buffer_too_small"
    INTEGRITY_FAILURE = "integrity_failure"
    PARSE_FAILURE = "parse_failure"
    CHANNEL_DOWN = "channel_down"


class JobOutcome(NamedTuple):
    status: JobStatus
    layers_printed: int = 0
    reason: FailReason | None = None


class Job(NamedTuple):
    layers: list[LayerPlan]
    text: bytes
    sent: bytes  # wrapped envelope, or raw text when not enveloped
    reading: Reading  # fold(scan(text)), the sender's reading of its own text


class PrintTrace(NamedTuple):
    layers: tuple[Layer, ...] = ()
    time_ms: float = 0.0
    integrity_corrected_bits: int = 0


def _result(
    status: JobStatus,
    reason: FailReason | None,
    elapsed_ms: float,
    layer_time: float,
    layers: tuple[Layer, ...] = (),
    corrected: int = 0,
) -> tuple[JobOutcome, PrintTrace]:
    trace = PrintTrace(
        layers=layers,
        time_ms=elapsed_ms + len(layers) * layer_time,
        integrity_corrected_bits=corrected,
    )
    return JobOutcome(status, layers_printed=len(layers), reason=reason), trace


def _stopped(
    reason: FailReason,
    elapsed_ms: float,
    layer_time: float,
    layers: tuple[Layer, ...] = (),
    corrected: int = 0,
) -> tuple[JobOutcome, PrintTrace]:
    # a job that stops before its first layer printed wastes nothing
    status = JobStatus.SCRAPPED_MID_PRINT if layers else JobStatus.REJECTED_BEFORE_PRINT
    return _result(status, reason, elapsed_ms, layer_time, layers, corrected)


def run_job(
    job: Job,
    cfg: PrinterConfig,
    ch: ChannelParams,
    mode: TransferMode,
    packet_size: int = 256,
    enveloped: bool = True,
    sent: bytes | None = None,
) -> tuple[JobOutcome, PrintTrace]:
    """Send a job over the channel and simulate the printer's handling.

    The sender transmits `sent`, which defaults to `job.sent` (an AMI1
    envelope over `job.text` unless enveloped=False, in which case the raw
    text).  Stream damage is blamed on the layers of `job.reading`, the
    sender's strict reading of its text, which stops at its first bad line.
    Every delivered payload is read as
    `resume(job.reading, job.text, payload)`: an intact one takes that
    reading as its own, and a damaged one is read from the last layer
    checkpoint before its first differing byte, stopping at its first bad
    line, or early once it reads as `job.text` again.
    """
    layer_time = cfg.nominal_layer_time_ms
    streaming = cfg.policy is PrintPolicy.STREAMING
    header_size = integrity.HEADER_SIZE if enveloped else 0

    tr = transfer(job.sent if sent is None else sent, ch, mode, packet_size)
    if tr.down_at is not None:
        printed: tuple[Layer, ...] = ()
        if streaming:
            # a layer counts as printed once its last move line has fully arrived
            arrived = tr.down_at - header_size
            printed = tuple(lay for lay in job.reading.layers if lay.end_offset <= arrived)
        return _stopped(FailReason.CHANNEL_DOWN, tr.elapsed_ms, layer_time, printed)

    delivered = tr.delivered
    if not streaming and len(delivered) > cfg.buffer_capacity:
        return _stopped(FailReason.BUFFER_TOO_SMALL, tr.elapsed_ms, layer_time)
    corrected = 0
    declared_records: int | None = None
    if enveloped:
        # the header arrives first; an unrecognizable magic stops the job cold
        if delivered[:4] != integrity.MAGIC:
            return _stopped(FailReason.INTEGRITY_FAILURE, tr.elapsed_ms, layer_time)
        vr = integrity.verify(delivered)
        if not vr.ok:
            if not streaming:
                return _stopped(FailReason.INTEGRITY_FAILURE, tr.elapsed_ms, layer_time)
            # checkable only at end-of-stream: scrap at the damaged layer
            sent_layers = job.reading.layers
            diff = _first_diff(delivered, job.sent)
            if diff is None or not (0 <= diff - header_size < len(job.text)):
                # header/ECC-tail damage or sender-side bad envelope: the
                # commands themselves all ran before the check failed
                k = len(sent_layers)
            else:
                # prologue bytes belong to the first layer
                k = sum(1 for lay in sent_layers[1:] if lay.start_offset <= diff - header_size)
            return _result(JobStatus.SCRAPPED_MID_PRINT, FailReason.INTEGRITY_FAILURE,
                           tr.elapsed_ms, layer_time, sent_layers[:k])
        payload = vr.payload or b""
        corrected = vr.corrected_bits
        declared_records = vr.record_count
    else:
        payload = delivered

    reading = resume(job.reading, job.text, payload)
    if reading.error is not None:
        # the stream choked on a line mid-job; layers begun before it stand
        printed = reading.layers if streaming else ()
        return _stopped(FailReason.PARSE_FAILURE, tr.elapsed_ms, layer_time, printed, corrected)
    if reading.invalid is not None:
        # program invariants hold or fail only once the whole program is in
        return _stopped(FailReason.PARSE_FAILURE, tr.elapsed_ms, layer_time, corrected=corrected)
    if declared_records is not None and declared_records != len(reading.commands):
        # the word-count leg of the integrity check
        if not streaming:
            return _stopped(FailReason.INTEGRITY_FAILURE, tr.elapsed_ms, layer_time,
                            corrected=corrected)
        # only checkable at end-of-stream: the whole part ran
        return _result(JobStatus.SCRAPPED_MID_PRINT, FailReason.INTEGRITY_FAILURE,
                       tr.elapsed_ms, layer_time, job.reading.layers, corrected)
    return _result(JobStatus.COMPLETED, None, tr.elapsed_ms, layer_time, reading.layers, corrected)


class GeometryDiff(NamedTuple):
    max_extrusion_error_mm: float
    layers_missing: int


def geometry_diff(intended: list[LayerPlan], trace: PrintTrace) -> GeometryDiff:
    """Compare printed extrusion against the intended layer plans.

    The intent is each layer's closed-contour perimeter sum (what the
    planner extrudes); layers are paired by position, and layers the
    printer never reached count as missing.
    """
    perimeters = intended_perimeters(intended)
    max_err = 0.0
    for perim, record in zip(perimeters, trace.layers):
        max_err = max(max_err, abs(record.extruded_mm - perim))
    return GeometryDiff(
        max_extrusion_error_mm=max_err,
        layers_missing=max(0, len(perimeters) - len(trace.layers)),
    )


def outcome_to_dict(outcome: JobOutcome) -> dict:
    return {
        "status": outcome.status.value,
        "layers_printed": outcome.layers_printed,
        "reason": outcome.reason.value if outcome.reason else None,
    }


def trace_to_dict(trace: PrintTrace) -> dict:
    return {
        "layers": [
            {"index": r.index, "z": r.z, "extruded_mm": r.extruded_mm} for r in trace.layers
        ],
        "time_ms": trace.time_ms,
        "integrity_corrected_bits": trace.integrity_corrected_bits,
    }
