"""Benchmark for amstpa-lab: STL-to-outcome jobs and fault campaigns.

    python3 perfbench/run.py --workload job_dense --seed 1 --seconds 50 --trace 0

Runs from the root of a checkout and imports the package from its `src/`.
Each operation is one `amstpa` command line, run in this process through
`cli.main`, in a closed loop with one client: the next call is issued when
the previous one returns. Every output is checked. The last line on stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 runs rounds traced for
half the time (spans around each cross-module call, see spans.py), replays
the same rounds untraced, and reports per-layer metrics plus the tracing
overhead.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads as wl
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
PINS_FILE = Path(__file__).resolve().parent / "pins.json"
SETUP_REPEATS = 9
TRACE_DIR = wl.WORK / "trace"

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "gcode_mb_per_s": "MB/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (for example, it has no package)."""


def import_package() -> SimpleNamespace:
    """Import the package afresh from the checkout's src/ directory."""
    src = ROOT / "src"
    if not (src / "amstpa_lab" / "__init__.py").is_file():
        raise SetupError(f"no package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "amstpa_lab" or m.startswith("amstpa_lab.")]:
        del sys.modules[name]
    names = ("cli", "shapes", "mesh_io", "slicer", "gcode", "integrity",
             "netsim", "printer_sim", "faultlab", "stpa_core", "report")
    lab = SimpleNamespace(**{n: importlib.import_module(f"amstpa_lab.{n}") for n in names})
    if not Path(lab.cli.__file__).resolve().is_relative_to(src):
        raise SetupError(f"imported {lab.cli.__file__}, not the package under {src}")
    return lab


def set_up(workload: str, seed: int) -> tuple[SimpleNamespace, wl.Plan, float]:
    """Import and generate the inputs SETUP_REPEATS times; median wall time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lab = import_package()
        plan = wl.plan_workload(lab, workload, seed)
        times.append(perf_counter() - t0)
    return lab, plan, statistics.median(times)


class Runner:
    """Runs operations and checks every output."""

    def __init__(self, lab, pins: dict[str, str]) -> None:
        self.main = lab.cli.main
        self.pins = pins
        self.seen: dict[str, str] = {}  # artifact key -> digest in this run
        self.errors: list[str] = []

    def run(self, op: wl.Op) -> dict:
        """Run one op; returns its duration, whether it held, and its output."""
        op.out.unlink(missing_ok=True)
        gc.collect()  # start each op from a clean heap, as a fresh CLI process would
        t0 = perf_counter()
        try:
            code = self.main(op.argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            code = None
            crash = traceback.format_exc(limit=3)
        seconds = perf_counter() - t0
        doc = None
        if code is None:
            error = f"raised:\n{crash}"
        elif code != 0:
            error = f"exit code {code}"
        else:
            error, doc = self.check(op)
        if error is not None:
            self.errors.append(f"{op.key}: {error}")
            print(f"FAILED {op.key} ({' '.join(op.argv)}): {error}", file=sys.stderr)
        return {"op": op, "seconds": seconds, "ok": error is None, "doc": doc}

    def check(self, op: wl.Op) -> tuple[str | None, dict | None]:
        try:
            data = op.out.read_bytes()
        except OSError as exc:
            return f"no output: {exc}", None
        digest = wl.digest(data)
        pinned = self.pins.get(op.key)
        if pinned is not None and pinned != digest:
            return f"sha256 {digest} differs from the pinned {pinned}", None
        earlier = self.seen.setdefault(op.key, digest)
        if earlier != digest:
            return f"sha256 {digest} differs from an earlier run of the same op {earlier}", None
        try:
            error = op.check(data)
            doc = json.loads(data) if op.out.suffix == ".json" else None
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed output: {exc!r}", None
        return error, doc


def run_rounds(runner: Runner, rounds: list[list[wl.Op]], *, seconds: float = 0.0,
               count: int | None = None, tracer: Tracer | None = None) -> tuple[list[dict], int]:
    """Whole rounds: `count` of them, or as many as start within `seconds`.

    Returns the op results and the number of rounds run.
    """
    results = []
    t0 = perf_counter()
    r = 0
    while r < count if count is not None else (r == 0 or perf_counter() - t0 < seconds):
        for op in rounds[r % len(rounds)]:
            if tracer is not None:
                tracer.new_trace()
            results.append(runner.run(op))
        r += 1
    return results, r


def end_to_end(results: list[dict], setup_s: float) -> dict[str, float]:
    jobs = [r for r in results if r["op"].kind == "simulate"]
    job_time = sum(r["seconds"] for r in jobs)
    # ECC is off in every job, so the envelope is the header plus the G-code
    gcode = sum(r["doc"]["payload_bytes"] - wl.HEADER_SIZE for r in jobs if r["ok"])
    campaign_ops = [r for r in results if r["op"].kind != "simulate"]
    if campaign_ops:
        trials = sum(r["op"].trials for r in campaign_ops if r["ok"])
        trial_time = sum(r["seconds"] for r in campaign_ops)
    else:  # job_dense: each job is one unfaulted pass through the pipeline
        trials = sum(1 for r in jobs if r["ok"])
        trial_time = job_time
    return {
        "setup_s": setup_s,
        "job_p50_s": statistics.median(r["seconds"] for r in jobs),
        "gcode_mb_per_s": gcode / 1e6 / job_time,
        "trials_per_s": trials / trial_time,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, results: list[dict], traced_s: float, untraced_s: float
              ) -> dict[str, tuple[float, str]]:
    total, own = tracer.self_times()
    c = tracer.counts
    hist = dict.fromkeys(wl.STAGES, 0)
    trials = 0
    for r in results:
        if r["op"].kind == "campaign" and r["ok"]:
            trials += r["op"].trials
            for stage, n in wl.campaign_histogram(r["doc"]).items():
                hist[stage] += n
    classified = sum(hist.values())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {
        "cli.main.self_s": (own.get("cli.main", 0.0), "s"),
        "mesh_io.parse_stl.s": (total.get("mesh_io.parse_stl", 0.0), "s"),
        "mesh_io.validate_mesh.s": (total.get("mesh_io.validate_mesh", 0.0), "s"),
        "mesh_io.emit_stl.s": (total.get("mesh_io.emit_stl", 0.0), "s"),
        "mesh_io.facets": (c["mesh_io.facets"], "count"),
        "slicer.slice_mesh.s": (total.get("slicer.slice_mesh", 0.0), "s"),
        "slicer.slice_mesh.calls": (c["slicer.slice_mesh.calls"], "count"),
        "slicer.layers": (c["slicer.layers"], "count"),
        "slicer.contour_vertices": (c["slicer.contour_vertices"], "count"),
    }
    for fn in ("plan_toolpath", "emit_text", "parse_text", "scan_text_layers", "program_layers"):
        m[f"gcode.{fn}.s"] = (total.get(f"gcode.{fn}", 0.0), "s")
    m.update({
        "gcode.bytes_parsed": (c["gcode.bytes_parsed"], "bytes"),
        "integrity.wrap.s": (total.get("integrity.wrap", 0.0), "s"),
        "integrity.verify.s": (total.get("integrity.verify", 0.0), "s"),
        "integrity.ecc_bytes": (c["integrity.ecc_bytes"], "bytes"),
        "integrity.verify_ok_ratio": (
            ratio(c["integrity.verify.ok"], c["integrity.verify.calls"]), "ratio"),
        "netsim.transfer.s": (total.get("netsim.transfer", 0.0), "s"),
        "netsim.packets_sent": (c["netsim.packets_sent"], "count"),
        "netsim.packets_lost": (c["netsim.packets_lost"], "count"),
        "netsim.delivery_ratio": (
            ratio(c["netsim.packets_sent"] - c["netsim.packets_lost"], c["netsim.packets_sent"]),
            "ratio"),
        "printer_sim.run_job.self_s": (own.get("printer_sim.run_job", 0.0), "s"),
        "printer_sim.run_job.calls": (c["printer_sim.run_job.calls"], "count"),
        "printer_sim.geometry_diff.s": (total.get("printer_sim.geometry_diff", 0.0), "s"),
    })
    for status in ("completed", "rejected_before_print", "scrapped_mid_print"):
        m[f"printer_sim.status.{status}"] = (c[f"printer_sim.status.{status}"], "count")
    m.update({
        "faultlab.campaign.self_s": (own.get("faultlab.campaign", 0.0), "s"),
        "faultlab.inject.s": (total.get("faultlab.inject", 0.0), "s"),
        "faultlab.trials": (trials, "count"),
    })
    for stage in wl.STAGES:
        m[f"faultlab.stage.{stage}"] = (hist[stage], "count")
    m.update({
        "faultlab.early_exit_ratio": (
            ratio(sum(hist[s] for s in wl.EARLY_STAGES), classified), "ratio"),
        "stpa_core.enumerate_candidates.s": (
            total.get("stpa_core.enumerate_candidates", 0.0), "s"),
        "stpa_core.candidates": (c["stpa_core.candidates"], "count"),
        "report.render.s": (total.get("report.render", 0.0), "s"),
    })
    for layer, seconds in tracer.layer_self_times().items():
        m[f"self_s.{layer}"] = (seconds, "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    return m


def load_pins() -> dict[str, str]:
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))["digests"]


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        lab, plan, setup_s = set_up(args.workload, args.seed)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = Runner(lab, load_pins())

    if args.trace:
        tracer = Tracer()
        tracer.install(lab)
        runner.main = tracer.wrap("cli.main", lab.cli.main)
        try:
            t0 = perf_counter()
            results, n_rounds = run_rounds(runner, plan.rounds, seconds=args.seconds / 2,
                                           tracer=tracer)
            traced_s = perf_counter() - t0
        finally:
            tracer.uninstall()
            runner.main = lab.cli.main
        t0 = perf_counter()
        replay, _ = run_rounds(runner, plan.rounds, count=n_rounds)
        untraced_s = perf_counter() - t0
        metrics = per_layer(tracer, results, traced_s, untraced_s)
        summary = {
            "workload": args.workload, "seed": args.seed, "rounds": n_rounds,
            "traced_s": traced_s, "untraced_s": untraced_s,
            "layer_self_s": tracer.layer_self_times(),
            "skipped_bindings": tracer.skipped,
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl", summary)
        results += replay
    else:
        results, _ = run_rounds(runner, plan.rounds, seconds=args.seconds)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(results, setup_s).items()}

    failed = sum(1 for r in results if not r["ok"])
    table = dict(metrics)
    table["error_rate"] = (failed / len(results), "ratio")
    for name, (value, unit) in table.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
