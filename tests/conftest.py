import math
import os

import pytest
from hypothesis import HealthCheck, settings

from amstpa_lab import faultlab, shapes
from amstpa_lab.gcode import ToolpathParams, emit_text, plan_toolpath, read_program
from amstpa_lab.integrity import wrap
from amstpa_lab.netsim import ChannelParams
from amstpa_lab.printer_sim import Job
from amstpa_lab.slicer import SliceParams, slice_mesh

settings.register_profile(
    "suite", max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def cube():
    return shapes.box()


@pytest.fixture(scope="session")
def cube_layers(cube):
    return slice_mesh(cube, SliceParams(layer_height=0.25))


@pytest.fixture(scope="session")
def cube_program(cube_layers):
    return plan_toolpath(cube_layers, ToolpathParams())


@pytest.fixture(scope="session")
def cube_text(cube_program):
    return emit_text(cube_program)


@pytest.fixture(scope="session")
def cube_wrapped(cube_program, cube_text):
    return wrap(cube_text, len(cube_program.commands))


@pytest.fixture(scope="session")
def cube_job(cube_layers, cube_program, cube_text, cube_wrapped):
    return Job(cube_layers, cube_text, cube_wrapped, read_program(cube_program, cube_text))


@pytest.fixture(scope="session")
def cube_raw_job(cube_job, cube_text):
    """The cube job as sent without the envelope."""
    return cube_job._replace(sent=cube_text)


@pytest.fixture()
def lossless_channel():
    return ChannelParams(latency_ms=1.0, bandwidth_bytes_per_s=125_000.0, loss_prob=0.0, seed=5)


@pytest.fixture()
def in_process(monkeypatch):
    """Keep every campaign trial in this process.

    A forked worker's calls never reach the parent, so a test that counts
    calls, records trials or reads the intake's memo runs them here.
    """
    monkeypatch.setattr(faultlab, "_POOL_AFTER_S", math.inf)


@pytest.fixture()
def pooled(monkeypatch):
    """Hand every campaign trial to forked workers, from the first."""
    if not hasattr(os, "fork"):
        pytest.skip("this platform cannot fork")
    if faultlab._pool_size(2) < 2:
        pytest.skip("fewer than 2 usable CPUs: a campaign runs in one process")
    monkeypatch.setattr(faultlab, "_POOL_AFTER_S", 0.0)
