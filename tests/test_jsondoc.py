import re
from enum import Enum
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amstpa_lab import faultlab
from amstpa_lab.faultlab import CAMPAIGN_KEYS, FAULT_FIELDS, SIMULATE_KEYS, FaultKind, FaultSpec
from amstpa_lab.gcode import ToolpathParams
from amstpa_lab.jsondoc import NUMBER, REQUIRED, fields, loads, read_doc, read_value
from amstpa_lab.netsim import ChannelParams
from amstpa_lab.printer_sim import PrinterConfig
from amstpa_lab.slicer import SliceParams
from amstpa_lab.stpa_core import MODEL_KEYS, Component, Path


class TestArrayRule:
    def test_scalar_items_are_named_by_the_arrays_path(self):
        with pytest.raises(ValueError, match=re.escape("vertices must be a number, got True")):
            read_value([[0, 1], [True, 2]], [[float]], "vertices")

    def test_object_items_are_named_by_their_index(self):
        table = {"kind": (FaultKind, REQUIRED)}
        with pytest.raises(ValueError, match=re.escape("faults.1.kind must be one of ")):
            read_value([{"kind": "bit_flip"}, {"kind": "bit_flop"}], [table], "faults")

    def test_items_are_read_by_their_rule(self):
        assert read_value([[0, 1], [2.5, -1]], [[float]], "v") == [[0.0, 1.0], [2.5, -1.0]]
        assert read_value(["a", "b"], [str], "names") == ["a", "b"]


def item_by_item(value, rule, path):
    """The array rule read one value at a time, as it was before arrays of
    scalars were type-checked in one pass."""
    if type(rule) is list and type(value) is list:
        return [item_by_item(v, rule[0], path) for v in value]
    return read_value(value, rule, path)


def outcome(read, value, rule):
    try:
        return repr(read(value, rule, "a"))  # repr tells 1 from 1.0
    except ValueError as exc:
        return str(exc)


scalars = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
                    st.booleans(), st.text(max_size=2), st.none())
arrays = st.lists(st.one_of(scalars, st.lists(scalars, max_size=3)), max_size=4)
array_rules = st.sampled_from([[float], [int], [NUMBER], [bool], [str], [[float]], [[int]],
                               [[str]], [FaultKind]])


numbers = st.one_of(st.integers(-3, 3), st.floats(-1, 1))
strings = st.text(max_size=2)
# mostly arrays that pass, or break their rule in one value
values = st.one_of(
    scalars, arrays,
    st.lists(numbers, max_size=4), st.lists(st.lists(numbers, max_size=3), max_size=4),
    st.lists(st.one_of(strings, st.lists(strings, max_size=2)), max_size=4),
)


@settings(max_examples=300)
@given(value=values, rule=array_rules)
def test_one_pass_reads_as_item_by_item(value, rule):
    assert outcome(read_value, value, rule) == outcome(item_by_item, value, rule)


@pytest.mark.parametrize("data", [b"\xff\xfe{}", '{"a": 1}'.encode("utf-16")])
def test_loads_reads_only_utf8(data):
    with pytest.raises(UnicodeDecodeError):
        loads(data)


class Shade(Enum):
    LIGHT = "light"
    DARK = "dark"


class Swatch(NamedTuple):
    count: int
    ratio: float
    label: str
    glossy: bool
    shade: Shade = Shade.DARK
    limit: int | None = None
    scale: int | float | None = None


class TestFields:
    def test_each_annotation_names_its_rule(self):
        rules = {name: rule for name, (rule, _) in fields(Swatch).items()}
        assert rules == {"count": int, "ratio": float, "label": str, "glossy": bool,
                         "shade": Shade, "limit": int, "scale": NUMBER}
        assert rules["scale"] is NUMBER

    def test_a_default_is_the_override_then_the_records_own_then_required(self):
        table = fields(Swatch, ratio=0.5, limit=3)
        assert [default for _, default in table.values()] == [
            REQUIRED, 0.5, REQUIRED, REQUIRED, "dark", 3, None]

    def test_an_enum_default_is_stored_as_its_value(self):
        assert fields(Swatch)["shade"] == (Shade, "dark")
        assert fields(Swatch, shade=Shade.LIGHT)["shade"] == (Shade, "light")
        doc = {"count": 1, "ratio": 1, "label": "a", "glossy": False}
        assert read_doc(doc, fields(Swatch))["shade"] is Shade.DARK

    def test_an_optional_field_reads_by_its_type_and_takes_null(self):
        doc = {"count": 1, "ratio": 1, "label": "a", "glossy": False}
        assert read_doc({**doc, "limit": None, "scale": None}, fields(Swatch)) == {
            **doc, "ratio": 1.0, "shade": Shade.DARK, "limit": None, "scale": None}
        values = read_doc({**doc, "limit": 4, "scale": 2}, fields(Swatch))
        assert (values["limit"], values["scale"], type(values["scale"])) == (4, 2, int)
        with pytest.raises(ValueError, match=re.escape("limit must be an integer, got 0.5")):
            read_doc({**doc, "limit": 0.5}, fields(Swatch))


# each table that is a record's fields, and that record
RECORD_TABLES = {
    "faults": (FAULT_FIELDS, FaultSpec),
    "evidence": (faultlab._EVIDENCE_FIELDS, faultlab.MitigationEvidence),
    # the campaign's pipeline keys: its four blocks and six top-level keys
    "campaign": ({key: entry for key, entry in CAMPAIGN_KEYS.items()
                  if key in faultlab.PipelineConfig._fields}, faultlab.PipelineConfig),
    "campaign.slice": (CAMPAIGN_KEYS["slice"][0], SliceParams),
    "campaign.toolpath": (CAMPAIGN_KEYS["toolpath"][0], ToolpathParams),
    "campaign.printer": (CAMPAIGN_KEYS["printer"][0], PrinterConfig),
    "simulate.channel": (SIMULATE_KEYS["channel"][0], ChannelParams),
    "model.components": (MODEL_KEYS["components"][0][0], Component),
    "model.paths": (MODEL_KEYS["paths"][0][0], Path),
}


@pytest.mark.parametrize("table, cls", RECORD_TABLES.values(), ids=RECORD_TABLES)
def test_a_record_tables_keys_are_its_fields_in_order(table, cls):
    assert tuple(table) == cls._fields


def test_a_campaigns_top_level_pipeline_keys_are_read_as_the_record_reads_them():
    table = fields(faultlab.PipelineConfig)
    for key in faultlab.PipelineConfig._fields[4:]:
        assert CAMPAIGN_KEYS[key] == table[key], key


def test_a_campaigns_channel_is_every_field_but_the_seed():
    assert tuple(CAMPAIGN_KEYS["channel"][0]) == tuple(
        name for name in ChannelParams._fields if name != "seed")
