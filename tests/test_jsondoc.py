import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amstpa_lab.faultlab import FaultKind
from amstpa_lab.jsondoc import NUMBER, REQUIRED, loads, read_value


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
