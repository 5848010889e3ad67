import re

import pytest

from amstpa_lab.faultlab import FaultKind
from amstpa_lab.jsondoc import REQUIRED, loads, read_value


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


@pytest.mark.parametrize("data", [b"\xff\xfe{}", '{"a": 1}'.encode("utf-16")])
def test_loads_reads_only_utf8(data):
    with pytest.raises(UnicodeDecodeError):
        loads(data)
