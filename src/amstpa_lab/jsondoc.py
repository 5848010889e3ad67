"""The one reader of JSON input: strict text, then typed values by table.

`loads` reads every JSON file the lab takes in: UTF-8 only, with no NaN,
Infinity, number past the double range or nesting too deep.  `read_doc`
reads an object against a table, which maps each key to (rule, default) and
lives beside the type it builds.  The rules: int, a JSON integer; float, a
JSON number, read as a float; NUMBER, a JSON number, kept as read; bool;
str; an Enum, a string naming a member, read as the member; a table, an
object read by it; [rule], an array of values read by that rule.  No number
rule takes a bool.  An error names the value by its dotted path: an object
in an array by its index (`faults.3.kind`), any other item by the array's
path (`layers.0.contours.0.vertices`).  An array of scalars, or of arrays of
scalars, is type-checked in one pass; only an array that fails it is read
item by item, to name its first bad value.

`fields` derives a NamedTuple's table from the record, so that each table
has one source of truth: each field is read by the rule its annotation
names (`X | None` by X, taking null too; `int | float` by NUMBER), and its
default is the one given to `fields`, else the record's own, else REQUIRED.
`checked` makes a NamedTuple config run its own `_check` on every instance
built, `_replace` included.
"""

from __future__ import annotations

import json
import logging
import math
from enum import Enum, EnumMeta
from functools import wraps
from itertools import chain
from typing import get_args, get_type_hints

log = logging.getLogger(__name__)

NUMBER = (int, float)
REQUIRED = object()  # the default of a key that must be given

# each scalar rule: the exact types it takes (type(True) is bool, not int), and its name
_SCALARS = {int: ((int,), "an integer"), float: (NUMBER, "a number"), NUMBER: (NUMBER, "a number"),
            bool: ((bool,), "true or false"), str: ((str,), "a string")}


def finite_float(text: str) -> float:
    """A JSON number as a float, refusing NaN, Infinity and numbers past the double range."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def loads(data: bytes):
    """The JSON document in the UTF-8 bytes `data`: ValueError for bad syntax,
    a non-finite number, nesting too deep, or (UnicodeDecodeError) not UTF-8."""
    try:
        return json.loads(data.decode("utf-8"), parse_float=finite_float, parse_constant=finite_float)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def read_doc(doc, table: dict, where: str = "") -> dict:
    """Every key of `table` read from the JSON object `doc` by its rule.

    A key `doc` leaves out takes its default, read by the same rule; a key
    whose default is null also takes null.  A key the table does not name is
    ignored, with a warning that names it by its dotted path, `where` + key.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where[:-1] or 'the document'} must be an object, got {doc!r}")
    for key in doc:
        if key not in table:
            log.warning("ignoring unknown key %s%s", where, key)
    values = {}
    for key, (rule, default) in table.items():
        value = doc.get(key, default)
        values[key] = value if value is default is None else read_value(value, rule, where + key)
    return values


def read_value(value, rule, path: str):
    """`value` read by one table rule (see above); ValueError names `path`."""
    if value is REQUIRED:
        raise ValueError(f"{path} is required")
    kind = type(rule)
    if kind is dict:
        return read_doc(value, rule, path + ".")
    if kind is list:
        if type(value) is list:
            (item,) = rule
            if type(item) is dict:
                return [read_doc(v, item, f"{path}.{i}.") for i, v in enumerate(value)]
            read = _read_scalars(value, item)
            return [read_value(v, item, path) for v in value] if read is None else read
        expected = "an array"
    elif kind is EnumMeta:
        members = {m.value: m for m in rule}
        if type(value) is str and value in members:
            return members[value]
        expected = "one of " + ", ".join(members)
    else:
        types, expected = _SCALARS[rule]
        if type(value) in types:
            return float(value) if rule is float else value
    raise ValueError(f"{path} must be {expected}, got {value!r}")


def _read_scalars(values: list, item):
    """`values` read by the array rule [item] in one pass over their types,
    when `item` is a scalar rule or an array rule over one; None when it is
    neither, or when some value breaks it."""
    rows = type(item) is list
    scalar = item[0] if rows else item
    if type(scalar) in (dict, list) or scalar not in _SCALARS:
        return None
    if rows and not set(map(type, values)) <= {list}:
        return None
    seen = set(map(type, chain.from_iterable(values) if rows else values))
    if not seen <= set(_SCALARS[scalar][0]):
        return None
    if scalar is float and int in seen:
        return [list(map(float, row)) for row in values] if rows else list(map(float, values))
    return values  # every value already is what the rule reads it as


def fields(cls, **defaults) -> dict:
    """The table of the NamedTuple `cls`: every field, in order, read by the
    rule its annotation names, with its default from `defaults`, else the
    record's own, else REQUIRED.  An Enum default is stored as its value,
    since a default is read by the field's rule."""
    table = {}
    for name, hint in get_type_hints(cls).items():
        types = tuple(t for t in get_args(hint) if t is not type(None)) or (hint,)
        (rule,) = (NUMBER,) if types == NUMBER else types
        default = defaults.get(name, cls._field_defaults.get(name, REQUIRED))
        table[name] = (rule, default.value if isinstance(default, Enum) else default)
    return table


def checked(cls):
    """The NamedTuple `cls`, made to run its `_check` on every instance built:
    by the constructor, by `_make` and `_replace` (which builds through
    `_make`), and on unpickling.  `_check` raises ValueError for a bad
    field, or returns a completed record to stand in for the one built."""
    new = cls.__new__

    @wraps(new)  # keeps the generated constructor's signature and doc
    def __new__(klass, *args, **kwargs):
        record = new(klass, *args, **kwargs)
        return record._check() or record

    cls.__new__ = __new__
    cls._make = classmethod(lambda klass, values: klass(*values))
    return cls
