"""Strict readers for the fields of parsed JSON, stdlib only.

``read(data, key, kind, where)`` returns ``data[key]`` as a ``kind``
or raises ValueError naming the field's path, as in
``measures[0].direction_favorable: expected true or false, got 'false'``.
Nothing is coerced: a bool is never an integer or a number, a string
never a number, and an integer must be integral.  An absent or null
field takes ``default``; without one it is required.
"""

import json
import math

REQUIRED = object()
# The kind of a float that may also be infinite, but not NaN.
NUMBER = object()

_EXPECTED = {
    int: "an integer",
    bool: "true or false",
    float: "a finite number",
    NUMBER: "a number, not NaN",
    str: "a non-empty string",
    dict: "an object",
    list: "a list",
}


def error(path: str, value, expected: str) -> ValueError:
    """The error of a field at ``path`` that holds ``value`` where
    ``expected`` was due."""
    if value is REQUIRED:
        got = "nothing"
    elif isinstance(value, (dict, list)):
        kind = "an object" if isinstance(value, dict) else "a list"
        got = f"{kind} of {len(value)}"
    elif isinstance(value, str):
        got = repr(value)[:40]
    else:
        # null, true, NaN, Infinity, 2.5, and a live numpy value's repr
        got = json.dumps(value, default=repr)
    at = f"{path}: " if path else ""
    return ValueError(f"{at}expected {expected}, got {got}")


def _float(value, finite: bool):
    """A JSON number as a float (finite, or else not NaN), or None."""
    if type(value) is float:
        if math.isfinite(value) if finite else value == value:
            return value
    elif type(value) is int and abs(value) < 1e308:
        return float(value)
    return None


def document(value, where: str = "") -> dict:
    """A parsed document, or the object at path ``where``."""
    if type(value) is not dict:
        raise error(where[:-1], value, "an object")
    return value


def read(data: dict, key, kind, where="", default=REQUIRED, choices=None):
    """``data[key]`` as a ``kind``: int, bool, float (finite), NUMBER,
    str (non-empty, and one of ``choices`` if given), dict or list."""
    value = data.get(key)
    if type(value) is kind:
        if kind is float:
            if value - value == 0.0:  # finite: inf - inf and NaN are NaN
                return value
        elif value != "" and (choices is None or value in choices):
            return value
    elif value is None and default is not REQUIRED:
        return default
    elif kind is float or kind is NUMBER:
        number = _float(value, kind is float)
        if number is not None:
            return number
    elif kind is int and type(value) is float and value.is_integer():
        return int(value)
    expected = f"one of {choices}" if choices else _EXPECTED[kind]
    raise error(where + key, data.get(key, REQUIRED), expected)


def numbers(data: dict, key, where="", default=REQUIRED, finite=True):
    """A list of floats, finite or else not NaN."""
    values = read(data, key, list, where, default)
    if values is default:
        return default
    out = [
        v if type(v) is float and v - v == 0.0 else _float(v, finite)
        for v in values
    ]
    if None in out:
        i = out.index(None)
        expected = _EXPECTED[float if finite else NUMBER]
        raise error(f"{where}{key}[{i}]", values[i], expected)
    return out
