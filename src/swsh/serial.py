"""Deterministic text formatting for files and reports.

All numeric output uses 17 significant digits, which round-trips any
double exactly, and the JSON writer below emits keys in insertion order
with fixed separators so identical data always serializes to identical
bytes.
"""

import json
import math

INDENT = 2  # spaces per nesting level of json_dumps


def fmt17(x):
    """Format a float with 17 significant digits, always with a decimal marker."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _emit(obj, out, level):
    pad = " " * (INDENT * level)
    pad_in = " " * (INDENT * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            out.append(pad_in + json.dumps(k) + ": ")
            _emit(v, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad_in)
            _emit(v, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int,)):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt17(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj):
    out = []
    _emit(obj, out, 0)
    return "".join(out)
