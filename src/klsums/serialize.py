"""The one JSON serializer for reports and CLI payloads.

``jsonify`` turns a report into plain JSON values: a dataclass becomes a
dict of its fields plus its public properties, a named tuple a dict of its
fields, other tuples and arrays lists, numpy scalars Python scalars, and a
complex number ``{"re": ..., "im": ...}``.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def _public_properties(cls) -> list[str]:
    return [
        name
        for name in dir(cls)
        if not name.startswith("_") and isinstance(getattr(cls, name), property)
    ]


def jsonify(obj):
    """A JSON-ready copy of obj (see the module docstring)."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.generic):
        return jsonify(obj.item())
    if isinstance(obj, np.ndarray):
        return [jsonify(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = [f.name for f in dataclasses.fields(obj)] + _public_properties(type(obj))
        return {name: jsonify(getattr(obj, name)) for name in names}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {name: jsonify(v) for name, v in zip(obj._fields, obj)}
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(x) for x in obj]
    return obj
