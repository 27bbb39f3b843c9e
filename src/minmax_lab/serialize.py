"""Stable JSON shapes for results.

Each result record defines its own JSON: `to_document` writes a
dataclass's fields in declaration order, led by `"schema"` when the class
declares a `SCHEMA` tag.  A field name is a key of the output, so renaming,
adding, removing or reordering a field of a record, or of a record nested
in it, means bumping the tag.  A non-finite float anywhere in a record is
a NonFiniteRiskError that names its field.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import fields
from typing import Any, Dict, Optional, Tuple

from .errors import NonFiniteRiskError


@functools.lru_cache(maxsize=None)
def _layout(cls: type) -> Tuple[Optional[str], Tuple[str, ...]]:
    return getattr(cls, "SCHEMA", None), tuple(f.name for f in fields(cls))


def to_document(value: Any, name: str = "result") -> Any:
    """A record (or a field of one, called `name`) as plain JSON values:
    tuples become lists and enums their `.value`."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteRiskError(f"{name} is not finite ({value!r})")
        return value
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, tuple):
        return [to_document(v, name) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    schema, names = _layout(type(value))
    document: Dict[str, Any] = {} if schema is None else {"schema": schema}
    for key in names:
        document[key] = to_document(getattr(value, key), key)
    return document


def to_json(document: Dict[str, Any]) -> str:
    """Render with a fixed layout so equal documents are byte-identical."""
    return json.dumps(document, indent=2, allow_nan=False) + "\n"
