"""Deterministic report serialization.

Audit reports must be byte-identical across runs with the same seed, so
JSON is emitted by a small canonical writer: object keys sorted, floats
printed with 17 significant digits, no locale or hash-order dependence.
A :class:`Report` renders both from its own fields; a CSV cell is JSON scalar text.

Input documents (networks, states, scenario configs) are parsed by
:func:`read_json` with ``orjson``, which decodes floats bit-for-bit like
the standard library but in about half the time. It reads strict RFC 8259
JSON: ``NaN`` and ``Infinity`` literals and a UTF-8 byte order mark are
malformed input, and integers outside the 64-bit range come back as floats
(or as malformed input when they overflow a float).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .exceptions import FormatError

__all__ = [
    "Report",
    "dumps",
    "read_json",
    "write_json",
    "write_csv",
    "sha256_of_arrays",
]


class Report:
    """One rule for every result's report.

    The JSON document is the class's constant ``TAG`` entries plus every
    dataclass field, each under its ``KEYS`` name where one is given; the
    CSV row is the document's entries named by ``CSV_HEADER``.
    """

    TAG: dict = {}
    KEYS: dict = {}
    CSV_HEADER: tuple = ()

    def to_jsonable(self) -> dict:
        return {**self.TAG, **{self.KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}}

    def csv_row(self) -> list:
        doc = self.to_jsonable()
        return [doc[key] for key in self.CSV_HEADER]


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if bool(obj) else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no inf/nan literals; reports encode them as strings.
        text = format(float(obj), ".17g")
        return text if np.isfinite(obj) else f'"{text}"'
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_encode(x) for x in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            parts.append(json.dumps(key, ensure_ascii=False) + ":" + _encode(obj[key]))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps(obj) -> str:
    return _encode(obj) + "\n"


def read_json(path):
    """Parse a JSON file; malformed JSON raises :class:`FormatError`."""
    # Imported here: its import chain costs every CLI start a few ms, and
    # the audits read no JSON.
    import orjson

    data = Path(path).read_bytes()
    try:
        return orjson.loads(data)
    except json.JSONDecodeError as exc:  # orjson's error subclasses it
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(dumps(obj), encoding="utf-8")
    return path


def _csv_cell(x) -> str:
    """A string as it is, otherwise the JSON scalar text unquoted."""
    if isinstance(x, str):
        return x
    if not isinstance(x, (int, float, np.bool_, np.integer, np.floating)):
        raise TypeError(f"cannot put {type(x).__name__} in a CSV cell")
    return _encode(x).strip('"')


def write_csv(path, header: list[str], rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def sha256_of_arrays(*arrays) -> str:
    """Stable content hash of the arrays defining one audit trial."""
    digest = hashlib.sha256()
    for a in arrays:
        arr = np.ascontiguousarray(a)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()
