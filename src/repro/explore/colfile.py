"""One binary column file: the disk layout of cached sweeps and job results.

A payload is a dict whose optional ``"columns"`` entry maps names to
1-D arrays; everything else in it is plain JSON.  The file is::

    magic | u64 header length | UTF-8 JSON header | column buffers

The header holds every non-column field under ``"fields"`` and, under
``"columns"``, one descriptor per column: ``dtype``, ``offset`` (from
the first 8-byte boundary after the header), ``nbytes`` and ``rows``.
Numeric and bool columns are raw little-endian buffers, each starting
on an 8-byte boundary.  String columns are dictionary-encoded: the
vocabulary sits in the descriptor and the buffer holds ``uint32`` codes.

:func:`encode` takes a string column as a
:class:`~.columnar.Categorical` (any other string array is factorized
first) and writes its canonical form, so a file's bytes depend only on
the column's strings.  :func:`decode` takes the whole file as one
``bytes`` object and returns numeric columns as read-only
``np.frombuffer`` views of it and string columns as ``Categorical``
codes (views too) into their vocabulary; ``.objects()`` gives the
object array of ``str``.  The file ends where its last
buffer ends, and a file of any other length than its header describes
is rejected, so a torn write never decodes.  Malformed input of any
kind raises ``ValueError``, the one exception readers quarantine on.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Mapping

import numpy as np

from .columnar import Categorical

__all__ = ["MAGIC", "decode", "encode"]

MAGIC = b"REPROCF\x01"

_LENGTH = struct.Struct("<Q")
_PREFIX = len(MAGIC) + _LENGTH.size
_ALIGN = 8
_NUMERIC_KINDS = "biuf"
_CODE = np.dtype("<u4")


def _aligned(size: int) -> int:
    return size + -size % _ALIGN


def _encode_column(name: str, values: Any) -> tuple[np.ndarray, dict[str, Any]]:
    """One column's buffer as an array, and its descriptor minus the offset."""
    spec: dict[str, Any] = {}
    if not isinstance(values, Categorical):
        array = np.asarray(values)
        if array.ndim != 1:
            raise ValueError(f"column {name!r} is not 1-D: shape {array.shape}")
        if array.dtype.kind in "OU":
            values = Categorical.from_values(array)
    if isinstance(values, Categorical):
        values = values.canonical()
        array = np.ascontiguousarray(values.codes, dtype=_CODE)
        spec["vocab"] = list(values.vocab)
    elif array.dtype.kind in _NUMERIC_KINDS:
        array = np.ascontiguousarray(
            array, dtype=array.dtype.newbyteorder("<")
        )
    else:
        raise ValueError(f"column {name!r} has unsupported dtype {array.dtype}")
    spec.update(dtype=array.dtype.str, rows=len(array), nbytes=array.nbytes)
    return array, spec


def encode(payload: Mapping[str, Any]) -> bytes:
    """The column file of ``payload`` (see the module docstring)."""
    header: dict[str, Any] = {
        "fields": {k: v for k, v in payload.items() if k != "columns"}
    }
    buffers: list[Any] = []
    if "columns" in payload:
        specs: dict[str, Any] = {}
        offset = 0
        for name, values in payload["columns"].items():
            array, spec = _encode_column(name, values)
            start = _aligned(offset)
            buffers += [bytes(start - offset), array.data]
            spec["offset"] = start
            specs[name] = spec
            offset = start + array.nbytes
        header["columns"] = specs
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    end = _PREFIX + len(head)
    return b"".join(
        [MAGIC, _LENGTH.pack(len(head)), head, bytes(_aligned(end) - end)]
        + buffers
    )


def _decode_column(
    data: bytes, base: int, name: str, spec: Any
) -> tuple[np.ndarray, int]:
    """One column decoded from its descriptor, and where its buffer ends."""
    try:
        dtype = np.dtype(spec["dtype"])
        rows, offset = int(spec["rows"]), int(spec["offset"])
        nbytes = int(spec["nbytes"])
        vocab = spec.get("vocab")
    except (KeyError, TypeError) as error:
        raise ValueError(f"column {name!r}: bad descriptor ({error})") from None
    start = base + offset
    stop = start + nbytes
    if (
        dtype.kind not in _NUMERIC_KINDS
        or rows < 0
        or offset < 0
        or nbytes != rows * dtype.itemsize
        or stop > len(data)
    ):
        raise ValueError(f"column {name!r}: buffer out of bounds or mistyped")
    array = np.frombuffer(data, dtype=dtype, count=rows, offset=start)
    if vocab is None:
        return array, stop
    if (
        dtype != _CODE
        or not isinstance(vocab, list)
        or not all(isinstance(value, str) for value in vocab)
    ):
        raise ValueError(f"column {name!r}: bad string vocabulary")
    if rows and int(array.max()) >= len(vocab):
        raise ValueError(f"column {name!r}: string code out of range")
    return Categorical(array, vocab), stop


def decode(data: bytes) -> dict[str, Any]:
    """The payload stored in a column file; ``ValueError`` if malformed."""
    if len(data) < _PREFIX or data[: len(MAGIC)] != MAGIC:
        raise ValueError("not a column file (bad magic or short header)")
    (length,) = _LENGTH.unpack_from(data, len(MAGIC))
    end = _PREFIX + length
    if end > len(data):
        raise ValueError("column file header is truncated")
    header = json.loads(data[_PREFIX:end].decode("utf-8"))
    if not isinstance(header, dict) or not isinstance(header.get("fields"), dict):
        raise ValueError("column file header is not a fields mapping")
    payload = header["fields"]
    specs = header.get("columns")
    base = size = _aligned(end)
    if specs is not None:
        if not isinstance(specs, dict):
            raise ValueError("column file header has a non-mapping 'columns'")
        columns = payload["columns"] = {}
        for name, spec in specs.items():
            columns[name], stop = _decode_column(data, base, name, spec)
            size = max(size, stop)
    if len(data) != size:
        raise ValueError(
            f"column file is {len(data)} bytes, its header describes {size}"
        )
    return payload
