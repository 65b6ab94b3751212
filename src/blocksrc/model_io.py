"""Model archive: a block grid's learned dictionaries in one flat binary file.

Layout (little-endian), version 3:
  magic "BLKD", u32 version, u32 header_length, header JSON (UTF-8),
  then the raw payloads of the header's ``arrays`` in the order listed.

The header holds ``params`` (the fields of :class:`TrainParams`), ``meta``
(a free JSON object), the learning ``mode`` and ``arrays``: exactly the
entries ``atoms`` (P, d, n) float64, ``atom_labels`` (n,) int32, ``scales``
(P, n) float64, ``traces`` (every position's objective trace end to end)
float64 and ``trace_lengths`` (P,) int32, in that order, each a ``name``
and a ``shape``; the format fixes each array's dtype. Versions 1 and 2 held
one entry per block position and are refused.

A JSON sidecar (``<archive>.json``) duplicates the parameters for human
inspection.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, fields

import numpy as np

from .dictlearn import DiscriminativeDictionary, TrainParams
from .solvers import Dictionary

MAGIC = b"BLKD"
VERSION = 3  # version 2 held one entry per block position, version 1 also each block's label maps A and W

_ARRAYS = (("atoms", "<f8"), ("atom_labels", "<i4"), ("scales", "<f8"), ("traces", "<f8"), ("trace_lengths", "<i4"))
_NAMES = [name for name, _ in _ARRAYS]


def _fields(obj, what: str, keys) -> dict:
    """``obj`` as a dict holding every one of ``keys``; a malformed header raises
    ``ValueError`` rather than a ``KeyError`` or ``TypeError`` downstream."""
    if not isinstance(obj, dict):
        raise ValueError(f"archive {what} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"archive {what} lacks {', '.join(missing)}")
    return obj


def save_model(path: str, model: DiscriminativeDictionary, params: TrainParams, meta: dict | None = None) -> None:
    """Write a block grid's model to ``path``, plus the JSON sidecar."""
    D, traces = model.D, model.objective_traces
    values = (D.atoms, D.atom_labels, D.scales, np.concatenate(traces), [t.size for t in traces])
    arrays = [np.ascontiguousarray(v, dtype=dtype) for v, (_, dtype) in zip(values, _ARRAYS)]
    params_dict = asdict(params)
    header = {"params": params_dict, "meta": meta or {}, "mode": model.mode,
              "arrays": [{"name": name, "shape": list(a.shape)} for name, a in zip(_NAMES, arrays)]}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for a in arrays:
            fh.write(a.tobytes())

    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump({"params": params_dict, "meta": meta or {}}, fh, indent=2, sort_keys=True)


def load_model(path: str) -> tuple[DiscriminativeDictionary, TrainParams, dict]:
    """Read an archive written by :func:`save_model`. Other versions,
    truncated archives, malformed headers, an ``arrays`` list other than the
    format's five in order, bytes after the last array, trace lengths that
    do not split the traces, and arrays that make no model (see
    :class:`Dictionary` and :class:`DiscriminativeDictionary`) raise
    ``ValueError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise ValueError(f"not a model archive: bad magic {data[:4]!r}")
    if len(data) < 12:
        raise ValueError(f"truncated archive header: {len(data)} of 12 bytes")
    version, hlen = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise ValueError(f"unsupported archive version {version} (expected {VERSION})")
    if 12 + hlen > len(data):
        raise ValueError(
            f"truncated archive header: {hlen} bytes declared, {len(data) - 12} present"
        )
    header = json.loads(data[12 : 12 + hlen].decode("utf-8"))
    _fields(header, "header", ("params", "meta", "mode", "arrays"))
    entries = header["arrays"]
    if not isinstance(entries, list) or [e.get("name") if isinstance(e, dict) else e for e in entries] != _NAMES:
        raise ValueError(f"archive arrays must be exactly {', '.join(_NAMES)}, in that order")
    pos = 12 + hlen
    arrays = []
    for entry, (name, dtype) in zip(entries, _ARRAYS):
        shape = _fields(entry, "array entry", ("shape",))["shape"]
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"array {name!r}: bad shape {shape!r}")
        count = math.prod(shape)
        end = pos + count * np.dtype(dtype).itemsize
        if end > len(data):
            raise ValueError("truncated archive payload")
        arrays.append(np.frombuffer(data, dtype, count, pos).reshape(shape).copy())
        pos = end
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes after the last array")
    atoms, labels, scales, traces, lengths = arrays
    if traces.ndim != 1 or lengths.ndim != 1 or (lengths < 0).any() or lengths.sum() != traces.size:
        raise ValueError(f"trace_lengths {lengths.tolist()} do not split the {traces.size} traces, one count >= 0 each")
    model = DiscriminativeDictionary(Dictionary(atoms=atoms, atom_labels=labels, scales=scales), header["mode"],
                                     np.split(traces, np.cumsum(lengths)[:-1]))
    p = _fields(header["params"], "params", [f.name for f in fields(TrainParams)])
    params = TrainParams(**{f.name: p[f.name] for f in fields(TrainParams)})  # which checks each value
    return model, params, _fields(header["meta"], "meta", ())
