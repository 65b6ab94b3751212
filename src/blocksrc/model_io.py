"""Model archive: learned per-block dictionaries in one flat binary file.

Layout (little-endian):
  magic "BLKD", u32 version, u32 header_length, header JSON (UTF-8),
  then raw float64/int32 array payloads in the order the header lists them.

A JSON sidecar (``<archive>.json``) duplicates the parameters for human
inspection.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, fields

import numpy as np

from .dictlearn import DiscriminativeDictionary, TrainParams
from .labels import as_label_array
from .solvers import Dictionary

MAGIC = b"BLKD"
VERSION = 2  # version 1 also held each learned block's label maps A and W

_DTYPES = {"f8": "<f8", "i4": "<i4"}
_BLOCK_ARRAYS = ("atoms", "atom_labels", "scales", "objective_trace")


def _fields(obj, what: str, keys) -> dict:
    """``obj`` as a dict holding every one of ``keys``; a malformed header raises
    ``ValueError`` rather than a ``KeyError`` or ``TypeError`` downstream."""
    if not isinstance(obj, dict):
        raise ValueError(f"archive {what} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"archive {what} lacks {', '.join(missing)}")
    return obj


def _list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise ValueError(f"archive {what} is not a JSON list")
    return obj


def _array_entry(name: str, arr: np.ndarray, kind: str, chunks: list[bytes]) -> dict:
    arr = np.ascontiguousarray(arr.astype(_DTYPES[kind]))
    chunks.append(arr.tobytes())
    return {"name": name, "shape": list(arr.shape), "kind": kind}


def save_model(path: str, model: DiscriminativeDictionary, params: TrainParams, meta: dict | None = None) -> None:
    """Write a block grid's model to ``path``, one block entry per position,
    plus the JSON sidecar."""
    chunks: list[bytes] = []
    block_entries = []
    D = model.D
    for atoms, scales, trace in zip(D.atoms, D.scales, model.objective_traces):
        arrays = [
            _array_entry("atoms", atoms, "f8", chunks),
            _array_entry("atom_labels", D.atom_labels, "i4", chunks),
            _array_entry("scales", scales, "f8", chunks),
            _array_entry("objective_trace", trace, "f8", chunks),
        ]
        block_entries.append({"mode": model.mode, "arrays": arrays})

    params_dict = asdict(params)
    header = {"params": params_dict, "meta": meta or {}, "blocks": block_entries}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for chunk in chunks:
            fh.write(chunk)

    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump({"params": params_dict, "meta": meta or {}}, fh, indent=2, sort_keys=True)


def load_model(path: str) -> tuple[DiscriminativeDictionary, TrainParams, dict]:
    """Read an archive written by :func:`save_model`, its blocks stacked
    into one model; other versions, truncated archives, malformed headers,
    unknown or repeated block arrays, bytes after the last array, an archive
    without blocks, and blocks whose mode, array shapes or atom labels
    differ from block 0's raise ``ValueError``."""
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
    _fields(header, "header", ("params", "meta", "blocks"))
    pos = 12 + hlen

    def take(entry: dict) -> tuple[str, np.ndarray]:
        nonlocal pos
        _fields(entry, "array entry", ("name", "shape", "kind"))
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"array {entry['name']!r}: bad shape {shape!r}")
        if entry["kind"] not in _DTYPES:
            raise ValueError(f"array {entry['name']!r}: unknown kind {entry['kind']!r}")
        dtype = np.dtype(_DTYPES[entry["kind"]])
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if pos + nbytes > len(data):
            raise ValueError("truncated archive payload")
        arr = np.frombuffer(data[pos : pos + nbytes], dtype=dtype).reshape(shape)
        pos += nbytes
        return entry["name"], np.array(arr)

    blocks: list[tuple[str, dict]] = []  # (mode, arrays) per position
    for head in _list(header["blocks"], "blocks"):
        _fields(head, "block", ("mode", "arrays"))
        arrays: dict[str, np.ndarray] = {}
        for entry in _list(head["arrays"], "arrays"):
            name, arr = take(entry)
            if name not in _BLOCK_ARRAYS:
                raise ValueError(f"unknown block array {name!r}")
            if name in arrays:
                raise ValueError(f"repeated block array {name!r}")
            arrays[name] = arr
        _fields(arrays, "block arrays", _BLOCK_ARRAYS)
        blocks.append((head["mode"], arrays))
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes after the last array")
    if not blocks:
        raise ValueError("archive holds no blocks")
    mode, first = blocks[0]
    labels = as_label_array(first["atom_labels"])
    for j, (other, arrays) in enumerate(blocks[1:], 1):
        for what, mine, theirs in (("mode", other, mode),
                                   *((f"{k} shape", arrays[k].shape, first[k].shape) for k in ("atoms", "scales")),
                                   ("atom labels", arrays["atom_labels"].tolist(), labels.tolist())):
            if mine != theirs:
                raise ValueError(f"block {j} differs from block 0 in its {what}: {mine!r} against {theirs!r}")
    atoms, scales = (np.stack([arrays[k] for _, arrays in blocks]) for k in ("atoms", "scales"))
    traces = [arrays["objective_trace"] for _, arrays in blocks]
    model = DiscriminativeDictionary(Dictionary(atoms=atoms, atom_labels=labels, scales=scales), mode, traces)
    p = _fields(header["params"], "params", [f.name for f in fields(TrainParams)])
    params = TrainParams(**{f.name: p[f.name] for f in fields(TrainParams)})  # which checks each value
    return model, params, _fields(header["meta"], "meta", ())
