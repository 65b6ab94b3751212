"""MIAS mammogram ingestion: radiological readings, ROI selection, ROI cache.

The readings file is whitespace-delimited, one record per line:

    ref_id tissue abnormality_class [severity [x y radius]]

Severity letters map B -> benign, M -> malignant. Coordinates follow the MIAS
convention of a bottom-left origin, configurable via ``y_origin``.

This module owns the ROI cache layout: :func:`write_roi_cache` is its one
writer, for MIAS and :mod:`blocksrc.synth` alike, :func:`load_roi_cache` its reader.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .blocks import RoiSample
from .labels import BENIGN, CLASS_NAMES, MALIGNANT, class_id, class_name
from .pgm import GrayImage, image_from_array, read_pgm, write_pgm

_SEVERITY = {"B": BENIGN, "M": MALIGNANT}


@dataclass(frozen=True)
class MiasRecord:
    ref_id: str
    tissue: str
    abnormality_class: str
    severity: int | None = None  # class id, or None when no severity given
    centroid: tuple[int, int] | None = None  # (x, y) in file coordinates
    radius: int | None = None


class ReadingsLineError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _is_bare_name(name: str) -> bool:
    """Whether ``name`` names a file with no directory part: the rule for a
    cache's sample files, and so for the ref ids that name them."""
    return name not in ("", ".", "..") and os.path.basename(name) == name


def _parse_line(lineno: int, tokens: list[str]) -> MiasRecord:
    if len(tokens) not in (3, 4, 7):
        raise ReadingsLineError(lineno, f"expected 3, 4 or 7 fields, got {len(tokens)}")
    ref_id, tissue, abnorm = tokens[:3]
    if not _is_bare_name(ref_id):
        raise ReadingsLineError(lineno, f"ref_id must be a bare file name, got {ref_id!r}")
    severity = None
    centroid = None
    radius = None
    if len(tokens) >= 4:
        letter = tokens[3]
        if letter not in _SEVERITY:
            raise ReadingsLineError(lineno, f"unknown severity letter {letter!r}")
        severity = _SEVERITY[letter]
    if len(tokens) == 7:
        try:
            x, y, radius = (int(t) for t in tokens[4:7])
        except ValueError:
            raise ReadingsLineError(lineno, f"non-numeric coordinates {tokens[4:7]!r}") from None
        if radius <= 0:
            raise ReadingsLineError(lineno, f"radius must be > 0, got {radius}")
        centroid = (x, y)
    return MiasRecord(
        ref_id=ref_id,
        tissue=tissue,
        abnormality_class=abnorm,
        severity=severity,
        centroid=centroid,
        radius=radius,
    )


def parse_metadata(text: str, strict: bool = True) -> list[MiasRecord]:
    """Parse the readings file; one record per well-formed line.

    Blank lines and '#' comments are skipped. Malformed lines raise
    :class:`ReadingsLineError` (carrying the line number) when ``strict``,
    otherwise they are dropped and parsing continues.
    """
    records: list[MiasRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            records.append(_parse_line(lineno, body.split()))
        except ReadingsLineError:
            if strict:
                raise
    return records


def filter_lesions(records: list[MiasRecord], roi_size: int) -> list[MiasRecord]:
    """Keep labeled lesions with coordinates whose bounding square covers
    the analysis ROI, that is 2 * radius >= roi_size."""
    return [
        r
        for r in records
        if r.severity in (BENIGN, MALIGNANT)
        and r.centroid is not None
        and r.radius is not None
        and 2 * r.radius >= roi_size
    ]


def _roi_window(img: GrayImage, rec: MiasRecord, roi_size: int, y_origin: str) -> tuple[int, int]:
    if y_origin not in ("top", "bottom"):
        raise ValueError(f"y_origin must be 'top' or 'bottom', got {y_origin!r}")
    x, y = rec.centroid
    row_c = (img.height - 1 - y) if y_origin == "bottom" else y
    r0 = int(np.clip(row_c - roi_size // 2, 0, img.height - roi_size))
    c0 = int(np.clip(x - roi_size // 2, 0, img.width - roi_size))
    return r0, c0


def extract_roi(img: GrayImage, rec: MiasRecord, roi_size: int, y_origin: str = "bottom") -> RoiSample:
    """Crop the square window centered on the lesion centroid.

    The window is shifted to stay fully inside the image near borders. The
    sample label comes from the record's severity.
    """
    if rec.centroid is None or rec.radius is None:
        raise ValueError(f"record {rec.ref_id} has no centroid/radius")
    if rec.severity not in (BENIGN, MALIGNANT):
        raise ValueError(f"record {rec.ref_id} has no benign/malignant severity")
    if roi_size > min(img.width, img.height):
        raise ValueError(f"roi_size {roi_size} exceeds image {img.width}x{img.height}")
    r0, c0 = _roi_window(img, rec, roi_size, y_origin)
    window = img.pixels[r0 : r0 + roi_size, c0 : c0 + roi_size].astype(float)
    return RoiSample(
        pixels=window,
        label=rec.severity,
        source_id=rec.ref_id,
        centroid=rec.centroid,
        radius=rec.radius,
    )


def write_roi_cache(out_dir: str, rois: list, roi_size: int, y_origin: str, scale: float) -> dict:
    """Write ``(sample, maxval, window)`` triples as a PGM ROI cache.

    Each sample becomes ``<source_id>_roi<size>.pgm`` (a numeric suffix is
    added when one source contributes several ROIs) holding
    ``round(pixels * scale)``, next to a ``manifest.json`` describing every
    sample and the scale. Returns the manifest.
    """
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    seen: dict[str, int] = {}
    for s, maxval, window in rois:
        n = seen[s.source_id] = seen.get(s.source_id, 0) + 1
        fname = f"{s.source_id}_roi{roi_size}" + (f"_{n}" if n > 1 else "") + ".pgm"
        arr = np.round(s.pixels * scale).astype(np.uint16)
        write_pgm(os.path.join(out_dir, fname), image_from_array(arr, maxval=maxval))
        entries.append(
            {
                "file": fname,
                "ref_id": s.source_id,
                "label": class_name(s.label),
                "centroid": list(s.centroid) if s.centroid else None,
                "radius": s.radius,
                "window": list(window),
            }
        )
    manifest = {
        "roi_size": roi_size,
        "y_origin": y_origin,
        "intensity_scale": scale,
        "samples": entries,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def build_roi_cache(
    data_dir: str,
    readings_path: str,
    roi_size: int,
    out_dir: str,
    y_origin: str = "bottom",
    strict: bool = True,
) -> dict:
    """Extract all qualifying lesion ROIs and write them with
    :func:`write_roi_cache` at their scans' own maxval. Returns the manifest."""
    with open(readings_path, "r", encoding="utf-8") as fh:
        records = parse_metadata(fh.read(), strict=strict)
    rois = []
    for rec in filter_lesions(records, roi_size):
        img = read_pgm(os.path.join(data_dir, f"{rec.ref_id}.pgm"))
        roi = extract_roi(img, rec, roi_size, y_origin)
        rois.append((roi, img.maxval, _roi_window(img, rec, roi_size, y_origin)))
    return write_roi_cache(out_dir, rois, roi_size, y_origin, 1.0)


def load_roi_cache(cache_dir: str) -> list[RoiSample]:
    """Load a ROI cache written by :func:`write_roi_cache`; pixel values are
    divided by the manifest intensity scale."""
    with open(os.path.join(cache_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"ROI cache manifest: expected a JSON object, got {type(manifest).__name__}")
    scale = manifest.get("intensity_scale", 1.0)
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise ValueError(f"ROI cache manifest: intensity_scale must be a number, got {scale!r}")
    if not 0 < scale < math.inf:
        raise ValueError(f"ROI cache manifest: intensity_scale must be finite and > 0, got {scale!r}")
    entries = manifest.get("samples")
    if not isinstance(entries, list):
        raise ValueError(f"ROI cache manifest: samples must be a list, got {entries!r}")
    samples = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"ROI cache manifest: samples[{i}] must be an object, got {entry!r}")
        for key in ("file", "label", "ref_id"):
            if key not in entry:
                raise ValueError(f"ROI cache manifest: samples[{i}] has no {key}")
        for key in ("file", "ref_id"):
            if not isinstance(entry[key], str):
                raise ValueError(f"ROI cache manifest: samples[{i}] {key} must be a string, got {entry[key]!r}")
        # a sample's file is the cache's own
        if not _is_bare_name(entry["file"]):
            raise ValueError(f"ROI cache manifest: samples[{i}] file must be a bare file name, got {entry['file']!r}")
        if entry["label"] not in CLASS_NAMES:
            raise ValueError(f"ROI cache manifest: samples[{i}] label must be 'benign' or 'malignant', "
                             f"got {entry['label']!r}")
        # JSON reads an integer as exactly int, and true and false as bools
        centroid, radius = entry.get("centroid"), entry.get("radius")
        if centroid is not None and not (isinstance(centroid, list) and list(map(type, centroid)) == [int, int]):
            raise ValueError(f"ROI cache manifest: samples[{i}] centroid must be null or two integers, "
                             f"got {centroid!r}")
        if radius is not None and not (type(radius) is int and radius > 0):
            raise ValueError(f"ROI cache manifest: samples[{i}] radius must be null or an integer > 0, got {radius!r}")
        img = read_pgm(os.path.join(cache_dir, entry["file"]))
        pixels = img.pixels.astype(float) / scale
        samples.append(
            RoiSample(
                pixels=pixels,
                label=class_id(entry["label"]),
                source_id=entry["ref_id"],
                centroid=None if centroid is None else tuple(centroid),
                radius=radius,
            )
        )
    return samples
