"""MIAS mammogram ingestion: radiological readings, ROI selection, ROI cache.

The readings file is whitespace-delimited, one record per line:

    ref_id tissue abnormality_class [severity [x y radius]]

Severity letters map B -> benign, M -> malignant. Coordinates follow the MIAS
convention of a bottom-left origin, configurable via ``y_origin``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .blocks import RoiSample
from .labels import BENIGN, MALIGNANT, class_id, class_name
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


def _parse_line(lineno: int, tokens: list[str]) -> MiasRecord:
    if len(tokens) not in (3, 4, 7):
        raise ReadingsLineError(lineno, f"expected 3, 4 or 7 fields, got {len(tokens)}")
    ref_id, tissue, abnorm = tokens[:3]
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


def build_roi_cache(
    data_dir: str,
    readings_path: str,
    roi_size: int,
    out_dir: str,
    y_origin: str = "bottom",
    strict: bool = True,
) -> dict:
    """Extract all qualifying lesion ROIs and write them as a PGM cache.

    Each ROI becomes ``<ref_id>_roi<size>.pgm`` (a numeric suffix is added
    when one mammogram contributes several lesions) next to a
    ``manifest.json`` describing every sample. Returns the manifest.
    """
    with open(readings_path, "r", encoding="utf-8") as fh:
        records = parse_metadata(fh.read(), strict=strict)
    selected = filter_lesions(records, roi_size)
    os.makedirs(out_dir, exist_ok=True)

    entries = []
    maxval = 0
    seen: dict[str, int] = {}
    for rec in selected:
        img = read_pgm(os.path.join(data_dir, f"{rec.ref_id}.pgm"))
        maxval = max(maxval, img.maxval)
        roi = extract_roi(img, rec, roi_size, y_origin)
        r0, c0 = _roi_window(img, rec, roi_size, y_origin)
        seen[rec.ref_id] = seen.get(rec.ref_id, 0) + 1
        stem = f"{rec.ref_id}_roi{roi_size}"
        if seen[rec.ref_id] > 1:
            stem += f"_{seen[rec.ref_id]}"
        fname = stem + ".pgm"
        write_pgm(
            os.path.join(out_dir, fname),
            image_from_array(roi.pixels.astype(np.uint16), maxval=img.maxval),
        )
        entries.append(
            {
                "file": fname,
                "ref_id": rec.ref_id,
                "label": class_name(rec.severity),
                "centroid": list(rec.centroid),
                "radius": rec.radius,
                "window": [r0, c0],
            }
        )

    manifest = {
        "roi_size": roi_size,
        "y_origin": y_origin,
        "intensity_scale": 1.0,
        "samples": entries,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def load_roi_cache(cache_dir: str) -> list[RoiSample]:
    """Load a ROI cache written by :func:`build_roi_cache` (or the synthetic
    data writer); pixel values are divided by the manifest intensity scale."""
    with open(os.path.join(cache_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    scale = float(manifest.get("intensity_scale", 1.0))
    samples = []
    for entry in manifest["samples"]:
        img = read_pgm(os.path.join(cache_dir, entry["file"]))
        pixels = img.pixels.astype(float) / scale
        centroid = tuple(entry["centroid"]) if entry.get("centroid") else None
        samples.append(
            RoiSample(
                pixels=pixels,
                label=class_id(entry["label"]),
                source_id=entry["ref_id"],
                centroid=centroid,
                radius=entry.get("radius"),
            )
        )
    return samples
