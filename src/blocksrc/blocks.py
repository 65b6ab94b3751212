"""Square ROIs, and their cut into one stack of non-overlapping blocks:
(positions, pixels, ROIs), the layout that training and coding read."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .labels import as_label_array


@dataclass(frozen=True)
class RoiSample:
    """Square grayscale patch with class label and provenance."""

    pixels: np.ndarray
    label: int
    source_id: str = ""
    centroid: tuple[int, int] | None = None
    radius: int | None = None

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.shape[0] != px.shape[1]:
            raise ValueError(f"ROI must be square, got shape {px.shape}")
        if not np.isfinite(px).all() or (px < 0).any():
            raise ValueError("ROI intensities must be finite and >= 0")
        object.__setattr__(self, "pixels", px)

    @property
    def size(self) -> int:
        return self.pixels.shape[0]


def block_vectors(rois, block: int) -> np.ndarray:
    """Cut every ROI into non-overlapping square blocks of side ``block``,
    vectorized row-major, in one copy: the C-contiguous (positions,
    block * block, ROIs) stack that training and coding read, whose
    ``out[j, :, i]`` is block position ``j`` of ROI ``i``.

    Pixel (r, c) of a block lands at vector index ``r * block + c``; block
    positions are ordered row-major. The ROIs must be non-empty and equally
    sized, and the block side must divide the ROI sides.
    """
    pixels = [np.asarray(getattr(roi, "pixels", roi), dtype=float) for roi in rois]
    if not pixels:
        raise ValueError("no ROIs to cut into blocks")
    for px in pixels:
        if px.shape != pixels[0].shape:
            raise ValueError(f"mixed ROI sizes: {px.shape[0]} vs {pixels[0].shape[0]}")
    h, w = pixels[0].shape
    if block < 1 or h % block != 0 or w % block != 0:
        valid = [b for b in range(1, min(h, w) + 1) if h % b == 0 and w % b == 0]
        raise ValueError(f"block size {block}x{block} does not divide ROI {w}x{h}; valid sides: {valid}")
    rows, cols = h // block, w // block
    views = [px.reshape(rows, block, cols, block).swapaxes(1, 2) for px in pixels]
    return np.stack(views, axis=-1).reshape(rows * cols, block * block, len(pixels))


def block_side(length: int) -> int:
    """The side of the square block whose vectors hold ``length`` pixels;
    ValueError naming the length when it is not a square."""
    side = math.isqrt(length)
    if side * side != length:
        raise ValueError(f"atom length {length} is not a square")
    return side


def check_training_labels(labels) -> np.ndarray:
    """The labels of a training set as an array; ValueError unless the set
    is non-empty and holds both classes."""
    labels = as_label_array(labels)
    if labels.size == 0:
        raise ValueError("no training samples")
    if len(set(labels.tolist())) < 2:
        raise ValueError("training set must contain at least one sample per class")
    return labels
