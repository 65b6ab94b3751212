"""Synthetic ROI generator with block-wise class structure.

Each class owns a private atom set per block position; every sample block is
a sparse nonnegative combination of its class's atoms for that position plus
white noise, clipped at zero. The blocks tile the ROI row-major, laid out
as :func:`blocksrc.blocks.block_vectors` cuts them. With disjoint per-class
atoms and zero noise the classes are linearly separable block by block.
The ROI cache layout belongs to :func:`blocksrc.mias.write_roi_cache`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import RoiSample
from .mias import write_roi_cache


@dataclass(frozen=True)
class SynthSpec:
    roi_size: int = 64
    block_size: int = 16
    atoms_per_class: int = 6
    sparsity: int = 3
    noise_sigma: float = 0.05
    samples_per_class: int = 40

    def __post_init__(self):
        if self.roi_size < 1 or self.block_size < 1 or self.roi_size % self.block_size != 0:
            raise ValueError(
                f"block size {self.block_size} does not divide roi size {self.roi_size}"
            )
        if self.atoms_per_class < 1 or self.samples_per_class < 1:
            raise ValueError("atoms_per_class and samples_per_class must be >= 1")
        if not 1 <= self.sparsity <= self.atoms_per_class:
            raise ValueError("sparsity must be in [1, atoms_per_class]")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")


def synth_dataset(spec: SynthSpec, seed: int) -> list[RoiSample]:
    """Draw a deterministic labeled dataset; benign samples come first.

    Each ROI's pixels are its block vectors put back in place: the inverse
    of :func:`blocksrc.blocks.block_vectors` on one ROI.
    """
    rng = np.random.default_rng(seed)
    n, b = spec.roi_size, spec.block_size
    g = n // b
    nbl, d = g * g, b * b

    # Nonnegative unit atoms, drawn independently per class and position.
    atom_bank = []
    for _ in range(2):
        atoms = np.abs(rng.standard_normal((nbl, d, spec.atoms_per_class)))
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        atom_bank.append(atoms)

    samples: list[RoiSample] = []
    for cid in (0, 1):
        for i in range(spec.samples_per_class):
            vectors = np.empty((nbl, d))
            for j in range(nbl):
                picks = rng.choice(spec.atoms_per_class, size=spec.sparsity, replace=False)
                coeffs = rng.uniform(0.5, 1.5, size=spec.sparsity)
                block = atom_bank[cid][j][:, picks] @ coeffs
                if spec.noise_sigma > 0:
                    block = block + rng.normal(0.0, spec.noise_sigma, size=d)
                vectors[j] = np.maximum(block, 0.0)
            samples.append(
                RoiSample(
                    pixels=vectors.reshape(g, g, b, b).transpose(0, 2, 1, 3).reshape(n, n),
                    label=cid,
                    source_id=f"synth{cid}{i:03d}",
                    centroid=(spec.roi_size // 2, spec.roi_size // 2),
                    radius=spec.roi_size // 2,
                )
            )
    return samples


def write_synth_cache(samples: list[RoiSample], out_dir: str) -> dict:
    """Persist a synthetic dataset as a 16-bit PGM ROI cache.

    Float intensities are quantized with a single recorded scale factor so
    the loader can restore them approximately.
    """
    peak = max(float(s.pixels.max()) for s in samples)
    scale = 60000.0 / peak if peak > 0 else 1.0
    rois = [(s, 65535, (0, 0)) for s in samples]
    return write_roi_cache(out_dir, rois, samples[0].size, "top", scale)
