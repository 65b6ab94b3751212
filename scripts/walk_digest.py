"""Print one sha256 over every output of the MIAS-sized 8-px coding calls.

Run from anywhere; the script imports blocksrc from the ``src/`` directory
of the checkout it lives in:

    python scripts/walk_digest.py   # 128 calls, about 10.5 s on two cores

The calls are those of a 10-fold ``none`` cell at 8-px blocks on the
synthetic set shaped like MIAS: 37 ROIs per class of 64x64 pixels, seed 20,
synthetic block 8, at noise 0.05 and 1.0. Each of the 64 block positions
codes every held-out block on its own fold's training blocks, through the
atom mask a pooled pass uses, at ``eps = 0.05 ||y||``: one ``bpdn_batch``
call per noise and position, whose codes, residual norms, feasible flags
and path steps all go into the digest, in that order. With the digest the
script prints the total path steps over all blocks (column-steps). Two
trees give the same answers when they print the same line. The wall
seconds of the 128 calls alone (not of drawing the sets) go to stderr, so
the script also times the walk from one command.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from blocksrc import Dictionary, SynthSpec, block_vectors, bpdn_batch, stratified_folds, synth_dataset  # noqa: E402

SEED = 20  # of the synthetic set and of the folds
NOISES = (0.05, 1.0)
POSITIONS = range(64)
FOLDS = 10
EPS_REL = 0.05


def position_calls(noise: float, positions):
    """``(D, Y, eps, allowed)`` of each position's coding call on the set
    at ``noise``: every held-out block, fold by fold, on its own fold's
    training blocks."""
    spec = SynthSpec(roi_size=64, block_size=8, samples_per_class=37, noise_sigma=noise)
    samples = synth_dataset(spec, SEED)
    labels = [s.label for s in samples]
    folds = stratified_folds(labels, FOLDS, SEED)
    stack = block_vectors(samples, 8)
    test = np.concatenate([np.flatnonzero(folds == f) for f in range(FOLDS)])
    allowed = folds[:, None] != folds[test][None, :]
    for p in positions:
        Y = stack[p][:, test]
        yield Dictionary.from_matrix(stack[p], labels), Y, EPS_REL * np.linalg.norm(Y, axis=0), allowed


def walk_digest(noises=NOISES, positions=POSITIONS) -> tuple[str, int, float]:
    """The sha256 over every output of the calls, their column-steps, and
    their wall seconds."""
    digest, steps, seconds = hashlib.sha256(), 0, 0.0
    for noise in noises:
        for D, Y, eps, allowed in position_calls(noise, positions):
            start = time.perf_counter()
            out = bpdn_batch(D, Y, eps, allowed=allowed)
            seconds += time.perf_counter() - start
            for a in out:
                digest.update(np.ascontiguousarray(a).tobytes())
            steps += int(out[3].sum())
    return digest.hexdigest(), steps, seconds


if __name__ == "__main__":
    hexdigest, steps, seconds = walk_digest()
    print(f"{hexdigest} {steps} column-steps")
    print(f"walk_digest: {seconds:.2f} s wall in the calls", file=sys.stderr)
