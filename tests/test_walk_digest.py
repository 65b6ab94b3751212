"""``scripts/walk_digest.py`` digests the same calls the solver tests make."""

import hashlib
import importlib.util
import pathlib

import numpy as np

from blocksrc import bpdn_batch

from . import test_solvers

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("walk_digest", ROOT / "scripts" / "walk_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_positions_match_bpdn_batch():
    # the script's calls at two positions of the noise-1.0 set are the
    # solver tests' MIAS-sized calls: the same column-steps, the same digest
    script = load_script()
    positions = (27, 63)
    hexdigest, steps, seconds = script.walk_digest(noises=(1.0,), positions=positions)
    digest, total = hashlib.sha256(), 0
    for p in positions:
        D, Y, eps, allowed = test_solvers.TestBpdnMasked.code8_call(20, 64, 1.0, p)
        out = bpdn_batch(D, Y, eps, allowed=allowed)
        for a in out:
            digest.update(np.ascontiguousarray(a).tobytes())
        total += int(out[3].sum())
    assert steps == total and steps > 74 * 100 and seconds > 0.0
    assert hexdigest == digest.hexdigest()
