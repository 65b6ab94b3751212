"""Binary class alphabet shared across the package.

The positive class for every metric and score is malignant.
"""

from __future__ import annotations

import numpy as np

BENIGN = 0
MALIGNANT = 1
CLASS_IDS = (BENIGN, MALIGNANT)
CLASS_NAMES = ("benign", "malignant")

_NAME_TO_ID = {"benign": BENIGN, "malignant": MALIGNANT}


def class_id(name: str) -> int:
    try:
        return _NAME_TO_ID[name]
    except KeyError:
        raise ValueError(f"unknown class name {name!r}") from None


def class_name(cid: int) -> str:
    if cid not in CLASS_IDS:
        raise ValueError(f"unknown class id {cid!r}")
    return CLASS_NAMES[cid]


def as_label_array(labels) -> np.ndarray:
    """Coerce a label sequence to an int array, rejecting unknown ids.

    Class names map to their ids; numbers must be integral (``1.0`` is
    class 1, ``0.5`` is an error), and booleans are rejected rather than
    read as 0 and 1.
    """
    arr = np.asarray(labels)
    if arr.dtype.kind in "US":
        arr = np.array([class_id(str(v)) for v in arr.ravel()], dtype=int).reshape(arr.shape)
    if arr.dtype.kind == "b" and arr.size:
        raise ValueError(f"class id must be an integer, got {bool(arr.ravel()[0])}")
    if arr.dtype.kind == "f":
        fractional = ~np.isfinite(arr) | (arr != np.trunc(arr))
        if fractional.any():
            raise ValueError(f"class id must be an integer, got {float(arr[fractional].ravel()[0])!r}")
    arr = arr.astype(int)
    bad = (arr != BENIGN) & (arr != MALIGNANT)
    if bad.any():
        raise ValueError(f"unknown class id {int(arr[bad].ravel()[0])}")
    return arr
