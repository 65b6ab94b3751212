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
    """Coerce a label sequence to an int array, rejecting unknown ids."""
    arr = np.asarray(labels)
    if arr.dtype.kind in "US":
        arr = np.array([class_id(str(v)) for v in arr.ravel()]).reshape(arr.shape)
    arr = arr.astype(int)
    bad = (arr != BENIGN) & (arr != MALIGNANT)
    if bad.any():
        raise ValueError(f"unknown class id {int(arr[bad].ravel()[0])}")
    return arr
