import numpy as np
import pytest

from blocksrc.labels import BENIGN, MALIGNANT, as_label_array
from blocksrc.solvers import Dictionary


def test_known_ids_and_names_pass():
    np.testing.assert_array_equal(as_label_array([1, 0, 1]), [MALIGNANT, BENIGN, MALIGNANT])
    np.testing.assert_array_equal(as_label_array(["benign", "malignant"]), [BENIGN, MALIGNANT])
    assert as_label_array(np.array([[0, 1], [1, 0]])).shape == (2, 2)


@pytest.mark.parametrize(
    "labels, first_bad",
    [([0, -1, 2], -1), ([1, 2, 0], 2), (np.array([[0, 1], [2, -1]]), 2)],
)
def test_first_unknown_id_named(labels, first_bad):
    with pytest.raises(ValueError, match=rf"unknown class id {first_bad}$"):
        as_label_array(labels)


def test_integral_floats_pass():
    out = as_label_array([1.0, 0.0])
    assert out.dtype.kind == "i"
    np.testing.assert_array_equal(out, [MALIGNANT, BENIGN])


@pytest.mark.parametrize(
    "labels, named",
    [
        ([0.5, 1.7], "0.5"),
        ([1.0, 0.25], "0.25"),
        (np.array([0.0, np.nan]), "nan"),
        (np.array([1.0, np.inf]), "inf"),
        ([True, False], "True"),
        (np.array([False]), "False"),
    ],
)
def test_non_integer_labels_rejected(labels, named):
    with pytest.raises(ValueError, match=rf"class id must be an integer, got {named}$"):
        as_label_array(labels)


def test_dictionary_rejects_fractional_labels():
    with pytest.raises(ValueError, match="got 0.5"):
        Dictionary(atoms=np.eye(2), atom_labels=[0.5, 1.7], scales=np.ones(2))
