import numpy as np
import pytest

from blocksrc.labels import BENIGN, MALIGNANT, as_label_array


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
