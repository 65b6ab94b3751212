import numpy as np
import pytest

from blocksrc import BENIGN, MALIGNANT, ExperimentConfig, RoiSample
from blocksrc.blocks import block_vectors
from blocksrc.harness import train_block_models


def make_roi(pixels, label=BENIGN, source="t"):
    return RoiSample(pixels=pixels, label=label, source_id=source)


def roi_blocks(roi, block):
    """One ROI's block vectors, (positions, block * block)."""
    return block_vectors([roi], block)[:, :, 0]


def raw_dictionaries(training, block):
    """The training set's dl_mode "none" dictionaries, one stack of every
    block position's."""
    return train_block_models(block_vectors(training, block), [s.label for s in training], ExperimentConfig()).D


class TestDecompose:
    def test_block_count_64(self):
        roi = make_roi(np.arange(64 * 64, dtype=float).reshape(64, 64))
        assert roi_blocks(roi, 8).shape == (64, 64)

    def test_single_block(self):
        roi = make_roi(np.random.default_rng(0).random((64, 64)))
        vectors = roi_blocks(roi, 64)
        assert vectors.shape[0] == 1
        np.testing.assert_array_equal(vectors[0], roi.pixels.reshape(-1))

    def test_constant_roi(self):
        roi = make_roi(np.full((16, 16), 3.5))
        assert np.all(roi_blocks(roi, 8) == 3.5)

    def test_row_major_vectorization(self):
        px = np.arange(16, dtype=float).reshape(4, 4)
        vectors = roi_blocks(make_roi(px), 2)
        # block at grid position (0, 1) covers columns 2:4 of rows 0:2
        np.testing.assert_array_equal(vectors[1], [2, 3, 6, 7])

    def test_non_divisible_lists_valid_sizes(self):
        roi = make_roi(np.zeros((12, 12)))
        with pytest.raises(ValueError, match="valid"):
            roi_blocks(roi, 5)

    def test_tiling_identity_all_sizes(self):
        rng = np.random.default_rng(1)
        px = rng.random((64, 64)) * 255
        roi = make_roi(px)
        for b in (8, 16, 32, 64):
            vectors, g = roi_blocks(roi, b), 64 // b
            # the inverse reshape, which the synthetic generator writes ROIs with
            np.testing.assert_array_equal(vectors.reshape(g, g, b, b).transpose(0, 2, 1, 3).reshape(64, 64), px)
            assert vectors.shape[0] * b * b == 64 * 64


class TestBlockVectors:
    def test_rows_are_each_roi_s_decomposition(self):
        # the cut is one C-contiguous stack whose cut[j, :, i] is ROI i's
        # block j, vectorized row-major
        rng = np.random.default_rng(8)
        rois = [make_roi(rng.random((16, 16))) for _ in range(3)]
        for b in (16, 8, 4, 2):
            cut = block_vectors(rois, b)
            assert cut.shape == ((16 // b) ** 2, b * b, 3) and cut.flags.c_contiguous
            g = 16 // b
            for i, roi in enumerate(rois):
                for j in range(g * g):
                    r, c = divmod(j, g)
                    block = roi.pixels[r * b : (r + 1) * b, c * b : (c + 1) * b]
                    np.testing.assert_array_equal(cut[j, :, i], block.ravel())
                np.testing.assert_array_equal(cut[:, :, i], roi_blocks(roi, b))

    def test_stack_is_the_transposed_cut(self):
        # the stack holds every ROI's own cut along its last axis, and the
        # raw dictionaries keep the training order's labels
        rng = np.random.default_rng(9)
        rois = [make_roi(rng.random((8, 8)), label) for label in (BENIGN, MALIGNANT, BENIGN)]
        stack = block_vectors(rois, 4)
        cuts = np.stack([roi_blocks(roi, 4) for roi in rois])
        np.testing.assert_array_equal(stack, cuts.transpose(1, 2, 0))
        np.testing.assert_array_equal(raw_dictionaries(rois, 4).atom_labels, [BENIGN, MALIGNANT, BENIGN])

    def test_rejects_empty_mixed_and_non_dividing(self):
        rois = [make_roi(np.zeros((8, 8))), make_roi(np.zeros((4, 4)))]
        with pytest.raises(ValueError, match="no ROIs"):
            block_vectors([], 4)
        with pytest.raises(ValueError, match="mixed ROI sizes: 4 vs 8"):
            block_vectors(rois, 4)
        with pytest.raises(ValueError, match="block size 3x3 does not divide ROI 8x8"):
            block_vectors(rois[:1], 3)


class TestAssemble:
    def samples(self, rng, n=5, size=16):
        labels = [BENIGN, MALIGNANT] * (n // 2) + [BENIGN] * (n % 2)
        return [make_roi(rng.random((size, size)), label=labels[i], source=f"s{i}") for i in range(n)]

    def test_shapes_and_order(self):
        rng = np.random.default_rng(2)
        training = self.samples(rng, n=5)
        D = raw_dictionaries(training, 8)
        assert D.atoms.shape == (4, 64, 5) and D.scales.shape == (4, 5)
        np.testing.assert_array_equal(D.atom_labels, [s.label for s in training])

    def test_identical_images_different_labels_allowed(self):
        rng = np.random.default_rng(3)
        px = rng.random((8, 8))
        training = [make_roi(px, BENIGN), make_roi(px.copy(), MALIGNANT)]
        D = raw_dictionaries(training, 8)
        np.testing.assert_array_equal(D.atoms[0, :, 0], D.atoms[0, :, 1])
        assert list(D.atom_labels) == [BENIGN, MALIGNANT]

    def test_columns_reconstruct_block_vectors(self):
        rng = np.random.default_rng(4)
        training = self.samples(rng, n=4)
        D = raw_dictionaries(training, 8)
        for i, smp in enumerate(training):
            vectors = roi_blocks(smp, 8)
            for j in range(4):
                np.testing.assert_allclose(D.atoms[j, :, i] * D.scales[j, i], vectors[j], atol=1e-12)

    def test_block_dictionary_depends_only_on_its_block(self):
        rng = np.random.default_rng(5)
        training = self.samples(rng, n=4)
        D = raw_dictionaries(training, 8)
        perturbed = []
        for smp in training:
            px = smp.pixels.copy()
            px[8:, :] += rng.random((8, 16))  # touch blocks 2 and 3 only
            perturbed.append(make_roi(px, smp.label, smp.source_id))
        D2 = raw_dictionaries(perturbed, 8)
        np.testing.assert_array_equal(D.atoms[:2], D2.atoms[:2])
        assert not np.array_equal(D.atoms[2], D2.atoms[2])

    def test_mixed_sizes_rejected(self):
        rng = np.random.default_rng(6)
        training = [make_roi(rng.random((16, 16)), BENIGN), make_roi(rng.random((8, 8)), MALIGNANT)]
        with pytest.raises(ValueError, match="mixed"):
            raw_dictionaries(training, 8)

    def test_single_class_rejected(self):
        rng = np.random.default_rng(7)
        training = [make_roi(rng.random((8, 8)), BENIGN) for _ in range(3)]
        with pytest.raises(ValueError, match="per class"):
            raw_dictionaries(training, 8)


class TestRoiSample:
    def test_rejects_negative_intensities(self):
        with pytest.raises(ValueError, match=">= 0"):
            RoiSample(pixels=np.array([[-1.0, 0.0], [0.0, 0.0]]), label=BENIGN)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            RoiSample(pixels=np.zeros((2, 3)), label=BENIGN)
