import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksrc import BENIGN, MALIGNANT, extract_roi, filter_lesions, parse_metadata, parse_pgm
from blocksrc.mias import MiasRecord, ReadingsLineError, build_roi_cache, load_roi_cache
from blocksrc.pgm import GrayImage, encode_pgm, image_from_array, read_pgm, write_pgm
from blocksrc.synth import SynthSpec, synth_dataset, write_synth_cache

MIAS_DIR = os.environ.get("MIAS_DATA_DIR", "")


def mias_available() -> bool:
    if not MIAS_DIR or not os.path.isdir(MIAS_DIR):
        return False
    names = os.listdir(MIAS_DIR)
    has_info = any(n.lower() in ("info.txt", "info") for n in names)
    return has_info and any(n.endswith(".pgm") for n in names)


needs_mias = pytest.mark.skipif(not mias_available(), reason="MIAS dataset not present (set MIAS_DATA_DIR)")


class TestPgm:
    def test_ascii_example(self):
        img = parse_pgm(b"P2 2 2 255 0 255 128 64")
        assert (img.width, img.height, img.maxval) == (2, 2, 255)
        np.testing.assert_array_equal(img.pixels, [[0, 255], [128, 64]])

    def test_binary_with_comment(self):
        body = bytes([0, 255, 128, 64])
        with_comment = b"P5\n# a scanner comment\n2 2\n255\n" + body
        plain = b"P5\n2 2\n255\n" + body
        a = parse_pgm(with_comment)
        b = parse_pgm(plain)
        np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_truncated_body_reports_counts(self):
        data = b"P5\n4 4\n255\n" + bytes(7)
        with pytest.raises(ValueError, match="expected 16 bytes, got 7"):
            parse_pgm(data)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            parse_pgm(b"P6 1 1 255 \x00")

    def test_maxval_zero(self):
        with pytest.raises(ValueError, match="maxval"):
            parse_pgm(b"P2 1 1 0 0")

    def test_sixteen_bit_big_endian(self):
        img = parse_pgm(b"P5\n1 2\n65535\n" + bytes([0x01, 0x00, 0x00, 0xFF]))
        np.testing.assert_array_equal(img.pixels, [[256], [255]])

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        for maxval in (255, 4095, 65535):
            arr = rng.integers(0, maxval + 1, size=(12, 5)).astype(np.uint16)
            img = image_from_array(arr, maxval=maxval)
            back = parse_pgm(encode_pgm(img))
            assert back.maxval == maxval
            np.testing.assert_array_equal(back.pixels, arr)

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_roundtrip_and_every_prefix_raises(self, data):
        h, w = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        maxval = data.draw(st.integers(1, 65535))
        flat = data.draw(st.lists(st.integers(0, maxval), min_size=h * w, max_size=h * w))
        img = image_from_array(np.array(flat, dtype=np.uint16).reshape(h, w), maxval=maxval)
        raw = encode_pgm(img)
        back = parse_pgm(raw)
        assert (back.width, back.height, back.maxval) == (w, h, maxval)
        np.testing.assert_array_equal(back.pixels, img.pixels)
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                parse_pgm(raw[:cut])

    def test_file_io(self, tmp_path):
        arr = np.arange(12, dtype=np.uint16).reshape(3, 4)
        path = tmp_path / "x.pgm"
        write_pgm(path, image_from_array(arr, maxval=255))
        np.testing.assert_array_equal(read_pgm(path).pixels, arr)


class TestMetadata:
    def test_full_record(self):
        recs = parse_metadata("mdb001 G CIRC B 535 425 197")
        assert recs == [
            MiasRecord("mdb001", "G", "CIRC", BENIGN, (535, 425), 197)
        ]

    def test_normal_record(self):
        recs = parse_metadata("mdb003 D NORM")
        assert recs[0].severity is None
        assert recs[0].centroid is None

    def test_severity_without_coordinates(self):
        recs = parse_metadata("mdb099 D ARCH M")
        assert recs[0].severity == MALIGNANT
        assert recs[0].centroid is None

    def test_non_numeric_radius_line_number(self):
        text = "mdb001 G CIRC B 535 425 197\nmdb002 G CIRC B 522 280 hat"
        with pytest.raises(ReadingsLineError, match="line 2"):
            parse_metadata(text)

    def test_lenient_skips_bad_lines(self):
        text = "mdb001 G CIRC B 535 425 197\nmdb002 G CIRC B 522 280 hat\nmdb003 D NORM"
        recs = parse_metadata(text, strict=False)
        assert [r.ref_id for r in recs] == ["mdb001", "mdb003"]

    @pytest.mark.parametrize("ref_id", ["sub/mdb002", "../mdb002", "/mdb002", "..", "."])
    def test_ref_id_with_a_directory_part_is_refused(self, ref_id):
        # a ref id names the cache file its ROI is written to, which the
        # cache's reader takes only as a bare file name
        text = f"mdb001 G CIRC B 535 425 197\n{ref_id} G CIRC B 522 280 69\nmdb003 D NORM"
        with pytest.raises(ReadingsLineError, match=f"line 2: ref_id must be a bare file name, got '{ref_id}'"):
            parse_metadata(text)
        assert [r.ref_id for r in parse_metadata(text, strict=False)] == ["mdb001", "mdb003"]

    def test_comments_and_blanks(self):
        recs = parse_metadata("\n# header\nmdb001 G CIRC B 535 425 197  # trailing\n\n")
        assert len(recs) == 1


class TestExtractRoi:
    def image(self, w=128, h=128):
        rows = np.arange(h, dtype=np.uint16)[:, None] * np.ones(w, dtype=np.uint16)
        return GrayImage(width=w, height=h, maxval=65535, pixels=rows)

    def record(self, x, y, radius=40, severity=BENIGN):
        return MiasRecord("mdbX", "G", "CIRC", severity, (x, y), radius)

    def test_centered_window(self):
        img = self.image()
        roi = extract_roi(img, self.record(64, 64), 64, y_origin="top")
        assert roi.pixels.shape == (64, 64)
        # window rows are [64-32, 64+32)
        assert roi.pixels[0, 0] == 32
        assert roi.pixels[-1, 0] == 95

    def test_clamped_near_edge(self):
        cols = np.arange(128, dtype=np.uint16)[None, :] * np.ones((128, 1), dtype=np.uint16)
        img = GrayImage(width=128, height=128, maxval=65535, pixels=cols)
        roi = extract_roi(img, self.record(10, 64), 64, y_origin="top")
        assert roi.pixels.shape == (64, 64)
        assert roi.pixels[0, 0] == 0  # window shifted right to start at column 0
        assert roi.pixels[0, -1] == 63

    def test_bottom_origin_flip(self):
        img = self.image()
        y = 40
        roi_bottom = extract_roi(img, self.record(64, y), 64, y_origin="bottom")
        center_row = img.height - 1 - y  # 87, window start 55 stays unclamped
        assert roi_bottom.pixels[0, 0] == center_row - 32

    def test_always_inside_bounds(self):
        rng = np.random.default_rng(0)
        img = self.image()
        for _ in range(50):
            x, y = int(rng.integers(0, 128)), int(rng.integers(0, 128))
            roi = extract_roi(img, self.record(x, y), 32, y_origin="bottom")
            assert roi.pixels.shape == (32, 32)
            assert roi.pixels.min() >= 0 and roi.pixels.max() <= 127

    def test_missing_centroid(self):
        img = self.image()
        rec = MiasRecord("mdbX", "G", "NORM")
        with pytest.raises(ValueError, match="centroid"):
            extract_roi(img, rec, 64)

    def test_roi_larger_than_image(self):
        img = self.image(w=32, h=32)
        with pytest.raises(ValueError, match="exceeds"):
            extract_roi(img, self.record(10, 10, radius=64), 64)


class TestFilterLesions:
    def rec(self, radius, severity=BENIGN, coords=True, ref="m"):
        centroid = (100, 100) if coords else None
        r = radius if coords else None
        return MiasRecord(ref, "G", "CIRC", severity, centroid, r)

    def test_boundary_kept(self):
        assert filter_lesions([self.rec(32)], 64) != []

    def test_small_dropped(self):
        assert filter_lesions([self.rec(20)], 64) == []

    def test_normals_and_missing_coords_dropped(self):
        records = [
            MiasRecord("a", "D", "NORM"),
            self.rec(100, severity=None, coords=False),
            self.rec(100, severity=MALIGNANT),
        ]
        kept = filter_lesions(records, 64)
        assert [r.ref_id for r in kept] == ["m"]

    def test_monotone_in_roi_size(self):
        rng = np.random.default_rng(1)
        records = [self.rec(int(r)) for r in rng.integers(5, 120, 40)]
        previous = None
        for size in (16, 32, 64, 128):
            kept = {id(r) for r in filter_lesions(records, size)}
            if previous is not None:
                assert kept <= previous
            previous = kept


class TestRoiCache:
    def fabricate_dataset(self, tmp_path):
        data = tmp_path / "scans"
        data.mkdir()
        rng = np.random.default_rng(2)
        readings = [
            "mdb001 G CIRC B 40 40 20",
            "mdb002 F MISC M 30 30 16",
            "mdb002 F MISC M 50 50 16",  # second lesion, same scan
            "mdb003 D NORM",
            "mdb004 G CIRC B 10 10 4",  # too small at roi 32
        ]
        for ref in ("mdb001", "mdb002", "mdb004"):
            arr = rng.integers(0, 256, size=(80, 80)).astype(np.uint16)
            write_pgm(data / f"{ref}.pgm", image_from_array(arr, maxval=255))
        info = tmp_path / "info.txt"
        info.write_text("\n".join(readings) + "\n")
        return data, info

    def test_build_and_load_roundtrip(self, tmp_path):
        data, info = self.fabricate_dataset(tmp_path)
        out = tmp_path / "cache"
        manifest = build_roi_cache(str(data), str(info), 32, str(out))
        files = sorted(e["file"] for e in manifest["samples"])
        assert files == ["mdb001_roi32.pgm", "mdb002_roi32.pgm", "mdb002_roi32_2.pgm"]
        samples = load_roi_cache(str(out))
        assert len(samples) == 3
        labels = sorted(s.label for s in samples)
        assert labels == [BENIGN, MALIGNANT, MALIGNANT]
        assert all(s.size == 32 for s in samples)

    def test_unknown_label_rejected(self, tmp_path):
        data, info = self.fabricate_dataset(tmp_path)
        out = tmp_path / "cache"
        build_roi_cache(str(data), str(info), 32, str(out))
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["samples"][0]["label"] = "Benign"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="'Benign'"):
            load_roi_cache(str(out))


    def cache_with_manifest(self, tmp_path, edit):
        """A built cache whose manifest ``edit`` has changed in place."""
        data, info = self.fabricate_dataset(tmp_path)
        out = tmp_path / "cache"
        build_roi_cache(str(data), str(info), 32, str(out))
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        return str(out)

    def test_manifest_without_samples_names_it(self, tmp_path):
        out = self.cache_with_manifest(tmp_path, lambda m: m.pop("samples"))
        with pytest.raises(ValueError, match="samples must be a list, got None"):
            load_roi_cache(out)

    def test_manifest_samples_not_a_list_names_it(self, tmp_path):
        out = self.cache_with_manifest(tmp_path, lambda m: m.update(samples={"file": "x.pgm"}))
        with pytest.raises(ValueError, match="samples must be a list"):
            load_roi_cache(out)

    @pytest.mark.parametrize("key", ["file", "label", "ref_id"])
    def test_manifest_entry_without_a_field_names_it(self, tmp_path, key):
        out = self.cache_with_manifest(tmp_path, lambda m: m["samples"][1].pop(key))
        with pytest.raises(ValueError, match=rf"samples\[1\] has no {key}$"):
            load_roi_cache(out)

    @pytest.mark.parametrize("key,value,message", [
        ("radius", "x", "must be null or "), ("radius", -3, "must be null or "),
        ("centroid", ["a", "b"], "must be null or "), ("centroid", 5, "must be null or "),
        ("ref_id", 5, "must be a string, got 5$"), ("ref_id", None, "must be a string, got None$"),
        ("file", 5, "must be a string, got 5$"), ("label", 1, "must be 'benign' or 'malignant', got 1$"),
    ], ids=["radius-x", "radius--3", "centroid-value2", "centroid-5", "ref_id-5", "ref_id-None", "file-5", "label-1"])
    def test_malformed_provenance_names_the_sample(self, tmp_path, key, value, message):
        out = self.cache_with_manifest(tmp_path, lambda m: m["samples"][1].update({key: value}))
        with pytest.raises(ValueError, match=rf"samples\[1\] {key} {message}"):
            load_roi_cache(out)

    def test_manifest_not_an_object_names_it(self, tmp_path):
        out = tmp_path / "cache"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps([{"file": "x.pgm"}]))
        with pytest.raises(ValueError, match="manifest: expected a JSON object, got list"):
            load_roi_cache(str(out))

    @pytest.mark.parametrize("where", ["parent", "absolute", "subdirectory"])
    def test_file_outside_the_cache_directory_is_refused(self, tmp_path, where):
        # a readable graymap sits at each path, so only the check stops it
        cache = tmp_path / "cache"
        names = {"parent": "../x.pgm", "absolute": str(tmp_path / "x.pgm"), "subdirectory": "sub/x.pgm"}

        def point_elsewhere(manifest):
            (cache / "sub").mkdir()
            for path in (tmp_path / "x.pgm", cache / "sub" / "x.pgm"):
                path.write_bytes((cache / manifest["samples"][1]["file"]).read_bytes())
            manifest["samples"][1]["file"] = names[where]

        out = self.cache_with_manifest(tmp_path, point_elsewhere)
        with pytest.raises(ValueError, match=rf"samples\[1\] file must be a bare file name, got '{names[where]}'$"):
            load_roi_cache(out)

    def test_manifest_entry_not_an_object_names_it(self, tmp_path):
        out = self.cache_with_manifest(tmp_path, lambda m: m["samples"].insert(1, "x.pgm"))
        with pytest.raises(ValueError, match=r"samples\[1\] must be an object, got 'x.pgm'"):
            load_roi_cache(out)

    def test_non_numeric_intensity_scale_names_it(self, tmp_path):
        out = self.cache_with_manifest(tmp_path, lambda m: m.update(intensity_scale="x"))
        with pytest.raises(ValueError, match="intensity_scale must be a number, got 'x'"):
            load_roi_cache(out)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_bad_intensity_scale_names_it_without_warnings(self, tmp_path, scale):
        out = self.cache_with_manifest(tmp_path, lambda m: m.update(intensity_scale=scale))
        with pytest.raises(ValueError, match="intensity_scale must be finite and > 0"):
            load_roi_cache(out)


def sha256_tree(path):
    return {f: hashlib.sha256((path / f).read_bytes()).hexdigest() for f in sorted(os.listdir(path))}


class TestCacheBytes:
    """Both ROI caches go through one writer; these digests were recorded
    when each cache still had a writer of its own, so a change to the shared
    writer cannot move either cache silently."""

    def test_synthetic_cache_bytes_are_pinned(self, tmp_path):
        samples = synth_dataset(SynthSpec(roi_size=16, block_size=8, samples_per_class=3), 7)
        write_synth_cache(samples, str(tmp_path))
        # the manifest and the file names were re-recorded when synthetic ids
        # came to name their seed; every graymap kept its bytes
        assert sha256_tree(tmp_path) == {
            "manifest.json": "95f48c9acb4eb6c93cebe3daff0bb22aa9a5481219fb4d8c45708a80bcb69605",
            "synth7_0000_roi16.pgm": "a3f9089e4fc6ffbf6bca00fe87c5841a593972f558592742f41b3038491561f4",
            "synth7_0001_roi16.pgm": "926e6de0f72edb7d9c82dc0656071cee4b7bbb1797ff1a38cfb592884c16b979",
            "synth7_0002_roi16.pgm": "35cd05caaf8a6a00ea9f95a791d379840d150217141529a8edbc05b54635638a",
            "synth7_1000_roi16.pgm": "b77f02a0065593130b8acffcee96f5ef62f63da6d58642e3d648820822584327",
            "synth7_1001_roi16.pgm": "987d1cb86b7638f74f95ff7efac9943ba01e1d1906f6863491a161db3d862fbf",
            "synth7_1002_roi16.pgm": "ba0991c76608fc67e318b80b7abca953da9172c6aa41885c77cc5462baf5075a",
        }

    def test_mias_cache_bytes_are_pinned(self, tmp_path):
        data, info = TestRoiCache().fabricate_dataset(tmp_path)
        out = tmp_path / "cache"
        build_roi_cache(str(data), str(info), 32, str(out))
        assert sha256_tree(out) == {
            "manifest.json": "3c7df57401cd0d3a227e7ed90dc345a9947345d4544a9d2ac9484c0b92f1f1ab",
            "mdb001_roi32.pgm": "9a00a540c385261975f4fd27ad5c718f092a923ca869589a523347ad2a43dc06",
            "mdb002_roi32.pgm": "6452d7606721d9da1ce13e5eb057cfbe6de647e1722d88f16d382cd6a0c436ef",
            "mdb002_roi32_2.pgm": "f818c44196ca1a1ab1fbf117e57b9d2f8f40585bff102cc253114bd4dad79c90",
        }


@needs_mias
class TestRealDataset:
    def readings_path(self):
        for name in ("Info.txt", "info.txt", "info"):
            p = os.path.join(MIAS_DIR, name)
            if os.path.exists(p):
                return p
        raise AssertionError("readings file disappeared")

    def test_selected_lesion_counts(self):
        with open(self.readings_path(), "r", encoding="utf-8") as fh:
            records = parse_metadata(fh.read(), strict=False)
        kept = filter_lesions(records, 64)
        benign = sum(1 for r in kept if r.severity == BENIGN)
        malignant = sum(1 for r in kept if r.severity == MALIGNANT)
        assert (benign, malignant) == (36, 37)

    def test_utilized_mammogram_counts(self):
        with open(self.readings_path(), "r", encoding="utf-8") as fh:
            records = parse_metadata(fh.read(), strict=False)
        benign_refs = {r.ref_id for r in records if r.severity == BENIGN}
        malignant_refs = {r.ref_id for r in records if r.severity == MALIGNANT}
        assert len(benign_refs) == 66
        assert len(malignant_refs) == 51
