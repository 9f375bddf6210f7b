import numpy as np
import pytest

from conftest import write_synthetic_dataset
from swinmim.data import (
    Batch,
    DatasetIndex,
    DecodeError,
    ImageRecord,
    build_index,
    load_ppm,
    make_batches,
    normalize,
    one_hot,
    read_split_manifest,
    resize_bilinear,
    save_ppm,
    split_dataset,
    write_split_manifest,
)


class TestPpmCodec:
    def test_single_white_pixel(self, tmp_path):
        p = tmp_path / "w.ppm"
        p.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
        img = load_ppm(p)
        assert img.shape == (1, 1, 3)
        assert img.tolist() == [[[1.0, 1.0, 1.0]]]

    def test_two_pixel_layout(self, tmp_path):
        p = tmp_path / "rb.ppm"
        p.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
        img = load_ppm(p)
        assert img[0, 0].tolist() == [1.0, 0.0, 0.0]  # red
        assert img[0, 1].tolist() == [0.0, 0.0, 1.0]  # blue

    def test_ascii_magic_rejected(self, tmp_path):
        p = tmp_path / "ascii.ppm"
        p.write_bytes(b"P3\n1 1\n255\n255 255 255\n")
        with pytest.raises(DecodeError) as e:
            load_ppm(p)
        assert str(p) in str(e.value)
        assert "byte 0" in str(e.value)

    def test_wrong_maxval(self, tmp_path):
        p = tmp_path / "m.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(DecodeError):
            load_ppm(p)

    def test_truncated_raster_offset(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)  # needs 12 bytes
        with pytest.raises(DecodeError) as e:
            load_ppm(p)
        assert "truncated" in str(e.value)
        assert str(p) in str(e.value)

    @pytest.mark.parametrize("extents", [b"0 0", b"0 2", b"2 0"])
    def test_empty_image_rejected(self, tmp_path, extents):
        p = tmp_path / "e.ppm"
        p.write_bytes(b"P6\n" + extents + b"\n255\n")
        with pytest.raises(DecodeError) as e:
            load_ppm(p)
        assert "empty image" in str(e.value)

    @pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3), (0, 0, 3)])
    def test_empty_image_not_written(self, tmp_path, shape):
        # load_ppm refuses a 0-extent file, so save_ppm must not write one
        p = tmp_path / "e.ppm"
        with pytest.raises(ValueError, match="non-empty"):
            save_ppm(p, np.zeros(shape))
        assert not p.exists()

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# a comment\n1 1 # inline\n255\n\x01\x02\x03")
        img = load_ppm(p)
        assert np.allclose(img[0, 0], np.array([1, 2, 3]) / 255.0)

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.integers(0, 256, size=(9, 7, 3)) / 255.0).astype(np.float32)
        p = tmp_path / "r.ppm"
        save_ppm(p, img)
        back = load_ppm(p)
        assert np.array_equal(back, img.astype(np.float32))
        # encode(decode(file)) reproduces the canonical file byte for byte
        q = tmp_path / "r2.ppm"
        save_ppm(q, back)
        assert p.read_bytes() == q.read_bytes()


class TestResize:
    def test_identity_same_size(self):
        img = np.random.default_rng(1).uniform(size=(5, 4, 3))
        assert np.array_equal(resize_bilinear(img, 5, 4), img)

    def test_constant_any_target(self):
        img = np.full((6, 6, 3), 0.42)
        out = resize_bilinear(img, 13, 3)
        assert np.allclose(out, 0.42)
        assert out.shape == (13, 3, 3)

    def test_half_pixel_hand_values(self):
        row = np.array([0.0, 1.0]).reshape(1, 2, 1)
        out = resize_bilinear(row, 1, 4)
        assert np.allclose(out.ravel(), [0.0, 0.25, 0.75, 1.0])

    def test_downscale_shape(self):
        img = np.random.default_rng(2).uniform(size=(64, 64, 3)).astype(np.float32)
        assert resize_bilinear(img, 224, 224).shape == (224, 224, 3)
        assert resize_bilinear(img, 32, 48).shape == (32, 48, 3)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((4, 4, 3)), 0, 4)

    @pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3), (0, 4)])
    def test_empty_source_rejected(self, shape):
        with pytest.raises(ValueError, match="source extents"):
            resize_bilinear(np.zeros(shape, np.float32), 8, 8)


class TestSplit:
    def fake_index(self, counts):
        idx = DatasetIndex(root="mem")
        for c, n in enumerate(counts):
            idx.by_class[c] = [ImageRecord(f"mem/c{c}/{i}.ppm", c) for i in range(n)]
        return idx

    def test_table_row_c0(self):
        idx = self.fake_index([2489] + [10] * 9)
        train, test = split_dataset(idx, 0.8, seed=0)
        assert len(train.by_class[0]) == 1991
        assert len(test.by_class[0]) == 498

    def test_disjoint_exhaustive(self):
        idx = self.fake_index([13, 7, 20, 5, 9, 11, 3, 8, 2, 17])
        train, test = split_dataset(idx, 0.8, seed=3)
        for c in range(10):
            a = {r.path for r in train.by_class[c]}
            b = {r.path for r in test.by_class[c]}
            assert not a & b
            assert a | b == {r.path for r in idx.by_class[c]}
            assert len(a) == int(len(idx.by_class[c]) * 0.8)

    def test_near_one_fraction(self):
        idx = self.fake_index([10] * 10)
        train, test = split_dataset(idx, 0.999, seed=1)
        for c in range(10):
            assert len(train.by_class[c]) == 9  # floor(9.99)
            assert len(test.by_class[c]) == 1

    def test_deterministic(self):
        idx = self.fake_index([50] * 10)
        a_train, a_test = split_dataset(idx, 0.8, seed=42)
        b_train, b_test = split_dataset(idx, 0.8, seed=42)
        assert [r.path for r in a_train.records] == [r.path for r in b_train.records]
        c_train, _ = split_dataset(idx, 0.8, seed=43)
        assert [r.path for r in a_train.records] != [r.path for r in c_train.records]

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split_dataset(self.fake_index([5] * 10), 1.0, 0)

    def test_manifest_round_trip(self, tmp_path):
        idx = self.fake_index([4] * 10)
        train, test = split_dataset(idx, 0.75, seed=9)
        path = tmp_path / "split.tsv"
        write_split_manifest(path, train, test)
        train2, test2 = read_split_manifest(path)
        assert [r.path for r in train2.records] == [r.path for r in train.records]
        assert [r.path for r in test2.records] == [r.path for r in test.records]


class TestBatches:
    def test_batch_sizes(self, synthetic_root):
        index = build_index(synthetic_root)
        small = DatasetIndex(root=str(synthetic_root))
        small.by_class[0] = index.by_class[0][:10]
        batches = list(make_batches(small, 3, seed=0, epoch=0, img_size=64,
                                    mean=(0.5,) * 3, std=(0.5,) * 3))
        assert [len(b.images) for b in batches] == [3, 3, 3, 1]

    def test_normalization_extremes(self):
        images = np.stack([np.zeros((4, 4, 3), np.float32), np.ones((4, 4, 3), np.float32)])
        out = normalize(images, (0.5,) * 3, (0.5,) * 3)
        assert out.min() == -1.0 and out.max() == 1.0

    def test_epoch_is_permutation(self, synthetic_root):
        index = build_index(synthetic_root)
        seen = []
        for batch in make_batches(index, 32, seed=5, epoch=2, img_size=64,
                                  mean=(0.5,) * 3, std=(0.5,) * 3):
            seen.extend(batch.class_ids.tolist())
        assert len(seen) == len(index)
        assert sorted(seen) == sorted(r.class_id for r in index.records)

    def test_order_depends_only_on_seed_epoch(self, synthetic_root):
        index = build_index(synthetic_root)

        def order(seed, epoch):
            ids = []
            for b in make_batches(index, 16, seed, epoch, 64, (0.5,) * 3, (0.5,) * 3):
                ids.extend(b.class_ids.tolist())
            return ids

        assert order(1, 0) == order(1, 0)
        assert order(1, 0) != order(1, 1)
        assert order(1, 0) != order(2, 0)

    def test_one_hot_labels(self, synthetic_root):
        index = build_index(synthetic_root)
        batch = next(make_batches(index, 8, 0, 0, 64, (0.5,) * 3, (0.5,) * 3))
        assert batch.labels.shape == (8, 10)
        assert np.allclose(batch.labels.sum(axis=1), 1.0)
        assert (batch.labels.argmax(axis=1) == batch.class_ids).all()


class TestBuildIndex:
    def test_counts_and_existence(self, synthetic_root):
        index = build_index(synthetic_root)
        assert index.class_counts() == [20] * 10
        assert len(index) == 200

    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError) as e:
            build_index(tmp_path / "nope")
        assert "nope" in str(e.value)

    def test_missing_class_dir(self, tmp_path):
        root = write_synthetic_dataset(tmp_path / "d", per_class=1)
        import shutil

        shutil.rmtree(root / "c7")
        with pytest.raises(FileNotFoundError) as e:
            build_index(root)
        assert "c7" in str(e.value)
