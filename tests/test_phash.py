"""Perceptual-hash (pHash) image near-dup tests: compute_phash
invariances, the actor-pool stage, and the pigeonhole pair op
(ops/multimodal.py)."""

import numpy as np
import pytest


def _ppm(px: np.ndarray) -> bytes:
    """Binary P6 payload from an (h, w, 3) uint8 array."""
    h, w = px.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + px.astype(np.uint8).tobytes()


def _gradient(shift: int = 0) -> np.ndarray:
    y, x = np.mgrid[0:32, 0:32]
    g = np.clip((x * 8 + shift) % 256, 0, 255).astype(np.uint8)
    return np.stack([g, g, g], axis=2)


def _texture(seed: int) -> np.ndarray:
    """Dense-spectrum deterministic image (pure gradients/checkerboards
    have sparse DCT spectra whose hash bits all collapse to the DC bit —
    useless for distance assertions)."""
    return np.random.RandomState(seed).randint(0, 256, (32, 32, 3)).astype(np.uint8)


class TestComputePhash:
    def test_deterministic_and_64bit(self):
        from marginalia_ray.ops.multimodal import compute_phash

        p = _ppm(_gradient())
        h1, h2 = compute_phash(p), compute_phash(p)
        assert h1 == h2
        assert 0 <= h1 < (1 << 64)

    def test_brightness_shift_invariant(self):
        # a uniform +delta only moves the DC coefficient; every other
        # DCT coefficient (and the DC-excluded median) is unchanged
        from marginalia_ray.ops.multimodal import compute_phash

        base = _gradient().astype(np.int64)
        brighter = np.clip(base + 2, 0, 255).astype(np.uint8)
        assert compute_phash(_ppm(base.astype(np.uint8))) == compute_phash(
            _ppm(brighter)
        )

    def test_structurally_different_images_far(self):
        from marginalia_ray.ops.multimodal import compute_phash

        a = compute_phash(_ppm(_texture(0)))
        b = compute_phash(_ppm(_texture(1)))
        assert bin(a ^ b).count("1") > 3

    def test_undecodable_raises_value_error(self):
        from marginalia_ray.ops.multimodal import compute_phash

        with pytest.raises(ValueError):
            compute_phash(b"not an image")


class TestPhashStage:
    def test_real_image_hashed_and_blob_gets_null(self, ray_session):
        """A decodable image gets its real pHash; an opaque blob gets a null
        phash with status unsupported, never a made-up hash."""
        import ray.data

        from marginalia_ray.ops.multimodal import compute_phash, image_phash

        img = _ppm(_gradient())
        rows = [
            {"doc_id": 1, "image": img},
            {"doc_id": 2, "image": b"\x00\x01opaque-blob"},
        ]
        out = {
            r["doc_id"]: (r["phash"], r["decode_status"])
            for r in image_phash(
                ray.data.from_items(rows), concurrency=2, batch_size=2
            ).take_all()
        }
        assert out == {1: (compute_phash(img), "ok"), 2: (None, "unsupported")}

    def test_undecodable_blob_gives_null_phash(self):
        """The stage does not raise on an undecodable blob: the row keeps
        its id with a null phash and status unsupported."""
        import pyarrow as pa

        from marginalia_ray.ops.multimodal import ImagePhashStage

        out = ImagePhashStage()(pa.table({"doc_id": [1], "image": [b"blob"]}))
        assert out["doc_id"].to_pylist() == [1]
        assert out["phash"].to_pylist() == [None]
        assert out["decode_status"].to_pylist() == ["unsupported"]


class TestPhashPairs:
    def test_exact_dups_pair_and_distinct_do_not(self, ray_session):
        import ray.data

        from marginalia_ray.ops.multimodal import phash_pairs

        rows = [
            {"doc_id": 1, "image": _ppm(_texture(0))},
            {"doc_id": 2, "image": _ppm(_texture(0))},  # byte-identical
            {"doc_id": 3, "image": _ppm(_texture(1))},  # far away
            # brightness-shifted twin of doc 1: hamming 0 by invariance
            {"doc_id": 4, "image": _ppm(np.clip(_texture(0).astype(np.int64) + 2, 0, 255).astype(np.uint8))},
            # the same undecodable blob twice: no phash, so no pair
            {"doc_id": 5, "image": b"\x00\x01opaque-blob"},
            {"doc_id": 6, "image": b"\x00\x01opaque-blob"},
        ]
        out = phash_pairs(ray.data.from_items(rows), max_hamming=3).take_all()
        pairs = {(r["doc_a"], r["doc_b"]): r["hamming"] for r in out}
        assert set(pairs) == {(1, 2), (1, 4), (2, 4)}
        assert all(h == 0 for h in pairs.values())
