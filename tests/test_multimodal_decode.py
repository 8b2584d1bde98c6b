"""Real multimodal decode paths: PNG/PPM/BMP images and RIFF/WAV audio
decoded with stdlib + numpy only; fixtures are constructed in-test."""

import io
import os
import struct
import wave
import zlib

import numpy as np
import pyarrow as pa
import pytest

from marginalia_ray.ops.multimodal import (
    AudioFeatureStage,
    ImageDecodeStage,
    _wav_features,
    decode_image_payload,
)


def make_png(px: np.ndarray) -> bytes:
    """Minimal 8-bit RGB PNG encoder (filter 0 rows)."""
    h, w, _ = px.shape
    raw = b"".join(b"\x00" + px[y].tobytes() for y in range(h))
    def chunk(ctype: bytes, data: bytes) -> bytes:
        c = struct.pack(">I", len(data)) + ctype + data
        return c + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )


def make_ppm(px: np.ndarray) -> bytes:
    h, w, _ = px.shape
    return f"P6\n{w} {h}\n255\n".encode() + px.tobytes()


def make_bmp(px: np.ndarray) -> bytes:
    h, w, _ = px.shape
    row = (w * 3 + 3) & ~3
    body = b""
    for y in range(h - 1, -1, -1):  # bottom-up
        line = px[y, :, ::-1].tobytes()  # RGB -> BGR
        body += line + b"\x00" * (row - len(line))
    off = 14 + 40
    header = b"BM" + struct.pack("<IHHI", off + len(body), 0, 0, off)
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body), 2835, 2835, 0, 0)
    return header + dib + body


def make_wav(sr: int = 16000, seconds: float = 0.5, freq: float = 440.0) -> bytes:
    t = np.arange(int(sr * seconds)) / sr
    x = (np.sin(2 * np.pi * freq * t) * 20000).astype(np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sr)
        wf.writeframes(x.tobytes())
    return buf.getvalue()


@pytest.fixture()
def rgb():
    rng = np.random.RandomState(3)
    return rng.randint(0, 256, size=(12, 17, 3), dtype=np.uint8)


class TestImageDecoders:
    def test_png_roundtrip(self, rgb):
        w, h, c, px = decode_image_payload(make_png(rgb))
        assert (w, h, c) == (17, 12, 3)
        np.testing.assert_array_equal(px, rgb)

    def test_ppm_roundtrip(self, rgb):
        w, h, c, px = decode_image_payload(make_ppm(rgb))
        assert (w, h, c) == (17, 12, 3)
        np.testing.assert_array_equal(px, rgb)

    def test_bmp_roundtrip(self, rgb):
        w, h, c, px = decode_image_payload(make_bmp(rgb))
        assert (w, h, c) == (17, 12, 3)
        np.testing.assert_array_equal(px, rgb)

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            decode_image_payload(b"\xff\xd8\xff\xe0 jpeg-ish")

    @pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
    def test_png_all_filter_types(self, rgb, ftype):
        """Round-trip every PNG scanline filter (0=none 1=sub 2=up 3=avg
        4=paeth) — filters 1/3/4 take the vectorized/list unfilter paths."""
        h, w, ch = rgb.shape
        rows = []
        prev = np.zeros(w * ch, np.int32)
        for y in range(h):
            cur = rgb[y].reshape(-1).astype(np.int32)
            if ftype == 0:
                filt = cur
            elif ftype == 1:
                a = np.concatenate([np.zeros(ch, np.int32), cur[:-ch]])
                filt = (cur - a) & 0xFF
            elif ftype == 2:
                filt = (cur - prev) & 0xFF
            elif ftype == 3:
                a = np.concatenate([np.zeros(ch, np.int32), cur[:-ch]])
                filt = (cur - ((a + prev) >> 1)) & 0xFF
            else:  # paeth
                a = np.concatenate([np.zeros(ch, np.int32), cur[:-ch]])
                c = np.concatenate([np.zeros(ch, np.int32), prev[:-ch]])
                p = a + prev - c
                pa_, pb_, pc_ = np.abs(p - a), np.abs(p - prev), np.abs(p - c)
                pred = np.where(
                    (pa_ <= pb_) & (pa_ <= pc_), a, np.where(pb_ <= pc_, prev, c)
                )
                filt = (cur - pred) & 0xFF
            rows.append(bytes([ftype]) + filt.astype(np.uint8).tobytes())
            prev = cur

        def chunk(ctype: bytes, data: bytes) -> bytes:
            c = struct.pack(">I", len(data)) + ctype + data
            return c + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)

        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        png = (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(b"".join(rows)))
            + chunk(b"IEND", b"")
        )
        dw, dh, dc, px = decode_image_payload(png)
        assert (dw, dh, dc) == (w, h, ch)
        np.testing.assert_array_equal(px, rgb)

    def test_oversized_png_rejected(self):
        # IHDR claims a 100k x 100k image: must be rejected before unfilter
        def chunk(ctype: bytes, data: bytes) -> bytes:
            c = struct.pack(">I", len(data)) + ctype + data
            return c + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)

        ihdr = struct.pack(">IIBBBBB", 100_000, 100_000, 8, 2, 0, 0, 0)
        png = (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(b"\x00"))
            + chunk(b"IEND", b"")
        )
        with pytest.raises(ValueError, match="too large"):
            decode_image_payload(png)


class TestImageStage:
    def test_real_decode_in_stage(self, rgb):
        batch = pa.table({"doc_id": [1], "image": [make_png(rgb)]})
        out = ImageDecodeStage()(batch)
        assert out["decode_status"].to_pylist() == ["ok"]
        assert out["width"][0].as_py() == 17
        assert out["height"][0].as_py() == 12
        emb = np.array(out["embedding"][0].as_py())
        assert len(emb) == 32
        assert abs(np.linalg.norm(emb) - 1.0) < 1e-5
        # embedding is a content feature: same image -> same embedding
        out2 = ImageDecodeStage()(batch)
        np.testing.assert_array_equal(emb, np.array(out2["embedding"][0].as_py()))

    def test_jpeg_magic_garbage_gives_corrupt_null_row(self):
        """JPEG magic followed by garbage does not raise: the stage keeps
        the row with null features and status corrupt."""
        batch = pa.table({"doc_id": [1], "image": [b"\xff\xd8jpeg"]})
        out = ImageDecodeStage()(batch)
        assert out["doc_id"].to_pylist() == [1]
        assert out["decode_status"].to_pylist() == ["corrupt"]
        for col in ("width", "height", "channels", "embedding"):
            assert out[col].to_pylist() == [None]

    def test_mixed_batch_gives_statuses_and_null_features(self, rgb):
        """No features are made up for a failed payload.  Unknown magic
        bytes are unsupported; JPEG magic followed by garbage and a
        truncated PNG are corrupt.  Each failed payload keeps its row with
        null features; the real one still decodes."""
        png = make_png(rgb)
        batch = pa.table({
            "doc_id": [1, 2, 3, 4],
            "image": [b"\x00\x01opaque", b"\xff\xd8jpeg", png[: len(png) - 20], png],
        })
        out = ImageDecodeStage()(batch)
        assert out["doc_id"].to_pylist() == [1, 2, 3, 4]
        assert out["decode_status"].to_pylist() == ["unsupported", "corrupt", "corrupt", "ok"]
        for col in ("width", "height", "channels", "embedding"):
            assert out[col].to_pylist()[:3] == [None, None, None]
        assert out["width"].to_pylist()[3] == 17


class TestAudio:
    def test_wav_features(self):
        d, sr, mfcc = _wav_features(make_wav(sr=16000, seconds=0.5), 13)
        assert sr == 16000
        assert abs(d - 0.5) < 1e-6
        assert mfcc.shape == (13,)
        # 440 Hz vs 3 kHz tones must produce different features
        _, _, mfcc2 = _wav_features(make_wav(freq=3000.0), 13)
        assert not np.allclose(mfcc, mfcc2)

    def test_wav_in_stage_strict(self):
        batch = pa.table({"doc_id": [7], "audio": [make_wav()]})
        out = AudioFeatureStage()(batch)
        assert out["decode_status"].to_pylist() == ["ok"]
        assert out["sample_rate"][0].as_py() == 16000
        assert abs(out["duration_s"][0].as_py() - 0.5) < 1e-6

    def test_id3_without_frame_gives_corrupt_null_row(self):
        """An ID3 tag with no MPEG frame after it is corrupt: a null row,
        no exception."""
        batch = pa.table({"doc_id": [7], "audio": [b"ID3\x03 not-wav"]})
        out = AudioFeatureStage()(batch)
        assert out.to_pylist() == [
            {"doc_id": 7, "duration_s": None, "sample_rate": None,
             "mfcc_mean": None, "decode_status": "corrupt"}
        ]


class TestDecoderRobustness:
    def test_paletted_png_falls_back_not_crash(self):
        # paletted (color_type=3) PNG: unsupported variant must raise
        # ValueError (fallback path), not KeyError (task crash)
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0)
        def chunk(ctype, data):
            c = struct.pack(">I", len(data)) + ctype + data
            return c + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
        png = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
               + chunk(b"IDAT", zlib.compress(b"\x00\x00\x00"))
               + chunk(b"IEND", b""))
        with pytest.raises(ValueError):
            decode_image_payload(png)
        # and the stage keeps the row: null features, status corrupt
        out = ImageDecodeStage()(pa.table({"doc_id": [1], "image": [png]}))
        assert out["decode_status"].to_pylist() == ["corrupt"]
        assert out["embedding"].to_pylist() == [None]

    def test_truncated_png_valueerror(self):
        with pytest.raises(ValueError):
            decode_image_payload(b"\x89PNG\r\n\x1a\n" + b"\x00\x00")

    def test_16bit_ppm_rejected(self):
        with pytest.raises(ValueError):
            decode_image_payload(b"P5\n2 2\n65535\n" + b"\x00" * 8)

    def test_24bit_wav_falls_back(self):
        # hand-build a 24-bit PCM WAV header; wave accepts it but our
        # dtype table doesn't -> a null row with status unsupported
        sr, n = 8000, 100
        body = b"\x00\x01\x02" * n
        hdr = (b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
               + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sr, sr * 3, 3, 24)
               + b"data" + struct.pack("<I", len(body)))
        # a 16-bit header declaring 0 frames/s is damaged, not unsupported
        zero_rate = (b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
                     + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 0, 0, 2, 16)
                     + b"data" + struct.pack("<I", len(body)))
        batch = pa.table({"doc_id": [1, 2], "audio": [hdr + body, zero_rate + body]})
        out = AudioFeatureStage()(batch)
        assert out["decode_status"].to_pylist() == ["unsupported", "corrupt"]
        assert out["mfcc_mean"].to_pylist() == [None, None]
        assert out["duration_s"].to_pylist() == [None, None]


def _encode_avi(frames, fps=10):
    """Minimal uncompressed 24-bit AVI writer (RIFF hdrl/movi) for tests."""
    import struct

    h, w, _ = frames[0].shape
    row = (w * 3 + 3) & ~3

    def chunk(fcc, payload):
        pad = b"\x00" if len(payload) & 1 else b""
        return fcc + struct.pack("<I", len(payload)) + payload + pad

    def lst(list_type, payload):
        return chunk(b"LIST", list_type + payload)

    avih = struct.pack(
        "<14I", int(1e6 / fps), 0, 0, 0, len(frames), 0, 1, 0, w, h, 0, 0, 0, 0
    )
    strh = (b"vids" + b"DIB " + struct.pack("<I", 0) + struct.pack("<2H", 0, 0)
            + struct.pack("<8I", 0, 1, fps, 0, len(frames), 0, 0, 0)
            + struct.pack("<4h", 0, 0, w, h))
    strf = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, row * h, 0, 0, 0, 0)
    hdrl = lst(b"hdrl", chunk(b"avih", avih)
               + lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf)))
    movi_payload = b""
    for f in frames:
        bgr_bottom_up = f[::-1, :, ::-1]
        rows = b"".join(
            bgr_bottom_up[r].tobytes() + b"\x00" * (row - w * 3) for r in range(h)
        )
        movi_payload += chunk(b"00db", rows)
    body = hdrl + lst(b"movi", movi_payload)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"AVI " + body


def test_avi_decode_roundtrip():
    from marginalia_ray.ops.multimodal import decode_avi_frames

    rng = np.random.RandomState(3)
    frames = [rng.randint(0, 256, (6, 5, 3), dtype=np.uint8) for _ in range(4)]
    data = _encode_avi(frames, fps=10)
    w, h, fps, n, out = decode_avi_frames(data)
    assert (w, h, n) == (5, 6, 4)
    assert abs(fps - 10) < 1e-6
    for i, f in enumerate(frames):
        assert np.array_equal(out[i], f)


def test_video_stage_real_path(ray_session):
    import ray.data

    from marginalia_ray.ops.multimodal import VideoFrameSampleStage, decode_avi_frames
    from marginalia_ray.ops.multimodal import _image_embedding

    rng = np.random.RandomState(4)
    frames = [rng.randint(0, 256, (8, 8, 3), dtype=np.uint8) for _ in range(20)]
    avi = _encode_avi(frames, fps=10)
    t = pa.table({"doc_id": pa.array([7], pa.int64()),
                  "video": pa.array([avi], pa.binary())})
    # fps_sample=2 on a 10fps clip -> every 5th frame
    stage = VideoFrameSampleStage(fps_sample=2.0, max_frames=3)
    out = stage(t)
    assert out["decode_status"].to_pylist() == ["ok"] * 3
    assert out["frame_no"].to_pylist() == [0, 5, 10]
    assert out["ts_s"].to_pylist() == [0.0, 0.5, 1.0]
    emb0 = np.asarray(out["frame_embedding"].to_pylist()[0], np.float32)
    assert np.allclose(emb0, _image_embedding(frames[0], 32), atol=1e-6)


def test_video_stage_unknown_and_h264_give_unsupported_rows():
    """Unknown bytes and an AVI whose stream is H.264 are unsupported:
    one row each with null frame columns, no exception."""
    from marginalia_ray.ops.multimodal import VideoFrameSampleStage

    avi = bytearray(_encode_avi([np.zeros((4, 4, 3), np.uint8)]))
    strf = avi.find(b"strf") + 8
    avi[strf + 16 : strf + 20] = b"H264"  # BITMAPINFOHEADER biCompression
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "video": pa.array([b"\x00\x01notavideo", bytes(avi)], pa.binary())})
    out = VideoFrameSampleStage()(t)
    assert out.to_pylist() == [
        {"doc_id": i, "frame_no": None, "ts_s": None, "frame_embedding": None,
         "decode_status": "unsupported"}
        for i in (1, 2)
    ]


class TestJpeg:
    """Baseline JPEG decoder (ops/jpeg.py) against the test-only Annex-K
    encoder in tests/jpeg_encoder.py (lossy round trip: RMSE-bounded)."""

    def _gradient(self, h, w):
        yy, xx = np.mgrid[0:h, 0:w]
        return np.stack([(xx * 7) % 256, (yy * 5) % 256, ((xx + yy) * 3) % 256],
                        axis=2).astype(np.uint8)

    def test_roundtrip_444(self):
        from jpeg_encoder import encode_jpeg

        from marginalia_ray.ops.jpeg import decode_jpeg

        px = self._gradient(24, 33)
        w, h, c, out = decode_jpeg(encode_jpeg(px))
        assert (w, h, c) == (33, 24, 3)
        rmse = float(np.sqrt(((out.astype(float) - px) ** 2).mean()))
        assert rmse < 5.0

    def test_roundtrip_420_and_restarts(self):
        from jpeg_encoder import encode_jpeg

        from marginalia_ray.ops.jpeg import decode_jpeg

        px = self._gradient(40, 37)
        for kwargs in ({"subsample": True}, {"restart_interval": 2},
                       {"subsample": True, "restart_interval": 3}):
            w, h, c, out = decode_jpeg(encode_jpeg(px, **kwargs))
            assert (w, h, c) == (37, 40, 3)
            rmse = float(np.sqrt(((out.astype(float) - px) ** 2).mean()))
            assert rmse < 8.0, kwargs

    def test_grayscale(self):
        from jpeg_encoder import encode_jpeg

        from marginalia_ray.ops.jpeg import decode_jpeg

        g = (np.outer(np.arange(16), np.ones(24)) * 10 % 256).astype(np.uint8)
        w, h, c, out = decode_jpeg(encode_jpeg(g))
        assert (w, h, c) == (24, 16, 1)
        rmse = float(np.sqrt(((out[:, :, 0].astype(float) - g) ** 2).mean()))
        assert rmse < 5.0

    def test_image_stage_decodes_jpeg_for_real(self):
        from jpeg_encoder import encode_jpeg

        from marginalia_ray.ops.multimodal import ImageDecodeStage

        px = self._gradient(16, 16)
        t = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "image": pa.array([encode_jpeg(px)], pa.binary())})
        out = ImageDecodeStage()(t)
        assert out["decode_status"].to_pylist() == ["ok"]
        assert out["width"].to_pylist() == [16]
        assert out["height"].to_pylist() == [16]
        assert out["channels"].to_pylist() == [3]

    def test_progressive_rejected(self):
        from jpeg_encoder import encode_jpeg

        from marginalia_ray.ops.jpeg import decode_jpeg

        data = bytearray(encode_jpeg(self._gradient(8, 8)))
        i = data.find(b"\xff\xc0")
        data[i + 1] = 0xC2  # rewrite SOF0 -> SOF2 (progressive)
        with pytest.raises(ValueError, match="non-baseline"):
            decode_jpeg(bytes(data))


def test_mjpg_avi_decode(ray_session):
    """AVI with an MJPG stream: frames are baseline JPEGs."""
    import struct

    from jpeg_encoder import encode_jpeg

    from marginalia_ray.ops.multimodal import VideoFrameSampleStage, decode_avi_frames

    h, w, fps, n = 16, 16, 5, 3
    yy, xx = np.mgrid[0:h, 0:w]
    frames = [
        np.stack([(xx * 7 + i * 40) % 256, (yy * 5) % 256, ((xx + yy) * 3) % 256],
                 axis=2).astype(np.uint8)
        for i in range(n)
    ]

    def chunk(fcc, payload):
        pad = b"\x00" if len(payload) & 1 else b""
        return fcc + struct.pack("<I", len(payload)) + payload + pad

    def lst(t, payload):
        return chunk(b"LIST", t + payload)

    avih = struct.pack("<14I", int(1e6 / fps), 0, 0, 0, n, 0, 1, 0, w, h, 0, 0, 0, 0)
    strh = (b"vids" + b"MJPG" + struct.pack("<I", 0) + struct.pack("<2H", 0, 0)
            + struct.pack("<8I", 0, 1, fps, 0, n, 0, 0, 0) + struct.pack("<4h", 0, 0, w, h))
    strf = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0x47504A4D, 0, 0, 0, 0, 0)
    hdrl = lst(b"hdrl", chunk(b"avih", avih) + lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf)))
    movi = lst(b"movi", b"".join(chunk(b"00dc", encode_jpeg(f)) for f in frames))
    body = hdrl + movi
    avi = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"AVI " + body

    w2, h2, fps2, n2, out = decode_avi_frames(avi)
    assert (w2, h2, n2) == (w, h, n)
    # lossy: bounded error per frame
    for i in range(n):
        rmse = float(np.sqrt(((out[i].astype(float) - frames[i]) ** 2).mean()))
        assert rmse < 8.0

    t = pa.table({"doc_id": pa.array([1], pa.int64()), "video": pa.array([avi], pa.binary())})
    res = VideoFrameSampleStage(fps_sample=5, max_frames=8)(t)
    assert res["frame_no"].to_pylist() == [0, 1, 2]
    assert res["decode_status"].to_pylist() == ["ok"] * 3


def test_avi_with_audio_stream_still_decodes(ray_session):
    """Real AVIs carry an audio strl whose strf is a WAVEFORMATEX; it must
    not clobber the video stream's bpp/compression."""
    import struct

    from marginalia_ray.ops.multimodal import decode_avi_frames

    rng = np.random.RandomState(5)
    frames = [rng.randint(0, 256, (4, 4, 3), dtype=np.uint8) for _ in range(2)]
    base = _encode_avi(frames, fps=10)

    # splice an audio strl (strh 'auds' + 30-byte fake MPEGLAYER3 strf)
    # into hdrl after the video strl
    def chunk(fcc, payload):
        pad = b"\x00" if len(payload) & 1 else b""
        return fcc + struct.pack("<I", len(payload)) + payload + pad

    def lst(t, payload):
        return chunk(b"LIST", t + payload)

    strh_a = (b"auds" + b"\x00" * 4 + struct.pack("<I", 0) + struct.pack("<2H", 0, 0)
              + struct.pack("<8I", 0, 1, 44100, 0, 0, 0, 0, 0) + struct.pack("<4h", 0, 0, 0, 0))
    strf_a = struct.pack("<HHIIHHH", 0x55, 2, 44100, 176400, 4, 16, 12) + b"\x00" * 12
    audio_strl = lst(b"strl", chunk(b"strh", strh_a) + chunk(b"strf", strf_a))

    # rebuild: insert audio_strl right before the end of the hdrl LIST
    i = base.find(b"LIST")
    size = struct.unpack("<I", base[i + 4 : i + 8])[0]
    hdrl_end = i + 8 + size
    new_hdrl_payload = base[i + 8 : hdrl_end] + audio_strl
    rebuilt = (base[:i] + chunk(b"LIST", new_hdrl_payload) + base[hdrl_end:])
    # fix RIFF size
    rebuilt = b"RIFF" + struct.pack("<I", len(rebuilt) - 8) + rebuilt[8:]

    w, h, fps, n, out = decode_avi_frames(rebuilt)
    assert (w, h, n) == (4, 4, 2)
    assert np.array_equal(out[0], frames[0])


def test_corrupt_mjpg_frame_gives_corrupt_null_row():
    """Header parse succeeds but a frame is corrupt: one row with null
    frame columns and status corrupt, no exception."""
    import struct

    from marginalia_ray.ops.multimodal import VideoFrameSampleStage

    def chunk(fcc, payload):
        pad = b"\x00" if len(payload) & 1 else b""
        return fcc + struct.pack("<I", len(payload)) + payload + pad

    def lst(t, payload):
        return chunk(b"LIST", t + payload)

    w = h = 8
    avih = struct.pack("<14I", 100000, 0, 0, 0, 1, 0, 1, 0, w, h, 0, 0, 0, 0)
    strh = (b"vids" + b"MJPG" + struct.pack("<I", 0) + struct.pack("<2H", 0, 0)
            + struct.pack("<8I", 0, 1, 10, 0, 1, 0, 0, 0) + struct.pack("<4h", 0, 0, w, h))
    strf = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0x47504A4D, 0, 0, 0, 0, 0)
    hdrl = lst(b"hdrl", chunk(b"avih", avih) + lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf)))
    movi = lst(b"movi", chunk(b"00dc", b"\xff\xd8garbage-not-a-jpeg"))
    body = hdrl + movi
    avi = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"AVI " + body

    t = pa.table({"doc_id": pa.array([1], pa.int64()), "video": pa.array([avi], pa.binary())})
    out = VideoFrameSampleStage()(t)
    assert out.to_pylist() == [
        {"doc_id": 1, "frame_no": None, "ts_s": None, "frame_embedding": None,
         "decode_status": "corrupt"}
    ]


def test_mp3_stream_info_metadata():
    """CBR MPEG-1 Layer III synthetic stream: frame-header walk reports
    the true duration and sample rate without decoding payloads."""
    from marginalia_ray.ops.multimodal import AudioFeatureStage, mp3_stream_info

    # 128 kbps, 44100 Hz, no padding: frame length = 1152*16000/44100 = 417
    hdr = bytes([0xFF, 0xFB, 0x90, 0x00])  # MPEG1 L3, br_idx=9(128k), sr_idx=0
    flen = 1152 * 128000 // (8 * 44100)
    frame = hdr + b"\x00" * (flen - 4)
    n = 38  # ~1 second
    id3 = b"ID3" + bytes([4, 0, 0]) + bytes([0, 0, 0, 10]) + b"\x00" * 10
    data = id3 + frame * n

    dur, rate, frames = mp3_stream_info(data)
    assert rate == 44100 and frames == n
    assert abs(dur - n * 1152 / 44100) < 1e-9

    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "audio": pa.array([data], pa.binary())})
    out = AudioFeatureStage()(t)  # real metadata from the header walk
    assert out["decode_status"].to_pylist() == ["envelope"]
    assert out["sample_rate"].to_pylist() == [44100]
    assert abs(out["duration_s"].to_pylist()[0] - dur) < 1e-9


def test_mp3_xing_header_exact_vbr_duration():
    """A Xing/Info header in the first frame gives the exact frame count in
    O(1): duration must come from the declared count, not the byte walk."""
    from marginalia_ray.ops.multimodal import mp3_stream_info

    hdr = bytes([0xFF, 0xFB, 0x90, 0x00])  # MPEG1 L3 128k/44100, stereo
    flen = 1152 * 128000 // (8 * 44100)
    declared = 9999  # deliberately != frames physically present
    # stereo MPEG1: side info 32 bytes after the 4-byte header
    body = bytearray(flen - 4)
    body[32 : 32 + 4] = b"Xing"
    body[36 : 36 + 4] = (1).to_bytes(4, "big")  # flags: frames present
    body[40 : 40 + 4] = declared.to_bytes(4, "big")
    data = hdr + bytes(body) + (hdr + b"\x00" * (flen - 4)) * 3

    dur, rate, frames = mp3_stream_info(data)
    assert rate == 44100 and frames == declared
    assert abs(dur - declared * 1152 / 44100) < 1e-9


def test_mp3_vbri_header_exact_vbr_duration():
    from marginalia_ray.ops.multimodal import mp3_stream_info

    # mono MPEG1 (chan_mode bits = 3): VBRI sits 32 bytes past the header
    hdr = bytes([0xFF, 0xFB, 0x90, 0xC0])
    flen = 1152 * 128000 // (8 * 44100)
    declared = 777
    body = bytearray(flen - 4)
    body[32 : 32 + 4] = b"VBRI"
    body[46 : 46 + 4] = declared.to_bytes(4, "big")  # frames at magic+14
    data = hdr + bytes(body) + (hdr + b"\x00" * (flen - 4)) * 2

    dur, rate, frames = mp3_stream_info(data)
    assert rate == 44100 and frames == declared
    assert abs(dur - declared * 1152 / 44100) < 1e-9


def test_mp3_garbage_still_gated():
    """An ID3v2 tag followed by no frame gets no features: a null row
    with status corrupt."""
    from marginalia_ray.ops.multimodal import AudioFeatureStage

    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "audio": pa.array([b"ID3\x04\x00\x00\x00\x00\x00\x00nope"], pa.binary())})
    out = AudioFeatureStage()(t)
    assert out["decode_status"].to_pylist() == ["corrupt"]
    assert out["mfcc_mean"].to_pylist() == [None]


def test_paletted_png_decodes():
    """Color type 3 (PLTE) — the classic legacy-web indexed PNG."""
    import struct
    import zlib

    from marginalia_ray.ops.multimodal import decode_image_payload

    w, h = 5, 4
    pal = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255], [10, 20, 30]], np.uint8)
    idx = np.array([[0, 1, 2, 3, 0], [1, 1, 2, 2, 3],
                    [3, 2, 1, 0, 0], [0, 0, 3, 3, 1]], np.uint8)
    raw = b"".join(b"\x00" + idx[y].tobytes() for y in range(h))

    def chunk(t, d):
        c = t + d
        return struct.pack(">I", len(d)) + c + struct.pack(">I", zlib.crc32(c))

    png = (b"\x89PNG\r\n\x1a\n"
           + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 3, 0, 0, 0))
           + chunk(b"PLTE", pal.tobytes())
           + chunk(b"IDAT", zlib.compress(raw))
           + chunk(b"IEND", b""))
    w2, h2, c, px = decode_image_payload(png)
    assert (w2, h2, c) == (5, 4, 3)
    assert (px == pal[idx]).all()

    # out-of-range palette index is rejected, not silently wrapped
    bad = (b"\x89PNG\r\n\x1a\n"
           + chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 3, 0, 0, 0))
           + chunk(b"PLTE", pal[:2].tobytes())
           + chunk(b"IDAT", zlib.compress(b"\x00\x03"))
           + chunk(b"IEND", b""))
    with pytest.raises(ValueError):
        decode_image_payload(bad)


class TestGif:
    def _img(self, w=13, h=9, n_pal=7, seed=3):
        rng = np.random.RandomState(seed)
        idx = rng.randint(0, n_pal, (h, w)).astype(np.uint8)
        pal = rng.randint(0, 256, (n_pal, 3)).astype(np.uint8)
        return idx, pal

    def test_gif_roundtrip(self):
        from marginalia_ray.ops.multimodal import decode_image_payload
        from tests.gif_encoder import encode_gif

        idx, pal = self._img()
        w, h, c, px = decode_image_payload(encode_gif(idx, pal))
        assert (w, h, c) == (13, 9, 3)
        assert (px == pal[idx]).all()

    def test_gif_interlaced(self):
        from marginalia_ray.ops.multimodal import decode_image_payload
        from tests.gif_encoder import encode_gif

        idx, pal = self._img(w=8, h=17, seed=5)
        w, h, c, px = decode_image_payload(encode_gif(idx, pal, interlace=True))
        assert (px == pal[idx]).all()

    def test_gif_local_color_table(self):
        from marginalia_ray.ops.multimodal import decode_image_payload
        from tests.gif_encoder import encode_gif

        idx, pal = self._img(n_pal=4, seed=7)
        w, h, c, px = decode_image_payload(encode_gif(idx, pal, local_table=True))
        assert (px == pal[idx]).all()

    def test_gif_lzw_table_growth(self):
        """Wide image with a long varied run forces code widths past 9
        bits (table growth + width bumps)."""
        from marginalia_ray.ops.multimodal import decode_image_payload
        from tests.gif_encoder import encode_gif

        rng = np.random.RandomState(11)
        idx = rng.randint(0, 64, (40, 80)).astype(np.uint8)
        pal = rng.randint(0, 256, (64, 3)).astype(np.uint8)
        w, h, c, px = decode_image_payload(encode_gif(idx, pal))
        assert (px == pal[idx]).all()

    def test_gif_truncated_rejected(self):
        import pytest

        from marginalia_ray.ops.multimodal import decode_image_payload
        from tests.gif_encoder import encode_gif

        idx, pal = self._img()
        data = encode_gif(idx, pal)
        with pytest.raises(ValueError):
            decode_image_payload(data[: len(data) // 2])


class TestImageResize:
    def test_solid_color_invariant(self, ray_session):
        import ray.data

        from marginalia_ray.ops.multimodal import resize_images

        px = np.full((10, 14, 3), [120, 7, 250], dtype=np.uint8)
        ds = ray.data.from_items([{"doc_id": 1, "image": make_png(px)}])
        (r,) = resize_images(ds, out_width=4, out_height=6, concurrency=2).take_all()
        out = np.frombuffer(r["pixels"], np.uint8).reshape(6, 4, 3)
        assert r["width"] == 4 and r["height"] == 6 and r["channels"] == 3
        assert (out == [120, 7, 250]).all()  # solid stays solid

    def test_identity_resize_roundtrips(self, ray_session):
        import ray.data

        from marginalia_ray.ops.multimodal import resize_images

        rng = np.random.RandomState(3)
        px = rng.randint(0, 256, (8, 9, 3), dtype=np.uint8)
        ds = ray.data.from_items([{"doc_id": 7, "image": make_png(px)}])
        (r,) = resize_images(ds, out_width=9, out_height=8, concurrency=2).take_all()
        out = np.frombuffer(r["pixels"], np.uint8).reshape(8, 9, 3)
        np.testing.assert_array_equal(out, px)  # same-size resize is identity

    def test_gradient_downsample_monotone(self, ray_session):
        import ray.data

        from marginalia_ray.ops.multimodal import resize_images

        # horizontal ramp 0..255: downsampled row must stay increasing
        ramp = np.tile(np.linspace(0, 255, 32, dtype=np.uint8)[None, :, None],
                       (16, 1, 3))
        ds = ray.data.from_items([{"doc_id": 2, "image": make_png(ramp)}])
        (r,) = resize_images(ds, out_width=8, out_height=4, concurrency=2).take_all()
        out = np.frombuffer(r["pixels"], np.uint8).reshape(4, 8, 3)
        row = out[0, :, 0].astype(int)
        assert (np.diff(row) > 0).all()
        assert row[0] < 40 and row[-1] > 215

    def test_unknown_format_gated(self, ray_session):
        import ray.data

        from marginalia_ray.ops.multimodal import resize_images

        junk = b"\x00\x01not an image payload"
        ds = ray.data.from_items([{"doc_id": 3, "image": junk}])
        (r,) = resize_images(ds, out_width=4, out_height=4, concurrency=2).take_all()
        assert r == {"doc_id": 3, "width": None, "height": None, "channels": None,
                     "pixels": None, "decode_status": "unsupported"}


def test_mp3_bitrate_envelope_is_real_signal():
    """A VBR stream alternating 128k/320k halves must produce an envelope
    whose temporal bins mirror the bitrate profile — a real content
    feature, not a content-hash pseudo-vector."""
    from marginalia_ray.ops.multimodal import (
        AudioFeatureStage,
        _mp3_envelope_vector,
        mp3_frame_envelope,
    )

    def frame(br_idx, kbps):
        hdr = bytes([0xFF, 0xFB, (br_idx << 4), 0x00])
        flen = 1152 * kbps * 1000 // (8 * 44100)
        return hdr + b"\x00" * (flen - 4)

    lo, hi = frame(9, 128), frame(14, 320)  # br_idx 9=128k, 14=320k
    data = lo * 20 + hi * 20

    dur, rate, n, kbps = mp3_frame_envelope(data)
    assert rate == 44100 and n == 40
    assert kbps[:20].mean() == 128.0 and kbps[20:].mean() == 320.0

    v = _mp3_envelope_vector(kbps, 13)
    mean = (128.0 * 20 + 320.0 * 20) / 40
    assert abs(v[0] - mean / 320.0) < 1e-6
    assert v[1] > 0.3  # strong variation
    # first temporal bins ~128/mean, last ~320/mean
    assert abs(v[2] - 128.0 / mean) < 1e-5
    assert abs(v[12] - 320.0 / mean) < 1e-5

    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "audio": pa.array([data], pa.binary())})
    out = AudioFeatureStage()(t)
    assert out["decode_status"].to_pylist() == ["envelope"]
    got = np.asarray(out["mfcc_mean"].to_pylist()[0], np.float32)
    assert np.allclose(got, v)


def test_mp3_cbr_envelope_flat_and_deterministic():
    from marginalia_ray.ops.multimodal import (
        _mp3_envelope_vector,
        mp3_frame_envelope,
    )

    hdr = bytes([0xFF, 0xFB, 0x90, 0x00])
    flen = 1152 * 128000 // (8 * 44100)
    data = (hdr + b"\x00" * (flen - 4)) * 38

    _, _, n, kbps = mp3_frame_envelope(data)
    assert n == 38 and (kbps == 128.0).all()
    v = _mp3_envelope_vector(kbps, 13)
    assert abs(v[0] - 128.0 / 320.0) < 1e-6
    assert v[1] == 0.0
    assert np.allclose(v[2:], 1.0)


def test_mp3_envelope_xing_duration_with_walked_envelope():
    """Xing declared count still rules the duration, while the envelope
    comes from the physically walked frames (the Xing frame excluded)."""
    from marginalia_ray.ops.multimodal import mp3_frame_envelope

    hdr = bytes([0xFF, 0xFB, 0x90, 0x00])  # stereo: side info 32 B
    flen = 1152 * 128000 // (8 * 44100)
    declared = 1234
    body = bytearray(flen - 4)
    body[32:36] = b"Xing"
    body[36:40] = (1).to_bytes(4, "big")
    body[40:44] = declared.to_bytes(4, "big")
    data = hdr + bytes(body) + (hdr + b"\x00" * (flen - 4)) * 5

    dur, rate, n, kbps = mp3_frame_envelope(data)
    assert abs(dur - declared * 1152 / 44100) < 1e-9
    assert n == 5 and len(kbps) == 5  # Xing frame not in the envelope


REAL_MP3 = "/usr/lib/google-cloud-sdk/platform/gsutil/gslib/tests/test_data/test.mp3"


@pytest.mark.skipif(not os.path.exists(REAL_MP3), reason="sandbox asset absent")
def test_mp3_walk_on_real_world_file():
    """Real-world encoder output (the gsutil test asset shipped in this
    image): the walk must parse cleanly end-to-end — sane rate, positive
    duration, envelope length == walked frames."""
    with open(REAL_MP3, "rb") as f:
        data = f.read()
    from marginalia_ray.ops.multimodal import mp3_frame_envelope, mp3_stream_info

    dur, rate, n, kbps = mp3_frame_envelope(data)
    assert rate in (8000, 11025, 12000, 16000, 22050, 24000, 32000, 44100, 48000)
    assert dur > 0 and n > 0 and len(kbps) == n
    d2, r2, _ = mp3_stream_info(data)
    assert r2 == rate and abs(d2 - dur) / max(dur, 1e-9) < 0.05


def test_mp3_envelope_declared_only_keeps_rate():
    """A stream whose first frame carries a Xing declared count but has NO
    walkable audio frames after it must still report the real sample rate
    (parity with mp3_stream_info's O(1) path), not rate=0."""
    from marginalia_ray.ops.multimodal import mp3_frame_envelope, mp3_stream_info

    hdr = bytes([0xFF, 0xFB, 0x90, 0x00])  # MPEG1 L3 128k/44100, stereo
    flen = 1152 * 128000 // (8 * 44100)
    declared = 42
    body = bytearray(flen - 4)
    body[32:36] = b"Xing"
    body[36:40] = (1).to_bytes(4, "big")
    body[40:44] = declared.to_bytes(4, "big")
    data = hdr + bytes(body)  # Xing frame only, zero audio frames

    dur, rate, n, kbps = mp3_frame_envelope(data)
    assert n == 0 and len(kbps) == 0
    assert rate == 44100
    assert abs(dur - declared * 1152 / 44100) < 1e-9
    dur2, rate2, _ = mp3_stream_info(data)
    assert rate2 == rate and abs(dur2 - dur) < 1e-9


def _null_payload_cases():
    from marginalia_ray.ops.multimodal import (
        ImagePhashStage,
        ImageResizeStage,
        VideoFrameSampleStage,
    )

    rng = np.random.RandomState(5)
    png = make_png(rng.randint(0, 256, size=(12, 17, 3), dtype=np.uint8))
    avi = _encode_avi([rng.randint(0, 256, (8, 8, 3), dtype=np.uint8) for _ in range(3)])
    return {
        "image_decode": (ImageDecodeStage, "image", png, ["width", "height", "channels", "embedding"]),
        "audio": (AudioFeatureStage, "audio", make_wav(), ["duration_s", "sample_rate", "mfcc_mean"]),
        "image_resize": (ImageResizeStage, "image", png, ["width", "height", "channels", "pixels"]),
        "image_phash": (ImagePhashStage, "image", png, ["phash"]),
        "video": (VideoFrameSampleStage, "video", avi, ["frame_no", "ts_s", "frame_embedding"]),
    }


@pytest.mark.parametrize(
    "case", ["image_decode", "audio", "image_resize", "image_phash", "video"]
)
def test_null_payload_gives_missing_row(case):
    """A null payload next to a good one: one row with null features and
    status ``missing``; the good payload still decodes (``ok``)."""
    stage_cls, col, good, features = _null_payload_cases()[case]
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  col: pa.array([None, good], pa.binary())})
    out = stage_cls()(t)
    rows = out.to_pylist()
    assert rows[0]["doc_id"] == 1 and rows[0]["decode_status"] == "missing"
    assert all(rows[0][f] is None for f in features)
    assert [r["doc_id"] for r in rows if r["doc_id"] == 1] == [1]
    assert {r["decode_status"] for r in rows[1:]} == {"ok"}
