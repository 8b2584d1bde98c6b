"""Layer II decode (ops/mp2.py): round-trip validation against the paired
minimal encoder (tests/mp2_encoder.py) — frequency placement, amplitude,
SNR, grouped-code classes, table selection — plus AudioFeatureStage
integration, the joint-stereo rejection and a fuzz test of damaged
streams."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


def _sine(freq, sr=44100, secs=1.0, amp=0.5):
    t = np.arange(int(sr * secs)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def _roundtrip(x, sr=44100, kbps=128, **kw):
    import sys

    sys.path.insert(0, "tests")
    from mp2_encoder import encode_mp2

    from marginalia_ray.ops.mp2 import mp2_decode

    data = encode_mp2(x, sr, kbps, **kw)
    pcm, rate = mp2_decode(data)
    assert rate == sr
    return data, pcm[:, 0]


def _dominant(y, sr):
    yc = y[4096:-4096] if len(y) > 12288 else y
    spec = np.abs(np.fft.rfft(yc * np.hanning(len(yc))))
    return np.fft.rfftfreq(len(yc), 1 / sr)[np.argmax(spec)]


def _snr_db(y, x):
    best = (0.0, 0)
    for d in range(2000):
        c = abs(float(np.dot(y[d : d + 8192], x[:8192])))
        if c > best[0]:
            best = (c, d)
    d = best[1]
    n = min(len(y) - d, len(x), 20000)
    seg, ref = y[d : d + n], x[:n]
    g = float(np.dot(seg, ref) / np.dot(ref, ref))
    return 10 * np.log10(np.mean(ref**2) / np.mean((seg / g - ref) ** 2))


class TestRoundTrip:
    def test_1khz_sine(self):
        x = _sine(1000.0)
        _, y = _roundtrip(x)
        assert abs(_dominant(y, 44100) - 1000.0) < 5.0
        assert abs(np.sqrt(2) * y[4096:-4096].std() / 0.5 - 1.0) < 0.1
        assert _snr_db(y, x) > 20.0  # 15-level quantization ~ 23 dB

    def test_higher_band_tone(self):
        # 3.1 kHz lands in subband 4 — crosses the first alloc class
        x = _sine(3100.0)
        _, y = _roundtrip(x)
        assert abs(_dominant(y, 44100) - 3100.0) < 10.0

    def test_grouped_code_classes(self):
        # 3/5/9-level classes use grouped triplet codes — decode must
        # invert the base-n decomposition.  5/9 exist only in the
        # B.2a/B.2b middle class (subbands 3-10), so use a tone in
        # subband 3 (~2.4 kHz); 3 levels exist everywhere.
        for nlevels, freq in ((3, 700.0), (5, 2400.0), (9, 2400.0)):
            _, y = _roundtrip(_sine(freq), nlevels=nlevels, n_active_sb=8)
            assert abs(_dominant(y, 44100) - freq) < 10.0, nlevels

    def test_48k_table_a(self):
        # 48 kHz / 64 kbps mono -> table B.2a (sblimit 27)
        x = _sine(1000.0, sr=48000)
        _, y = _roundtrip(x, sr=48000, kbps=64)
        assert abs(_dominant(y, 48000) - 1000.0) < 5.0

    def test_duration(self):
        x = _sine(500.0, secs=2.0)
        data, y = _roundtrip(x)
        # whole frames only: 1152 samples each
        assert abs(len(y) - 2.0 * 44100) <= 1152

    def test_garbage_raises(self):
        from marginalia_ray.ops.mp2 import mp2_decode

        with pytest.raises(ValueError):
            mp2_decode(b"\x00" * 4096)


class TestSniffer:
    def test_layer2_vs_layer3(self):
        import sys

        sys.path.insert(0, "tests")
        from mp2_encoder import encode_mp2

        from marginalia_ray.ops.mp2 import sniff_layer

        mp2 = encode_mp2(_sine(440.0, secs=0.2), 44100, 128)
        assert sniff_layer(mp2) == 2
        mp3 = bytes([0xFF, 0xFB, 0x90, 0x00]) + b"\x00" * 413
        assert sniff_layer(mp3) == 3
        assert sniff_layer(b"\x00" * 100) is None


class TestId3Skip:
    """`multimodal.skip_id3v2`, the one ID3v2 skip both MPEG walkers and
    the Layer II decoder use."""

    def test_synchsafe_size_masks_bit7(self):
        from marginalia_ray.ops.multimodal import skip_id3v2

        # bit 7 set in every size byte must be ignored: 7 bits per byte
        tag = b"ID3\x04\x00\x00" + bytes([0x81, 0x82, 0x83, 0x84])
        assert skip_id3v2(tag) == 10 + ((1 << 21) | (2 << 14) | (3 << 7) | 4)
        assert skip_id3v2(b"ID3\x03\x00\x00" + bytes([0, 0, 1, 0x7F])) == 10 + 255

    def test_short_or_untagged_input_is_zero(self):
        from marginalia_ray.ops.multimodal import skip_id3v2

        for data in (b"", b"ID3", b"ID3\x04\x00\x00\x00\x00\x00", bytes([0xFF, 0xFB, 0x90, 0x00]) * 4):
            assert skip_id3v2(data) == 0

    def test_sniffer_skips_a_tag_holding_a_frame_sync(self):
        import sys

        sys.path.insert(0, "tests")
        from mp2_encoder import encode_mp2

        from marginalia_ray.ops.mp2 import sniff_layer

        body = bytes([0xFF, 0xFB, 0x90, 0x00]) + b"\x00" * 12  # a Layer III header
        tag = b"ID3\x04\x00\x00" + bytes([0, 0, 0, len(body)]) + body
        assert sniff_layer(tag + encode_mp2(_sine(440.0, secs=0.2), 44100, 128)) == 2


class TestAudioFeatureStage:
    def test_layer2_real_mfcc_no_gate(self):
        """Layer II decodes for real (status ok); the MFCCs must match
        the WAV path's MFCCs of the same tone (same mel chain over the
        decoded audio) within a loose cepstral distance."""
        import io
        import sys
        import wave

        sys.path.insert(0, "tests")
        from mp2_encoder import encode_mp2

        from marginalia_ray.ops.multimodal import AudioFeatureStage

        x = _sine(1000.0, secs=1.0)
        mp2 = encode_mp2(x, 44100, 128)
        buf = io.BytesIO()
        with wave.open(buf, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(44100)
            wf.writeframes((x * 32767).astype(np.int16).tobytes())
        wav = buf.getvalue()

        t = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "audio": pa.array([mp2, wav], pa.binary()),
            }
        )
        out = AudioFeatureStage()(t)
        assert out["decode_status"].to_pylist() == ["ok", "ok"]
        assert out["sample_rate"].to_pylist() == [44100, 44100]
        durs = out["duration_s"].to_pylist()
        assert abs(durs[0] - 1.0) < 0.05 and abs(durs[1] - 1.0) < 1e-6
        m_mp2, m_wav = (np.array(v) for v in out["mfcc_mean"].to_pylist())
        # same tone -> same spectral shape; absolute scale differs by the
        # int16 vs float PCM level, which shifts ONLY c0 in a log-mel
        # cepstrum, so compare c1.. on direction
        a, b = m_mp2[1:], m_wav[1:]
        cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-9))
        assert cos > 0.9, (m_mp2, m_wav)  # MP2 quantization noise floor lifts
        # the out-of-band mel bins vs the clean WAV — 0.93 measured


class TestStereo:
    def test_stereo_roundtrip_distinct_channels(self):
        """Stereo decode path: left carries 800 Hz, right 2400 Hz — each
        decoded channel must be dominated by ITS tone."""
        import sys

        sys.path.insert(0, "tests")
        from mp2_encoder import encode_mp2

        from marginalia_ray.ops.mp2 import mp2_decode

        sr = 44100
        t = np.arange(sr) / sr
        left = 0.5 * np.sin(2 * np.pi * 800 * t)
        right = 0.5 * np.sin(2 * np.pi * 2400 * t)
        data = encode_mp2(np.stack([left, right], axis=1), sr, 256)
        pcm, rate = mp2_decode(data)
        assert rate == sr and pcm.shape[1] == 2
        assert abs(_dominant(pcm[:, 0], sr) - 800.0) < 10.0
        assert abs(_dominant(pcm[:, 1], sr) - 2400.0) < 10.0


class TestMultiTone:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_tone_mix_roundtrip(self, seed):
        """Deterministic random 3-tone mixes across the allocated band:
        every component tone must survive the encode/decode round trip as
        a spectral peak within 2 bins, and total in-band energy must be
        within 25 % of the source (15-level quantization + near-PR
        filterbank)."""
        rng = np.random.RandomState(seed)
        sr = 44100
        # tones inside the 8 active subbands (< 8 * 689 Hz), well separated
        freqs = np.sort(rng.choice(np.arange(300, 5200, 150), 3, replace=False))
        amps = rng.uniform(0.1, 0.3, 3)
        t = np.arange(sr) / sr
        x = sum(a * np.sin(2 * np.pi * f * t) for f, a in zip(freqs, amps))

        import sys

        sys.path.insert(0, "tests")
        from mp2_encoder import encode_mp2

        from marginalia_ray.ops.mp2 import mp2_decode

        pcm, rate = mp2_decode(encode_mp2(x, sr, 128))
        y = pcm[4096:-4096, 0]
        n = len(y)
        spec = np.abs(np.fft.rfft(y * np.hanning(n)))
        grid = np.fft.rfftfreq(n, 1 / rate)
        for f, a in zip(freqs, amps):
            k = int(round(f * n / rate))
            window = spec[max(k - 2, 0) : k + 3]
            # the tone must be a local spectral peak far above the floor
            assert window.max() > 10 * np.median(spec), (seed, f)
            peak_f = grid[max(k - 2, 0) + int(np.argmax(window))]
            assert abs(peak_f - f) * n / rate <= 2, (seed, f, peak_f)
        e_src = float(np.mean(x**2))
        e_dec = float(np.mean(y**2))
        assert abs(e_dec / e_src - 1.0) < 0.25, (seed, e_src, e_dec)


def _frame_starts(data):
    """Byte offset of every frame in an encoder-made stream (fixed-length
    frames, no padding, no tag)."""
    from marginalia_ray.ops.mp2 import _parse_header

    pos, out = 0, []
    while (hdr := _parse_header(data, pos)) is not None:
        out.append(pos)
        pos += hdr[3]
    return out


class TestJointStereo:
    def test_joint_stereo_rejected_and_stage_falls_back(self):
        """Mode 1 (joint stereo) shares one allocation and sample set above
        the mode-extension bound; decoding it as two channels gives wrong
        PCM, so the decoder refuses it and the stage takes the
        frame-header walk instead."""
        import sys

        sys.path.insert(0, "tests")
        from mp2_encoder import encode_mp2

        from marginalia_ray.ops.mp2 import mp2_decode
        from marginalia_ray.ops.multimodal import AudioFeatureStage

        x = np.stack([_sine(800.0, secs=0.2), _sine(2400.0, secs=0.2)], axis=1)
        data = bytearray(encode_mp2(x, 44100, 256))
        starts = _frame_starts(bytes(data))
        assert len(starts) > 1
        for pos in starts:
            data[pos + 3] = (data[pos + 3] & 0x3F) | 0x40  # mode bits 01
        data = bytes(data)
        with pytest.raises(ValueError):
            mp2_decode(data)
        out = AudioFeatureStage()(
            pa.table({"doc_id": pa.array([1], pa.int64()),
                      "audio": pa.array([data], pa.binary())})
        )
        assert out["decode_status"].to_pylist() == ["envelope"]
        assert out["sample_rate"].to_pylist() == [44100]


def _fuzz_stream() -> bytes:
    import sys

    sys.path.insert(0, "tests")
    from mp2_encoder import encode_mp2

    return encode_mp2(_sine(700.0, secs=0.1), 44100, 128)


_FUZZ = _fuzz_stream()


class TestDamagedStreams:
    """Truncated and bit-flipped Layer II streams: the decoder may fail
    only with ValueError, and the stage never raises."""

    @given(
        cut=st.integers(0, len(_FUZZ)),
        flips=st.lists(st.integers(0, 8 * len(_FUZZ) - 1), max_size=12),
    )
    # setting the 3-bit allocations of the silent subbands 11-14 of the
    # last frame to 7 (16-bit samples) makes it claim more sample bits
    # than the stream holds
    @example(cut=len(_FUZZ),
             flips=list(range(8 * (_frame_starts(_FUZZ)[-1] + 4) + 44,
                              8 * (_frame_starts(_FUZZ)[-1] + 4) + 56)))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_only_value_error_escapes(self, cut, flips):
        from marginalia_ray.ops.mp2 import mp2_decode
        from marginalia_ray.ops.multimodal import AudioFeatureStage

        data = bytearray(_FUZZ)
        for bit in flips:
            data[bit >> 3] ^= 0x80 >> (bit & 7)
        data = bytes(data[:cut])
        try:
            mp2_decode(data)
        except ValueError:
            pass
        out = AudioFeatureStage()(
            pa.table({"doc_id": pa.array([1], pa.int64()),
                      "audio": pa.array([data], pa.binary())})
        )
        assert out.num_rows == 1
        assert out["decode_status"][0].as_py() in ("ok", "envelope", "unsupported", "corrupt")
