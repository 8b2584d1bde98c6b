"""Multimodal column operators: image / audio / video payloads as opaque
`binary` columns with typed metadata.

Decode support, container-native (no external codec libraries):
  * images — REAL decoders for PNG (8-bit gray/RGB/RGBA/paletted,
    non-interlaced; zlib + scanline unfilter), binary PPM/PGM,
    uncompressed 24-bit BMP, GIF87a/89a (LZW, interlace, local/global
    color tables; first frame),
    and baseline JPEG (ops/jpeg.py: Huffman entropy decode, dequant,
    vectorized 8x8 IDCT, 4:4:4/4:2:2/4:2:0 chroma upsample, restart
    markers); the embedding is a real content feature (normalized grid
    of block-mean intensities).
  * audio — REAL decoder for RIFF/WAV PCM (stdlib `wave`) with an actual
    numpy MFCC (Hann frames -> power spectrum -> mel filterbank -> log ->
    DCT-II), averaged over frames.
  * video — REAL decoder for AVI with uncompressed (BI_RGB 'DIB ')
    or MJPG (per-frame baseline JPEG) streams: RIFF hdrl/movi parse,
    frame sampling at ~fps_sample with a real per-frame content
    embedding; inter-frame codecs (H.264/VP9) are not decoded.

Every stage adds a string column ``decode_status`` with one of five values:
``ok`` (a native decoder read the payload), ``envelope`` (audio only: the
MPEG frame-header walk filled ``mfcc_mean`` with the bitrate envelope),
``unsupported`` (no decoder here handles the format or variant: unknown
magic bytes, progressive JPEG, 24-bit PCM, H.264 AVI, ...; the decoder
raised UnsupportedFormat), ``corrupt`` (a decoder recognised the format
but the data failed to decode: any other ValueError) or ``missing`` (the
payload is null).  A payload that does not decode gives one row with its
id, every feature column null and its status; a failed payload never
kills the task.  MPEG audio:
**Layer II payloads decode for real** (ops/mp2.py — full Annex B
bitstream walk, dequantization, polyphase synthesis; round-trip
validated) and feed true spectral MFCCs with NO gate.  Layer III (MP3)
is a hybrid: duration/sample-rate metadata come from a REAL frame-header
walk (mp3_stream_info; Xing/Info + VBRI VBR headers give exact duration
in O(1) without walking the payload), and the feature vector is a REAL
compressed-domain descriptor (mp3_frame_envelope: per-frame bitrate
envelope — VBR bit allocation tracks spectral complexity).  Full
Layer III payload decode stays DATA-gated, not code-gated: its decode is
bit-defined by 32 Huffman code tables and IMDCT window types — spec-
document assets unavailable offline (same class as the reference's
downloaded English.RDR model, run/setup.sh).  Guessing those tables from
memory would produce silently wrong audio; the honest gate stays.

Scale design: payload columns are fat, so these stages run with SMALL
batch sizes (default 16) and actor pools; the binary column is dropped
from the output so downstream stages stream slim feature rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


# bound on decoded image area (64 MP): filters 3/4 (avg/Paeth) unfilter in
# Python, so a crafted giant image must be rejected before the scanline loop
_MAX_PNG_PIXELS = 64 * 1024 * 1024
_MAX_GIF_PIXELS = 4 * 1024 * 1024  # LZW is per-code Python work; cap tighter


class UnsupportedFormat(ValueError):
    """No decoder in this module handles the payload's format or variant.
    Any other ValueError from a decoder means the payload is corrupt."""


def _try_decode(decode, p):
    """``decode(p) -> (status, *features)`` as (status, features), or
    (status, None) for a null payload (``missing``) or a ValueError (the
    status of its class)."""
    if p is None:
        return "missing", None
    try:
        st, *feats = decode(p)
    except ValueError as ex:
        return ("unsupported" if isinstance(ex, UnsupportedFormat) else "corrupt"), None
    return st, feats


def _decode_columns(payloads, decode, n_features: int):
    """Run ``decode`` over the payloads (see _try_decode); a payload that
    does not decode gives null features.  Returns (one list per feature,
    status list)."""
    cols: list[list] = [[] for _ in range(n_features)]
    status = []
    for p in payloads:
        st, feats = _try_decode(decode, p)
        status.append(st)
        for col, v in zip(cols, feats or [None] * n_features):
            col.append(v)
    return cols, status


# ---- real image decoders (stdlib + numpy only) -------------------------


def _decode_png(data: bytes):
    """8-bit non-interlaced PNG (gray/gray+a/RGB/RGBA/paletted).  zlib
    inflate + per-scanline unfilter; filters 0/2 vectorize, 1/3/4 carry a
    left dependency and run per-pixel (encoders in pipelines use 0/2).
    Paletted images (color type 3, the classic legacy-web GIF-replacement)
    unfilter as 1-channel index rows, then a vectorized PLTE lookup."""
    import struct
    import zlib

    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise UnsupportedFormat("not png")
    pos, idat, w, h, color_type = 8, b"", None, None, None
    palette = None
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        chunk = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if ctype == b"IHDR":
            w, h, depth, color_type, _c, _f, interlace = struct.unpack(
                ">IIBBBBB", chunk
            )
            if depth != 8 or interlace:
                raise UnsupportedFormat("unsupported png variant")
        elif ctype == b"PLTE":
            palette = np.frombuffer(chunk, np.uint8).reshape(-1, 3)
        elif ctype == b"IDAT":
            idat += chunk
        elif ctype == b"IEND":
            break
    if w is None:
        raise ValueError("png without IHDR")
    if color_type == 3 and palette is None:
        raise ValueError("paletted png without PLTE")
    if color_type not in (0, 2, 3, 4, 6):
        raise UnsupportedFormat("unsupported png color type")
    channels = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}[color_type]
    stride = w * channels
    if w * h > _MAX_PNG_PIXELS:
        # bound unfilter work: a crafted huge Paeth-filtered image would
        # otherwise stall a decode actor for minutes
        raise UnsupportedFormat("png too large")
    raw = np.frombuffer(zlib.decompress(idat), np.uint8).reshape(h, stride + 1)
    out = np.zeros((h, stride), np.int32)
    zero_row: list[int] = [0] * stride
    for y in range(h):
        f = int(raw[y, 0])
        cur = raw[y, 1:].astype(np.int32)
        prev = out[y - 1] if y else np.zeros(stride, np.int32)
        if f == 0:
            out[y] = cur
        elif f == 2:
            out[y] = (cur + prev) & 0xFF
        elif f == 1:
            # Sub: rec[x] = cur[x] + rec[x-ch] is a per-channel-lane prefix
            # sum; mod 256 commutes with addition, so cumsum is exact
            out[y] = (
                np.cumsum(cur.reshape(-1, channels), axis=0, dtype=np.int64) & 0xFF
            ).reshape(stride)
        else:
            # Average/Paeth carry a floor-div / argmin left dependency that
            # cannot be expressed as a scan; plain-int list ops are ~8x
            # faster than per-element numpy indexing here
            cur_l = cur.tolist()
            prev_l = prev.tolist() if y else zero_row
            rec = zero_row.copy()
            if f == 3:
                for x in range(stride):
                    a = rec[x - channels] if x >= channels else 0
                    rec[x] = (cur_l[x] + ((a + prev_l[x]) >> 1)) & 0xFF
            else:  # paeth
                for x in range(stride):
                    if x >= channels:
                        a = rec[x - channels]
                        c = prev_l[x - channels]
                    else:
                        a = c = 0
                    b = prev_l[x]
                    p = a + b - c
                    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
                    rec[x] = (cur_l[x] + pred) & 0xFF
            out[y] = rec
    px = out.astype(np.uint8).reshape(h, w, channels)
    if color_type == 3:
        idx = px[:, :, 0]
        if int(idx.max(initial=0)) >= len(palette):
            raise ValueError("png palette index out of range")
        return w, h, 3, np.ascontiguousarray(palette[idx])
    return w, h, channels, px


def _decode_ppm(data: bytes):
    """Binary PPM (P6) / PGM (P5)."""
    if data[:2] not in (b"P6", b"P5"):
        raise UnsupportedFormat("not ppm/pgm")
    channels = 3 if data[:2] == b"P6" else 1
    # header: magic, width, height, maxval (whitespace/comment separated)
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = tokens
    if maxval > 255:
        raise UnsupportedFormat("16-bit ppm/pgm unsupported")
    px = np.frombuffer(data, np.uint8, count=w * h * channels, offset=pos)
    return w, h, channels, px.reshape(h, w, channels)


def _decode_bmp(data: bytes):
    """Uncompressed 24-bit BMP."""
    import struct

    if data[:2] != b"BM":
        raise UnsupportedFormat("not bmp")
    (off,) = struct.unpack("<I", data[10:14])
    w, h = struct.unpack("<ii", data[18:26])
    (bpp,) = struct.unpack("<H", data[28:30])
    (comp,) = struct.unpack("<I", data[30:34])
    if bpp != 24 or comp != 0:
        raise UnsupportedFormat("unsupported bmp variant")
    flip = h > 0
    h = abs(h)
    row = (w * 3 + 3) & ~3  # 4-byte aligned rows
    arr = np.frombuffer(data, np.uint8, count=row * h, offset=off).reshape(h, row)
    px = arr[:, : w * 3].reshape(h, w, 3)[:, :, ::-1]  # BGR -> RGB
    if flip:
        px = px[::-1]
    return w, h, 3, np.ascontiguousarray(px)


def _gif_lzw(data: bytes, min_code: int, n_pixels: int) -> np.ndarray:
    """GIF LZW decompression (GIF89a spec appendix F): variable-width
    codes 3..12 bits LSB-first, clear/EOI codes, table grows per output.
    One Python iteration per CODE (not per pixel): entries are bytes
    objects sliced straight into a preallocated numpy buffer, so long
    matches cost one memoryview copy; total work is bounded by the
    caller's GIF pixel cap."""
    clear = 1 << min_code
    eoi = clear + 1
    # bit reader over the concatenated sub-block bytes
    bits = 0
    nbits = 0
    pos = 0
    width = min_code + 1
    base: list[bytes | None] = [bytes([i]) for i in range(clear)] + [None, None]
    table = list(base)
    out = np.empty(n_pixels, np.uint8)
    n_out = 0
    prev: bytes | None = None
    while n_out < n_pixels:
        while nbits < width:
            if pos >= len(data):
                raise ValueError("gif: truncated LZW stream")
            bits |= data[pos] << nbits
            nbits += 8
            pos += 1
        code = bits & ((1 << width) - 1)
        bits >>= width
        nbits -= width
        if code == clear:
            table = list(base)
            width = min_code + 1
            prev = None
            continue
        if code == eoi:
            break
        if code < len(table) and table[code] is not None:
            entry = table[code]
        elif code == len(table) and prev is not None:
            entry = prev + prev[:1]
        else:
            raise ValueError("gif: bad LZW code")
        take = min(len(entry), n_pixels - n_out)
        out[n_out : n_out + take] = np.frombuffer(entry, np.uint8, count=take)
        n_out += take
        if prev is not None:
            table.append(prev + entry[:1])
            if len(table) == (1 << width) and width < 12:
                width += 1
        prev = entry
    if n_out < n_pixels:
        raise ValueError("gif: short pixel data")
    return out


def _decode_gif(data: bytes):
    """GIF87a/89a, first frame: logical screen + global/local color table,
    LZW-compressed indices, optional interlace.  Animation frames after
    the first and transparency are ignored (a feature-extraction stage
    wants one representative frame)."""
    import struct

    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise UnsupportedFormat("not gif")
    _sw, _sh, packed, _bg, _ar = struct.unpack("<HHBBB", data[6:13])
    pos = 13
    gct = None
    if packed & 0x80:
        n = 2 << (packed & 0x07)
        gct = np.frombuffer(data, np.uint8, count=3 * n, offset=pos).reshape(n, 3)
        pos += 3 * n
    while pos < len(data):
        b = data[pos]
        if b == 0x3B:  # trailer
            break
        if b == 0x21:  # extension: label + sub-blocks
            pos += 2
            while pos < len(data) and data[pos] != 0:
                pos += 1 + data[pos]
            pos += 1
            continue
        if b != 0x2C:
            raise ValueError("gif: unexpected block")
        _lx, _ty, w, h, ipacked = struct.unpack("<HHHHB", data[pos + 1 : pos + 10])
        pos += 10
        ct = gct
        if ipacked & 0x80:
            n = 2 << (ipacked & 0x07)
            ct = np.frombuffer(data, np.uint8, count=3 * n, offset=pos).reshape(n, 3)
            pos += 3 * n
        if ct is None:
            raise ValueError("gif: no color table")
        if w * h > _MAX_GIF_PIXELS or w == 0 or h == 0:
            # tighter than the PNG cap: LZW decode is one Python step per
            # code, so a huge GIF costs real actor time — fall back instead
            raise UnsupportedFormat("gif: unsupported dimensions")
        min_code = data[pos]
        pos += 1
        chunks = []
        while pos < len(data) and data[pos] != 0:
            ln = data[pos]
            chunks.append(data[pos + 1 : pos + 1 + ln])
            pos += 1 + ln
        idx = _gif_lzw(b"".join(chunks), min_code, w * h)
        if len(idx) < w * h:
            raise ValueError("gif: short pixel data")
        if int(idx.max(initial=0)) >= len(ct):
            raise ValueError("gif: palette index out of range")
        rows = idx.reshape(h, w)
        if ipacked & 0x40:  # interlaced: 4-pass row order
            order = np.concatenate(
                [np.arange(0, h, 8), np.arange(4, h, 8),
                 np.arange(2, h, 4), np.arange(1, h, 2)]
            )
            deinter = np.empty_like(rows)
            deinter[order] = rows
            rows = deinter
        px = ct[rows]
        return w, h, 3, np.ascontiguousarray(px)
    raise ValueError("gif: no image block")


def _image_embedding(px: np.ndarray, dim: int) -> np.ndarray:
    """Real content feature: grid of block-mean intensities (dim cells
    over the grayscale image), L2-normalized."""
    g = px.astype(np.float32).mean(axis=2)
    rows = max(1, int(np.sqrt(dim / 2)))
    cols = max(1, dim // rows)
    # images smaller than the grid: shrink the grid to the pixel count —
    # np.array_split would otherwise yield EMPTY blocks whose mean is NaN,
    # silently poisoning downstream cosine math (the vector pads with 0)
    rows = min(rows, g.shape[0])
    cols = min(cols, g.shape[1])
    cells = [
        float(block.mean())
        for rband in np.array_split(g, rows, axis=0)
        for block in np.array_split(rband, cols, axis=1)
    ]
    v = np.asarray(cells[:dim] + [0.0] * max(0, dim - len(cells)), np.float32)
    n = float(np.linalg.norm(v))
    return v / n if n > 0 else v


def decode_image_payload(data: bytes):
    """(w, h, channels, pixels) for PNG (incl. paletted) / PPM / BMP / GIF /
    baseline JPEG.  Raises UnsupportedFormat for unrecognized formats and
    for variants no decoder here handles (interlaced PNGs, 16-bit PPMs,
    progressive JPEGs, ...), and a plain ValueError for corrupt files of a
    recognized format (truncated chunks, bad LZW codes, ...)."""
    import struct
    import zlib

    try:
        if data[:8] == b"\x89PNG\r\n\x1a\n":
            return _decode_png(data)
        if data[:2] in (b"P6", b"P5"):
            return _decode_ppm(data)
        if data[:2] == b"BM":
            return _decode_bmp(data)
        if data[:6] in (b"GIF87a", b"GIF89a"):
            return _decode_gif(data)
        if data[:2] == b"\xff\xd8":
            from marginalia_ray.ops.jpeg import decode_jpeg

            w, h, c, px = decode_jpeg(data)
            if c == 1:
                px = np.repeat(px, 3, axis=2)
                c = 3
            return w, h, c, px
    except (struct.error, zlib.error, IndexError, KeyError) as ex:
        raise ValueError(f"undecodable image: {ex}") from ex
    raise UnsupportedFormat("unrecognized image format")


class ImageDecodeStage:
    """binary image column -> (id, width, height, channels, embedding,
    decode_status).

    PNG / PPM / BMP / GIF / baseline-JPEG payloads decode for real
    (decode_image_payload, status ``ok``); other formats (progressive
    JPEG, WebP) give null features with status ``unsupported``, and
    damaged payloads null features with status ``corrupt``.
    """

    def __init__(self, embed_dim: int = 32, payload_col: str = "image",
                 id_col: str = "doc_id"):
        self.embed_dim = embed_dim
        self.payload_col, self.id_col = payload_col, id_col
        # model-load placeholder: happens ONCE per actor (A-pool pattern)
        self.model = None

    def _decode(self, p: bytes):
        w, h, c, px = decode_image_payload(p)
        return "ok", int(w), int(h), int(c), _image_embedding(px, self.embed_dim).tolist()

    def __call__(self, batch: pa.Table) -> pa.Table:
        (w, h, c, emb), status = _decode_columns(
            batch[self.payload_col].to_pylist(), self._decode, 4
        )
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "width": pa.array(w, pa.int32()),
                "height": pa.array(h, pa.int32()),
                "channels": pa.array(c, pa.int32()),
                "embedding": pa.array(emb, pa.list_(pa.float32())),
                "decode_status": pa.array(status, pa.string()),
            }
        )


# ---- real WAV decode + numpy MFCC --------------------------------------


def _wav_features(data: bytes, n_mfcc: int):
    """RIFF/WAV PCM -> (duration_s, sample_rate, mfcc_mean) with an actual
    MFCC: 1024-sample Hann frames, power spectrum, 26-band mel filterbank,
    log, DCT-II, first n_mfcc coefficients averaged over frames.  Raises
    UnsupportedFormat for non-PCM and 24-bit PCM files, ValueError for
    damaged ones."""
    import io
    import wave

    try:
        with wave.open(io.BytesIO(data)) as wf:
            sr = wf.getframerate()
            nchan = wf.getnchannels()
            nframes = wf.getnframes()
            width = wf.getsampwidth()
            raw = wf.readframes(nframes)
    except wave.Error as ex:
        # these two name the format, not damage to the bytes
        if str(ex).startswith(("unknown format", "not a WAVE file")):
            raise UnsupportedFormat(f"wav: {ex}") from ex
        raise ValueError(f"wav: {ex}") from ex
    except EOFError as ex:
        raise ValueError("wav: truncated") from ex
    dtype = {1: np.uint8, 2: np.int16, 4: np.int32}.get(width)
    if dtype is None:
        raise UnsupportedFormat(f"wav: {8 * width}-bit PCM")
    if sr <= 0:
        raise ValueError("wav: bad frame rate")
    x = np.frombuffer(raw, dtype).astype(np.float64)
    if width == 1:
        x = x - 128.0
    if nchan > 1:
        x = x.reshape(-1, nchan).mean(axis=1)
    duration = nframes / float(sr)
    return duration, sr, _mfcc_from_pcm(x, sr, n_mfcc)


def _mfcc_from_pcm(x: np.ndarray, sr: int, n_mfcc: int) -> np.ndarray:
    """mono float PCM -> mean MFCC vector (the _wav_features chain,
    factored out so decoded Layer II audio shares it — ops/mp2.py)."""
    frame, hop = 1024, 512
    if len(x) < frame:
        x = np.pad(x, (0, frame - len(x)))
    nf = 1 + (len(x) - frame) // hop
    idx = np.arange(frame)[None, :] + hop * np.arange(nf)[:, None]
    frames = x[idx] * np.hanning(frame)
    spec = np.abs(np.fft.rfft(frames, axis=1)) ** 2  # (nf, frame//2+1)

    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def imel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    n_mels = 26
    pts = imel(np.linspace(mel(0.0), mel(sr / 2.0), n_mels + 2))
    bins = np.floor((frame + 1) * pts / sr).astype(int)
    fb = np.zeros((n_mels, spec.shape[1]))
    for m in range(1, n_mels + 1):
        lo, ce, hi = bins[m - 1], bins[m], bins[m + 1]
        for k in range(lo, min(ce, fb.shape[1])):
            fb[m - 1, k] = (k - lo) / max(ce - lo, 1)
        for k in range(ce, min(hi, fb.shape[1])):
            fb[m - 1, k] = (hi - k) / max(hi - ce, 1)
    loge = np.log(spec @ fb.T + 1e-10)  # (nf, n_mels)
    n = np.arange(n_mels)
    dct = np.cos(np.pi / n_mels * (n[None, :] + 0.5) * np.arange(n_mfcc)[:, None])
    mfcc = (dct @ loge.T).mean(axis=1)  # (n_mfcc,)
    return mfcc.astype(np.float32)


# MPEG-1/2/2.5 audio frame-header tables (ISO 11172-3 / 13818-3, public):
# bitrate kbps by [version_group][layer][index], sample rates by version
_MP3_BITRATE = {
    (1, 3): [0, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320],
    (1, 2): [0, 32, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384],
    (1, 1): [0, 32, 64, 96, 128, 160, 192, 224, 256, 288, 320, 352, 384, 416, 448],
    (2, 3): [0, 8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 144, 160],
    (2, 2): [0, 8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 144, 160],
    (2, 1): [0, 32, 48, 56, 64, 80, 96, 112, 128, 144, 160, 176, 192, 224, 256],
}
_MP3_RATES = {3: [44100, 48000, 32000], 2: [22050, 24000, 16000], 0: [11025, 12000, 8000]}


def _vbr_header_frames(data: bytes, pos: int, flen: int, ver_bits: int,
                       chan_mode: int) -> int | None:
    """Frame count from a Xing/Info or VBRI VBR header in the first frame,
    or None.  Layouts are the public de-facto standard: Xing/Info sits
    right after the side info (MPEG1: 17 B mono / 32 B stereo; MPEG2/2.5:
    9/17), magic + 4-byte big-endian flags, frames field when flags bit 0
    is set.  VBRI (Fraunhofer) sits at a fixed 32 bytes past the header:
    magic, version(2), delay(2), quality(2), bytes(4), frames(4)."""
    end = min(pos + flen, len(data))
    if ver_bits == 3:  # MPEG1
        side = 17 if chan_mode == 3 else 32
    else:
        side = 9 if chan_mode == 3 else 17
    xoff = pos + 4 + side
    if xoff + 12 <= end and data[xoff : xoff + 4] in (b"Xing", b"Info"):
        flags = int.from_bytes(data[xoff + 4 : xoff + 8], "big")
        if flags & 1:
            return int.from_bytes(data[xoff + 8 : xoff + 12], "big")
        return None
    voff = pos + 4 + 32
    if voff + 18 <= end and data[voff : voff + 4] == b"VBRI":
        return int.from_bytes(data[voff + 14 : voff + 18], "big")
    return None


def skip_id3v2(data: bytes) -> int:
    """Offset of the first byte after a leading ID3v2 tag, or 0 when the
    data does not start with one.  The tag size is the 10-byte header's
    4-byte synchsafe integer (7 bits per byte; bit 7 of each is ignored)."""
    if data[:3] != b"ID3" or len(data) < 10:
        return 0
    size = 0
    for b in data[6:10]:
        size = (size << 7) | (b & 0x7F)
    return 10 + size


def _mpeg_frames(data: bytes, max_frames: int):
    """The MPEG-audio frame-header walk (no payload decode) that both
    mp3_stream_info and mp3_frame_envelope consume.  Yields
    (pos, flen, samples, rate, bitrate, declared) for each COMPLETE frame
    in stream order, bitrate in bits/s.

    Skips a leading ID3v2 tag and resyncs byte by byte past garbage and
    invalid headers (reserved version or layer, free or bad bitrate,
    reserved rate, a length of 4 bytes or less); a truncated final frame
    (header present, payload cut) ends the walk.  ``declared`` is the
    frame count of a Xing/Info or VBRI header (None when absent or 0),
    probed on the first frame and, after a frame that declares one, on
    the next.  A declaring frame is not audio: the walk stops after
    ``max_frames`` frames that declare nothing (the walk cap, a DoS
    guard)."""
    pos = skip_id3v2(data)
    n = len(data)
    audio = 0
    probe = True
    while pos + 4 <= n and audio < max_frames:
        b0, b1 = data[pos], data[pos + 1]
        if b0 != 0xFF or (b1 & 0xE0) != 0xE0:
            pos += 1  # resync
            continue
        ver_bits = (b1 >> 3) & 3     # 3=MPEG1, 2=MPEG2, 0=MPEG2.5
        layer_bits = (b1 >> 1) & 3   # 3=L1, 2=L2, 1=L3
        if ver_bits == 1 or layer_bits == 0:
            pos += 1
            continue
        b2 = data[pos + 2]
        br_idx = (b2 >> 4) & 15
        sr_idx = (b2 >> 2) & 3
        padding = (b2 >> 1) & 1
        if br_idx in (0, 15) or sr_idx == 3:
            pos += 1
            continue
        layer = 4 - layer_bits  # 1/2/3
        vgroup = 1 if ver_bits == 3 else 2
        bitrate = _MP3_BITRATE[(vgroup, layer)][br_idx] * 1000
        rate = _MP3_RATES[ver_bits][sr_idx]
        if layer == 1:
            flen = (12 * bitrate // rate + padding) * 4
            samples = 384
        else:
            samples = 1152 if (layer == 2 or vgroup == 1) else 576
            flen = samples * bitrate // (8 * rate) + padding
        if flen <= 4:
            pos += 1
            continue
        if pos + flen > n:
            return  # truncated final frame: header present, payload cut
        declared = None
        if probe:
            chan_mode = (data[pos + 3] >> 6) & 3
            declared = _vbr_header_frames(data, pos, flen, ver_bits, chan_mode) or None
            probe = declared is not None
        if declared is None:
            audio += 1
        yield pos, flen, samples, rate, bitrate, declared
        pos += flen


def _unwalked_tail_s(n: int, first: int, end: int, duration: float) -> float:
    """Seconds of the bytes after a capped walk (``end`` to ``n``), at the
    walked frames' mean bytes/sec: exact for CBR, close for VBR."""
    return (n - end) * duration / max(end - first, 1)


def mp3_stream_info(data: bytes, max_frames: int = 200_000):
    """REAL MPEG-audio frame-header walk (no payload decode): returns
    (duration_s, sample_rate, n_frames).  Skips a leading ID3v2 tag,
    resyncs on garbage, sums per-frame durations so VBR streams report
    the true length.  Raises ValueError if no valid frame is found.

    If the FIRST frame carries a Xing/Info or VBRI header (the standard
    VBR duration headers), the declared frame count gives the exact
    duration in O(1) — the multi-megabyte payload walk is skipped
    entirely, which is the behavior that matters at corpus scale.

    Only COMPLETE frames count (a truncated final frame is ignored);
    if the max_frames walk cap (a DoS guard) is hit, the remaining
    bytes' duration is extrapolated from the walked frames' mean
    bytes/sec, so very long streams still report ~the full length."""
    frames = 0
    duration = 0.0
    rate_out = first = end = 0
    for pos, flen, samples, rate, _bitrate, declared in _mpeg_frames(data, max_frames):
        if declared is not None:
            # exact VBR duration from the header; the Xing/VBRI frame
            # itself is not audio, its count covers the rest
            return declared * samples / rate, rate, declared
        if frames == 0:
            first = pos
        frames += 1
        duration += samples / rate
        rate_out = rate
        end = pos + flen
    if frames == 0:
        raise ValueError("no mpeg audio frames")
    if frames >= max_frames:
        duration += _unwalked_tail_s(len(data), first, end, duration)
    return duration, rate_out, frames


def mp3_frame_envelope(data: bytes, max_frames: int = 200_000):
    """REAL compressed-domain features from an MPEG-audio stream: the
    per-frame bitrate envelope, no payload decode.

    Walks every frame header (the mp3_stream_info walk) and records each
    frame's declared bitrate in kbps.  For VBR/ABR streams — what
    encoders emit by default for web audio — the per-frame bit
    allocation tracks the signal's spectral complexity, so the envelope
    is a genuine content feature (the MIR literature's compressed-domain
    audio descriptors); for CBR it degrades to a flat line, honestly
    reflecting that a CBR header walk carries no per-frame signal.

    Returns (duration_s, sample_rate, n_frames, kbps) with kbps a
    float32 array of per-frame bitrates in walk order.  A first-frame
    Xing/Info/VBRI declared count still provides the exact duration (the
    declared count covers frames the walk cap may skip), but the walk
    runs regardless — the envelope IS the point here, unlike
    mp3_stream_info's O(1) fast path.  Raises ValueError when no valid
    frame exists."""
    frames = 0
    duration = 0.0
    rate_out = first = end = 0
    declared_dur = None
    kbps: list[float] = []
    for pos, flen, samples, rate, bitrate, declared in _mpeg_frames(data, max_frames):
        rate_out = rate
        if declared is not None:
            # the Xing/VBRI frame itself is not audio: skip it in the
            # envelope too — but keep its rate as the fallback so a
            # stream with a declared count and no walkable audio frames
            # still reports the real sample rate (parity with
            # mp3_stream_info's O(1) path)
            declared_dur = declared * samples / rate
            continue
        if frames == 0:
            first = pos
        frames += 1
        duration += samples / rate
        kbps.append(bitrate / 1000.0)
        end = pos + flen
    if frames == 0 and declared_dur is None:
        raise ValueError("no mpeg audio frames")
    if declared_dur is not None:
        duration = declared_dur
    elif frames >= max_frames:
        duration += _unwalked_tail_s(len(data), first, end, duration)
    return duration, rate_out, frames, np.asarray(kbps, np.float32)


def _mp3_envelope_vector(kbps: np.ndarray, n_dims: int) -> np.ndarray:
    """Fixed-length descriptor from a per-frame kbps envelope:
    [mean/320, coeff-of-variation, then (n_dims-2) temporal segment
    means normalized by the overall mean].  Deterministic, duration
    invariant, defined for any frame count >= 1."""
    if len(kbps) == 0:
        return np.zeros(n_dims, np.float32)
    mean = float(kbps.mean())
    denom = max(mean, 1e-9)
    out = np.empty(n_dims, np.float32)
    out[0] = mean / 320.0
    out[1] = float(kbps.std()) / denom
    nb = n_dims - 2
    if nb > 0:
        segs = np.array_split(kbps, nb)
        out[2:] = [
            (float(s.mean()) / denom) if len(s) else 1.0 for s in segs
        ]
    return out


class AudioFeatureStage:
    """binary audio column -> (id, duration_s, sample_rate, mfcc_mean,
    decode_status).

    WAV PCM and MPEG-1 Layer II payloads decode for real (_wav_features,
    ops/mp2.py; status ``ok``).  Other MPEG audio (Layer III, and Layer II
    streams the decoder rejects, such as joint stereo) gets REAL
    duration/sample-rate metadata AND a real compressed-domain feature
    vector from the frame-header walk (mp3_frame_envelope: the per-frame
    bitrate envelope — a genuine content signal for the VBR streams web
    encoders emit; flat for CBR, honestly), with status ``envelope``.  The
    feature rides in the ``mfcc_mean`` slot with the same (n_mfcc,)
    float32 shape; true spectral MFCCs would need the Layer III payload
    decode, which stays DATA-gated (Annex B Huffman/window tables, see
    module docstring).  Other formats and 24-bit PCM give null features
    with status ``unsupported``; damaged payloads status ``corrupt``."""

    def __init__(self, n_mfcc: int = 13, payload_col: str = "audio",
                 id_col: str = "doc_id"):
        self.n_mfcc = n_mfcc
        self.payload_col, self.id_col = payload_col, id_col

    def _decode(self, p: bytes):
        from marginalia_ray.ops.mp2 import mp2_mfcc, sniff_layer

        if p[:4] == b"RIFF":
            d, s, m = _wav_features(p, self.n_mfcc)
            return "ok", float(d), int(s), m.tolist()
        if not (p[:3] == b"ID3" or (len(p) > 1 and p[0] == 0xFF and (p[1] & 0xE0) == 0xE0)):
            raise UnsupportedFormat("audio: only RIFF/WAV PCM and MPEG audio decode here")
        if sniff_layer(p) == 2:
            try:
                d, s, m = mp2_mfcc(p, self.n_mfcc)
                return "ok", float(d), int(s), m.tolist()
            except ValueError:
                pass  # the frame-header walk below still reads it
        d, s, _nf, kbps = mp3_frame_envelope(p)
        return "envelope", float(d), int(s), _mp3_envelope_vector(kbps, self.n_mfcc).tolist()

    def __call__(self, batch: pa.Table) -> pa.Table:
        (dur, sr, mfcc), status = _decode_columns(
            batch[self.payload_col].to_pylist(), self._decode, 3
        )
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "duration_s": pa.array(dur, pa.float64()),
                "sample_rate": pa.array(sr, pa.int32()),
                "mfcc_mean": pa.array(mfcc, pa.list_(pa.float32())),
                "decode_status": pa.array(status, pa.string()),
            }
        )


def _riff_chunks(data: bytes, start: int, end: int):
    """Iterate (fourcc, payload_start, payload_size) over a RIFF chunk run.
    Chunks are word-aligned (odd sizes padded by one byte)."""
    pos = start
    while pos + 8 <= end:
        fcc = data[pos : pos + 4]
        size = int.from_bytes(data[pos + 4 : pos + 8], "little")
        body = pos + 8
        if body + size > end:
            raise ValueError("truncated riff chunk")
        yield fcc, body, size
        pos = body + size + (size & 1)


def decode_avi_frames(data: bytes, frame_indices=None, sample_fps=None,
                      max_frames=None):
    """REAL decoder for uncompressed (BI_RGB 24-bit 'DIB ') AVI video:
    RIFF('AVI ') -> LIST hdrl (avih main header, strl/strh+strf stream
    format) -> LIST movi ('00db'/'00dc' raw bottom-up BGR frames with
    4-byte row padding, the BMP pixel layout).

    Returns (width, height, fps, n_frames, frames) where frames is a dict
    {frame_index: HxWx3 uint8 RGB} for the requested indices (all frames
    when frame_indices is None).  Alternatively pass sample_fps (+ an
    optional max_frames cap): frames are sampled at ~sample_fps during
    the SAME movi walk that counts them — one container parse instead of
    a count pass plus a decode pass.  Raises UnsupportedFormat for
    non-AVI payloads and for codecs other than DIB and MJPG (H.264,
    VP9, ...), and ValueError for damaged files."""
    import struct

    if data[:4] != b"RIFF" or data[8:12] != b"AVI ":
        raise UnsupportedFormat("not avi")
    want = None if frame_indices is None else set(int(i) for i in frame_indices)

    us_per_frame = total_frames = width = height = None
    bpp, compression = None, None
    movi = None
    for fcc, body, size in _riff_chunks(data, 12, len(data)):
        if fcc != b"LIST":
            continue
        list_type = data[body : body + 4]
        if list_type == b"hdrl":
            for f2, b2, s2 in _riff_chunks(data, body + 4, body + size):
                if f2 == b"avih" and s2 >= 40:
                    us_per_frame, = struct.unpack_from("<I", data, b2)
                    total_frames, = struct.unpack_from("<I", data, b2 + 16)
                    width, height = struct.unpack_from("<II", data, b2 + 32)
                elif f2 == b"LIST" and data[b2 : b2 + 4] == b"strl":
                    # only the VIDEO stream's strf is a BITMAPINFOHEADER;
                    # an audio strl's WAVEFORMATEX would clobber bpp/
                    # compression with garbage (real AVIs carry audio)
                    is_vids = False
                    for f3, b3, s3 in _riff_chunks(data, b2 + 4, b2 + s2):
                        if f3 == b"strh" and s3 >= 4:
                            is_vids = data[b3 : b3 + 4] == b"vids"
                        elif f3 == b"strf" and s3 >= 20 and is_vids:
                            # BITMAPINFOHEADER
                            bpp, = struct.unpack_from("<H", data, b3 + 14)
                            compression, = struct.unpack_from("<I", data, b3 + 16)
        elif list_type == b"movi":
            movi = (body + 4, body + size)
    if width is None or movi is None:
        raise ValueError("avi: missing hdrl/movi")
    MJPG = 0x47504A4D  # 'MJPG' little-endian
    if compression == MJPG:
        mode = "mjpg"
    elif compression == 0 and bpp == 24:
        mode = "dib"
    else:
        raise UnsupportedFormat("avi: unsupported codec (only DIB and MJPG decode natively)")

    fps_val = (1_000_000.0 / us_per_frame) if us_per_frame else 0.0
    step = None
    if sample_fps is not None:
        step = max(1, int(round(fps_val / max(sample_fps, 1e-9))) or 1)

    row = (width * 3 + 3) & ~3
    frames: dict[int, np.ndarray] = {}
    idx = 0
    for fcc, body, size in _riff_chunks(data, movi[0], movi[1]):
        if fcc[2:4] not in (b"db", b"dc"):
            continue
        take = (
            idx % step == 0 and (max_frames is None or len(frames) < max_frames)
            if step is not None
            else (want is None or idx in want)
        )
        if take:
            if mode == "mjpg":
                from marginalia_ray.ops.jpeg import decode_jpeg

                fw, fh, fc, px = decode_jpeg(bytes(data[body : body + size]))
                if fc == 1:
                    px = np.repeat(px, 3, axis=2)
                frames[idx] = px
            else:
                if size < row * height:
                    raise ValueError("avi: truncated frame")
                arr = np.frombuffer(data, np.uint8, count=row * height, offset=body)
                px = arr.reshape(height, row)[:, : width * 3].reshape(height, width, 3)
                frames[idx] = np.ascontiguousarray(px[::-1, :, ::-1])  # bottom-up BGR
        idx += 1
    fps = 1e6 / us_per_frame if us_per_frame else 0.0
    return int(width), int(height), float(fps), idx, frames


class VideoFrameSampleStage:
    """binary video column -> one row per sampled frame:
    (id, frame_no, ts_s, frame_embedding, decode_status).

    AVI payloads with uncompressed ('DIB ' BI_RGB) or MJPG (per-frame
    baseline JPEG) streams decode for real (decode_avi_frames) with frame
    sampling at ~fps_sample and a real content embedding per frame
    (status ``ok``).  A payload that does not decode gives ONE row with
    null frame columns and status ``unsupported`` (other containers,
    inter-frame codecs such as H.264/VP9), ``corrupt`` (a damaged
    container or frame) or ``missing`` (a null payload)."""

    def __init__(self, fps_sample: float = 0.2, max_frames: int = 8,
                 embed_dim: int = 32, payload_col: str = "video",
                 id_col: str = "doc_id"):
        self.fps_sample, self.max_frames = fps_sample, max_frames
        self.embed_dim = embed_dim
        self.payload_col, self.id_col = payload_col, id_col

    def _frames(self, p: bytes):
        """[(frame_no, ts_s, embedding)] of the sampled frames."""
        import struct
        import zlib

        try:
            # single container walk: frames sampled at ~fps_sample while
            # the movi chunks are counted
            _w, _h, fps, n_frames, frames = decode_avi_frames(
                p, sample_fps=self.fps_sample, max_frames=self.max_frames
            )
        except (IndexError, KeyError, struct.error, zlib.error) as ex:
            raise ValueError(f"avi: {ex}") from ex
        if n_frames == 0:
            raise ValueError("avi: no frames")
        return [
            (fi, round(fi / fps, 3) if fps else 0.0,
             _image_embedding(frames[fi], self.embed_dim).tolist())
            for fi in sorted(frames)
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        ids = batch[self.id_col].to_pylist()
        out_id, out_fno, out_ts, out_emb, out_status = [], [], [], [], []
        for i, p in zip(ids, payloads):
            status, feats = _try_decode(lambda p: ("ok", self._frames(p)), p)
            rows = feats[0] if feats else [(None, None, None)]
            for fno, ts, emb in rows:
                out_id.append(i)
                out_fno.append(fno)
                out_ts.append(ts)
                out_emb.append(emb)
                out_status.append(status)
        return pa.table(
            {
                self.id_col: pa.array(out_id),
                "frame_no": pa.array(out_fno, pa.int32()),
                "ts_s": pa.array(out_ts, pa.float64()),
                "frame_embedding": pa.array(out_emb, pa.list_(pa.float32())),
                "decode_status": pa.array(out_status, pa.string()),
            }
        )


def _bilinear_resize(px: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Vectorized bilinear resample of an (h, w, c) uint8 image to
    (out_h, out_w, c) — pixel-center aligned (the OpenCV/PIL convention),
    whole-plane numpy gathers, no Python per-pixel work."""
    h, w = px.shape[:2]
    c = px.shape[2] if px.ndim == 3 else 1
    img = px.reshape(h, w, c).astype(np.float32)
    # source coordinates of each output pixel center
    sy = (np.arange(out_h, dtype=np.float32) + 0.5) * (h / out_h) - 0.5
    sx = (np.arange(out_w, dtype=np.float32) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(sy), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(sx), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(sy - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(sx - x0, 0.0, 1.0)[None, :, None]
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bot = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    out = top * (1 - wy) + bot * wy
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


class ImageResizeStage:
    """binary image column -> (id, width, height, channels, pixels,
    decode_status) with the decoded image bilinearly resampled to
    (out_width, out_height) — the thumbnail / model-input normalization
    step of a multimodal training pipeline.  `pixels` is the raw
    interleaved uint8 buffer (binary column, out_h*out_w*channels bytes):
    a fixed-shape tensor ready for batched model input, kept opaque to
    Arrow like every other payload in this module.

    Decodes the same real formats as ImageDecodeStage; a payload that
    does not decode gives null width/height/channels/pixels with status
    ``unsupported`` or ``corrupt``."""

    def __init__(self, out_width: int = 64, out_height: int = 64,
                 payload_col: str = "image", id_col: str = "doc_id"):
        self.out_w, self.out_h = int(out_width), int(out_height)
        self.payload_col, self.id_col = payload_col, id_col

    def _resize(self, p: bytes):
        pw, ph, pc, px = decode_image_payload(p)
        px = np.asarray(px, dtype=np.uint8).reshape(int(ph), int(pw), int(pc))
        out = _bilinear_resize(px, self.out_w, self.out_h)
        return "ok", self.out_w, self.out_h, int(pc), out.tobytes()

    def __call__(self, batch: pa.Table) -> pa.Table:
        (w, h, ch, bufs), status = _decode_columns(
            batch[self.payload_col].to_pylist(), self._resize, 4
        )
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "width": pa.array(w, pa.int32()),
                "height": pa.array(h, pa.int32()),
                "channels": pa.array(ch, pa.int32()),
                "pixels": pa.array(bufs, pa.binary()),
                "decode_status": pa.array(status, pa.string()),
            }
        )


def _actor_pool(ds, stage, concurrency, batch_size, stage_kwargs):
    """``stage`` over ``ds`` in an actor pool of small batches (payload
    rows are fat); the default pool is one actor short of the cluster's
    CPUs, at least two."""
    if concurrency is None:
        concurrency = max(2, int(ray.cluster_resources().get("CPU", 8)) - 1)
    return ds.map_batches(
        stage,
        fn_constructor_kwargs=stage_kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def resize_images(ds, out_width: int = 64, out_height: int = 64,
                  concurrency: int | None = None, batch_size: int = 16,
                  **stage_kwargs):
    """Actor-pool bilinear image resize over a binary column (small
    batches: fat rows in AND out — out rows are out_w*out_h*c bytes)."""
    return _actor_pool(
        ds, ImageResizeStage, concurrency, batch_size,
        dict(out_width=out_width, out_height=out_height, **stage_kwargs),
    )


def decode_images(ds, concurrency: int | None = None, batch_size: int = 16, **stage_kwargs):
    """Actor-pool image decode over a binary column (small batches: fat rows)."""
    return _actor_pool(ds, ImageDecodeStage, concurrency, batch_size, stage_kwargs)


def audio_features(ds, concurrency: int | None = None, batch_size: int = 16, **stage_kwargs):
    return _actor_pool(ds, AudioFeatureStage, concurrency, batch_size, stage_kwargs)


def sample_video_frames(ds, concurrency: int | None = None, batch_size: int = 8, **stage_kwargs):
    return _actor_pool(ds, VideoFrameSampleStage, concurrency, batch_size, stage_kwargs)


# ---- perceptual hash (pHash) + hamming near-dup pairs ----------------------

_PHASH_SIZE = 32  # DCT input side (decoded image is resampled to 32x32)
_PHASH_LOW = 8  # low-frequency block side -> 64 hash bits


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix (the JPEG/pHash transform)."""
    k = np.arange(n, dtype=np.float64)
    m = np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    m[0] *= 1.0 / np.sqrt(2.0)
    return m * np.sqrt(2.0 / n)


_DCT32 = _dct_matrix(_PHASH_SIZE)


def compute_phash(data: bytes) -> int:
    """64-bit DCT perceptual hash — the classic pHash construction
    (decode -> grayscale -> bilinear 32x32 -> 2-D DCT-II -> top-left
    8x8 low-frequency block -> one bit per coefficient above the
    block's median, DC excluded from the median so a uniform
    brightness shift flips no bit).  Raises ValueError for payloads
    decode_image_payload cannot handle."""
    w, h, c, px = decode_image_payload(data)
    px = np.asarray(px, np.uint8).reshape(int(h), int(w), int(c))
    small = (
        _bilinear_resize(px, _PHASH_SIZE, _PHASH_SIZE)
        .astype(np.float64)
        .mean(axis=2)
    )
    d = _DCT32 @ small @ _DCT32.T
    # round off float noise: images with sparse spectra (flat regions,
    # pure gradients) otherwise compare ~1e-13 accumulation noise against
    # a noise-level median, making the low bits run-to-run fragile
    low = np.round(d[:_PHASH_LOW, :_PHASH_LOW].reshape(-1), 6)
    med = float(np.median(low[1:]))
    bits = low > med
    return int.from_bytes(np.packbits(bits).tobytes(), "big")


class ImagePhashStage:
    """binary image column -> (id, phash, decode_status) for
    near-duplicate image detection.  Real pHash for every natively
    decodable format; a payload that does not decode gets a null phash
    with status ``unsupported`` or ``corrupt``."""

    def __init__(self, payload_col: str = "image", id_col: str = "doc_id"):
        self.payload_col, self.id_col = payload_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        (ph,), status = _decode_columns(
            batch[self.payload_col].to_pylist(),
            lambda p: ("ok", compute_phash(p)),
            1,
        )
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "phash": pa.array(ph, pa.uint64()),
                "decode_status": pa.array(status, pa.string()),
            }
        )


def image_phash(ds, concurrency: int | None = None, batch_size: int = 16,
                **stage_kwargs):
    """Actor-pool perceptual hashing over a binary image column."""
    return _actor_pool(ds, ImagePhashStage, concurrency, batch_size, stage_kwargs)


def phash_pairs(ds, max_hamming: int = 3, payload_col: str = "image",
                id_col: str = "doc_id", max_docs_per_chunk: int = 1000,
                **stage_kwargs):
    """Near-duplicate IMAGE pairs by pHash hamming distance <=
    max_hamming — the image analogue of ops/dedup.simhash_pairs, and it
    reuses the same machinery: 16-bit pigeonhole chunk bucketing (exact
    for max_hamming <= 3), dedup's salted vectorized pair emission, a
    vectorized popcount verify, and a (doc_a, doc_b) min-dedup.  Chunk
    buckets past `max_docs_per_chunk` are skipped (the DoS-guard
    convention; run exact byte dedup first on mass-duplicate corpora).
    Images that do not decode have no pHash and pair with nothing.

    Output: (doc_a, doc_b, hamming), doc_a < doc_b."""
    from marginalia_ray.ops.dedup import _emit_pairs_per_key

    U64 = np.uint64
    hashed = image_phash(
        ds, payload_col=payload_col, id_col=id_col, **stage_kwargs
    )

    def _explode_chunks(batch: pa.Table) -> pa.Table:
        batch = batch.filter(batch["phash"].is_valid())  # undecoded images
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        ph = batch["phash"].to_numpy(zero_copy_only=False)
        n = len(ids)
        out_ids = np.tile(ids, 4)
        out_ph = np.tile(ph, 4)
        chunk_no = np.repeat(np.arange(4, dtype=np.int32), n)
        chunk = (
            (out_ph >> (chunk_no.astype(np.uint64) * U64(16))) & U64(0xFFFF)
        ).astype(np.uint32)
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "phash": pa.array(out_ph, pa.uint64()),
                "chunk_no": pa.array(chunk_no, pa.int32()),
                "chunk": pa.array(chunk, pa.uint32()),
            }
        )

    def _hamming(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "hamming": pa.array([], pa.int64()),
                }
            )
        x = batch["phash_a"].to_numpy(zero_copy_only=False) ^ batch[
            "phash_b"
        ].to_numpy(zero_copy_only=False)
        ham = np.zeros(len(x), dtype=np.int64)
        for _ in range(64):
            ham += (x & U64(1)).astype(np.int64)
            x = x >> U64(1)
        m = ham <= max_hamming
        return pa.table(
            {
                "doc_a": batch["doc_a"].filter(pa.array(m)),
                "doc_b": batch["doc_b"].filter(pa.array(m)),
                "hamming": pa.array(ham[m]),
            }
        )

    chunked = hashed.map_batches(_explode_chunks, batch_format="pyarrow")
    pairs = (
        _emit_pairs_per_key(chunked, ["chunk_no", "chunk"], extra_col="phash",
                            max_group=max_docs_per_chunk)
        .map_batches(_hamming, batch_format="pyarrow")
        .groupby(["doc_a", "doc_b"])
        .min("hamming")
    )
    return pairs.rename_columns({"min(hamming)": "hamming"})
