"""Baseline JPEG (JFIF) decoder — stdlib + numpy only.

Supports the overwhelmingly-common web case: baseline sequential DCT
(SOF0), 8-bit, grayscale or YCbCr with 4:4:4 / 4:2:2 / 4:2:0 chroma
sampling, restart markers (DRI/RSTn).  Progressive (SOF2), arithmetic
coding, 12-bit and hierarchical modes raise ops.multimodal's
UnsupportedFormat (a ValueError); damaged data raises a plain ValueError.

Decode pipeline: marker parse -> canonical Huffman tables (DHT) ->
entropy-decode MCUs (byte-stuffed bit reader) -> dequantize (DQT) ->
de-zigzag -> 8x8 IDCT (one einsum per component over all blocks, the
orthonormal DCT-II basis matrix) -> chroma upsample -> YCbCr->RGB.

The bit-level entropy decode is per-symbol Python (the only part that
cannot vectorize); everything after it is numpy over whole planes.  A
pixel-area bound rejects decompression bombs before any allocation, the
same guard the PNG decoder uses.

JPEG/JFIF is a public ITU-T T.81 / ISO 10918 format; the standard
Huffman and quantization tables below are Annex K of that spec.
"""

from __future__ import annotations

import struct

import numpy as np

from marginalia_ray.ops.multimodal import UnsupportedFormat

_MAX_PIXELS = 64 * 1024 * 1024

ZIGZAG = np.array([
     0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)

# orthonormal 8-point DCT-II basis: B[k, x] = c_k/2 * cos((2x+1)k pi/16)
_B = np.zeros((8, 8))
for _k in range(8):
    _ck = (1 / np.sqrt(2)) if _k == 0 else 1.0
    for _x in range(8):
        _B[_k, _x] = 0.5 * _ck * np.cos((2 * _x + 1) * _k * np.pi / 16)


class HuffTable:
    """Canonical Huffman table from a DHT segment: (code_len, code) -> symbol,
    plus the per-length first-code/first-index arrays for fast stepping."""

    __slots__ = ("min_code", "max_code", "val_ptr", "values")

    def __init__(self, counts: list[int], values: bytes):
        self.values = values
        self.min_code = [0] * 17
        self.max_code = [-1] * 17
        self.val_ptr = [0] * 17
        code = 0
        k = 0
        for ln in range(1, 17):
            n = counts[ln - 1]
            if n:
                self.val_ptr[ln] = k
                self.min_code[ln] = code
                code += n
                k += n
                self.max_code[ln] = code - 1
            else:
                self.max_code[ln] = -1
            code <<= 1


class _BitReader:
    """MSB-first bit reader over entropy-coded data with 0xFF00 stuffing;
    stops at any non-RST marker."""

    __slots__ = ("data", "pos", "acc", "nbits")

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        self.acc = 0
        self.nbits = 0

    def _fill(self) -> None:
        d = self.data
        while self.nbits <= 24:
            if self.pos >= len(d):
                self.acc = (self.acc << 8) & 0xFFFFFFFF
                self.nbits += 8  # pad with zeros past the end (spec behavior)
                continue
            b = d[self.pos]
            if b == 0xFF:
                nxt = d[self.pos + 1] if self.pos + 1 < len(d) else 0xD9
                if nxt == 0x00:
                    self.pos += 2
                elif 0xD0 <= nxt <= 0xD7:
                    # restart marker: caller resyncs via skip_rst()
                    self.acc = (self.acc << 8) & 0xFFFFFFFF
                    self.nbits += 8
                    continue
                else:
                    # real marker (EOI/next segment): pad
                    self.acc = (self.acc << 8) & 0xFFFFFFFF
                    self.nbits += 8
                    continue
            else:
                self.pos += 1
            self.acc = ((self.acc << 8) | b) & 0xFFFFFFFF
            self.nbits += 8

    def bit(self) -> int:
        if self.nbits == 0:
            self._fill()
        self.nbits -= 1
        return (self.acc >> self.nbits) & 1

    def bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bit()
        return v

    def skip_to_rst(self) -> None:
        """Align to byte boundary and consume one RSTn marker."""
        self.acc = 0
        self.nbits = 0
        d = self.data
        while self.pos + 1 < len(d):
            if d[self.pos] == 0xFF and 0xD0 <= d[self.pos + 1] <= 0xD7:
                self.pos += 2
                return
            self.pos += 1


def _decode_huff(r: _BitReader, t: HuffTable) -> int:
    code = 0
    for ln in range(1, 17):
        code = (code << 1) | r.bit()
        if code <= t.max_code[ln]:
            return t.values[t.val_ptr[ln] + code - t.min_code[ln]]
    raise ValueError("jpeg: bad huffman code")


def _extend(v: int, n: int) -> int:
    """T.81 EXTEND: map n-bit magnitude to signed coefficient."""
    return v if v >= (1 << (n - 1)) else v - (1 << n) + 1


def decode_jpeg(data: bytes):
    """(w, h, channels, pixels uint8 HxWxC) for baseline JPEG.
    channels is 1 (grayscale) or 3 (RGB from YCbCr)."""
    if data[:2] != b"\xff\xd8":
        raise UnsupportedFormat("not jpeg")
    pos = 2
    qt: dict[int, np.ndarray] = {}
    huff_dc: dict[int, HuffTable] = {}
    huff_ac: dict[int, HuffTable] = {}
    frame = None  # (w, h, comps) with comps = [(cid, hsamp, vsamp, tq)]
    restart_interval = 0

    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            raise ValueError("jpeg: lost marker sync")
        marker = data[pos + 1]
        if marker == 0xD9:  # EOI
            break
        seg_len = struct.unpack_from(">H", data, pos + 2)[0]
        body = pos + 4
        end = pos + 2 + seg_len
        if marker == 0xDB:  # DQT
            p = body
            while p < end:
                pq, tq = data[p] >> 4, data[p] & 15
                p += 1
                if pq:
                    raise UnsupportedFormat("jpeg: 16-bit quant tables unsupported")
                qt[tq] = np.frombuffer(data, np.uint8, 64, p).astype(np.int32)
                p += 64
        elif marker == 0xC4:  # DHT
            p = body
            while p < end:
                tc, th = data[p] >> 4, data[p] & 15
                counts = list(data[p + 1 : p + 17])
                nv = sum(counts)
                values = data[p + 17 : p + 17 + nv]
                (huff_dc if tc == 0 else huff_ac)[th] = HuffTable(counts, values)
                p += 17 + nv
        elif marker == 0xC0:  # SOF0 baseline
            prec = data[body]
            if prec != 8:
                raise UnsupportedFormat("jpeg: only 8-bit baseline supported")
            h, w = struct.unpack_from(">HH", data, body + 1)
            nc = data[body + 5]
            if nc not in (1, 3):
                raise UnsupportedFormat("jpeg: unsupported component count")
            if w * h > _MAX_PIXELS:
                raise UnsupportedFormat("jpeg: image too large")
            comps = []
            for c in range(nc):
                o = body + 6 + 3 * c
                cid = data[o]
                hs, vs = data[o + 1] >> 4, data[o + 1] & 15
                comps.append((cid, hs, vs, data[o + 2]))
            frame = (w, h, comps)
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA,
                        0xCB, 0xCD, 0xCE, 0xCF):
            raise UnsupportedFormat("jpeg: non-baseline SOF unsupported")
        elif marker == 0xDD:  # DRI
            restart_interval = struct.unpack_from(">H", data, body)[0]
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise ValueError("jpeg: SOS before SOF")
            ns = data[body]
            scan = []
            for c in range(ns):
                cs = data[body + 1 + 2 * c]
                td, ta = data[body + 2 + 2 * c] >> 4, data[body + 2 + 2 * c] & 15
                scan.append((cs, td, ta))
            return _decode_scan(
                data, end, frame, scan, qt, huff_dc, huff_ac, restart_interval
            )
        pos = end
    raise ValueError("jpeg: no scan data")


def _decode_scan(data, pos, frame, scan, qt, huff_dc, huff_ac, restart_interval):
    w, h, comps = frame
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    mcu_w, mcu_h = 8 * hmax, 8 * vmax
    mcus_x = (w + mcu_w - 1) // mcu_w
    mcus_y = (h + mcu_h - 1) // mcu_h

    by_id = {c[0]: c for c in comps}
    order = []  # (comp_index, hs, vs, tq, dc_table, ac_table)
    for ci, (cs, td, ta) in enumerate(scan):
        cid, hs, vs, tq = by_id[cs]
        order.append((ci, hs, vs, tq, huff_dc[td], huff_ac[ta]))

    # coefficient storage per component: (blocks_y, blocks_x, 64)
    coefs = []
    for ci, hs, vs, tq, _, _ in order:
        coefs.append(np.zeros((mcus_y * vs, mcus_x * hs, 64), dtype=np.int32))

    r = _BitReader(data, pos)
    pred = [0] * len(order)
    mcu_count = 0
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if restart_interval and mcu_count and mcu_count % restart_interval == 0:
                r.skip_to_rst()
                pred = [0] * len(order)
            for oi, (ci, hs, vs, tq, tdc, tac) in enumerate(order):
                for byy in range(vs):
                    for bxx in range(hs):
                        blk = coefs[oi][my * vs + byy, mx * hs + bxx]
                        # DC
                        s = _decode_huff(r, tdc)
                        diff = _extend(r.bits(s), s) if s else 0
                        pred[oi] += diff
                        blk[0] = pred[oi]
                        # AC
                        k = 1
                        while k < 64:
                            rs = _decode_huff(r, tac)
                            rr, ss = rs >> 4, rs & 15
                            if ss == 0:
                                if rr == 15:
                                    k += 16
                                    continue
                                break  # EOB
                            k += rr
                            if k > 63:
                                raise ValueError("jpeg: AC index overflow")
                            blk[k] = _extend(r.bits(ss), ss)
                            k += 1
            mcu_count += 1

    # dequantize + de-zigzag + IDCT, vectorized per component
    planes = []
    for oi, (ci, hs, vs, tq, _, _) in enumerate(order):
        c = coefs[oi] * qt[tq][None, None, :]
        dez = np.zeros_like(c)
        dez[:, :, ZIGZAG] = c
        by, bx = dez.shape[0], dez.shape[1]
        blocks = dez.reshape(by, bx, 8, 8).astype(np.float64)
        # spatial = B^T @ block @ B
        spatial = np.einsum("ku,yxkl,lv->yxuv", _B, blocks, _B) + 128.0
        plane = spatial.transpose(0, 2, 1, 3).reshape(by * 8, bx * 8)
        # upsample to full MCU grid resolution
        ry, rx = vmax // vs, hmax // hs
        if ry > 1 or rx > 1:
            plane = np.repeat(np.repeat(plane, ry, axis=0), rx, axis=1)
        planes.append(plane[: h, : w])

    if len(planes) == 1:
        px = np.clip(planes[0] + 0.5, 0, 255).astype(np.uint8)[:, :, None]
        return w, h, 1, np.ascontiguousarray(px)
    y, cb, cr = planes[0], planes[1] - 128.0, planes[2] - 128.0
    r_ = y + 1.402 * cr
    g_ = y - 0.344136 * cb - 0.714136 * cr
    b_ = y + 1.772 * cb
    px = np.clip(np.stack([r_, g_, b_], axis=2) + 0.5, 0, 255).astype(np.uint8)
    return w, h, 3, np.ascontiguousarray(px)
