"""Posting runs: the reverse index's one on-disk format, its encoder, its
file layout and its block decoder.  Nothing outside this module knows how a
run is laid out.

Replaces the reference's per-term static B-tree over (rankEncodedDocId, meta)
pairs (code/features-index/index-reverse/.../ReverseIndexFullReader.java:20-118,
.../btree/BTreeReader.java:52-91).  The reference semantics we preserve:
  * postings are sorted ascending by rank-encoded doc id (best rank first);
  * `retain` (semi-join) and `reject` (anti-join) against a candidate buffer;
  * per-term doc_freq ("numHits") read off the term directory;
  * a per-(term,doc) metadata gather for scoring.

A run holds every posting of one (shard, bucket), lexsorted by (term hash,
doc id).  `encode_run` cuts each term's list into blocks of BLOCK_SIZE
postings.  The value at a block start is the absolute doc id and the others
are deltas from the previous id, all varbyte-coded into one byte stream, so a
block decodes from its own bytes alone.  Per term, the terms directory
(`term_hash`, `doc_freq`, and the `offset` and `nbytes` of the term's slice
of the stream) is written by `segment.write_run` as terms.parquet.  A term's
blocks and metas follow the terms in order, so its first block and first
meta sit at the running sums of block counts and of doc_freq.

postings.bin (`write_postings`, `read_postings`):
    u64 len_deltas, u64 n_blocks, u64 n_metas   24-byte header
    u8[len_deltas]   the varbyte stream
    u64[n_blocks]    block_max: each block's last doc id (block-max skipping)
    u32[n_blocks]    block_off: each block's byte offset from its term's start
    u64[n_metas]     metas in posting order (full index; priority stores none)

`decode_blocks` is the one decoder from varbyte values to doc ids.  It takes
whole blocks and serves a term's whole list, a block-max subset of it, and a
whole bucket alike.  All paths are vectorized numpy, with no per-term or
per-block Python.
"""

from __future__ import annotations

import os

import numpy as np

U64 = np.uint64
BLOCK_SIZE = 128


def varbyte_encode_with_sizes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized LEB128-style varbyte: 7 data bits/byte, MSB = continuation.
    Returns (byte stream, bytes-per-value)."""
    v = np.asarray(values, dtype=U64)
    n = len(v)
    if n == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    # bytes needed per value: ceil(bitlen/7), min 1
    nbytes = np.ones(n, dtype=np.int64)
    x = v >> U64(7)
    while x.any():
        nbytes += (x != 0).astype(np.int64)
        x >>= U64(7)
    total = int(nbytes.sum())
    out = np.zeros(total, dtype=np.uint8)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    # write byte position k of every value that has >k bytes
    maxb = int(nbytes.max())
    x = v.copy()
    for k in range(maxb):
        sel = nbytes > k
        idx = starts[sel] + k
        byte = (x[sel] & U64(0x7F)).astype(np.uint8)
        cont = (k + 1 < nbytes[sel]).astype(np.uint8) << 7
        out[idx] = byte | cont
        x = x >> U64(7)
    return out, nbytes


def varbyte_encode(values: np.ndarray) -> np.ndarray:
    return varbyte_encode_with_sizes(values)[0]


def varbyte_decode(buf: np.ndarray, n_values: int) -> np.ndarray:
    """Vectorized decode of exactly n_values varbyte integers."""
    b = np.asarray(buf, dtype=np.uint8)
    if n_values == 0:
        return np.zeros(0, dtype=U64)
    # a value starts after every byte without the continuation bit
    is_start = np.empty(len(b), dtype=bool)
    is_start[0] = True
    np.less(b[:-1], 0x80, out=is_start[1:])
    # value id per byte, and 7 x the byte's position within its value
    value_id = np.cumsum(is_start) - 1
    shift = (np.arange(len(b)) - np.flatnonzero(is_start)[value_id]) * 7
    contrib = (b & 0x7F).astype(U64) << shift.astype(U64)
    out = np.zeros(n_values, dtype=U64)
    np.add.at(out, value_id, contrib)
    return out


def encode_run(
    terms: np.ndarray, ids: np.ndarray, metas: np.ndarray | None
) -> dict:
    """Vectorized whole-run encoder: input lexsorted by (term, doc id), with
    (term, doc) pairs unique.  Zero per-term Python — every quantity is a
    reduceat/cumsum over the flat posting stream.

    Values at block starts (every BLOCK_SIZE postings within a term) are
    absolute doc ids, the others deltas, so each block decodes from its own
    bytes and runs concatenate deterministically.

    Returns dict with:
      term_hash  (n_terms,) u64     doc_freq (n_terms,) i64
      offset     (n_terms,) i64     nbytes   (n_terms,) i64   (delta stream)
      deltas     uint8 stream       block_max (n_blocks_total,) u64
      block_off  (n_blocks_total,) u32 (byte offset relative to term start)
      metas      aligned u64 array or None
    """
    n = len(ids)
    if n == 0:
        z64 = np.zeros(0, dtype=U64)
        zi = np.zeros(0, dtype=np.int64)
        return dict(
            term_hash=z64, doc_freq=zi, offset=zi, nbytes=zi,
            deltas=np.zeros(0, dtype=np.uint8), block_max=z64,
            block_off=np.zeros(0, dtype=np.uint32),
            metas=(np.zeros(0, dtype=U64) if metas is not None else None),
        )
    terms = np.asarray(terms, dtype=U64)
    ids = np.asarray(ids, dtype=U64)

    new_term = np.empty(n, dtype=bool)
    new_term[0] = True
    new_term[1:] = terms[1:] != terms[:-1]
    term_start = np.flatnonzero(new_term)
    df = np.diff(np.append(term_start, n))

    pos_in_term = np.arange(n, dtype=np.int64) - np.repeat(term_start, df)
    is_block_start = (pos_in_term % BLOCK_SIZE) == 0

    deltas = np.empty(n, dtype=U64)
    deltas[0] = ids[0]
    np.subtract(ids[1:], ids[:-1], out=deltas[1:])
    vals = np.where(is_block_start, ids, deltas)

    enc, sizes = varbyte_encode_with_sizes(vals)
    val_off = np.cumsum(sizes) - sizes
    term_nbytes = np.add.reduceat(sizes, term_start)
    term_off = np.cumsum(term_nbytes) - term_nbytes

    block_start = np.flatnonzero(is_block_start)
    nblocks_per_term = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
    block_end = np.append(block_start[1:], n)
    block_max = ids[block_end - 1]
    term_of_block = np.repeat(np.arange(len(df)), nblocks_per_term)
    block_off = (val_off[block_start] - term_off[term_of_block]).astype(np.uint32)

    return dict(
        term_hash=terms[term_start],
        doc_freq=df.astype(np.int64),
        offset=term_off.astype(np.int64),
        nbytes=term_nbytes.astype(np.int64),
        deltas=enc,
        block_max=block_max,
        block_off=block_off,
        metas=(np.asarray(metas, dtype=U64) if metas is not None else None),
    )


HEADER_BYTES = 24


def write_postings(path, run: dict) -> None:
    """Write an encode_run result as one postings.bin, atomically (tmp +
    rename), in the layout of the module docstring."""
    m = run["metas"]
    header = np.array(
        [len(run["deltas"]), len(run["block_max"]), 0 if m is None else len(m)],
        dtype=U64,
    )
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        for part in (header, run["deltas"], run["block_max"], run["block_off"], m):
            if part is not None:
                f.write(part.tobytes())
    os.replace(tmp, path)


def read_postings(path) -> dict:
    """Memory-map one postings.bin into its sections: `deltas` (uint8),
    `block_max` (u64), `block_off` (u32) and `metas` (u64, empty when the
    run stores none)."""
    mm = np.memmap(path, dtype=np.uint8, mode="r")
    ld, nb, nm = (int(x) for x in np.frombuffer(mm[:HEADER_BYTES], dtype=U64))
    o = HEADER_BYTES
    return {
        "deltas": mm[o : o + ld],
        "block_max": np.frombuffer(mm[o + ld : o + ld + 8 * nb], dtype=U64),
        "block_off": np.frombuffer(mm[o + ld + 8 * nb : o + ld + 12 * nb], dtype=np.uint32),
        "metas": np.frombuffer(mm[o + ld + 12 * nb : o + ld + 12 * nb + 8 * nm], dtype=U64),
    }


def block_counts(doc_freq, blocks) -> np.ndarray:
    """Postings in block number(s) `blocks` of term lists with `doc_freq`
    postings, elementwise: BLOCK_SIZE in every block but a list's last."""
    return np.minimum(BLOCK_SIZE, doc_freq - BLOCK_SIZE * np.asarray(blocks, dtype=np.int64))


def gather_ranges(arr: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arr[starts[k] : starts[k] + lengths[k]] over k, in
    one fancy-index (lengths >= 1; one range is a plain slice)."""
    if len(starts) == 1:
        return arr[int(starts[0]) : int(starts[0] + lengths[0])]
    ends = np.cumsum(lengths)
    idx = np.arange(int(ends[-1])) + np.repeat(starts - (ends - lengths), lengths)
    return arr[idx]


def decode_blocks(stream: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The one decoder: `stream` holds whole blocks back to back, block k
    with counts[k] values; returns their absolute doc ids.  Each block's
    first value is absolute and the rest are deltas, so the ids are one
    running sum whose carry is dropped at every block start (uint64
    wraparound in the running sum cancels exactly in the subtraction)."""
    counts = np.asarray(counts, dtype=np.int64)
    ids = np.cumsum(varbyte_decode(stream, int(counts.sum())), dtype=U64)
    if len(counts) > 1:
        starts = np.cumsum(counts[:-1])
        ids[starts[0] :] -= np.repeat(ids[starts - 1], counts[1:])
    return ids
