"""Immutable index segments: the on-disk replacement for the reference's
mmap'd B-tree reverse index + forward index
(/root/reference/code/features-index/index-reverse/.../ReverseIndexFullReader.java:20-118,
 .../index-forward/.../ForwardIndexReader.java:27-95,
 .../index-service/.../IndexServicesFactory.java:60-209).

Layout of a build directory (one per index build; atomically "switched live"
by pointing a `CURRENT` file at it, mirroring switchFilesJob):

    build_dir/
      MANIFEST.json                 # doc_count, n_shards, n_buckets, lineage
      forward/part-*.parquet        # (url_id, doc_meta, domain_id), rank applied
      full/shard=S/bucket=B.terms.parquet   # terms directory of one run
      full/shard=S/bucket=B.postings.bin    # the run itself (index/postings.py)
      prio/shard=S/...                      # same, ENTRY_SIZE=1 (no metas)

Scale notes (the design constraint is a 256-node cluster / 100 TB corpus):
  * shard = term_hash % n_shards — the unit of query-side ownership.
  * bucket = quantile range of the rank-encoded doc id (boundaries sampled
    at build time, stored in MANIFEST) — a *doc-range* split of
    each shard so the build shuffle's groups stay bounded under Zipfian term
    skew (a hot term's postings land in many (shard,bucket) groups).
    Because bucket boundaries are monotone in doc id, per-term posting lists
    across buckets concatenate in sorted order — salted runs merge by pure
    concatenation, no k-way merge pass (merge determinism is trivially
    byte-stable).
  * Readers mmap postings.bin (np.memmap) and decode one term, a block-max
    subset of one term, or a whole bucket on demand, all through
    postings.decode_blocks.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from marginalia_ray.index.postings import (
    BLOCK_SIZE,
    block_counts,
    decode_blocks,
    encode_run,
    gather_ranges,
    read_postings,
    write_postings,
)

U64 = np.uint64
URL_MASK = U64(0xFFFFFFFF)


def url_in(ids: np.ndarray, urls: np.ndarray) -> np.ndarray:
    """Mask of the doc ids (rank-encoded or plain url ids) whose low-32 url
    bits are in `urls`, a sorted unique uint64 array (sorted array +
    searchsorted, vectorized)."""
    url = np.asarray(ids).astype(U64) & URL_MASK
    if len(urls) == 0:
        return np.zeros(len(url), dtype=bool)
    pos = np.minimum(np.searchsorted(urls, url), len(urls) - 1)
    return urls[pos] == url


def bucket_of(enc_doc_ids: np.ndarray, boundaries: np.ndarray | None) -> np.ndarray:
    """Monotone doc-range bucket via sampled quantile split points.

    `boundaries` is a sorted uint64 array of n_buckets-1 split points over the
    rank-encoded doc-id space (None/empty => single bucket 0); the bucket is
    the count of boundaries <= enc_id.  searchsorted keeps the map monotone
    non-decreasing in enc id (so per-term runs concatenate in sorted order
    across buckets), and quantile boundaries keep buckets balanced even when
    the 8-bit rank byte is constant (the default-255 case, where any fixed
    top-bits scheme would put every posting in one bucket — enc ids are
    rank<<32|url_id, so bits 40..63 are always zero)."""
    if boundaries is None or len(boundaries) == 0:
        return np.zeros(len(enc_doc_ids), dtype=np.int64)
    b = np.asarray(boundaries, dtype=U64)
    return np.searchsorted(b, enc_doc_ids, side="right").astype(np.int64)


def write_run(
    out_dir: str | Path,
    kind: str,  # "full" | "prio"
    shard: int,
    bucket: int,
    term_hashes: np.ndarray,  # sorted-by-(term,doc) flat postings
    doc_ids: np.ndarray,
    metas: np.ndarray | None,  # None for prio
) -> dict:
    """Write one (shard, bucket) posting run.  Input arrays must already be
    lexsorted by (term_hash, doc_id).  Returns a lineage/manifest row.
    Writes are atomic (tmp + rename) so re-runs are idempotent.

    Layout: terms.parquet (term_hash, doc_freq, offset, nbytes) plus
    postings.bin, whose format index/postings.py owns.  Fully vectorized
    (encode_run) — no per-term Python."""
    d = Path(out_dir) / kind / f"shard={shard:05d}"
    d.mkdir(parents=True, exist_ok=True)

    run = encode_run(term_hashes, doc_ids, metas)

    terms = pa.table(
        {
            "term_hash": pa.array(run["term_hash"], type=pa.uint64()),
            "doc_freq": pa.array(run["doc_freq"]),
            "offset": pa.array(run["offset"]),
            "nbytes": pa.array(run["nbytes"]),
        }
    )

    write_postings(d / f"bucket={bucket:04d}.postings.bin", run)
    terms_path = d / f"bucket={bucket:04d}.terms.parquet"
    tmp = str(terms_path) + ".tmp"
    pq.write_table(terms, tmp)
    os.replace(tmp, terms_path)

    return {
        "kind": kind,
        "shard": shard,
        "bucket": bucket,
        "n_terms": len(run["term_hash"]),
        "n_postings": int(len(term_hashes)),
        "bytes": int(len(run["deltas"])),
    }


def copy_run(src_build: str | Path, out_dir: str | Path, kind: str, shard: int, bucket: int) -> dict:
    """Copy one (shard, bucket) run of `src_build` into `out_dir` byte for
    byte (atomically, as write_run writes) and return its lineage row, read
    off the terms directory."""
    rel = Path(kind) / f"shard={shard:05d}"
    d = Path(out_dir) / rel
    d.mkdir(parents=True, exist_ok=True)
    for suffix in ("postings.bin", "terms.parquet"):
        name = f"bucket={bucket:04d}.{suffix}"
        shutil.copyfile(Path(src_build) / rel / name, d / (name + ".tmp"))
        os.replace(d / (name + ".tmp"), d / name)
    t = pq.read_table(d / f"bucket={bucket:04d}.terms.parquet", columns=["doc_freq", "nbytes"])
    return {
        "kind": kind,
        "shard": shard,
        "bucket": bucket,
        "n_terms": t.num_rows,
        "n_postings": int(t["doc_freq"].to_numpy().sum()),
        "bytes": int(t["nbytes"].to_numpy().sum()),
    }


class SegmentShardReader:
    """Query-side reader for one shard of one kind (full/prio).

    Loads the (small) term directories of every bucket eagerly, memory-maps
    the posting bins, decodes on demand, and concatenates across buckets in
    bucket order (which is doc-id order by construction)."""

    def __init__(self, build_dir: str | Path, kind: str, shard: int):
        self.kind = kind
        self.has_meta = kind == "full"
        d = Path(build_dir) / kind / f"shard={shard:05d}"
        self._buckets = []  # [(bucket number, terms directory, sections)]
        if not d.exists():
            return
        for terms_path in sorted(d.glob("bucket=*.terms.parquet")):
            name = terms_path.name.replace(".terms.parquet", "")
            t = pq.read_table(terms_path)
            df = t["doc_freq"].to_numpy()
            nblocks = -(-df // BLOCK_SIZE)
            directory = {
                "hash": t["term_hash"].to_numpy(),
                "doc_freq": df,
                "offset": t["offset"].to_numpy(),
                "nbytes": t["nbytes"].to_numpy(),
                "meta_off": np.cumsum(df) - df,
                "n_blocks": nblocks,
                "block_base": np.cumsum(nblocks) - nblocks,
            }
            sections = read_postings(terms_path.with_name(name + ".postings.bin"))
            self._buckets.append((int(name.split("=")[1]), directory, sections))

    def _find(self, term_hash: int):
        """(directory, sections, row) of every bucket holding the term."""
        th = U64(term_hash)
        for _, directory, sections in self._buckets:
            i = np.searchsorted(directory["hash"], th)
            if i < len(directory["hash"]) and directory["hash"][i] == th:
                yield directory, sections, int(i)

    def _empty(self) -> tuple[np.ndarray, np.ndarray | None]:
        return np.zeros(0, dtype=U64), (np.zeros(0, dtype=U64) if self.has_meta else None)

    def doc_freq(self, term_hash: int) -> int:
        """Postings of the term summed over buckets: one searchsorted per
        bucket's terms directory."""
        th = U64(term_hash)
        n = 0
        for _, directory, _ in self._buckets:
            hashes = directory["hash"]
            i = hashes.searchsorted(th)
            if i < len(hashes) and hashes[i] == th:
                n += int(directory["doc_freq"][i])
        return n

    def postings(self, term_hash: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(sorted doc_ids, metas or None) for a term, concatenated over buckets."""
        ids_parts, meta_parts = [], []
        for directory, sections, i in self._find(term_hash):
            o = int(directory["offset"][i])
            n = int(directory["nbytes"][i])
            df = int(directory["doc_freq"][i])
            counts = block_counts(df, np.arange(int(directory["n_blocks"][i])))
            ids_parts.append(decode_blocks(sections["deltas"][o : o + n], counts))
            if self.has_meta:
                mo = int(directory["meta_off"][i])
                meta_parts.append(sections["metas"][mo : mo + df])
        if not ids_parts:
            return self._empty()
        ids = np.concatenate(ids_parts)
        metas = np.concatenate(meta_parts) if self.has_meta else None
        return ids, metas

    def postings_overlap(
        self, term_hash: int, cand_sorted: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Block-max skip decoding: (sorted doc_ids, metas) restricted to
        the posting blocks that can contain any of the sorted candidate
        ids — a SUPERSET of the true intersection, so retain / reject /
        meta-gather via searchsorted give identical answers while decoding
        at most len(cand) blocks instead of the whole list (the block-max
        WAND skip primitive).  The needed blocks' bytes and metas are
        gathered in one pass and decoded together."""
        cand = np.asarray(cand_sorted, dtype=U64)
        ids_parts, meta_parts = [], []
        for directory, sections, i in self._find(term_hash):
            df = int(directory["doc_freq"][i])
            nb = int(directory["n_blocks"][i])
            base = int(directory["block_base"][i])
            # the block whose max first reaches each candidate may hold it;
            # a candidate past the last block max (position nb) needs none
            pos = np.searchsorted(sections["block_max"][base : base + nb], cand)
            need = np.flatnonzero(np.bincount(pos)[:nb])
            if len(need) == 0:
                continue
            # byte bounds of the term's blocks, relative to its slice
            bounds = np.append(sections["block_off"][base : base + nb], int(directory["nbytes"][i]))
            counts = block_counts(df, need)
            stream = gather_ranges(
                sections["deltas"],
                int(directory["offset"][i]) + bounds[need],
                bounds[need + 1] - bounds[need],
            )
            ids_parts.append(decode_blocks(stream, counts))
            if self.has_meta:
                mo = int(directory["meta_off"][i])
                meta_parts.append(gather_ranges(sections["metas"], mo + BLOCK_SIZE * need, counts))
        if not ids_parts:
            return self._empty()
        ids = np.concatenate(ids_parts)
        metas = np.concatenate(meta_parts) if self.has_meta else None
        return ids, metas

    def iter_buckets(self):
        """Yield (bucket number, terms, ids, metas) per bucket: its whole run
        as a flat (term, doc id)-lexsorted stream with aligned metas (None
        for prio) — what merge and delete rewrite."""
        for bucket, directory, sections in self._buckets:
            df, nb = directory["doc_freq"], directory["n_blocks"]
            blocks = np.arange(int(nb.sum())) - np.repeat(directory["block_base"], nb)
            ids = decode_blocks(sections["deltas"], block_counts(np.repeat(df, nb), blocks))
            terms = np.repeat(directory["hash"].astype(U64), df)
            yield bucket, terms, ids, (sections["metas"] if self.has_meta else None)


class ForwardIndex:
    """In-memory forward index: url_id -> (doc_meta, domain_id) via sorted
    arrays + searchsorted (ForwardIndexReader.java:27-95 semantics; missing
    ids return meta 0 / domain -1)."""

    def __init__(self, build_dir: str | Path):
        files = sorted((Path(build_dir) / "forward").glob("*.parquet"))
        if files:
            t = pa.concat_tables([pq.read_table(f) for f in files])
            url = t["url_id"].to_numpy()
            order = np.argsort(url, kind="stable")
            self.url_ids = url[order]
            self.doc_metas = t["doc_meta"].to_numpy()[order]
            self.domain_ids = t["domain_id"].to_numpy()[order]
            # url_id is a 32-bit hash of the full URL (not a DB-assigned
            # unique id as in the reference).  Duplicate ids are almost
            # always RE-CRAWLS of the same url (same url => same id; the
            # loader-overwrite semantics keep one row); true cross-url hash
            # collisions are ~n^2/2^33.  Dedup keeping the first row in
            # stable order so lookups are unambiguous and deterministic.
            if len(self.url_ids) > 1:
                dup = self.url_ids[1:] == self.url_ids[:-1]
                self.n_collisions = int(dup.sum())
                if self.n_collisions:
                    keep = np.r_[True, ~dup]
                    self.url_ids = self.url_ids[keep]
                    self.doc_metas = self.doc_metas[keep]
                    self.domain_ids = self.domain_ids[keep]
            else:
                self.n_collisions = 0
        else:
            self.n_collisions = 0
            self.url_ids = np.zeros(0, dtype=np.int64)
            self.doc_metas = np.zeros(0, dtype=U64)
            self.domain_ids = np.zeros(0, dtype=np.int64)

    def lookup(self, url_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(doc_meta, domain_id) arrays aligned with url_ids."""
        idx = np.searchsorted(self.url_ids, url_ids)
        idx = np.minimum(idx, max(0, len(self.url_ids) - 1))
        if len(self.url_ids) == 0:
            return (
                np.zeros(len(url_ids), dtype=U64),
                np.full(len(url_ids), -1, dtype=np.int64),
            )
        hit = self.url_ids[idx] == url_ids
        metas = np.where(hit, self.doc_metas[idx], U64(0))
        domains = np.where(hit, self.domain_ids[idx], -1)
        return metas, domains


def write_json_atomic(path: str | Path, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, default=int)
    os.replace(tmp, path)


def write_manifest(build_dir: str | Path, manifest: dict) -> None:
    write_json_atomic(Path(build_dir) / "MANIFEST.json", manifest)


def read_manifest(build_dir: str | Path) -> dict | None:
    p = Path(build_dir) / "MANIFEST.json"
    if not p.exists():
        return None
    with open(p) as f:
        return json.load(f)


def set_current(root: str | Path, build_id: str) -> None:
    """Atomic live-pointer swap (SearchIndex.switchIndex equivalent)."""
    p = Path(root) / "CURRENT"
    tmp = str(p) + ".tmp"
    with open(tmp, "w") as f:
        f.write(build_id)
    os.replace(tmp, p)


def get_current(root: str | Path) -> str | None:
    p = Path(root) / "CURRENT"
    return p.read_text().strip() if p.exists() else None


# Resume scaffold of the per-shard build rewrites (merge._rewrite, behind
# merge_builds, delete_docs and overwrite_merge): a job file at the output
# root holds the job key, and every finished unit (one kind/shard
# directory, or forward/) holds a _DONE.json marker with it.


def start_job(out_dir: str | Path, job_file: str, job_key: str) -> None:
    """Begin or resume a rewrite into out_dir.  Unless the job file already
    names this job, every output subtree is stale: wipe them all and record
    the new key."""
    p = Path(out_dir) / job_file
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    prior = json.loads(p.read_text()).get("job_key") if p.exists() else None
    if prior != job_key:
        for sub in ("forward", "full", "prio"):
            shutil.rmtree(Path(out_dir) / sub, ignore_errors=True)
        write_json_atomic(p, {"job_key": job_key, "started_at": time.time()})


def done_marker(unit_dir: Path, job_key: str) -> dict | None:
    """The _DONE.json payload if this job already finished unit_dir;
    otherwise wipe what a crashed or different attempt left there (so stale
    files never survive into the finished unit) and return None."""
    marker = unit_dir / "_DONE.json"
    if marker.exists():
        done = json.loads(marker.read_text())
        if done.get("job_key") == job_key:
            return done
    shutil.rmtree(unit_dir, ignore_errors=True)
    return None


def mark_done(unit_dir: Path, job_key: str, **payload) -> None:
    unit_dir.mkdir(parents=True, exist_ok=True)
    write_json_atomic(unit_dir / "_DONE.json", {"job_key": job_key, **payload})
