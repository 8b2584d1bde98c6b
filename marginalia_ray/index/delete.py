"""Tombstone deletion and re-crawl overwrite over immutable index builds —
the reference's loader-overwrite semantics (Loader re-crawl: the newest
version of a URL replaces the old one; SURVEY §2.1 S2/S6 family).

The reference rebuilds the whole index to drop or replace documents
(IndexServicesFactory.java:102-158 always reconstructs from the full
journal).  Here immutable segments make both a pure per-shard rewrite:

    delete_docs(build, out, url_ids)   # new build minus the tombstones
    overwrite_merge(old, new, out)     # re-crawl: old minus new's urls,
                                       # plus new, in one pass

Scale shape: ONE Ray task per (kind, shard) — no shuffle, no
re-tokenization, no journal read.  The tombstone set is built and bounded
in the calling process (a re-crawl slice's url list, millions not
billions — max_tombstones guards loudly) and shipped once via ray.put; a
posting is tombstoned when its low-32 url bits are in the set
(segment.url_in: sorted array + searchsorted, vectorized).

  * delete_docs: each task decodes its buckets flat
    (SegmentShardReader.iter_buckets) and rewrites the surviving postings
    UNDER THE SAME bucket numbers (deletion only shrinks buckets, so the
    build's quantile boundaries stay valid and no re-salt pass is needed).
    A bucket with no tombstoned posting would be rewritten to its own bytes
    (the run format is deterministic), so it is copied instead.  The
    forward index filters per part file, one task each.
  * overwrite_merge: each task is merge._merge_shard over (old, new) with
    the old build's postings of new's urls dropped as they are decoded —
    the two builds are then doc-disjoint by construction, so merge_builds'
    disjointness check and its intermediate "old minus new" build are not
    needed.  The forward index filters the old parts per file and appends
    new's rows to the last one, so the part count stays the old build's
    across any number of re-crawls, and old rows still precede new rows
    (ForwardIndex keep-first sees the order it always did).

Caveat shared with ForwardIndex keep-first: url_id is a 32-bit URL
hash, so a tombstone also removes a DISTINCT url that collides with it
(~n²/2^33 expected pairs).  In the overwrite_merge flow the collision
is immediately re-added by the new slice's posting for that id, which
is exactly the keep-one-row semantics the forward index already applies
to collisions.

Resume: per-(kind, shard) and forward `_DONE.json` markers (the
segment.start_job scaffold merge_builds uses), keyed for delete_docs by
(source build_id, tombstone-set digest) and for overwrite_merge by (old and
new build_id, tombstone-set digest, output bucket count).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from marginalia_ray.index.merge import _merge_shard
from marginalia_ray.index.segment import (
    URL_MASK,
    SegmentShardReader,
    copy_run,
    done_marker,
    mark_done,
    read_manifest,
    start_job,
    url_in,
    write_manifest,
    write_run,
)

U64 = np.uint64


def _tombstone_array(chunks, max_tombstones: int) -> np.ndarray:
    """Sorted unique low-32 url ids of an iterable of url-id chunks (each
    array-like), raising as soon as more than max_tombstones ids are read:
    the set is broadcast to every task, so it must stay small."""
    parts = []
    n = 0
    for chunk in chunks:
        ids = np.asarray(chunk)
        n += len(ids)
        if n > max_tombstones:
            raise RuntimeError(
                f"tombstone set exceeds {max_tombstones} ids — split the "
                "delete or the re-crawl into slices"
            )
        parts.append(ids.astype(np.int64))
    ids = np.concatenate(parts) if parts else np.zeros(0, np.int64)
    return np.unique(ids.astype(U64) & URL_MASK)


def _tombstone_chunks(url_ids):
    """delete_docs' tombstone input (sequence / numpy / Ray Dataset with a
    url_id column) as url-id chunks."""
    if hasattr(url_ids, "iter_batches"):  # a Ray Dataset
        return (
            b["url_id"].to_numpy(zero_copy_only=False)
            for b in url_ids.select_columns(["url_id"]).iter_batches(batch_format="pyarrow")
        )
    return [url_ids if isinstance(url_ids, np.ndarray) else list(url_ids)]


@ray.remote
def _delete_shard(
    src: str, out_dir: str, kind: str, shard: int, tombs: np.ndarray,
    job_key: str, resume: bool,
) -> list[dict]:
    shard_dir = Path(out_dir) / kind / f"shard={shard:05d}"
    done = done_marker(shard_dir, job_key, resume)
    if done is not None:
        return done["runs"]

    # `tombs` arrives via a shared ray.put ref (auto-dereferenced): one
    # object-store copy serves every shard task
    rows: list[dict] = []
    for bucket, terms, ids, metas in SegmentShardReader(src, kind, shard).iter_buckets():
        if len(ids) == 0:
            continue
        hit = url_in(ids, tombs)
        if not hit.any():
            # the run format is deterministic, so an untouched bucket's
            # rewrite would be its own bytes: copy them
            rows.append(copy_run(src, out_dir, kind, shard, bucket))
            continue
        keep = ~hit
        terms, ids = terms[keep], ids[keep]
        metas = metas[keep] if metas is not None else None
        if len(ids) == 0:
            continue
        # the flat stream is (term, id)-lexsorted per bucket and a boolean
        # mask preserves that, so write_run's precondition holds
        rows.append(write_run(out_dir, kind, shard, bucket, terms, ids, metas))
    mark_done(shard_dir, job_key, runs=rows, deleted_at=time.time())
    return rows


_overwrite_shard = ray.remote(_merge_shard)


@ray.remote
def _filter_forward_part(
    src_file: str, out_file: str, tombs: np.ndarray, append: tuple[str, ...] = (),
) -> int:
    """Write src_file minus the tombstoned urls to out_file, followed by the
    rows of the `append` files in order; return the rows kept from
    src_file."""
    t = pq.read_table(src_file)
    t = t.filter(pa.array(~url_in(t["url_id"].to_numpy(zero_copy_only=False), tombs)))
    kept = t.num_rows
    if append:
        t = pa.concat_tables([t] + [pq.read_table(f, schema=t.schema) for f in append])
    tmp = out_file + ".tmp"
    pq.write_table(t, tmp)
    os.replace(tmp, out_file)
    return kept


def _forward_files(build: str) -> list[Path]:
    return sorted((Path(build) / "forward").glob("*.parquet"))


def delete_docs(
    build_dir: str | Path,
    out_dir: str | Path,
    url_ids,
    *,
    max_tombstones: int = 50_000_000,
    resume: bool = True,
) -> dict:
    """Produce a new immutable build at `out_dir` = `build_dir` minus every
    document whose url_id is in `url_ids` (sequence, numpy array, or a Ray
    Dataset with a url_id column).  Returns the new manifest.  See module
    docstring for semantics, scale shape and the resume contract."""
    src = str(build_dir)
    out = str(out_dir)
    m = read_manifest(src)
    if m is None:
        raise FileNotFoundError(f"{src}: no MANIFEST.json — not an index build")
    tombs = _tombstone_array(_tombstone_chunks(url_ids), max_tombstones)
    digest = hashlib.sha256(tombs.tobytes()).hexdigest()[:16]
    job_key = json.dumps(
        {"source": m["build_id"], "tombstones": digest, "n": len(tombs)},
        sort_keys=True,
    )
    start_job(out, "_DELETE_JOB.json", job_key, resume)
    t0 = time.time()
    tomb_ref = ray.put(tombs)

    n_shards = int(m["n_shards"])
    shard_tasks = [
        _delete_shard.remote(src, out, kind, s, tomb_ref, job_key, resume)
        for kind in ("full", "prio")
        for s in range(n_shards)
    ]

    fwd_out = Path(out) / "forward"
    fwd_done = done_marker(fwd_out, job_key, resume)
    if fwd_done is not None:
        doc_count = int(fwd_done["doc_count"])
    else:
        fwd_out.mkdir(parents=True, exist_ok=True)
        fwd_tasks = [
            _filter_forward_part.remote(str(f), str(fwd_out / f.name), tomb_ref)
            for f in _forward_files(src)
        ]
        doc_count = int(sum(ray.get(fwd_tasks)))
        mark_done(fwd_out, job_key, doc_count=doc_count)

    lineage = [r for rows in ray.get(shard_tasks) for r in rows]
    manifest = {
        "build_id": str(uuid.uuid4()),
        "doc_count": doc_count,
        "n_shards": n_shards,
        "n_buckets": int(m.get("n_buckets", 1)),
        "bucket_boundaries": list(m.get("bucket_boundaries", [])),
        "elapsed_sec": round(time.time() - t0, 3),
        "deleted_from": m["build_id"],
        "n_tombstones": int(len(tombs)),
        "n_deleted_docs": int(m["doc_count"]) - doc_count,
        "runs": lineage,
    }
    write_manifest(out, manifest)
    return manifest


def overwrite_merge(
    old_build: str | Path,
    new_build: str | Path,
    out_dir: str | Path,
    *,
    max_tombstones: int = 50_000_000,
) -> dict:
    """Re-crawl ingestion with the reference's loader-overwrite semantics:
    every url present in `new_build` replaces its version in `old_build`;
    everything else in `old_build` survives.  One pass per (kind, shard)
    and per forward part, writing no intermediate build.  Returns the
    merged manifest; see the module docstring."""
    old, new, out = str(old_build), str(new_build), str(out_dir)
    manifests = [read_manifest(b) for b in (old, new)]
    for b, m in zip((old, new), manifests):
        if m is None:
            raise FileNotFoundError(f"{b}: no MANIFEST.json — not an index build")
    mo, mn = manifests
    if mo["n_shards"] != mn["n_shards"]:
        raise ValueError(
            f"overwrite_merge: builds disagree on n_shards: {mo['n_shards']} vs {mn['n_shards']}"
        )
    n_shards = int(mo["n_shards"])
    # the merged shard is the union, so keep the larger salting level
    n_buckets_out = max(int(m.get("n_buckets", 1)) for m in manifests)
    new_fwd = _forward_files(new)
    tombs = _tombstone_array(
        (pq.read_table(f, columns=["url_id"])["url_id"].to_numpy() for f in new_fwd),
        max_tombstones,
    )
    job_key = json.dumps(
        {"old": mo["build_id"], "new": mn["build_id"],
         "tombstones": hashlib.sha256(tombs.tobytes()).hexdigest()[:16],
         "n_buckets_out": n_buckets_out},
        sort_keys=True,
    )
    start_job(out, "_OVERWRITE_JOB.json", job_key, True)
    t0 = time.time()
    tomb_ref = ray.put(tombs)

    shard_tasks = [
        _overwrite_shard.remote([old, new], out, kind, s, n_buckets_out, job_key, True, tomb_ref)
        for kind in ("full", "prio")
        for s in range(n_shards)
    ]

    fwd_out = Path(out) / "forward"
    fwd_done = done_marker(fwd_out, job_key, True)
    if fwd_done is not None:
        old_kept = int(fwd_done["old_kept"])
    else:
        fwd_out.mkdir(parents=True, exist_ok=True)
        old_fwd = _forward_files(old)
        if old_fwd:
            # old parts first, then new rows (appended to the last part, so
            # the part count stays that of the old build): keep-first
            # resolution of within-build duplicates sees the same order
            fwd_tasks = [
                _filter_forward_part.remote(
                    str(f), str(fwd_out / f.name), tomb_ref,
                    tuple(str(g) for g in new_fwd) if k == len(old_fwd) - 1 else (),
                )
                for k, f in enumerate(old_fwd)
            ]
            old_kept = int(sum(ray.get(fwd_tasks)))
        else:
            for f in new_fwd:
                shutil.copyfile(f, fwd_out / f.name)
            old_kept = 0
        mark_done(fwd_out, job_key, old_kept=old_kept)

    lineage = [r for rows in ray.get(shard_tasks) for r in rows]
    manifest = {
        "build_id": str(uuid.uuid4()),
        "doc_count": old_kept + int(mn["doc_count"]),
        "n_shards": n_shards,
        "n_buckets": n_buckets_out,
        "bucket_boundaries": [],
        "merged_from": [mo["build_id"], mn["build_id"]],
        "n_tombstones": int(len(tombs)),
        "n_deleted_docs": int(mo["doc_count"]) - old_kept,
        "elapsed_sec": round(time.time() - t0, 3),
        "runs": lineage,
    }
    write_manifest(out, manifest)
    return manifest
