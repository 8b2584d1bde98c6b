"""Tombstone deletion over immutable index builds — the missing half of
the reference's loader-overwrite semantics (Loader re-crawl: the newest
version of a URL replaces the old one; SURVEY §2.1 S2/S6 family).

The reference rebuilds the whole index to drop or replace documents
(IndexServicesFactory.java:102-158 always reconstructs from the full
journal).  Here immutable segments make deletion a pure per-shard
rewrite instead:

    delete_docs(build, out, url_ids)   # new build minus the tombstones
    overwrite_merge(old, new, out)     # re-crawl: delete old versions of
                                       # new's urls, then k-way merge

Scale shape: ONE Ray task per (kind, shard) — no shuffle, no
re-tokenization, no journal read.  Each task decodes its buckets flat
(SegmentShardReader.iter_buckets, as merge does), drops postings whose
low-32 url bits hit the broadcast tombstone set (sorted array +
searchsorted, vectorized), and
rewrites the surviving runs UNDER THE SAME bucket numbers (deletion
only shrinks buckets, so the build's quantile boundaries stay valid and
no re-salt pass is needed).  The forward index filters per part file,
also one task each.  The tombstone set is driver-bounded (a re-crawl
slice's url list, millions not billions — max_tombstones guards loudly)
and shipped once via ray.put.

Caveat shared with ForwardIndex keep-first: url_id is a 32-bit URL
hash, so a tombstone also removes a DISTINCT url that collides with it
(~n²/2^33 expected pairs).  In the overwrite_merge flow the collision
is immediately re-added by the new slice's posting for that id, which
is exactly the keep-one-row semantics the forward index already applies
to collisions.

Resume: per-(kind, shard) `_DONE.json` markers keyed by (source
build_id, tombstone-set digest), same contract as merge_builds.
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
import ray.data

from marginalia_ray.index.segment import (
    SegmentShardReader,
    done_marker,
    mark_done,
    read_manifest,
    start_job,
    write_manifest,
    write_run,
)

U64 = np.uint64
URL_MASK = U64(0xFFFFFFFF)


def _tombstone_array(url_ids, max_tombstones: int) -> np.ndarray:
    """Normalize the tombstone input (sequence / numpy / Ray Dataset with a
    url_id column) to a sorted unique uint64 array, driver-bounded."""
    if hasattr(url_ids, "iter_batches"):  # a Ray Dataset
        parts = []
        n = 0
        for b in url_ids.select_columns(["url_id"]).iter_batches(
            batch_format="pyarrow"
        ):
            n += b.num_rows
            if n > max_tombstones:
                raise RuntimeError(
                    f"delete_docs: tombstone set exceeds {max_tombstones} ids "
                    "— split the delete into slices"
                )
            parts.append(b["url_id"].to_numpy(zero_copy_only=False))
        ids = np.concatenate(parts) if parts else np.zeros(0, np.int64)
    else:
        ids = np.asarray(list(url_ids) if not isinstance(url_ids, np.ndarray) else url_ids)
        if len(ids) > max_tombstones:
            raise RuntimeError(
                f"delete_docs: tombstone set exceeds {max_tombstones} ids"
            )
    out = np.unique(ids.astype(np.int64).astype(U64) & URL_MASK)
    return out


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
        url_part = ids & URL_MASK
        pos = np.searchsorted(tombs, url_part)
        pos = np.minimum(pos, max(0, len(tombs) - 1))
        hit = (tombs[pos] == url_part) if len(tombs) else np.zeros(len(ids), bool)
        if hit.any():
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


@ray.remote
def _filter_forward_part(src_file: str, out_file: str, tombs: np.ndarray) -> int:
    t = pq.read_table(src_file)
    url = t["url_id"].to_numpy(zero_copy_only=False).astype(np.int64).astype(U64)
    if len(tombs):
        pos = np.searchsorted(tombs, url & URL_MASK)
        pos = np.minimum(pos, len(tombs) - 1)
        keep = tombs[pos] != (url & URL_MASK)
        t = t.filter(pa.array(keep))
    tmp = out_file + ".tmp"
    pq.write_table(t, tmp)
    os.replace(tmp, out_file)
    return t.num_rows


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
    tombs = _tombstone_array(url_ids, max_tombstones)
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
            for f in sorted((Path(src) / "forward").glob("*.parquet"))
        ]
        doc_count = int(sum(ray.get(fwd_tasks))) if fwd_tasks else 0
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
    scratch_dir: str | Path | None = None,
) -> dict:
    """Re-crawl ingestion with the reference's loader-overwrite semantics:
    every url present in `new_build` replaces its version in `old_build`;
    everything else in `old_build` survives.  delete + k-way merge, both
    per-shard passes with no shuffle.  Returns the merged manifest.

    The tombstoned intermediate (old_build minus the re-crawled urls —
    nearly a full build) lives at ``scratch_dir`` (default
    ``<out_dir>_tombstoned``) while the merge runs, which is where a
    crashed run resumes from (per-shard ``_DONE`` markers on both
    passes).  It is REMOVED once the merge succeeds — one re-crawl
    would otherwise leak a dead build-sized directory per cycle."""
    from marginalia_ray.index.merge import merge_builds

    old_build, new_build = str(old_build), str(new_build)
    mn = read_manifest(new_build)
    if mn is None:
        raise FileNotFoundError(f"{new_build}: no MANIFEST.json")
    new_urls = ray.data.read_parquet(
        [str(f) for f in sorted((Path(new_build) / "forward").glob("*.parquet"))],
        columns=["url_id"],
    )
    scratch = Path(scratch_dir) if scratch_dir else Path(out_dir).parent / (
        Path(out_dir).name + "_tombstoned"
    )
    delete_docs(old_build, scratch, new_urls, max_tombstones=max_tombstones)
    merged = merge_builds([str(scratch), new_build], out_dir)
    shutil.rmtree(scratch, ignore_errors=True)
    return merged
