"""Per-shard rewrites of immutable index builds: the k-way merge
(`merge_builds`), and the tombstone delete and re-crawl overwrite of
delete.py, all run by one driver (`_rewrite`).  The reference has none of
them: it rebuilds the whole index from the full journal
(IndexServicesFactory.java:102-158).  With a merge, crawl slices index
independently (each a normal `build_index` run) and combine without
re-shuffling the union corpus: merging M builds costs one
decode+sort+re-encode pass over the POSTINGS, never a re-tokenization or a
journal shuffle.

Merge semantics
  * Sources must share `n_shards` (shard = term_hash % n_shards is the
    query-side ownership unit; merging across shard layouts would need a
    re-shard shuffle — build with a common n_shards instead).
  * Sources must be doc-disjoint (the incremental-crawl-slices case): a url
    indexed in two source builds has no well-defined merged posting.
    `_check_disjoint` verifies it on the driver before anything is written
    and fails loudly.  A re-crawl of indexed urls goes through
    delete.overwrite_merge instead, which runs this merge with the old
    build's versions of those urls dropped.
  * Rank-encoded doc ids are merged as-is: each document keeps the domain
    rank its source build assigned.  Build slices with the same
    DomainRankings for rank-consistent merges.

The driver, for all three rewrites:
  * checks the source manifests (each present, one n_shards) and takes the
    output bucket count as the largest among the sources;
  * builds the sorted tombstone set on the driver (empty for a merge),
    bounded by max_tombstones, and ships it once via ray.put; a posting or
    forward row is tombstoned when its low-32 url bits are in the set
    (segment.url_in);
  * starts one Ray task per (kind, shard) — shards are independent, so
    there is NO shuffle: `_merge_shard` for merge and overwrite,
    `_delete_shard` for delete;
  * runs one forward pass: the first source's parts are filtered
    (`_filter_forward_part`) and every later source's rows are appended to
    the last of them, so the output keeps the first source's part count
    and rows stay in source order (ForwardIndex keep-first resolution of
    within-build duplicates sees the order it always did);
  * writes the manifest, with doc_count = the first source's kept rows +
    the later sources' doc counts.

Scale shape: a merge task's memory is the merged shard's flat postings
(the same bound as one group of the build shuffle before bucket-salting); for
corpora where one shard outgrows a worker, merge hierarchically (fewer
sources per pass) or build with more shards.  Merged posting runs are
re-salted into doc-range buckets (quantile boundaries over the merged ids)
so the merged build keeps the same skew properties as a fresh one.

Resume: each completed (kind, shard) and the forward directory write a
`_DONE.json` marker (their results + the job key); a re-run of the same
job (same source build ids, tombstone set and bucket target) skips marked
units and only redoes the unfinished ones — the same per-partition
checkpoint contract as the converter's `_LINEAGE.json`.  A half-written
unit (no marker) is wiped and rebuilt, so stale buckets from a crashed
attempt can never be read.  Other sources or tombstones invalidate the
whole output (the key in the job file no longer matches) and restart it
cleanly (segment.start_job / done_marker / mark_done).

Equivalence: merging builds of journal slices yields per-term posting
lists (ids and metas) and forward arrays identical to a fresh
`build_index` over the concatenated journal with the same rankings —
verified in tests/test_merge.py, including the engine-level query-parity
check.
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
from marginalia_ray.model.codecs import combine_id

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


@ray.remote
def _merge_shard(sources: list[str], out_dir: str, kind: str, shard: int,
                 n_buckets_out: int, job_key: str, tombs: np.ndarray) -> list[dict]:
    """Merge one (kind, shard) across all source builds: decode every
    source bucket flat, lexsort by (term, enc id), re-salt into
    `n_buckets_out` doc-range buckets (quantile boundaries over the merged
    ids so buckets balance), write one run per bucket, then the _DONE
    lineage marker (the resume checkpoint).  The first source's postings
    of the urls in `tombs` (sorted url ids) are dropped as they are
    decoded: the re-crawl overwrite of delete.overwrite_merge."""
    shard_dir = Path(out_dir) / kind / f"shard={shard:05d}"
    done = done_marker(shard_dir, job_key)
    if done is not None:
        return done["runs"]

    t_parts, i_parts, m_parts = [], [], []
    has_meta = kind == "full"
    for k, src in enumerate(sources):
        for _, t, i, m in SegmentShardReader(src, kind, shard).iter_buckets():
            if k == 0 and len(tombs):
                keep = ~url_in(i, tombs)
                t, i = t[keep], i[keep]
                m = m[keep] if has_meta else None
            t_parts.append(t)
            i_parts.append(i)
            m_parts.append(m)
    rows: list[dict] = []
    if t_parts:
        terms = np.concatenate(t_parts)
        ids = np.concatenate(i_parts)
        metas = np.concatenate(m_parts) if has_meta else None
        order = np.lexsort((ids, terms))
        terms, ids = terms[order], ids[order]
        if metas is not None:
            metas = metas[order]
        if len(terms) > 1:
            dup = (terms[1:] == terms[:-1]) & (ids[1:] == ids[:-1])
            if dup.any():
                raise RuntimeError(
                    f"merge_builds: {int(dup.sum())} duplicate (term, doc) postings "
                    f"in {kind}/shard={shard} — source builds are not doc-disjoint"
                )
        # re-salt: quantile boundaries over this shard's merged enc ids
        if n_buckets_out > 1 and len(ids):
            qs = np.quantile(np.unique(ids), np.linspace(0, 1, n_buckets_out + 1)[1:-1])
            boundaries = np.unique(qs.astype(U64))
        else:
            boundaries = np.zeros(0, dtype=U64)
        bucket = (
            np.searchsorted(boundaries, ids, side="right").astype(np.int64)
            if len(boundaries)
            else np.zeros(len(ids), dtype=np.int64)
        )
        for b in np.unique(bucket):
            sel = bucket == b
            # within a bucket the (term, id) lexsort order is preserved by
            # the boolean mask; buckets are monotone in id so per-term runs
            # concatenate sorted at read time
            rows.append(
                write_run(
                    out_dir, kind, shard, int(b),
                    terms[sel], ids[sel],
                    metas[sel] if metas is not None else None,
                )
            )
    mark_done(shard_dir, job_key, runs=rows, merged_at=time.time())
    return rows


@ray.remote
def _delete_shard(
    src: str, out_dir: str, kind: str, shard: int, tombs: np.ndarray, job_key: str,
) -> list[dict]:
    """Rewrite one (kind, shard) of `src` minus the postings of the urls in
    `tombs`, UNDER THE SAME bucket numbers: deletion only shrinks buckets,
    so the build's quantile boundaries stay valid and no re-salt pass is
    needed.  A bucket with no tombstoned posting is copied byte for byte."""
    shard_dir = Path(out_dir) / kind / f"shard={shard:05d}"
    done = done_marker(shard_dir, job_key)
    if done is not None:
        return done["runs"]

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


def _forward_pass(sources: list[str], out_dir: str, job_key: str, tomb_ref) -> int:
    """The forward index of the rewrite (see the module docstring); returns
    the rows kept from the first source."""
    fwd_out = Path(out_dir) / "forward"
    done = done_marker(fwd_out, job_key)
    if done is not None:
        return int(done["kept"])
    fwd_out.mkdir(parents=True, exist_ok=True)
    first = _forward_files(sources[0])
    later = tuple(str(f) for s in sources[1:] for f in _forward_files(s))
    if first:
        kept = int(sum(ray.get([
            _filter_forward_part.remote(
                str(f), str(fwd_out / f.name), tomb_ref,
                later if k == len(first) - 1 else (),
            )
            for k, f in enumerate(first)
        ])))
    else:
        for f in later:
            shutil.copyfile(f, fwd_out / Path(f).name)
        kept = 0
    mark_done(fwd_out, job_key, kept=kept)
    return kept


def _check_disjoint(sources: list[str]) -> None:
    """Raise unless no (url_id, domain_id) pair is in two source builds.

    A url may legitimately appear several times WITHIN one build
    (re-crawls; ForwardIndex keep-first resolves those at read) — what must
    not happen is the same url in DIFFERENT builds.  url_id is a 32-bit URL
    hash, so at 1e9-doc scale distinct URLs WILL collide across slices
    (~n^2/2^33 expected pairs); overlap is therefore confirmed on a second
    signal — the pair (url_id, domain_id) — before aborting.  A cross-URL
    hash collision virtually never also shares the domain hash, while a
    genuine re-crawl of the same URL always does.  The forward index
    itself tolerates residual collisions keep-first, so the hard error is
    reserved for real re-crawl overlap.  The pair keys take 8 B per forward
    row on the driver, a third of what ForwardIndex holds for the merged
    build."""
    keys = []
    for src in sources:
        parts = [np.zeros(0, U64)]
        for f in _forward_files(src):
            t = pq.read_table(f, columns=["url_id", "domain_id"])
            parts.append(combine_id(t["domain_id"].to_numpy().astype(U64),
                                    t["url_id"].to_numpy().astype(U64)))
        keys.append(np.unique(np.concatenate(parts)))
    _, counts = np.unique(np.concatenate(keys), return_counts=True)
    dup = int((counts > 1).sum())
    if dup:
        raise RuntimeError(
            f"merge_builds: {dup} (url_id, domain_id) pairs present in "
            "multiple source builds — sources must be doc-disjoint "
            "(dedup re-crawls upstream)"
        )


def _rewrite(mode: str, sources: list[str], out_dir: str,
             tomb_chunks=(), max_tombstones: int = 0) -> dict:
    """Rewrite `sources` into a new build at out_dir and return its
    manifest.  mode is "merge", "delete" (one source) or "overwrite";
    tomb_chunks (url-id chunks, read after the manifest check) drop urls
    from the first source.  See the module docstring."""
    manifests = []
    for s in sources:
        m = read_manifest(s)
        if m is None:
            raise FileNotFoundError(f"{s}: no MANIFEST.json — not an index build")
        manifests.append(m)
    shards = {int(m["n_shards"]) for m in manifests}
    if len(shards) != 1:
        raise ValueError(f"sources disagree on n_shards: {sorted(shards)}")
    n_shards = shards.pop()
    # the merged shard is the union, so keep the largest salting level
    n_buckets_out = max(int(m.get("n_buckets", 1)) for m in manifests)
    if mode == "merge":
        _check_disjoint(sources)
    tombs = _tombstone_array(tomb_chunks, max_tombstones)
    ids = [m["build_id"] for m in manifests]
    job_key = json.dumps(
        {"sources": ids, "n_buckets_out": n_buckets_out, "n": len(tombs),
         "tombstones": hashlib.sha256(tombs.tobytes()).hexdigest()[:16]},
        sort_keys=True,
    )
    start_job(out_dir, f"_{mode.upper()}_JOB.json", job_key)
    t0 = time.time()
    # one object-store copy serves every task
    tomb_ref = ray.put(tombs)

    units = [(kind, s) for kind in ("full", "prio") for s in range(n_shards)]
    if mode == "delete":
        tasks = [_delete_shard.remote(sources[0], out_dir, kind, s, tomb_ref, job_key)
                 for kind, s in units]
    else:
        tasks = [_merge_shard.remote(sources, out_dir, kind, s, n_buckets_out, job_key, tomb_ref)
                 for kind, s in units]
    kept = _forward_pass(sources, out_dir, job_key, tomb_ref)
    lineage = [r for rows in ray.get(tasks) for r in rows]

    manifest = {
        "build_id": str(uuid.uuid4()),
        "doc_count": kept + sum(int(m["doc_count"]) for m in manifests[1:]),
        "n_shards": n_shards,
        "n_buckets": n_buckets_out,
        # a delete keeps every bucket's doc range; a merge re-salts per shard
        "bucket_boundaries": list(manifests[0].get("bucket_boundaries", []))
        if mode == "delete" else [],
        "elapsed_sec": round(time.time() - t0, 3),
    }
    if mode == "delete":
        manifest["deleted_from"] = ids[0]
    else:
        manifest["merged_from"] = ids
    if mode != "merge":
        manifest["n_tombstones"] = int(len(tombs))
        manifest["n_deleted_docs"] = int(manifests[0]["doc_count"]) - kept
    manifest["runs"] = lineage
    write_manifest(out_dir, manifest)
    return manifest


def merge_builds(source_dirs: list[str | Path], out_dir: str | Path) -> dict:
    """Merge M >= 2 doc-disjoint immutable index builds into a new build
    directory readable by SegmentShardReader / ForwardIndex / the query
    engine, and return its manifest.  See the module docstring for
    semantics, scale shape and the per-shard resume contract."""
    sources = [str(s) for s in source_dirs]
    if len(sources) < 2:
        raise ValueError("merge_builds needs >= 2 source builds")
    return _rewrite("merge", sources, str(out_dir))
