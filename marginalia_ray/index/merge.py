"""K-way merge of immutable index builds into one new immutable build —
the incremental-indexing path the reference lacks (Marginalia re-converts
the whole crawl to add documents; IndexServicesFactory.java:102-158 always
rebuilds from the full journal).  With a merge, crawl slices index
independently (each a normal `build_index` run) and combine without
re-shuffling the union corpus: merging M builds costs one decode+sort+
re-encode pass over the POSTINGS, never a re-tokenization or a journal
shuffle.

Semantics
  * Sources must share `n_shards` (shard = term_hash % n_shards is the
    query-side ownership unit; merging across shard layouts would need a
    re-shard shuffle — build with a common n_shards instead).
  * Sources must be doc-disjoint (the incremental-crawl-slices case).
    `check_disjoint=True` verifies it with a column-pruned distributed
    count over the forward url_ids and fails loudly: a url indexed in two
    source builds has no well-defined merged posting.  A re-crawl of
    indexed urls goes through delete.overwrite_merge instead, which runs
    this per-shard merge with the old build's versions of those urls
    dropped.
  * Rank-encoded doc ids are merged as-is: each document keeps the domain
    rank its source build assigned.  Build slices with the same
    DomainRankings for rank-consistent merges.

Scale shape: one Ray task per (kind, shard) — shards are independent, so
the merge parallelizes to n_shards * 2 tasks with NO shuffle.  A task's
memory is the merged shard's flat postings (the same bound as one build
groupby group before bucket-salting); for corpora where one shard
outgrows a worker, merge hierarchically (fewer sources per pass) or build
with more shards.  Output posting runs are re-salted into doc-range
buckets (quantile boundaries over the merged ids) so the merged build
keeps the same skew properties as a fresh one.

Resume: each completed (kind, shard) writes a `_DONE.json` lineage marker
(its run metrics + the job key); a re-run of the same merge (same source
build ids, same bucket target) skips marked shards and only redoes the
unfinished ones — the same per-partition checkpoint contract as the
converter's `_LINEAGE.json`.  A half-written shard (no marker) is wiped
and rebuilt, so stale buckets from a crashed attempt can never be read.
Changing sources or parameters invalidates the whole output (the job key
in `_MERGE_JOB.json` no longer matches) and restarts cleanly.  The
scaffold (segment.start_job / done_marker / mark_done) is shared with
delete_docs and overwrite_merge.

Equivalence: merging builds of journal slices yields per-term posting
lists (ids and metas) identical to a fresh `build_index` over the
concatenated journal with the same rankings — verified in
tests/test_merge.py, including the engine-level query-parity check.
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path

import numpy as np
import pyarrow as pa
import ray
import ray.data

from marginalia_ray.index.segment import (
    SegmentShardReader,
    done_marker,
    mark_done,
    read_manifest,
    start_job,
    url_in,
    write_manifest,
    write_run,
)

U64 = np.uint64

_LINEAGE_COLS = ("kind", "shard", "bucket", "n_terms", "n_postings", "bytes")


def _merge_shard(sources: list[str], out_dir: str, kind: str, shard: int,
                 n_buckets_out: int, job_key: str, resume: bool,
                 tombs: np.ndarray | None = None) -> list[dict]:
    """Merge one (kind, shard) across all source builds: decode every
    source bucket flat, lexsort by (term, enc id), re-salt into
    `n_buckets_out` doc-range buckets (quantile boundaries over the merged
    ids so buckets balance), write one run per bucket, then the _DONE
    lineage marker (the resume checkpoint).  With `tombs` (sorted url ids),
    the first source's postings of those urls are dropped as they are
    decoded: the re-crawl overwrite of delete.overwrite_merge."""
    shard_dir = Path(out_dir) / kind / f"shard={shard:05d}"
    done = done_marker(shard_dir, job_key, resume)
    if done is not None:
        return done["runs"]

    t_parts, i_parts, m_parts = [], [], []
    has_meta = kind == "full"
    for k, src in enumerate(sources):
        for _, t, i, m in SegmentShardReader(src, kind, shard).iter_buckets():
            if k == 0 and tombs is not None:
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


def merge_builds(
    source_dirs: list[str | Path],
    out_dir: str | Path,
    *,
    n_buckets_out: int | None = None,
    check_disjoint: bool = True,
    concurrency: int | None = None,
    resume: bool = True,
) -> dict:
    """Merge M immutable index builds into a new build directory readable
    by SegmentShardReader / ForwardIndex / the query engine, and return
    its manifest.  See module docstring for semantics, scale shape and
    the per-shard resume contract."""
    sources = [str(s) for s in source_dirs]
    if len(sources) < 2:
        raise ValueError("merge_builds needs >= 2 source builds")
    manifests = []
    for s in sources:
        m = read_manifest(s)
        if m is None:
            raise FileNotFoundError(f"{s}: no MANIFEST.json — not an index build")
        manifests.append(m)
    shards = {m["n_shards"] for m in manifests}
    if len(shards) != 1:
        raise ValueError(f"merge_builds: sources disagree on n_shards: {shards}")
    n_shards = shards.pop()
    if n_buckets_out is None:
        # preserve the sources' salting level: the merged shard is the
        # union, so the max source bucket count is the right floor
        n_buckets_out = max(int(m.get("n_buckets", 1)) for m in manifests)

    out_dir = str(out_dir)
    job_key = json.dumps(
        {"sources": [m["build_id"] for m in manifests],
         "n_buckets_out": int(n_buckets_out)},
        sort_keys=True,
    )
    start_job(out_dir, "_MERGE_JOB.json", job_key, resume)
    t0 = time.time()

    fwd_files = [f for s in sources for f in sorted((Path(s) / "forward").glob("*.parquet"))]
    fwd_out = Path(out_dir) / "forward"
    if done_marker(fwd_out, job_key, resume) is None:
        if check_disjoint:
            # a url may legitimately appear several times WITHIN one build
            # (re-crawls; ForwardIndex keep-first resolves those at read) —
            # what must not happen is the same url in DIFFERENT builds.
            # url_id is a 32-bit URL hash, so at 1e9-doc scale distinct
            # URLs WILL collide across slices (~n^2/2^33 expected pairs);
            # overlap is therefore confirmed on a second signal — the pair
            # (url_id, domain_id) — before aborting.  A cross-URL hash
            # collision virtually never also shares the domain hash, while
            # a genuine re-crawl of the same URL always does.  The forward
            # index itself tolerates residual collisions keep-first, so
            # the hard error is reserved for real re-crawl overlap.
            import pyarrow.compute as pc_

            def _tag_build(b: int):
                def f(batch: pa.Table) -> pa.Table:
                    return pa.table(
                        {"url_id": batch["url_id"],
                         "domain_id": batch["domain_id"],
                         "b": pa.array(np.full(batch.num_rows, b, np.int32))}
                    )

                return f

            per_build = None
            for bi, src in enumerate(sources):
                files = [str(f) for f in sorted((Path(src) / "forward").glob("*.parquet"))]
                d = (
                    ray.data.read_parquet(files, columns=["url_id", "domain_id"])
                    .groupby(["url_id", "domain_id"])
                    .count()
                    .map_batches(_tag_build(bi), batch_format="pyarrow")
                )
                per_build = d if per_build is None else per_build.union(d)

            def _dups_only(batch: pa.Table) -> pa.Table:
                return batch.filter(pc_.greater(batch["count()"], 1))

            dup = (
                per_build.groupby(["url_id", "domain_id"])
                .count()
                .map_batches(_dups_only, batch_format="pyarrow")
                .count()
            )
            if dup:
                raise RuntimeError(
                    f"merge_builds: {dup} (url_id, domain_id) pairs present in "
                    "multiple source builds — sources must be doc-disjoint "
                    "(dedup re-crawls upstream)"
                )
        fwd_out.mkdir(parents=True, exist_ok=True)
        ray.data.read_parquet([str(f) for f in fwd_files]).write_parquet(str(fwd_out))
        mark_done(fwd_out, job_key, n_files=len(fwd_files))

    work = [{"kind": k, "shard": s} for k in ("full", "prio") for s in range(n_shards)]

    def _task(batch: pa.Table) -> pa.Table:
        out = []
        for kind, shard in zip(batch["kind"].to_pylist(), batch["shard"].to_pylist()):
            out.extend(
                _merge_shard(sources, out_dir, kind, int(shard), n_buckets_out,
                             job_key, resume)
            )
        if not out:
            return pa.table(
                {"kind": pa.array([], pa.string()), "shard": pa.array([], pa.int64()),
                 "bucket": pa.array([], pa.int64()), "n_terms": pa.array([], pa.int64()),
                 "n_postings": pa.array([], pa.int64()), "bytes": pa.array([], pa.int64())}
            )
        return pa.table({k: pa.array([r[k] for r in out]) for k in _LINEAGE_COLS})

    kwargs = {"concurrency": concurrency} if concurrency else {}
    lineage = (
        ray.data.from_items(work, override_num_blocks=len(work))
        .map_batches(_task, batch_format="pyarrow", batch_size=1, **kwargs)
        .to_pandas()
    )

    doc_count = sum(int(m["doc_count"]) for m in manifests)
    manifest = {
        "build_id": str(uuid.uuid4()),
        "doc_count": doc_count,
        "n_shards": n_shards,
        "n_buckets": int(n_buckets_out),
        "bucket_boundaries": [],
        "merged_from": [m["build_id"] for m in manifests],
        "elapsed_sec": round(time.time() - t0, 3),
        "runs": lineage.to_dict(orient="records"),
    }
    write_manifest(out_dir, manifest)
    return manifest
