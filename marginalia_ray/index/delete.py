"""Tombstone deletion and re-crawl overwrite over immutable index builds —
the reference's loader-overwrite semantics (Loader re-crawl: the newest
version of a URL replaces the old one; SURVEY §2.1 S2/S6 family).

The reference rebuilds the whole index to drop or replace documents
(IndexServicesFactory.java:102-158 always reconstructs from the full
journal).  Here immutable segments make both a pure per-shard rewrite, run
by the same driver as merge_builds (merge._rewrite: one Ray task per
(kind, shard), one forward pass, no shuffle, no re-tokenization, no
journal read):

    delete_docs(build, out, url_ids)   # new build minus the tombstones
    overwrite_merge(old, new, out)     # re-crawl: old minus new's urls,
                                       # plus new, in one pass

The tombstone set is built and bounded in the calling process (a re-crawl
slice's url list, millions not billions — max_tombstones guards loudly)
and shipped once via ray.put.

  * delete_docs: each shard task (merge._delete_shard) rewrites the
    surviving postings under the same bucket numbers and copies untouched
    buckets byte for byte; the forward parts are filtered one task each.
  * overwrite_merge: the tombstones are new's urls, and each shard task is
    the k-way merge of (old, new) with old's postings of those urls dropped
    as they are decoded — the two builds are then doc-disjoint by
    construction, so no disjointness check and no intermediate "old minus
    new" build are needed.  The forward pass filters old's parts and
    appends new's rows to the last one, so the part count stays the old
    build's across any number of re-crawls, and old rows still precede new
    rows.

Caveat shared with ForwardIndex keep-first: url_id is a 32-bit URL
hash, so a tombstone also removes a DISTINCT url that collides with it
(~n²/2^33 expected pairs).  In the overwrite_merge flow the collision
is immediately re-added by the new slice's posting for that id, which
is exactly the keep-one-row semantics the forward index already applies
to collisions.

Resume: the driver's per-(kind, shard) and forward `_DONE.json` markers,
keyed by the source build ids, the tombstone-set digest and the output
bucket count.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow.parquet as pq

from marginalia_ray.index.merge import _forward_files, _rewrite


def delete_docs(
    build_dir: str | Path,
    out_dir: str | Path,
    url_ids,
    *,
    max_tombstones: int = 50_000_000,
) -> dict:
    """Produce a new immutable build at `out_dir` = `build_dir` minus every
    document whose url_id is in `url_ids` (a sequence or numpy array).
    Returns the new manifest.  See the module docstring."""
    ids = url_ids if isinstance(url_ids, np.ndarray) else list(url_ids)
    return _rewrite("delete", [str(build_dir)], str(out_dir), [ids], max_tombstones)


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
    new = str(new_build)
    # read lazily: the driver consumes it after checking both manifests
    new_urls = (pq.read_table(f, columns=["url_id"])["url_id"].to_numpy()
                for f in _forward_files(new))
    return _rewrite("overwrite", [str(old_build), new], str(out_dir), new_urls, max_tombstones)
