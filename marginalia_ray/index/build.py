"""Ray-Data-native inverted + forward index construction.

Replaces the reference's three sequential single-threaded converter passes
(/root/reference/code/services-core/index-service/.../IndexServicesFactory.java:102-158,
 ReverseIndexFullConverter.java:52-135, ForwardIndexConverter.java:43-105)
with one grouping of flat postings by (term shard, doc-range bucket):

    journal (doc_id, doc_meta, term_hashes, kw_metas)
      └─ explode: rank-encode doc ids (broadcast DomainRankings, J2),
         flatten to postings, key by (term shard, doc-range bucket)
      └─ group by key, then per group: lexsort (term, doc) and write one
         posting run — full index (with meta) and the priority subset
         (HIGH_PRIORITY_FLAGS filter, ReverseIndexPriorityParameters
         .java:14-28) in the same pass
      └─ forward index written from the journal rows (no grouping)

The grouping runs one of two ways; the explode, run-writer and forward
bodies are the same in both, so the run files are byte-identical:

  * local — a journal that fits in one run.  Gate: `journal.count()` (free
    on parquet) is at most LOCAL_BUILD_MAX_DOCS, then the blocks come to
    the calling process once and their postings total at most
    TARGET_RUN_POSTINGS, the memory bound one shuffle group already holds
    in one task.  One stable sort by key in that process, one run-writer
    call per key, one forward parquet part.
  * shuffle — anything larger: Ray Data `groupby(key).map_groups` (a sort
    shuffle) with a `map_batches` forward write.  A journal that passes
    the doc gate but not the posting gate hands its pulled blocks to this
    path, so it is read once.

Skew: a Zipf-head term's postings split across `n_buckets` doc-range groups
(the "salt"); because buckets are monotone in doc id the final per-term lists
are the concatenation of the runs — no merge pass, byte-deterministic for any
bucket count (tested).  Both paths pick the bucket boundaries with
`quantile_boundaries`.
"""

from __future__ import annotations

import time
import uuid
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from marginalia_ray.model.codecs import (
    DEFAULT_DOMAIN_RANK,
    HIGH_PRIORITY_FLAGS,
    U64,
    doc_meta_encode_rank,
    domain_id_of,
    rank_encode_id,
    url_id_of,
)
from marginalia_ray.index.segment import bucket_of, write_manifest, write_run


def _rank_lookup(domain_ids: np.ndarray, rankings: dict[int, int] | None) -> np.ndarray:
    if not rankings:
        return np.full(len(domain_ids), DEFAULT_DOMAIN_RANK, dtype=U64)
    keys = np.fromiter(rankings.keys(), dtype=np.int64)
    vals = np.fromiter(rankings.values(), dtype=np.int64)
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    idx = np.searchsorted(keys, domain_ids.astype(np.int64))
    idx = np.minimum(idx, len(keys) - 1)
    hit = keys[idx] == domain_ids.astype(np.int64)
    return np.where(hit, vals[idx], DEFAULT_DOMAIN_RANK).astype(U64)


def make_explode_fn(rankings_ref, n_shards: int, n_buckets: int,
                    boundaries: np.ndarray | None):
    """Stateless map_batches fn: journal rows -> flat keyed postings.
    `boundaries` (n_buckets-1 sorted uint64 split points, or None) is small
    and captured in the closure — shipped once per task, not per batch."""

    def explode(batch: pa.Table) -> pa.Table:
        rankings = ray.get(rankings_ref) if rankings_ref is not None else None
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(U64)
        kw_col = batch["term_hashes"].combine_chunks() if isinstance(batch["term_hashes"], pa.ChunkedArray) else batch["term_hashes"]
        meta_col = batch["kw_metas"].combine_chunks() if isinstance(batch["kw_metas"], pa.ChunkedArray) else batch["kw_metas"]

        parents = pc.list_parent_indices(kw_col).to_numpy()
        terms = pc.list_flatten(kw_col).to_numpy().astype(U64)
        metas = pc.list_flatten(meta_col).to_numpy().astype(U64)

        domains = domain_id_of(doc_ids)
        ranks = _rank_lookup(domains, rankings)
        enc_ids = rank_encode_id(doc_ids, ranks)[parents]

        shard = (terms % U64(n_shards)).astype(np.int64)
        bucket = bucket_of(enc_ids, boundaries)
        key = shard * n_buckets + bucket
        return pa.table(
            {
                "key": pa.array(key),
                "term_hash": pa.array(terms, type=pa.uint64()),
                "enc_doc_id": pa.array(enc_ids, type=pa.uint64()),
                "kw_meta": pa.array(metas, type=pa.uint64()),
            }
        )

    return explode


def make_run_writer(build_dir: str, n_buckets: int):
    """map_groups fn: one (shard,bucket) group -> segment run files on disk,
    returns lineage rows."""

    def write_group(group: pa.Table) -> pa.Table:
        key = int(group["key"][0].as_py())
        shard, bucket = divmod(key, n_buckets)
        terms = group["term_hash"].to_numpy().astype(U64)
        ids = group["enc_doc_id"].to_numpy().astype(U64)
        metas = group["kw_meta"].to_numpy().astype(U64)

        order = np.lexsort((ids, terms))
        terms, ids, metas = terms[order], ids[order], metas[order]

        # dedup (term, doc) pairs — the reference journal may carry a doc's
        # keyword twice only via chunked entries; keep the first meta.
        if len(terms):
            keep = np.empty(len(terms), dtype=bool)
            keep[0] = True
            keep[1:] = (terms[1:] != terms[:-1]) | (ids[1:] != ids[:-1])
            terms, ids, metas = terms[keep], ids[keep], metas[keep]

        rows = [write_run(build_dir, "full", shard, bucket, terms, ids, metas)]

        prio_mask = (metas & U64(HIGH_PRIORITY_FLAGS)) != 0
        rows.append(
            write_run(
                build_dir, "prio", shard, bucket, terms[prio_mask], ids[prio_mask], None
            )
        )
        return pa.Table.from_pylist(rows)

    return write_group


TARGET_RUN_POSTINGS = 2_000_000  # max postings a single (shard,bucket) group
# should hold: one group must sort+encode in one task's memory
LOCAL_BUILD_MAX_DOCS = 20_000  # doc gate of the local path (build_index):
# the most journal rows pulled into the calling process before their
# postings are counted.  perfbench's 2,000-page crawl (seed 7) gives a journal of 1,958
# docs at 1,890 bytes and 115 postings per doc (JOURNAL_COLS, in memory), so
# a pull is ~38 MB and a journal this long holds ~TARGET_RUN_POSTINGS.


def estimate_max_doc_freq(
    journal: "ray.data.Dataset", n_shards: int, sample_rate: int = 1
) -> int:
    """Doc-frequency sketch pass (SURVEY.md §4 skew row): per-batch partial
    term counts -> groupby(term).sum -> max.  Drives the bucket count so a
    Zipf-head term's postings split into bounded runs.

    sample_rate > 1 sketches a deterministic hash-mod row sample and scales
    the max back up — hot terms (the only ones that matter here) appear in
    ~df/rate sampled docs, so the estimate concentrates."""
    import pyarrow.compute as pc

    def _partial(batch: pa.Table) -> pa.Table:
        if sample_rate > 1:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(U64)
            keep = (ids * U64(0x9E3779B97F4A7C15)) % U64(sample_rate) == 0
            batch = batch.filter(pa.array(keep))
        kw = batch["term_hashes"]
        if isinstance(kw, pa.ChunkedArray):
            kw = kw.combine_chunks()
        flat = pc.list_flatten(kw)
        t = pa.table({"term": flat}).group_by("term").aggregate([("term", "count")])
        return t.rename_columns(["term", "partial"])

    cols = ["term_hashes"] if sample_rate <= 1 else ["doc_id", "term_hashes"]
    counts = (
        journal.select_columns(cols)
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("term")
        .sum("partial")
    )
    agg = counts.max("sum(partial)")
    return int(agg or 0) * sample_rate


def choose_buckets(journal: "ray.data.Dataset", n_shards: int,
                   target: int = TARGET_RUN_POSTINGS,
                   n_docs: int | None = None) -> int:
    """Pick the doc-range salt S from the doc-frequency sketch: the hottest
    term's postings split into ~ceil(max_df / target) monotone runs.

    Cheap gate first: max_df <= n_docs, so when the corpus has fewer docs
    than the per-run target the sketch pass is skipped entirely (this keeps
    small/medium builds at one pass; the sketch only runs at the scale
    where it pays for itself, and then over a row sample)."""
    if n_docs is None:
        n_docs = journal.count()
    if n_docs <= target:
        return 1
    # sample so a target-sized term still gets ~>=100 sampled hits
    rate = max(1, min(n_docs // 1_000_000, target // 100))
    max_df = estimate_max_doc_freq(journal, n_shards, sample_rate=rate)
    return max(1, -(-max_df // target))


BOUNDARY_SAMPLE_TARGET = 65_536  # enc-id sample size for quantile boundaries


def _boundary_sample(ids: np.ndarray, rankings: dict[int, int] | None,
                     rate: int) -> np.ndarray:
    """Rank-encoded ids of a deterministic hash-mod 1/rate sample of the
    uint64 doc ids `ids` (all of them when rate is 1)."""
    if rate > 1:
        ids = ids[(ids * U64(0x9E3779B97F4A7C15)) % U64(rate) == 0]
    return rank_encode_id(ids, _rank_lookup(domain_id_of(ids), rankings))


def quantile_boundaries(enc: np.ndarray, n_buckets: int) -> np.ndarray | None:
    """The n_buckets-1 quantiles of the sampled enc ids, as sorted uint64
    split points; duplicate quantiles collapse (fewer buckets, fine).  None
    means one bucket."""
    if n_buckets <= 1 or len(enc) == 0:
        return None
    enc = np.sort(enc)
    idx = (np.arange(1, n_buckets) * len(enc)) // n_buckets
    bounds = np.unique(enc[idx])
    return bounds if len(bounds) else None


def sample_bucket_boundaries(
    journal: "ray.data.Dataset",
    rankings_ref,
    n_buckets: int,
    n_docs: int,
    sample_target: int = BOUNDARY_SAMPLE_TARGET,
) -> np.ndarray | None:
    """Quantile split points over the rank-encoded doc-id space.

    One light pass over the doc_id column only: a deterministic hash-mod
    sample (~sample_target ids regardless of corpus size) comes to the
    driver; its n_buckets-1 quantiles become the bucket boundaries.  ~50
    samples per bucket bounds the bucket-size error to a few percent, which
    is all the TARGET_RUN_POSTINGS memory bound needs."""
    if n_buckets <= 1:
        return None
    rate = max(1, n_docs // sample_target)

    def _sample(batch: pa.Table) -> pa.Table:
        rankings = ray.get(rankings_ref) if rankings_ref is not None else None
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(U64)
        enc = _boundary_sample(ids, rankings, rate)
        return pa.table({"enc": pa.array(enc, type=pa.uint64())})

    sampled = journal.select_columns(["doc_id"]).map_batches(
        _sample, batch_format="pyarrow"
    )
    parts = [b["enc"].to_numpy() for b in sampled.iter_batches(batch_format="pyarrow")]
    enc = np.concatenate(parts) if parts else np.zeros(0, dtype=U64)
    return quantile_boundaries(enc, n_buckets)


def _pull_if_one_run(journal: "ray.data.Dataset", n_docs: int):
    """The local-path gate.  Returns (journal table or None, journal): the
    table when the journal has at most LOCAL_BUILD_MAX_DOCS rows and
    TARGET_RUN_POSTINGS postings; otherwise None and the journal, as a
    Dataset over the blocks already pulled when the doc gate passed, so the
    shuffle path does not read it again.  An empty journal takes the
    shuffle path, which writes no runs and no forward part for it."""
    if n_docs > LOCAL_BUILD_MAX_DOCS:
        return None, journal
    refs = journal.to_arrow_refs()
    blocks = [b for b in ray.get(refs) if b.num_rows]
    n_postings = sum(
        pc.sum(pc.list_value_length(b["term_hashes"])).as_py() or 0 for b in blocks
    )
    if blocks and n_postings <= TARGET_RUN_POSTINGS:
        return pa.concat_tables(blocks, promote_options="default"), journal
    return None, ray.data.from_arrow_refs(refs)


def _group_local(table: pa.Table, explode, write_group) -> list[dict]:
    """The shuffle's grouping in the calling process: explode once,
    stable-sort the postings by key and hand each key's slice to the run
    writer, which does the (term, doc) sort itself.  Lineage rows in key
    order, as the sort shuffle returns them."""
    flat = explode(table)
    if flat.num_rows == 0:
        return []
    key = flat["key"].to_numpy()
    order = np.argsort(key, kind="stable")
    flat, key = flat.take(order), key[order]
    cuts = np.r_[0, np.flatnonzero(key[1:] != key[:-1]) + 1, len(key)]
    rows = [write_group(flat.slice(a, b - a)) for a, b in zip(cuts[:-1], cuts[1:])]
    return pa.concat_tables(rows).to_pylist()


def build_index(
    journal: "ray.data.Dataset",
    build_dir: str | Path,
    *,
    n_shards: int = 32,
    n_buckets: int | str = "auto",
    domain_rankings: dict[int, int] | None = None,
) -> dict:
    """journal columns: doc_id(uint64), doc_meta(uint64),
    term_hashes(list<uint64>), kw_metas(list<uint64>).

    n_buckets='auto' (the default) sizes the doc-range salt from a
    doc-frequency sketch pass so no (shard,bucket) group exceeds
    TARGET_RUN_POSTINGS even under Zipfian term skew.

    A journal that fits in one run is grouped in this process, a larger one
    by the Ray Data shuffle (module docstring); the manifest's `grouping`
    ("local" | "shuffle") says which ran and `n_postings` counts the
    postings of the full index.

    Returns the build manifest (also written to MANIFEST.json)."""
    build_dir = str(build_dir)
    # Re-running into an existing build_dir must not accumulate stale
    # forward parquet / bucket run files (duplicate doc counts, duplicate
    # postings if the bucket count changed): clear the output subtrees.
    import shutil

    for sub in ("forward", "full", "prio"):
        shutil.rmtree(Path(build_dir) / sub, ignore_errors=True)
    Path(build_dir).mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    build_id = str(uuid.uuid4())

    n_docs_est = journal.count()  # parquet metadata when untransformed
    local, journal = _pull_if_one_run(journal, n_docs_est)
    if n_buckets == "auto":
        n_buckets = choose_buckets(journal, n_shards, n_docs=n_docs_est)
    n_buckets = max(1, int(n_buckets))

    rankings_ref = ray.put(domain_rankings) if domain_rankings else None
    if local is None:
        boundaries = sample_bucket_boundaries(journal, rankings_ref, n_buckets, n_docs_est)
    else:
        rate = max(1, n_docs_est // BOUNDARY_SAMPLE_TARGET)
        ids = local["doc_id"].to_numpy().astype(U64)
        boundaries = quantile_boundaries(_boundary_sample(ids, domain_rankings, rate), n_buckets)
    n_buckets = (len(boundaries) + 1) if boundaries is not None else 1

    # --- forward index (ForwardIndexConverter semantics: rank folded into
    # doc_meta, domain id alongside; no grouping) ---
    def forward_batch(batch: pa.Table) -> pa.Table:
        rankings = ray.get(rankings_ref) if rankings_ref is not None else None
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(U64)
        doc_metas = batch["doc_meta"].to_numpy(zero_copy_only=False).astype(U64)
        domains = domain_id_of(doc_ids)
        ranks = _rank_lookup(domains, rankings)
        metas = doc_meta_encode_rank(doc_metas, ranks)
        return pa.table(
            {
                "url_id": pa.array(url_id_of(doc_ids).astype(np.int64)),
                "doc_meta": pa.array(metas, type=pa.uint64()),
                "domain_id": pa.array(domains.astype(np.int64)),
            }
        )

    explode = make_explode_fn(rankings_ref, n_shards, n_buckets, boundaries)
    write_group = make_run_writer(build_dir, n_buckets)
    fwd_dir = Path(build_dir) / "forward"
    fwd_dir.mkdir(parents=True, exist_ok=True)

    if local is not None:
        pq.write_table(forward_batch(local), fwd_dir / f"{build_id}_000000.parquet")
        doc_count = local.num_rows
        runs = _group_local(local, explode, write_group)
    else:
        journal.map_batches(forward_batch, batch_format="pyarrow").write_parquet(str(fwd_dir))
        doc_count = sum(
            pq.ParquetFile(f).metadata.num_rows for f in fwd_dir.glob("*.parquet")
        )
        exploded = journal.select_columns(["doc_id", "term_hashes", "kw_metas"]).map_batches(
            explode, batch_format="pyarrow"
        )
        # sort-based shuffle (Ray's default) with an explicit partition count.
        # Measured against ShuffleStrategy.HASH_SHUFFLE on this box: hash is
        # 6-9x SLOWER (48-78s vs 8.3s for the 58k-doc build) because it spawns
        # one aggregator actor per partition — 128 actors on 32 cpus; keep the
        # default unless partitions ~= cores.  Partition-count floor scales
        # with corpus size (~1 partition per 250k docs) so a 100-TB run is not
        # squeezed through 128 shuffle partitions; the (shard*bucket) group
        # count stays the upper bound — more partitions than groups would only
        # create empty work.
        size_parts = max(128, n_docs_est // 250_000)
        n_parts = min(n_shards * max(1, n_buckets), size_parts)
        lineage_ds = exploded.groupby("key", num_partitions=n_parts).map_groups(
            write_group, batch_format="pyarrow"
        )
        # small: 2 rows per (shard,bucket)
        runs = lineage_ds.to_pandas().to_dict(orient="records")

    manifest = {
        "build_id": build_id,
        "doc_count": int(doc_count),
        "n_shards": n_shards,
        "n_buckets": n_buckets,
        "bucket_boundaries": [] if boundaries is None else [int(b) for b in boundaries],
        "grouping": "shuffle" if local is None else "local",
        "n_postings": int(sum(r["n_postings"] for r in runs if r["kind"] == "full")),
        "elapsed_sec": round(time.time() - t0, 3),
        "runs": runs,
    }
    write_manifest(build_dir, manifest)
    return manifest
