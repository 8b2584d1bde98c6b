"""The flagship pipeline: web pages parquet -> inverted index segments.

Ray-Data-native replacement for ConverterMain + LoaderMain + index
construction (SURVEY.md §3.1-3.3):

    read_parquet(pages, columns pruned)
      -> map_batches(TokenizerStage, concurrency=N)    # actor pool, A1/A2
      -> journal parquet (checkpoint boundary, resumable)
      -> build_index (one grouping by term shard -> immutable segments)

The journal write between the converter and the index build mirrors the
reference's converter/loader file boundary and is what makes the build
resumable: if the journal exists and is complete (lineage manifest), the
converter stage is skipped on re-run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import ray
import ray.data

from marginalia_ray.index.build import build_index
from marginalia_ray.stages.tokenizer import TokenizerStage

JOURNAL_COLS = ["doc_id", "doc_meta", "term_hashes", "kw_metas"]


def convert_pages(
    pages: "ray.data.Dataset",
    *,
    dict_freqs_ref=None,
    doc_count: int = 11_820_118,
    concurrency: int | None = None,
    batch_size: int = 256,
) -> "ray.data.Dataset":
    """pages -> journal Dataset (tokenizer actor pool).

    batch_size is small because the html column is fat (SURVEY.md §7.5 #6);
    html is dropped immediately after extraction inside the stage."""
    if concurrency is None:
        # size the actor pool to the Ray cluster's CPUs, not the host's:
        # an over-sized pool leaves pending actors that stall scheduling
        try:
            ncpu = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            import os

            ncpu = os.cpu_count() or 8
        concurrency = max(2, ncpu - 1)
    return pages.map_batches(
        TokenizerStage,
        fn_constructor_kwargs={"dict_freqs_ref": dict_freqs_ref, "doc_count": doc_count},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def _convert_partitioned(
    pages_path: str,
    journal_dir: "Path",
    cols: list[str],
    journal_partitions: int | None,
    resume: bool,
    **convert_kwargs,
) -> list[dict]:
    """Converter with per-partition lineage + resume (the WorkLog pattern,
    ref WorkLog.java:19-60): input files are grouped into partitions, each
    written to journal/part=K/ with a _LINEAGE.json (input files, doc
    counts, wall time).  On re-run, partitions with lineage are skipped —
    a killed build resumes at the first incomplete partition.

    Partition count trades resume granularity against per-partition actor-
    pool spin-up (~3-5 s each); the default keeps partitions big.
    """
    import shutil

    import pyarrow.dataset as pads

    files = sorted(pads.dataset(str(pages_path)).files)
    if not files:
        raise FileNotFoundError(f"no parquet files under {pages_path}")
    if journal_partitions is None:
        journal_partitions = max(1, min(8, len(files) // 32))
    groups = [list(g) for g in np_array_split(files, journal_partitions) if len(g)]

    lineage: list[dict] = []
    for k, group in enumerate(groups):
        part_dir = journal_dir / f"part-{k:04d}"
        lin_path = part_dir / "_LINEAGE.json"
        if resume and lin_path.exists():
            with open(lin_path) as f:
                lin = json.load(f)
            # a checkpoint is only valid for the SAME input file set: if
            # the corpus gained/lost files (or regrouping moved files
            # between partitions), skipping on stale lineage would
            # silently drop or duplicate documents — reconvert instead
            if lin.get("input_files") == [str(f) for f in group]:
                lineage.append(lin)
                continue
        shutil.rmtree(part_dir, ignore_errors=True)
        part_dir.mkdir(parents=True, exist_ok=True)
        tp = time.time()
        part_kwargs = convert_kwargs
        if convert_kwargs.get("concurrency") is None:
            # size the actor pool to THIS partition's batch count (parquet
            # metadata row count — free): a fixed ncpu-wide pool pays ~3-4s
            # of actor spin-up, which dominates small jobs where most
            # actors would only ever see a single batch.  Computed into a
            # per-partition copy — rebinding convert_kwargs would freeze
            # the first partition's sizing onto every later partition.
            import pyarrow.parquet as _pqm

            rows = sum(_pqm.ParquetFile(f).metadata.num_rows for f in group)
            batches = max(1, rows // int(convert_kwargs.get("batch_size", 256)))
            try:
                ncpu = int(ray.cluster_resources().get("CPU", 8))
            except Exception:
                ncpu = 8
            part_kwargs = dict(
                convert_kwargs,
                concurrency=min(max(2, (batches + 3) // 4), max(2, ncpu - 1)),
            )
        ds = ray.data.read_parquet(group, columns=cols)
        j = convert_pages(ds, **part_kwargs).filter(expr="state == 'OK'")
        j.write_parquet(str(part_dir))
        import pyarrow.parquet as _pq

        docs_ok = sum(
            _pq.ParquetFile(f).metadata.num_rows for f in part_dir.glob("*.parquet")
        )
        row = {
            "partition": k,
            "input_files": [str(f) for f in group],
            "docs_ok": int(docs_ok),
            "sec": round(time.time() - tp, 3),
            "finished_at": time.time(),
        }
        tmp = str(lin_path) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(row, f, indent=1)
        os.replace(tmp, lin_path)
        lineage.append(row)
    return lineage


def np_array_split(seq: list, n: int) -> list[list]:
    """Even split of a list into n groups (numpy.array_split semantics)."""
    k, m = divmod(len(seq), n)
    out = []
    i = 0
    for g in range(n):
        size = k + (1 if g < m else 0)
        out.append(seq[i : i + size])
        i += size
    return out


def run_index_pipeline(
    pages_path: str,
    out_root: str,
    *,
    build_id: str = "build-0",
    n_shards: int = 32,
    n_buckets: int | str = "auto",
    concurrency: int | None = None,
    domain_rankings: dict[int, int] | None = None,
    dedup: bool = False,
    rank_domains: bool = False,
    with_term_freq: bool = False,
    journal_partitions: int | None = None,
    resume: bool = True,
) -> dict:
    """End-to-end: pages parquet -> journal -> segments.  Returns manifest.

    Layout under out_root:
        journal/            converter output (parquet, resumable checkpoint)
        <build_id>/         immutable index segments
        CURRENT             live-build pointer (atomic swap)
    """
    out_root = Path(out_root)
    journal_dir = out_root / "journal"
    build_dir = out_root / build_id
    t0 = time.time()

    journal_done = journal_dir / "_COMPLETE.json"
    if not (resume and journal_done.exists()):
        import pyarrow.dataset as pads

        avail = set(pads.dataset(str(pages_path)).schema.names)
        cols = [c for c in ("url", "html", "text", "lang") if c in avail]
        dict_freqs_ref = None
        doc_count = 11_820_118  # TermFrequencyDict legacy default
        if with_term_freq:
            # pass 0 (G9/A2): corpus doc-frequency dict, broadcast to the
            # tokenizer pool; IDF doc_count becomes the actual corpus size
            from marginalia_ray.pipelines.term_freq import term_freq_dict_ref

            tf_pages = ray.data.read_parquet(str(pages_path), columns=cols)
            dict_freqs_ref = term_freq_dict_ref(
                tf_pages,
                use_html="html" in avail,
                persist_path=out_root / "tfreq.parquet",
            )
            # corpus size for IDF straight from parquet footers: free, and
            # no Ray job means no actor-pool barrier between tfreq and
            # convert (the old count() forced a drain-wait here)
            import pyarrow.parquet as _pqc

            doc_count = sum(
                _pqc.ParquetFile(f).metadata.num_rows
                for f in pads.dataset(str(pages_path)).files
            )
        lineage = _convert_partitioned(
            str(pages_path), journal_dir, cols,
            journal_partitions, resume,
            concurrency=concurrency,
            dict_freqs_ref=dict_freqs_ref,
            doc_count=doc_count,
        )
        tmp = str(journal_done) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(
                {
                    "partitions": lineage,
                    "docs_ok": sum(r["docs_ok"] for r in lineage),
                    "converted_at": time.time(),
                },
                f, indent=1,
            )
        os.replace(tmp, journal_done)

    convert_sec = time.time() - t0
    t1 = time.time()

    if rank_domains and domain_rankings is None:
        # PageRank over the domain link graph (G6) -> rank bytes injected
        # into doc metadata at index build (J2)
        from marginalia_ray.pipelines.domain_rank import compute_domain_rankings

        jlinks = ray.data.read_parquet(str(journal_dir), columns=["url", "links"])
        domain_rankings = compute_domain_rankings(jlinks)

    if dedup:
        # per-domain LSH near-dup removal (D3) between journal and build:
        # a domain may span journal partitions, so dedup runs over the
        # complete journal (deterministic; re-runs with the build on resume)
        from marginalia_ray.pipelines.domain_stage import apply_domain_stage

        journal = ray.data.read_parquet(
            str(journal_dir),
            columns=JOURNAL_COLS
            + ["url", "lsh", "length", "state", "links", "flag_words",
               "top_words", "canonical", "body_hash"],
        )
        journal = apply_domain_stage(journal).filter(expr="state == 'OK'")
        # materialize the slim journal once: build_index reads it more than
        # once (a count, then one pull into this process for a journal that
        # fits in one run; a count, the bucket sizing passes, the forward
        # pass and the explode pass for a larger one) and would otherwise
        # re-run the whole domain-stage shuffle each time
        journal = journal.select_columns(JOURNAL_COLS).materialize()
    else:
        journal = ray.data.read_parquet(str(journal_dir), columns=JOURNAL_COLS)
    manifest = build_index(
        journal,
        build_dir,
        n_shards=n_shards,
        n_buckets=n_buckets,
        domain_rankings=domain_rankings,
    )
    manifest["convert_sec"] = round(convert_sec, 3)
    manifest["index_sec"] = round(time.time() - t1, 3)
    manifest["total_sec"] = round(time.time() - t0, 3)

    from marginalia_ray.index.segment import set_current

    set_current(out_root, build_id)
    return manifest
