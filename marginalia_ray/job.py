"""Index-build job entry point, usable standalone or via `ray job submit`:

    ray job submit -- python -m marginalia_ray.job \\
        --pages /data/pages --out /data/index --shards 128 \\
        --dedup --rank-domains

On a cluster, RAY_ADDRESS is set by the job runner and ray.init attaches to
it; standalone it starts a local session.  This module owns its Ray session
(guarded init, shutdown at exit) — the only places allowed to besides
bench.py and the test fixture.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="marginalia_ray index build")
    p.add_argument("--pages", help="input pages parquet dir")
    p.add_argument(
        "--merge", nargs="+", metavar="BUILD_DIR",
        help="instead of building from pages: k-way-merge >=2 existing "
        "build dirs (doc-disjoint, same --shards layout) into --out",
    )
    p.add_argument(
        "--delete-from", metavar="BUILD_DIR",
        help="instead of building: rewrite BUILD_DIR into --out minus the "
        "url_ids listed in --tombstones (one task per (kind, shard))",
    )
    p.add_argument(
        "--tombstones", metavar="PARQUET_OR_IDS",
        help="with --delete-from: a parquet file/dir with a url_id column, "
        "or a comma-separated id list",
    )
    p.add_argument(
        "--overwrite", nargs=2, metavar=("OLD_BUILD", "NEW_BUILD"),
        help="re-crawl ingestion: every url in NEW_BUILD replaces its "
        "version in OLD_BUILD; result in --out (one per-shard merge that "
        "drops OLD_BUILD's versions of NEW_BUILD's urls)",
    )
    p.add_argument("--out", required=True, help="output index root")
    p.add_argument("--build-id", default="build-0")
    p.add_argument("--shards", type=int, default=32)
    p.add_argument(
        "--buckets", default="auto",
        type=lambda v: v if v == "auto" else int(v),
        help="doc-range buckets per shard (int, or 'auto' [default] for the doc-frequency sketch)",
    )
    p.add_argument("--concurrency", type=int, default=None)
    p.add_argument("--journal-partitions", type=int, default=None)
    p.add_argument("--dedup", action="store_true", help="per-domain LSH dedup (D3)")
    p.add_argument("--rank-domains", action="store_true", help="PageRank domain ranking (G6)")
    p.add_argument("--term-freq", action="store_true", help="corpus term-frequency pass (G9)")
    p.add_argument(
        "--browse", action="store_true",
        help="also build the browse serving artifact (EC_DOMAIN_NEIGHBORS /"
        " DOMAIN_METADATA materialization) under <out>/browse",
    )
    p.add_argument("--no-resume", action="store_true", help="rebuild from scratch")
    p.add_argument("--num-cpus", type=int, default=None, help="local-mode CPU count")
    args = p.parse_args(argv)
    # the rewrites always resume and run one task per (kind, shard)
    rewrite = args.merge or args.delete_from or args.overwrite
    if rewrite and args.no_resume:
        p.error("--no-resume does not apply to --merge, --delete-from or --overwrite")
    if rewrite and args.concurrency is not None:
        p.error("--concurrency does not apply to --merge, --delete-from or --overwrite")
    if args.delete_from and not args.tombstones:
        p.error("--delete-from requires --tombstones")

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        init_kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            init_kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**init_kwargs)

    try:
        if args.merge:
            from marginalia_ray.index.merge import merge_builds

            manifest = merge_builds(args.merge, args.out)
            print(json.dumps({k: v for k, v in manifest.items() if k != "runs"}))
            return 0
        if args.delete_from:
            from marginalia_ray.index.delete import delete_docs

            if args.tombstones.replace(",", "").replace("-", "").isdigit():
                tombs = [int(t) for t in args.tombstones.split(",") if t]
            else:
                import pyarrow.parquet as pq

                tombs = pq.read_table(args.tombstones, columns=["url_id"])["url_id"].to_numpy()
            manifest = delete_docs(args.delete_from, args.out, tombs)
            print(json.dumps({k: v for k, v in manifest.items() if k != "runs"}))
            return 0
        if args.overwrite:
            from marginalia_ray.index.delete import overwrite_merge

            manifest = overwrite_merge(args.overwrite[0], args.overwrite[1], args.out)
            print(json.dumps({k: v for k, v in manifest.items() if k != "runs"}))
            return 0
        if not args.pages:
            p.error("either --pages, --merge, --delete-from or --overwrite is required")
        from marginalia_ray.pipelines.index_pipeline import run_index_pipeline

        manifest = run_index_pipeline(
            args.pages,
            args.out,
            build_id=args.build_id,
            n_shards=args.shards,
            n_buckets=args.buckets,
            concurrency=args.concurrency,
            dedup=args.dedup,
            rank_domains=args.rank_domains,
            with_term_freq=args.term_freq,
            journal_partitions=args.journal_partitions,
            resume=not args.no_resume,
        )
        if args.browse:
            from marginalia_ray.pipelines.browse_artifact import (
                build_browse_from_journal,
            )

            browse_dir = build_browse_from_journal(
                f"{args.out}/journal", f"{args.out}/browse"
            )
            manifest["browse"] = browse_dir
        print(json.dumps({k: v for k, v in manifest.items() if k != "runs"}))
        return 0
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
