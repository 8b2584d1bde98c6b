"""What the benchmark reports.  Workloads, metric names, units and bounds
come from BENCHMARK.json at the repository root; this file adds only what
BENCHMARK.json does not hold: the end-to-end metrics each per-layer metric
should move."""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.gen import QUERY_CLASSES

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
# name -> unit
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

DROP_STATES = ("LANGUAGE", "ROBOTS_NOINDEX", "LENGTH", "EMPTY", "IRRELEVANT")

# wall time less steal of the Ray phases: printed on each run's "not gated"
# line, since on a shared host it varies too much from run to run to gate
NOT_GATED = ("ingest_docs_per_s", "refresh_s", "batch_qps")

_HOT = "query_*_cpu_mean_ms query_cpu_p99_ms"

# per-layer name -> end-to-end metrics (or NOT_GATED figures) it should
# move, as shell-style patterns
MOVES = {
    "stages.tokenizer_docs_per_s_core": "ingest_docs_per_cpu_s",
    "stages.extract_document_ms": "ingest_docs_per_cpu_s",
    "stages.extract_dld_ms": "ingest_docs_per_cpu_s",
    "stages.extract_keywords_ms": "ingest_docs_per_cpu_s",
    "stages.kept_ratio": "ingest_docs_per_cpu_s",
    **{f"stages.dropped.{s}": "ingest_docs_per_cpu_s" for s in DROP_STATES},
    "pipelines.convert_s": "ingest_docs_per_cpu_s",
    "pipelines.ingest_utilisation": "ingest_docs_per_s",
    "index.build_s": "ingest_docs_per_cpu_s refresh_cpu_s",
    "index.postings_written": "index_bytes_per_doc ingest_docs_per_cpu_s",
    "index.postings_bytes": "index_bytes_per_doc ingest_docs_per_cpu_s",
    "index.run_skew": "ingest_docs_per_cpu_s",
    "index.encode_run_ms_per_mposting": "ingest_docs_per_cpu_s",
    "index.delete_s": "refresh_cpu_s",
    "index.merge_s": "refresh_cpu_s",
    "index.merge_write_amp": "refresh_cpu_s",
    "index.segment_open_ms": "refresh_cpu_s fresh_query_cpu_p50_ms",
    "index.refresh_utilisation": "refresh_s",
    "query.batch_utilisation": "batch_qps",
    "query.parse_ms": _HOT,
    "query.variants_ms": _HOT,
    "query.search_ms": _HOT,
    "query.score_ms": _HOT,
    "query.candidates_scored": _HOT,
    "query.forward_lookup_ms": _HOT,
    "query.decode_ms": _HOT,
    "query.decodes_per_query": _HOT,
    "query.cache_hit_ratio": "query_cpu_p99_ms fresh_query_cpu_p99_ms",
    "query.fresh.decode_ms": "fresh_query_cpu_p99_ms",
    "query.fresh.decodes_per_query": "fresh_query_cpu_p99_ms",
    "query.fresh.skip_decode_share": "fresh_query_cpu_p99_ms",
    "query.fresh.cache_hit_ratio": "fresh_query_cpu_p99_ms",
    **{
        f"query.class.{c}.{q}_ms": f"query_{c}_cpu_mean_ms query_cpu_p99_ms"
        for c in QUERY_CLASSES
        for q in ("p50", "p99")
    },
    "trace.overhead.query_cpu_p50_ms": "query_*_cpu_mean_ms",
    "trace.overhead.query_cpu_p99_ms": "query_cpu_p99_ms",
}
