"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library code) calls ``ray.init()`` / ``ray.shutdown()``.

``entry()`` runs the flagship Marginalia-style pipeline (plain-text docs
-> tokenizer actor pool -> journal -> one-shuffle inverted-index build ->
BM25 search) on sf0.001.  ``queries()`` exposes each implemented operator
over the sf tables; ``oracle_sql()`` holds a DuckDB equivalent for EVERY
query (the two key sets are asserted equal in tests/test_oracle.py):
pure relational/text ops directly, the ANN/sketch family
via inlined deterministic constants (LSH hyperplanes, IVF centroids, the
mod-2^64 simhash token-hash chain), and marginalia_search via the
checked-in golden rank table.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# the SQL-replicable simple tokenizer, shared by every oracle below
_TOK = "list_filter(string_split_regex(lower(text),'[^a-z0-9]+'), x->x<>'')"

KNN_QUERY_IDS = list(range(8))
KNN_K = 5
IVF_LISTS = 16
IVF_PROBE = 4
PQ_M = 8  # product-quantization subspaces (64-d -> 8 sub-vectors of 8)
PQ_CODES = 16  # codebook entries per subspace
BM25_TERMS = ["spark", "join", "window"]
RRF_TERMS_B = ["customer", "stream", "hash"]  # second ranking for rrf_fusion
RRF_N = 20  # per-list depth fed into the fusion
PMI_MIN_COUNT = 5
PMI_K = 20
JACCARD_THRESHOLD = 0.5
CONTAINMENT_THRESHOLD = 0.5
COSINE_THRESHOLD = 0.4
TFIDF_K = 5
SEMDEDUP_THRESHOLD = 0.35
DECON_N = 8  # decontamination n-gram size
DECON_BENCH_MOD = 50  # benchmark side: doc_id % 50 == 0
DECON_PLANT_MOD = 11  # planted contamination passage: doc_id % 11 == 0
DECON_PASSAGE = "canary passage alpha beta gamma delta epsilon zeta eta theta"
PACK_BUDGET = 512
PCT_LO, PCT_HI = 0.05, 0.95
SDEDUP_MAX_DOCS = 3
STRAT_N = 4  # stratified sample size per key
MIXTURE_WEIGHTS = {"en": 2, "de": 1, "fr": 1}  # target mixture parts
TUMBLE_MIN = 60  # tumbling-window width (minutes)
HOP_MIN = 20  # hopping-window hop (minutes; 3 overlapping windows per event)
FUNNEL_STEPS = ("view", "click", "purchase")
CMS_QUERY_TERMS = ("spark", "join", "window", "the", "zzz_absent_term")
SDEDUP_PLANT_MOD = 4  # boilerplate sentence planted on doc_id % 4 == 0
SDEDUP_BOILER = "subscribe to our newsletter today"
BLOOM_BITS = 256  # deliberately small so false positives occur at sf scale
BLOOM_K = 2
GRPQ_MIN_MEAN = -1.707  # splits the fixture's per-source quality means
HH_NUM, HH_DEN = 1, 50  # heavy-hitter threshold: tokens with >= 2% of corpus mass
CHUNK_TOKENS = 32  # chunk_documents window (overlap=0 for the SQL oracle)
# browse/explore family (ops/browse.py): EC_DOMAIN fixture is derived from
# part (see the dom CTE in the oracles); constants shared by Ray and SQL
BROWSE_RANDOM_COUNT = 8
BROWSE_RANDOM_SEED = 7
BROWSE_RANDOM_BLACKLIST = (21, 70)  # set-0 members that pass STATE<2
SIM_PROBES = (0, 50, 100)  # probe domains present at every sf
SIM_BLACKLIST = (30,)  # a screenshot-bearing neighbor, so the filter bites
SIM_COUNT = 10
EXPLORER_PROBE = "http://d110.example.com/"  # id 110, aliased to 100
URL_BROWSE_MOD = 97  # browse_url_ids picks o_orderkey % 97 == 0
URL_BROWSE_MAX_KNOWN = 10  # ~ the per-domain mean url count at every sf
OLD_ALGO_PROBE = 50
OLD_ALGO_COUNT = 25  # the reference's supplement pull (count/2 = 12 gate)
OLD_ALGO_MAX_KNOWN = 30  # ~ per-part lineitem mean, so the gate bites
OLD_ALGO_BLACKLIST = (20,)
SITE_INFO_PROBE = "d50.example.com"  # site: info card probe
CRAWL_BLACKLIST = (30,)
CRAWL_QUEUE_NEW = "queued-new.example.com"  # unknown queue name -> id -1
HH3_NUM, HH3_DEN = 1, 5000  # heavy 3-gram threshold (boilerplate mining)
SUGGEST_PREFIXES = ["co", "s", "qu", "ba", "the", "win"]  # typeahead probes
SUGGEST_COUNT = 5
SPELL_PROBES = [
    "custmer", "windoe", "colum", "quary", "tabel", "jion", "strem", "xyzzy", "agg",
]  # misspelled typeahead inputs (xyzzy: no candidate within distance 2)
SPELL_K = 3
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")  # pivot domain
HIST_BIN_WIDTH = 5.0  # value_histogram bin width
SEMI_STATUS = "F"  # semi/anti join: customers with(out) an F-status order
RANK_K = 2  # rank_with_ties: top-2 orders per customer, RANK() semantics
NTILE_N = 4  # ntile_buckets: per-customer spend quartiles
UNIQ_WIN_MIN = 60  # window_unique_users tumbling width (minutes)
ZSCORE_Z = 1.75  # zscore_outliers threshold (fixture max |z| ~1.97/2.04)
SKIP_K = 2  # skipgram window
SKIP_MIN = 3  # skipgram min corpus count
SESS_BIN_MIN = 5  # session_duration_histogram bin width (minutes)
GLOBAL_QS = (0.25, 0.5, 0.75, 0.9, 0.99)  # global_quantiles probe points
AQ_K = 256  # approx_quantiles sample size (< n_docs at every sf: real sketch path)
AQ_SEED = 5  # approx_quantiles sample seed
AQK_K = 16  # approx_quantiles_by_key per-key sample (< 25 docs/source: real path)
SHUF_SHARDS = 8  # training_shuffle shard count
SHUF_SEED = 7  # training_shuffle epoch seed
WS_K = 100  # weighted_sample size
WS_SEED = 11  # weighted_sample seed
BPE_TRAIN_MERGES = 10  # bpe_train rounds (tools/regen_bpe_golden.py in sync)
BLOCKLIST = ("slow", "error", "broken")  # blocklist_filter fixture terms
BLOCKLIST_MAX = 2  # blocklist_filter max_hits
ZIPF_N = 500  # zipf_slope top-N terms


def _docs(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])


def _emb(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])


def _query_vectors(sf_dir: str):
    import pyarrow.parquet as pq

    from marginalia_ray.ops.similarity import _stack

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_pylist()
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    take = [order[i] for i in KNN_QUERY_IDS]
    return _stack(t["embedding"]).take(take, axis=0), [ids[i] for i in take]


# ---- flagship: documents-as-pages -> inverted index -> search ----------


def _stage_pages(sf_dir: str, pages_dir: str, mod: int | None = None, rem: int = 0):
    """Adapt the documents table to the converter's pages shape (synthetic
    url per doc); with ``mod``/``rem``, stage only the doc_id % mod == rem
    slice — the incremental-crawl-slice shape the k-way merge consumes."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    os.makedirs(pages_dir, exist_ok=True)

    def _to_pages(batch: pa.Table) -> pa.Table:
        if mod is not None:
            ids_np = batch["doc_id"].to_numpy(zero_copy_only=False)
            batch = batch.filter(pa.array(ids_np % mod == rem))
        ids = batch["doc_id"]
        url = pc.binary_join_element_wise(
            "https://", pc.cast(batch["source"], pa.string()),
            ".example/doc/", pc.cast(ids, pa.string()), "",
        )
        return pa.table(
            {"url": url, "text": batch["text"], "lang": batch["lang"]}
        )

    ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    ).map_batches(_to_pages, batch_format="pyarrow").write_parquet(pages_dir)


def build_docs_index(sf_dir: str, out_root: str, n_shards: int = 8):
    """Marginalia pipeline with the plain-text branch (documents table has
    no html): tokenizer actor pool -> journal -> index build."""
    from marginalia_ray.pipelines.index_pipeline import run_index_pipeline

    pages_dir = f"{out_root}/pages"
    _stage_pages(sf_dir, pages_dir)
    return run_index_pipeline(pages_dir, out_root, n_shards=n_shards)


def entry() -> Any:
    """Flagship pipeline on sf0.001; returns the search results table."""
    import shutil
    import tempfile

    import pandas as pd

    from marginalia_ray.query.engine import IndexSearcher

    out_root = tempfile.mkdtemp(prefix="marginalia_ray_entry_")
    try:
        build_docs_index("/root/testdata/sf0.001", out_root)
        s = IndexSearcher(out_root)
        rows = []
        for q in (["spark", "join"], ["window", "batch"], ["customer"]):
            for r in s.search_words(q):
                rows.append(
                    {
                        "query": " ".join(q),
                        "url_id": r.url_id,
                        "domain_id": r.domain_id,
                        "score": r.score,
                    }
                )
        return pd.DataFrame(rows, columns=["query", "url_id", "domain_id", "score"])
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


def _browse_cache_dir(sf_dir: str) -> str:
    """Cache directory of the browse artifact built from ``sf_dir``: keyed
    by the directory and by the size and mtime of every parquet file the
    build reads, so a changed input builds a new artifact."""
    import hashlib
    import os

    key = [os.path.abspath(sf_dir)]
    for name in ("lineitem.parquet", "part.parquet"):
        st = os.stat(os.path.join(sf_dir, name))
        key.append(f"{name}:{st.st_size}:{st.st_mtime_ns}")
    digest = hashlib.md5("\n".join(key).encode()).hexdigest()[:12]
    return f"/tmp/marginalia_ray_browse/{digest}_v3"


# ---- queries ----------------------------------------------------------


def queries() -> dict[str, Callable[[str], Any]]:
    from marginalia_ray.ops.bm25 import bm25_topk, rrf_fusion
    from marginalia_ray.ops.dedup import (
        containment_pairs,
        exact_dedup,
        exact_substring_pairs,
        jaccard_pairs,
        minhash_lsh_pairs,
        normalized_dedup,
        simhash_pairs,
    )
    from marginalia_ray.ops.similarity import (
        embedding_cosine_pairs,
        knn_cosine,
        knn_cosine_lsh,
    )
    from marginalia_ray.ops.text_ops import (
        doc_quality,
        fingerprint,
        winnow_fingerprints,
        gopher_quality,
        hash_split,
        lang_id,
        ngram_overlap,
        pii_scrub,
        repetition_metrics,
        stopword_ratio,
        term_doc_freq,
        tfidf_topk,
        token_count,
    )

    def q_knn(sf_dir: str):
        qm, qids = _query_vectors(sf_dir)
        return knn_cosine(_emb(sf_dir), qm, qids, k=KNN_K)

    def q_knn_lsh(sf_dir: str):
        qm, qids = _query_vectors(sf_dir)
        return knn_cosine_lsh(_emb(sf_dir), qm, qids, k=KNN_K, n_planes=6)

    def q_kmeans_assign(sf_dir: str):
        from marginalia_ray.ops.similarity import kmeans_assign

        return kmeans_assign(_emb(sf_dir), _kmeans_centroids())

    def q_kmeans_update(sf_dir: str):
        from marginalia_ray.ops.similarity import kmeans_update

        return kmeans_update(_emb(sf_dir), _kmeans_centroids())

    def q_knn_ivf(sf_dir: str):
        from marginalia_ray.ops.similarity import knn_cosine_ivf

        qm, qids = _query_vectors(sf_dir)
        # deterministic seeded centroids (not k-means-fit): makes the op a
        # pure function of the data so the DuckDB oracle can mirror it —
        # the same inlined-constants pattern as the LSH hyperplanes.  The
        # k-means quantizer path stays available (centroids=None) and is
        # pytest-covered.
        return knn_cosine_ivf(
            _emb(sf_dir), qm, qids, k=KNN_K, centroids=_ivf_centroids()
        )

    def q_index_search(sf_dir: str):
        import shutil
        import tempfile

        import pandas as pd

        from marginalia_ray.query.engine import IndexSearcher

        out_root = tempfile.mkdtemp(prefix="marginalia_ray_q_")
        try:
            build_docs_index(sf_dir, out_root)
            s = IndexSearcher(out_root)
            rows = []
            for q in (["spark", "join"], ["window", "batch"], ["customer"]):
                for rank, r in enumerate(s.search_words(q)):
                    rows.append(
                        {
                            "query": " ".join(q),
                            "rank": rank,
                            "url_id": r.url_id,
                            "score": round(r.score, 6),
                        }
                    )
            return pd.DataFrame(rows, columns=["query", "rank", "url_id", "score"])
        finally:
            shutil.rmtree(out_root, ignore_errors=True)

    def q_index_search_merged(sf_dir: str):
        """Flagship search through the INCREMENTAL path: the corpus is
        split into two crawl slices (doc_id parity), each slice runs the
        full converter+build pipeline independently, the two immutable
        builds are k-way merged (index/merge.py) with NO re-tokenization,
        and the query runs over the merged build.  Rank/score-identical to
        the flat flagship build by the merge-equivalence contract, so it
        shares marginalia_search's golden oracle — a driver-checkable
        correctness row for the merge path the north_rule names."""
        import shutil
        import tempfile

        import pandas as pd

        from marginalia_ray.index.merge import merge_builds
        from marginalia_ray.pipelines.index_pipeline import run_index_pipeline
        from marginalia_ray.query.engine import IndexSearcher

        out_root = tempfile.mkdtemp(prefix="marginalia_ray_qm_")
        try:
            for half in (0, 1):
                _stage_pages(sf_dir, f"{out_root}/pages{half}", mod=2, rem=half)
                run_index_pipeline(
                    f"{out_root}/pages{half}", f"{out_root}/half{half}", n_shards=8
                )
            merge_builds(
                [f"{out_root}/half0/build-0", f"{out_root}/half1/build-0"],
                f"{out_root}/merged",
            )
            s = IndexSearcher(f"{out_root}/merged")
            rows = []
            for q in (["spark", "join"], ["window", "batch"], ["customer"]):
                for rank, r in enumerate(s.search_words(q)):
                    rows.append(
                        {
                            "query": " ".join(q),
                            "rank": rank,
                            "url_id": r.url_id,
                            "score": round(r.score, 6),
                        }
                    )
            return pd.DataFrame(rows, columns=["query", "rank", "url_id", "score"])
        finally:
            shutil.rmtree(out_root, ignore_errors=True)

    from marginalia_ray.ops.dedup import exact_dedup_apply
    from marginalia_ray.ops.relational import domain_stats, sample_by_key, sessionize

    def q_dedup_apply(sf_dir: str):
        import ray.data

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
        )
        return exact_dedup_apply(ds)

    def q_sample(sf_dir: str):
        import ray.data

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
        )
        return sample_by_key(ds, 0.25)

    def q_domain_stats(sf_dir: str):
        import ray.data

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
        )
        return domain_stats(ds)

    def q_sessionize(sf_dir: str):
        import ray.data

        ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
        return sessionize(ev)

    from marginalia_ray.ops.relational import (
        asof_join,
        range_join,
        rolling_window,
        topk_per_group,
    )

    def q_asof(sf_dir: str):
        import ray.data

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
        )
        od = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
        )
        return asof_join(ev, od)

    def q_range_join(sf_dir: str):
        import ray.data

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
        )
        sess = sessionize(
            ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
        ).select_columns(["user_id", "session_no", "start_us", "end_us"])
        return range_join(ev, sess)

    def q_rolling(sf_dir: str):
        import ray.data

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
        )
        return rolling_window(ev)

    def q_broadcast_join(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import broadcast_join

        li = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_linenumber", "l_suppkey"],
        )
        supp = ray.data.read_parquet(
            f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name", "s_nationkey"]
        )
        return broadcast_join(li, supp, on="l_suppkey", small_on="s_suppkey")

    def q_hash_join(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import hash_equi_join

        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        )
        cust = ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_name", "c_mktsegment"],
        )
        return hash_equi_join(orders, cust, on="o_custkey", right_on="c_custkey")

    def q_hash_left_join(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import hash_equi_join

        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
        )
        cust = ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_name", "c_mktsegment"],
        ).filter(expr="c_mktsegment == 'BUILDING'")
        return hash_equi_join(
            orders, cust, on="o_custkey", right_on="c_custkey",
            right_cols=["c_name"], how="left",
        )

    def q_hash_full_join(sf_dir: str):
        # both sides filtered so unmatched rows exist on BOTH sides
        import ray.data

        from marginalia_ray.ops.relational import hash_equi_join

        import numpy as np
        import pyarrow as pa

        def _mod_keep(col: str, mod: int):
            def _f(b: pa.Table) -> pa.Table:
                v = b[col].to_numpy(zero_copy_only=False)
                return b.filter(pa.array(v % mod == 0))

            return _f

        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        ).map_batches(_mod_keep("o_orderkey", 3), batch_format="pyarrow")
        cust = ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_name", "c_mktsegment"],
        ).map_batches(_mod_keep("c_custkey", 2), batch_format="pyarrow")
        return hash_equi_join(
            orders, cust, on="o_custkey", right_on="c_custkey", how="full"
        )

    def q_ngram_novelty(sf_dir: str):
        from marginalia_ray.ops.dedup import ngram_novelty

        return ngram_novelty(_docs(sf_dir))

    def q_token_entropy(sf_dir: str):
        from marginalia_ray.ops.text_ops import token_entropy

        return token_entropy(_docs(sf_dir))

    def q_tumbling_window(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import hopping_window

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
        )
        return hopping_window(ev, width_minutes=TUMBLE_MIN)

    def q_hopping_window(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import hopping_window

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
        )
        return hopping_window(ev, width_minutes=TUMBLE_MIN, hop_minutes=HOP_MIN)

    def q_topk_group(sf_dir: str):
        import ray.data

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
        )
        return topk_per_group(ev)

    def q_chunk_documents(sf_dir: str):
        from marginalia_ray.ops.text_ops import chunk_documents

        return chunk_documents(_docs(sf_dir), chunk_tokens=CHUNK_TOKENS)

    def q_cohort_retention(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import cohort_retention

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
        )
        return cohort_retention(ev)

    def q_pagerank(sf_dir: str):
        # integer-exact PageRank over the distinct supplier -> part-bucket
        # edge list (l_suppkey -> l_partkey % 100)
        import numpy as np
        import pyarrow as pa
        import ray.data

        from marginalia_ray.ops.graph import pagerank_scores

        li = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
        )

        def _edges(b: pa.Table) -> pa.Table:
            pk = b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {
                    "src": b["l_suppkey"].cast(pa.int64()),
                    "dst": pa.array(pk % 100, pa.int64()),
                }
            )

        return pagerank_scores(li.map_batches(_edges, batch_format="pyarrow"))

    def q_text_normalize(sf_dir: str):
        # the fixture text is ASCII, so the query decorates each doc with
        # a doc_id-parity unicode suffix: even ids get composed "café"
        # (NFC identity), odd ids the decomposed form (combining acute,
        # U+0301) that NFC recomposes — the oracle decorates identically
        import pyarrow as pa
        import pyarrow.compute as pc

        from marginalia_ray.ops.text_ops import text_normalize

        composed = " caf\u00e9"  # NFC-composed e-acute
        decomposed = " cafe\u0301"  # e + combining acute: NFC recomposes

        def _decorate(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            suffix = pa.array(
                [composed if i % 2 == 0 else decomposed for i in ids], pa.string()
            )
            s = pc.binary_join_element_wise(batch["text"], suffix, pa.scalar(""))
            return pa.table({"doc_id": batch["doc_id"], "text": s})

        return text_normalize(
            _docs(sf_dir).map_batches(_decorate, batch_format="pyarrow")
        )

    def q_pii(sf_dir: str):
        # the synthetic fixture carries no PII, so the query decorates each
        # doc with deterministic doc_id-derived PII (email/phone/IPv4) and
        # scrubs it — the oracle applies the identical decoration in SQL
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        def _decorate(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"]
            ids_i = ids.to_numpy(zero_copy_only=False)
            phone = pa.array((1000 + ids_i % 9000).astype("int64"))
            ip1 = pa.array((ids_i % 256).astype("int64"))
            ip2 = pa.array(((ids_i // 256) % 256).astype("int64"))
            s = pc.binary_join_element_wise(
                batch["text"],
                pa.scalar(" contact user"),
                pc.cast(ids, pa.string()),
                pa.scalar("@example.com call 555-867-"),
                pc.cast(phone, pa.string()),
                pa.scalar(" from 10."),
                pc.cast(ip1, pa.string()),
                pa.scalar("."),
                pc.cast(ip2, pa.string()),
                pa.scalar(".7"),
                pa.scalar(""),  # element-wise separator
            )
            return pa.table({"doc_id": ids, "text": s})

        return pii_scrub(_docs(sf_dir).map_batches(_decorate, batch_format="pyarrow"))

    def q_c4(sf_dir: str):
        # the fixture is single-line prose, so the query decorates it into
        # multi-line form deterministically (split at ' and ', plus a
        # 'lorem ipsum' page-poison on doc_id % 7 == 0) — the oracle
        # applies the identical decoration in SQL
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        from marginalia_ray.ops.text_ops import c4_filter

        def _decorate(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"]
            s = pc.replace_substring(batch["text"], " and ", ".\n")
            s = pc.replace_substring(s, " the ", ".\n")
            ids_i = ids.to_numpy(zero_copy_only=False)
            suffix = np.where(ids_i % 7 == 0, "\nlorem ipsum", "")
            s = pc.binary_join_element_wise(
                s, pa.scalar("."), pa.array(suffix.astype(object)), ""
            )
            return pa.table({"doc_id": ids, "text": s})

        return c4_filter(_docs(sf_dir).map_batches(_decorate, batch_format="pyarrow"))

    def q_knn_pq(sf_dir: str):
        # seeded random codebooks (the knn_cosine_ivf convention): the op
        # becomes a pure function of the data, so the oracle can inline
        # the same codebooks as SQL literals
        from marginalia_ray.ops.similarity import knn_cosine_pq

        qm, qids = _query_vectors(sf_dir)
        return knn_cosine_pq(
            _emb(sf_dir), qm, qids, k=KNN_K, m=PQ_M, n_codes=PQ_CODES,
            codebooks=_pq_codebooks(),
        )

    def q_decontaminate(sf_dir: str):
        # plant a known contamination passage on doc_id % 11 == 0; the
        # benchmark side is doc_id % 50 == 0 (doc 0 carries the passage,
        # so every planted doc is cross-contaminated) — the oracle
        # applies the identical decoration in SQL
        import numpy as np
        import pyarrow as pa

        from marginalia_ray.ops.curation import decontaminate

        def _decorate(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            suffix = np.where(ids % DECON_PLANT_MOD == 0, " " + DECON_PASSAGE, "")
            txt = pc.binary_join_element_wise(
                pc.utf8_lower(batch["text"]), pa.array(suffix.astype(object)), ""
            )
            return pa.table({"doc_id": batch["doc_id"], "text": txt})

        def _bench_only(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % DECON_BENCH_MOD == 0))

        dec = _docs(sf_dir).map_batches(_decorate, batch_format="pyarrow")
        bench = dec.map_batches(_bench_only, batch_format="pyarrow")
        return decontaminate(dec, bench, n=DECON_N)

    def q_token_budget_pack(sf_dir: str):
        from marginalia_ray.ops.curation import token_budget_pack

        return token_budget_pack(_docs(sf_dir), budget=PACK_BUDGET)

    def q_length_percentile(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.curation import length_percentile

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
        )
        return length_percentile(ds, col="n_chars", lo=PCT_LO, hi=PCT_HI)

    def q_sentence_dedup(sf_dir: str):
        # decorate the single-line fixture into sentences (' merge ' and
        # ' data ' become boundaries) and plant a boilerplate sentence on
        # doc_id % 4 == 0 so the hot-sentence path fires; the oracle
        # applies the identical decoration in SQL
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        from marginalia_ray.ops.curation import sentence_dedup

        def _decorate(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            s = pc.replace_substring(batch["text"], " merge ", ". ")
            s = pc.replace_substring(s, " data ", ". ")
            suffix = np.where(ids % SDEDUP_PLANT_MOD == 0, ". " + SDEDUP_BOILER, "")
            s = pc.binary_join_element_wise(s, pa.array(suffix.astype(object)), "")
            return pa.table({"doc_id": batch["doc_id"], "text": s})

        return sentence_dedup(
            _docs(sf_dir).map_batches(_decorate, batch_format="pyarrow"),
            max_docs=SDEDUP_MAX_DOCS,
        )

    def q_cms(sf_dir: str):
        from marginalia_ray.ops.sketch import cms_term_counts

        return cms_term_counts(_docs(sf_dir), list(CMS_QUERY_TERMS))

    def q_hll(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.sketch import approx_distinct_by_key

        ds = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
        )
        return approx_distinct_by_key(ds, key_col="event_type", val_col="user_id")

    def q_funnel(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import funnel_count

        ds = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
        )
        return funnel_count(ds, steps=list(FUNNEL_STEPS))

    def q_median_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import median_by_key

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
        )
        return median_by_key(ds, key_col="source", val_col="n_chars")

    def q_bigram_perplexity(sf_dir: str):
        from marginalia_ray.ops.curation import bigram_perplexity

        return bigram_perplexity(_docs(sf_dir))

    def q_stratified_sample(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.curation import stratified_sample_n

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
        )
        return stratified_sample_n(ds, key_col="lang", n=STRAT_N)

    def q_mixture_sample(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.curation import mixture_sample

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
        )
        return mixture_sample(ds, MIXTURE_WEIGHTS, key_col="lang")

    def q_fuzzy_components(sf_dir: str):
        # minhash+LSH pairs (verified-exact, same recall contract as the
        # minhash_dedup query) -> large-star/small-star connected
        # components -> every doc labeled with its dup-cluster minimum
        from marginalia_ray.ops.graph import fuzzy_dedup_components

        return fuzzy_dedup_components(
            _docs(sf_dir), threshold=JACCARD_THRESHOLD, method="minhash"
        )

    def q_substring_dedup_apply(sf_dir: str):
        from marginalia_ray.ops.dedup import substring_dedup_apply

        return substring_dedup_apply(_docs(sf_dir))

    def q_soft_dedup_weights(sf_dir: str):
        from marginalia_ray.ops.graph import soft_dedup_weights

        return soft_dedup_weights(
            _docs(sf_dir), threshold=JACCARD_THRESHOLD, method="minhash"
        )

    def q_dsir_weights(sf_dir: str):
        # DSIR importance resampling weights: target = the English slice,
        # raw = the whole corpus
        import ray.data

        from marginalia_ray.ops.curation import dsir_weights

        raw = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
        )
        target = raw.filter(expr="lang == 'en'")
        return dsir_weights(
            raw.drop_columns(["lang"]), target.drop_columns(["lang"])
        )

    def q_domain_adjacencies(sf_dir: str):
        # website-adjacencies calculator (similar-domains weighted cosine
        # over inlink sets); edge fixture: supplier -> part restricted to
        # part % 10 == 0 so the co-occurrence graph stays sparse at sf0.1
        import pyarrow.compute as pc
        import ray.data

        from marginalia_ray.ops.graph import domain_adjacencies

        def _mod10(b):
            pk = b["l_partkey"]
            return b.filter(
                pc.equal(pc.subtract(pk, pc.multiply(pc.divide(pk, 10), 10)), 0)
            )

        edges = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
        ).map_batches(_mod10, batch_format="pyarrow")
        return domain_adjacencies(
            edges, source_col="l_suppkey", dest_col="l_partkey"
        )

    def _browse_domains(sf_dir: str):
        """EC_DOMAIN fixture for the browse/explore family (ops/browse.py):
        deterministic name/state/indexed/alias columns derived from part —
        mirrored by the `dom` CTE in the browse oracles."""
        import numpy as np
        import pyarrow as pa
        import ray.data

        def _mk(b: "pa.Table") -> "pa.Table":
            pk = b["p_partkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            ps = b["p_size"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            ids_u = pk.astype("U")
            name = np.where(
                pk % 13 == 0,
                np.char.add("nodot", ids_u),
                np.char.add(np.char.add("d", ids_u), ".example.com"),
            )
            alias_ok = (pk % 110 == 0) & (pk > 0)
            return pa.table(
                {
                    "domain_id": pa.array(pk),
                    "domain_name": pa.array(name.tolist(), pa.string()),
                    "state": pa.array(pk % 5),
                    "indexed": pa.array(ps % 3),
                    "domain_alias": pa.array(
                        np.where(alias_ok, pk - 10, 0), mask=~alias_ok
                    ),
                    "rank_d": pa.array(((pk * 7919) % 997) / 997.0),
                }
            )

        # a small dimension table: don't let Ray split it into 64
        # per-cpu micro-blocks per consumption (3 consumers here)
        return ray.data.read_parquet(
            f"{sf_dir}/part.parquet",
            columns=["p_partkey", "p_size"],
            override_num_blocks=8,
        ).map_batches(_mk, batch_format="pyarrow")

    def q_random_domains(sf_dir: str):
        # DbBrowseDomainsRandom.getRandomDomains with deterministic RAND():
        # EC_RANDOM_DOMAINS membership = p_partkey % 7 in (0, 1), set = % 7
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data

        from marginalia_ray.ops.browse import random_domains

        def _sets(b: "pa.Table") -> "pa.Table":
            pk = b["p_partkey"].cast(pa.int64())
            t = pa.table(
                {
                    "domain_id": pk,
                    "domain_set": pc.subtract(
                        pk, pc.multiply(pc.divide(pk, 7), 7)
                    ),
                }
            )
            return t.filter(pc.less(t["domain_set"], 2))

        sets = ray.data.read_parquet(
            f"{sf_dir}/part.parquet", columns=["p_partkey"]
        ).map_batches(_sets, batch_format="pyarrow")
        return random_domains(
            _browse_domains(sf_dir),
            sets,
            count=BROWSE_RANDOM_COUNT,
            domain_set=0,
            blacklist=BROWSE_RANDOM_BLACKLIST,
            seed=BROWSE_RANDOM_SEED,
        )

    def q_similar_domains(sf_dir: str):
        # DbBrowseDomainsSimilarCosine: top-N neighbors of each probe with
        # screenshots (domain_id % 3 != 1), blacklist-filtered — served
        # from the stored browse artifact (probe buckets only); parity
        # with the streaming op pinned in tests/test_browse_artifact.py
        return _browse_art(sf_dir).similar_domains(
            SIM_PROBES, count=SIM_COUNT, blacklist=SIM_BLACKLIST
        )

    def q_explorer_related(sf_dir: str):
        # ExplorerService.getRelatedDomains for one probe (alias-following),
        # served from the stored browse artifact (EC_DOMAIN_NEIGHBORS_2 is
        # a stored table in the reference); parity with the streaming op
        # pinned in tests/test_browse_artifact.py
        return _browse_art(sf_dir).explorer_related(EXPLORER_PROBE)

    def q_browse_url_ids(sf_dir: str):
        # getBrowseResultFromUrlIds: EC_URL_VIEW from orders (quality =
        # o_orderkey % 25 - 12), DOMAIN_METADATA.KNOWN_URLS = per-customer
        # order count, probe ids = multiples of 97
        import numpy as np
        import pyarrow as pa
        import ray.data

        from marginalia_ray.ops.browse import browse_url_ids

        def _urls(b: "pa.Table") -> "pa.Table":
            ok = b["o_orderkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            ck = b["o_custkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            name = np.char.add(np.char.add("c", ck.astype("U")), ".example.org")
            return pa.table(
                {
                    "url_id": pa.array(ok),
                    "domain_id": pa.array(ck),
                    "domain_name": pa.array(name.tolist(), pa.string()),
                    "quality": pa.array((ok % 25).astype(np.float64) - 12.0),
                }
            )

        urls = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
        ).map_batches(_urls, batch_format="pyarrow")

        def _meta(b: "pa.Table") -> "pa.Table":
            return pa.table(
                {
                    "domain_id": b["o_custkey"].cast(pa.int64()),
                    "known_urls": b["count()"].cast(pa.int64()),
                }
            )

        meta = (
            ray.data.read_parquet(
                f"{sf_dir}/orders.parquet", columns=["o_custkey"]
            )
            .groupby("o_custkey")
            .count()
            .map_batches(_meta, batch_format="pyarrow")
        )
        ids = np.arange(0, 1_000_000, URL_BROWSE_MOD)
        return browse_url_ids(
            urls, meta, url_ids=ids, max_known=URL_BROWSE_MAX_KNOWN
        )

    def _browse_links(sf_dir: str):
        # EC_DOMAIN_LINK fixture shared by old_algo_neighbors/site_info:
        # supplier->part edges plus part->(10*supplier) edges so probes
        # have outlinks; DISTINCT via one src-bucketed exchange
        import numpy as np
        import pyarrow as pa
        import ray.data

        from marginalia_ray.ops.dedup import _fmix64_vec as _fx

        def _links(b: "pa.Table") -> "pa.Table":
            pk = b["l_partkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            sk = b["l_suppkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            m = pk % 10 == 0
            return pa.table(
                {
                    "src": pa.array(np.concatenate([sk[m], pk[m]])),
                    "dst": pa.array(np.concatenate([pk[m], sk[m] * 10])),
                }
            )

        def _uniq_key(b: "pa.Table") -> "pa.Table":
            s = b["src"].to_numpy(zero_copy_only=False)
            pk = (_fx(s.astype(np.uint64)) % np.uint64(64)).view(np.int64)
            return b.append_column("_pk", pa.array(pk))

        def _uniq(part: "pa.Table") -> "pa.Table":
            if part.num_rows == 0:
                return pa.table(
                    {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
                )
            s = part["src"].to_numpy(zero_copy_only=False)
            d = part["dst"].to_numpy(zero_copy_only=False)
            order = np.lexsort((d, s))
            s, d = s[order], d[order]
            keep = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])]
            return pa.table({"src": pa.array(s[keep]), "dst": pa.array(d[keep])})

        return (
            ray.data.read_parquet(
                f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
            )
            .map_batches(_links, batch_format="pyarrow")
            .map_batches(_uniq_key, batch_format="pyarrow")
            .groupby("_pk")
            .map_groups(_uniq, batch_format="pyarrow")
        )

    def _browse_art(sf_dir: str):
        """Build-once-serve-many browse artifact (VERDICT r4 #4): the
        EC_DOMAIN_NEIGHBORS / DOMAIN_METADATA materialization the
        reference fills at batch time, cached per sf_dir under /tmp.
        neighbors = per-domain relatedness rank of the adjacency output;
        meta = per-part lineitem aggregates (known = rows, visited =
        distinct orders, good = distinct suppliers, rank = (id*7919)%997
        as in the old-algo fixture); crawl queue = names with id % 9 == 0,
        blacklist names = id % 31 == 0."""
        import os

        import numpy as np
        import pyarrow as pa
        import ray.data

        from marginalia_ray.pipelines.browse_artifact import (
            BrowseArtifact,
            build_browse_artifact,
            rank_neighbors,
        )

        out = _browse_cache_dir(sf_dir)
        if os.path.exists(f"{out}/_MANIFEST.json"):
            return BrowseArtifact(out)

        from marginalia_ray.ops.dedup import _fmix64_vec as _fx

        def _rn_key(b: "pa.Table") -> "pa.Table":
            d = b["domain_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            pk = (_fx(d.astype(np.uint64)) % np.uint64(64)).view(np.int64)
            return b.append_column("_pk", pa.array(pk))

        nb = (
            q_domain_adjacencies(sf_dir)
            .map_batches(_rn_key, batch_format="pyarrow")
            .groupby("_pk")
            .map_groups(rank_neighbors, batch_format="pyarrow")
        )

        def _meta_key(b: "pa.Table") -> "pa.Table":
            pk = b["l_partkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            bk = (_fx(pk.astype(np.uint64)) % np.uint64(64)).view(np.int64)
            return b.append_column("_pk", pa.array(bk))

        def _meta_part(part: "pa.Table") -> "pa.Table":
            # vectorized per-domain counts within the bucket partition
            if part.num_rows == 0:
                return pa.table(
                    {
                        "domain_id": pa.array([], pa.int64()),
                        "known_urls": pa.array([], pa.int64()),
                        "visited_urls": pa.array([], pa.int64()),
                        "good_urls": pa.array([], pa.int64()),
                        "rank": pa.array([], pa.int64()),
                    }
                )
            pk = part["l_partkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            ok = part["l_orderkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            sk = part["l_suppkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            order = np.lexsort((ok, pk))
            p_s, o_s = pk[order], ok[order]
            starts = np.flatnonzero(np.r_[True, p_s[1:] != p_s[:-1]])
            seg = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(p_s)]))
            known = np.bincount(seg)
            new_ok = np.r_[True, (p_s[1:] != p_s[:-1]) | (o_s[1:] != o_s[:-1])]
            visited = np.bincount(seg, weights=new_ok).astype(np.int64)
            order2 = np.lexsort((sk, pk))
            p2, s2 = pk[order2], sk[order2]
            seg2 = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(p_s)]))
            new_sk = np.r_[True, (p2[1:] != p2[:-1]) | (s2[1:] != s2[:-1])]
            good = np.bincount(seg2, weights=new_sk).astype(np.int64)
            ids = p_s[starts]
            return pa.table(
                {
                    "domain_id": pa.array(ids),
                    "known_urls": pa.array(known.astype(np.int64)),
                    "visited_urls": pa.array(visited),
                    "good_urls": pa.array(good),
                    "rank": pa.array((ids * 7919) % 997),
                }
            )

        meta = (
            ray.data.read_parquet(
                f"{sf_dir}/lineitem.parquet",
                columns=["l_partkey", "l_orderkey", "l_suppkey"],
            )
            .map_batches(_meta_key, batch_format="pyarrow")
            .groupby("_pk")
            .map_groups(_meta_part, batch_format="pyarrow")
        )
        doms = _browse_domains(sf_dir)

        def _mod_names(mod: int):
            def _f(t: "pa.Table") -> "pa.Table":
                ids = t["domain_id"].to_numpy(zero_copy_only=False)
                return pa.table(
                    {"domain_name": t["domain_name"].filter(pa.array(ids % mod == 0))}
                )

            return _f

        def _shots(b: "pa.Table") -> "pa.Table":
            pk = b["p_partkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            return pa.table({"domain_id": pa.array(pk[pk % 3 != 1])})

        shots = ray.data.read_parquet(
            f"{sf_dir}/part.parquet", columns=["p_partkey"]
        ).map_batches(_shots, batch_format="pyarrow")
        build_browse_artifact(
            out,
            neighbors=nb,
            links=_browse_links(sf_dir),
            domains=doms,
            meta=meta,
            crawl_queue=doms.map_batches(_mod_names(9), batch_format="pyarrow"),
            blacklist_names=doms.map_batches(_mod_names(31), batch_format="pyarrow"),
            screenshots=shots,
            n_buckets=16,
        )
        return BrowseArtifact(out)

    def q_old_algo_neighbors(sf_dir: str):
        # DbBrowseDomainsSimilarOldAlgo three-stage cascade, served from
        # the stored browse artifact (the reference reads EC_DOMAIN_
        # NEIGHBORS / EC_DOMAIN_LINK / DOMAIN_METADATA SQL tables per
        # probe — it never scans the corpus); parity with the streaming
        # op is pinned by tests/test_browse_artifact.py
        return _browse_art(sf_dir).old_algo_neighbors(
            OLD_ALGO_PROBE,
            count=OLD_ALGO_COUNT,
            blacklist=OLD_ALGO_BLACKLIST,
            max_known=OLD_ALGO_MAX_KNOWN,
        )

    def q_site_info(sf_dir: str):
        # DomainInformationService site: info card from ONE consolidated
        # artifact row (degrees/flags/linking-domains precomputed at
        # build time)
        return _browse_art(sf_dir).site_info(SITE_INFO_PROBE)


    def q_crawl_specs(sf_dir: str):
        # CrawlJobDomainExtractor: EC_URL from lineitem rows (url_id =
        # 10*orderkey + linenumber so rows are unique without a distinct
        # pass), visited = uid % 3 != 0, data-hash present = uid % 2 == 0;
        # crawl queue = domains with id % 9 == 0 plus one unknown name
        import numpy as np
        import pyarrow as pa
        import ray.data

        from marginalia_ray.ops.crawlspec import crawl_specs

        def _urls(b: "pa.Table") -> "pa.Table":
            pk = b["l_partkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            ok = b["l_orderkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            ln = b["l_linenumber"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            uid = ok * 10 + ln
            url = np.char.add(
                np.char.add(
                    np.char.add("https://d", pk.astype("U")), "/p"
                ),
                uid.astype("U"),
            )
            return pa.table(
                {
                    "domain_id": pa.array(pk),
                    "url": pa.array(url.tolist(), pa.string()),
                    "visited": pa.array(uid % 3 != 0),
                    "has_hash": pa.array(uid % 2 == 0),
                    "url_id": pa.array(uid),
                }
            )

        urls = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_orderkey", "l_linenumber"],
        ).map_batches(_urls, batch_format="pyarrow")
        doms = _browse_domains(sf_dir)

        def _qnames(t: "pa.Table") -> "pa.Table":
            ids = t["domain_id"].to_numpy(zero_copy_only=False)
            return pa.table(
                {"domain_name": t["domain_name"].filter(pa.array(ids % 9 == 0))}
            )

        cq = doms.map_batches(_qnames, batch_format="pyarrow").union(
            ray.data.from_arrow(
                pa.table({"domain_name": pa.array([CRAWL_QUEUE_NEW], pa.string())})
            )
        )
        return crawl_specs(doms, urls, cq, blacklist=CRAWL_BLACKLIST)

    def q_semantic_dedup(sf_dir: str):
        # seeded centroids (the knn_cosine_ivf convention) so the op is a
        # pure function of the data and the DuckDB oracle can mirror it
        from marginalia_ray.ops.similarity import semantic_dedup

        return semantic_dedup(
            _emb(sf_dir), threshold=SEMDEDUP_THRESHOLD, centroids=_ivf_centroids()
        )

    def q_near_dedup_apply(sf_dir: str):
        # the end-to-end "dedup my corpus": minhash pairs -> connected
        # components -> anti-filter non-minimum members; returns the
        # SURVIVING rows with all original columns
        import ray.data

        from marginalia_ray.ops.graph import near_dedup_apply

        ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
        return near_dedup_apply(ds, threshold=JACCARD_THRESHOLD, method="minhash")

    def q_linear_classifier(sf_dir: str):
        from marginalia_ray.ops.classify import linear_classifier

        return linear_classifier(_docs(sf_dir))

    def q_bloom_membership(sf_dir: str):
        # id-level seen-set: Bloom filter over the benchmark id subset
        # (doc_id % DECON_BENCH_MOD == 0, the decontaminate convention),
        # probed by every document — n_bits deliberately small so the
        # textbook false positives actually occur and the oracle proves
        # it reproduces them exactly
        import pyarrow as pa
        import ray.data

        from marginalia_ray.ops.sketch import bloom_filter_membership

        docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

        def _bench_only(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % DECON_BENCH_MOD == 0))

        bench = docs.map_batches(_bench_only, batch_format="pyarrow")
        return bloom_filter_membership(
            bench, docs, "doc_id", "doc_id", n_bits=BLOOM_BITS, k=BLOOM_K
        )

    def q_similarity_join(sf_dir: str):
        # entity-resolution style fuzzy join: even-id docs matched against
        # odd-id docs by n-gram Jaccard (the fixture's planted near-dups
        # cross the parity split)
        import pyarrow as pa

        from marginalia_ray.ops.dedup import similarity_join

        def _parity(p: int):
            def _f(batch: pa.Table) -> pa.Table:
                ids = batch["doc_id"].to_numpy(zero_copy_only=False)
                return batch.filter(pa.array(ids % 2 == p))

            return _f

        docs = _docs(sf_dir)
        return similarity_join(
            docs.map_batches(_parity(0), batch_format="pyarrow"),
            docs.map_batches(_parity(1), batch_format="pyarrow"),
            threshold=JACCARD_THRESHOLD,
        )

    def q_group_quality_filter(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.curation import group_quality_filter

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
        )
        return group_quality_filter(ds, min_mean_quality=GRPQ_MIN_MEAN)

    def q_pmi(sf_dir: str):
        from marginalia_ray.ops.curation import pmi_collocations

        return pmi_collocations(_docs(sf_dir), min_count=PMI_MIN_COUNT, k=PMI_K)

    def q_ccnet_buckets(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.curation import ccnet_buckets

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
        )
        return ccnet_buckets(ds)

    def q_suggest_terms(sf_dir: str):
        from marginalia_ray.ops.suggest import suggest_terms

        return suggest_terms(_docs(sf_dir), SUGGEST_PREFIXES, count=SUGGEST_COUNT)

    def q_spell_correct(sf_dir: str):
        from marginalia_ray.ops.suggest import spell_correct

        return spell_correct(_docs(sf_dir), SPELL_PROBES, k=SPELL_K)

    def q_heavy_hitters(sf_dir: str):
        from marginalia_ray.ops.sketch import heavy_hitters

        return heavy_hitters(_docs(sf_dir), num=HH_NUM, den=HH_DEN)

    def q_heavy_ngrams(sf_dir: str):
        # frequent-phrase / boilerplate mining: heavy 3-grams
        from marginalia_ray.ops.sketch import heavy_hitters

        return heavy_hitters(_docs(sf_dir), num=HH3_NUM, den=HH3_DEN, ngram=3)

    def q_quantile_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import quantile_by_key

        ds = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
        )
        return quantile_by_key(ds, q=0.9)

    def q_novel_against_corpus(sf_dir: str):
        import pyarrow.compute as pc
        import ray.data

        from marginalia_ray.ops.dedup import novel_against_corpus

        def _parity(rem: int):
            def _f(batch):
                return batch.filter(
                    pc.equal(pc.bit_wise_and(batch["doc_id"], 1), rem)
                )

            return _f

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        return novel_against_corpus(
            docs.map_batches(_parity(1), batch_format="pyarrow"),
            docs.map_batches(_parity(0), batch_format="pyarrow"),
        )

    def _customers(sf_dir: str):
        import ray.data

        return ray.data.read_parquet(f"{sf_dir}/customer.parquet")

    def _f_orders(sf_dir: str):
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data

        def _keep(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b["o_orderstatus"], SEMI_STATUS)).select(
                ["o_custkey"]
            )

        return ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderstatus"]
        ).map_batches(_keep, batch_format="pyarrow")

    def q_semi_join(sf_dir: str):
        from marginalia_ray.ops.relational import hash_semi_join

        return hash_semi_join(
            _customers(sf_dir), _f_orders(sf_dir), on="c_custkey",
            right_on="o_custkey", how="semi",
        )

    def q_anti_join(sf_dir: str):
        from marginalia_ray.ops.relational import hash_semi_join

        return hash_semi_join(
            _customers(sf_dir), _f_orders(sf_dir), on="c_custkey",
            right_on="o_custkey", how="anti",
        )

    def q_event_deltas(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import event_deltas

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
        )
        return event_deltas(ev)

    def q_cumsum_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import cumsum_by_key

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "value"],
        )
        return cumsum_by_key(ev)

    def q_pivot_counts(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import pivot_counts

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
        )
        return pivot_counts(ev, list(EVENT_TYPES))

    def q_value_histogram(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import value_histogram

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "value"]
        )
        return value_histogram(ev, bin_width=HIST_BIN_WIDTH)

    def q_flesch(sf_dir: str):
        from marginalia_ray.ops.text_ops import flesch_readability

        return flesch_readability(_docs(sf_dir))

    def q_distinct_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import distinct_by_key

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
        )
        return distinct_by_key(ev)

    def q_rank_with_ties(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import rank_with_ties

        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderkey", "o_totalprice"],
        )
        return rank_with_ties(orders, k=RANK_K)

    def q_langid_confusion(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.text_ops import langid_confusion

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
        )
        return langid_confusion(docs)

    def q_mode_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import mode_by_key

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
        )
        return mode_by_key(ev)

    def q_ntile_buckets(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import ntile_buckets

        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderkey", "o_totalprice"],
        )
        return ntile_buckets(orders, n=NTILE_N)

    def q_window_unique_users(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import window_unique_users

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
        )
        return window_unique_users(ev, width_minutes=UNIQ_WIN_MIN)

    def q_activity_streaks(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import activity_streaks

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
        )
        return activity_streaks(ev)

    def q_string_agg_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import string_agg_by_key

        sup = ray.data.read_parquet(
            f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_name"]
        )
        return string_agg_by_key(sup)

    def q_benford_digits(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import benford_digits

        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
        )
        return benford_digits(orders)

    def q_dup_cluster_sizes(sf_dir: str):
        from marginalia_ray.ops.dedup import dup_cluster_sizes

        return dup_cluster_sizes(_docs(sf_dir))

    def q_source_token_jaccard(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.dedup import source_token_jaccard

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "text"]
        )
        return source_token_jaccard(docs)

    def q_percent_rank(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import percent_rank_by_key

        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderkey", "o_totalprice"],
        )
        return percent_rank_by_key(orders)

    def q_weekly_revenue_delta(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import weekly_revenue_delta

        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
        )
        return weekly_revenue_delta(orders)

    def q_zscore_outliers(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import zscore_outliers

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
        )
        return zscore_outliers(docs, z=ZSCORE_Z)

    def q_bpe_pair_counts(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.text_ops import bpe_pair_counts

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["text"]
        )
        return bpe_pair_counts(docs)

    def q_token_length_histogram(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.text_ops import token_length_histogram

        docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
        return token_length_histogram(docs)

    def q_vocab_growth(sf_dir: str):
        from marginalia_ray.ops.text_ops import vocab_growth

        return vocab_growth(_docs(sf_dir))

    def q_dup_rate_by_source(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.dedup import dup_rate_by_source

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "text"]
        )
        return dup_rate_by_source(docs)

    def q_first_last_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import first_last_by_key

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
        )
        return first_last_by_key(ev)

    def q_session_duration_histogram(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import session_duration_histogram

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
        )
        return session_duration_histogram(ev, bin_minutes=SESS_BIN_MIN)

    def q_mad_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import mad_by_key

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
        )
        return mad_by_key(docs)

    def q_revenue_by_nation(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import revenue_by_nation

        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
        )
        customer = ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
        nation = ray.data.read_parquet(
            f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
        )
        return revenue_by_nation(orders, customer, nation)

    def q_pricing_summary(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import pricing_summary

        li = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=[
                "l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_tax",
            ],
        )
        return pricing_summary(li)

    def q_ship_delay_histogram(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import ship_delay_histogram

        li = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
        )
        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
        )
        return ship_delay_histogram(li, orders)

    def q_json_field_stats(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import json_field_stats

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "props"]
        )
        return json_field_stats(ev)

    def q_skipgram_counts(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.text_ops import skipgram_counts

        docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
        return skipgram_counts(docs, k=SKIP_K, min_count=SKIP_MIN)

    def q_graph_degree_stats(sf_dir: str):
        # same edge convention as pagerank_scores: supplier -> part bucket
        import numpy as np
        import pyarrow as pa
        import ray.data

        from marginalia_ray.ops.graph import graph_degree_stats

        li = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
        )

        def _edges(batch: pa.Table) -> pa.Table:
            pk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {"src": batch["l_suppkey"], "dst": pa.array(pk % 100)}
            )

        return graph_degree_stats(li.map_batches(_edges, batch_format="pyarrow"))

    def q_hits_scores(sf_dir: str):
        # same supplier -> part-bucket edge convention as graph_degree_stats
        import numpy as np
        import pyarrow as pa
        import ray.data

        from marginalia_ray.ops.graph import hits_scores

        li = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
        )

        def _edges(batch: pa.Table) -> pa.Table:
            pk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {
                    "src": batch["l_suppkey"].cast(pa.int64()),
                    "dst": pa.array(pk % 100),
                }
            )

        return hits_scores(li.map_batches(_edges, batch_format="pyarrow"))

    def q_gini_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import gini_by_key

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
        )
        return gini_by_key(docs)

    def q_spearman_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import spearman_by_key

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
        )
        return spearman_by_key(ev)

    def q_max_concurrent_sessions(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import max_concurrent_sessions

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
        )
        return max_concurrent_sessions(ev)

    def q_column_profile(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import column_profile

        ev = ray.data.read_parquet(f"{sf_dir}/events.parquet")
        return column_profile(ev)

    def q_global_quantiles(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import global_quantiles

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["n_chars"]
        )
        return global_quantiles(docs, qs=GLOBAL_QS)

    def q_approx_quantiles(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.sketch import approx_quantiles

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
        )
        return approx_quantiles(docs, qs=GLOBAL_QS, k=AQ_K, seed=AQ_SEED)

    def q_approx_quantiles_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.sketch import approx_quantiles_by_key

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
        )
        return approx_quantiles_by_key(
            docs, qs=GLOBAL_QS, key_col="source", k=AQK_K, seed=AQ_SEED
        )

    def q_mutual_information(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import mutual_information

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "lang"]
        )
        return mutual_information(docs, x_col="source", y_col="lang")

    def q_event_transitions(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import event_transitions

        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type"],
        )
        return event_transitions(ev)

    def q_correlation_matrix(sf_dir: str):
        import numpy as np
        import pyarrow as pa
        import ray.data

        from marginalia_ray.ops.relational import correlation_matrix

        li = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_quantity", "l_discount", "l_tax", "l_linenumber"],
        )

        def _units(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "qty": pa.array(
                        np.round(
                            b["l_quantity"].to_numpy(zero_copy_only=False)
                        ).astype(np.int64)
                    ),
                    "disc": pa.array(
                        np.round(
                            b["l_discount"].to_numpy(zero_copy_only=False) * 100
                        ).astype(np.int64)
                    ),
                    "tax": pa.array(
                        np.round(
                            b["l_tax"].to_numpy(zero_copy_only=False) * 100
                        ).astype(np.int64)
                    ),
                    "lineno": b["l_linenumber"].cast(pa.int64()),
                }
            )

        return correlation_matrix(
            li.map_batches(_units, batch_format="pyarrow"),
            ["qty", "disc", "tax", "lineno"],
        )

    def q_zipf_slope(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.text_ops import zipf_slope

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["text"]
        )
        return zipf_slope(docs, top_n=ZIPF_N)

    def q_chi_squared(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import chi_squared

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "lang"]
        )
        return chi_squared(docs)

    def q_blocklist_filter(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.text_ops import blocklist_filter

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        return blocklist_filter(docs, list(BLOCKLIST), max_hits=BLOCKLIST_MAX)

    def q_bpe_train(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.bpe import bpe_train

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["text"]
        )
        return bpe_train(docs, n_merges=BPE_TRAIN_MERGES, min_count=2)

    def q_diversity_by_key(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import diversity_by_key

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "lang"]
        )
        return diversity_by_key(docs)

    def q_weighted_sample(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.curation import weighted_sample

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
        )
        return weighted_sample(docs, k=WS_K, seed=WS_SEED)

    def q_triangle_count(sf_dir: str):
        # same edge convention as pagerank_scores / graph_degree_stats:
        # supplier -> part bucket (l_suppkey, l_partkey % 100)
        import numpy as np
        import pyarrow as pa
        import ray.data

        from marginalia_ray.ops.graph import triangle_count

        li = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
        )

        def _edges(b: pa.Table) -> pa.Table:
            pk = b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {
                    "src": b["l_suppkey"].cast(pa.int64()),
                    "dst": pa.array(pk % 100, pa.int64()),
                }
            )

        return triangle_count(li.map_batches(_edges, batch_format="pyarrow"))

    def q_ks_statistic(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import ks_statistic

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
        )
        return ks_statistic(docs, group_a="src0", group_b="src1")

    def q_training_shuffle(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.curation import training_shuffle

        docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
        return training_shuffle(docs, n_shards=SHUF_SHARDS, seed=SHUF_SEED)

    def q_edit_distance_pairs(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.dedup import edit_distance_pairs

        part = ray.data.read_parquet(f"{sf_dir}/part.parquet", columns=["p_name"])
        return edit_distance_pairs(part, col="p_name")

    def q_shipping_priority(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import shipping_priority

        cust = ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
        )
        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        )
        li = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        )
        return shipping_priority(cust, orders, li)

    def q_promo_revenue(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import promo_revenue

        li = ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        )
        part = ray.data.read_parquet(
            f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
        )
        return promo_revenue(li, part)

    def q_rollup_revenue(sf_dir: str):
        import ray.data

        from marginalia_ray.ops.relational import rollup_revenue

        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_totalprice", "o_orderdate"],
        )
        cust = ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
        nat = ray.data.read_parquet(
            f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
        )
        return rollup_revenue(orders, cust, nat)

    def q_audio_features(sf_dir: str):
        # Multimodal driver row (audio): deterministic 16-bit mono WAV per
        # doc (sr 8 kHz, secs = 0.5 + (doc_id % 5)/4, freq = 200 +
        # 100*(doc_id % 7)) through AudioFeatureStage's REAL decode;
        # output = the SQL-mirrorable metadata (the MFCC
        # values themselves are pytest-pinned, tests/test_mp2.py and
        # test_multimodal_decode.py)
        import io
        import wave

        import numpy as np
        import pyarrow as pa
        import ray.data

        from marginalia_ray.ops.multimodal import AudioFeatureStage

        def _wavs(b: "pa.Table") -> "pa.Table":
            out = []
            for did in b["doc_id"].to_pylist():
                sr = 8000
                secs = 0.5 + (did % 5) * 0.25
                freq = 200 + (did % 7) * 100
                n = int(sr * secs)
                x = 0.4 * np.sin(2 * np.pi * freq * np.arange(n) / sr)
                buf = io.BytesIO()
                with wave.open(buf, "wb") as wf:
                    wf.setnchannels(1)
                    wf.setsampwidth(2)
                    wf.setframerate(sr)
                    wf.writeframes((x * 32767).astype(np.int16).tobytes())
                out.append(buf.getvalue())
            return pa.table(
                {"doc_id": b["doc_id"], "audio": pa.array(out, pa.binary())}
            )

        ds = (
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id"]
            )
            .filter(expr="doc_id < 40")
            .map_batches(_wavs, batch_format="pyarrow", batch_size=16)
            .map_batches(
                AudioFeatureStage(), batch_format="pyarrow", batch_size=16
            )
        )
        return ds.select_columns(["doc_id", "duration_s", "sample_rate"])

    def q_image_features(sf_dir: str):
        # Multimodal driver row (image): deterministic RGB PNG per doc
        # (w = 8 + doc_id % 9, h = 6 + doc_id % 5, gradient fill) through
        # ImageDecodeStage's REAL PNG decode; output = the
        # SQL-mirrorable metadata (pixel/embedding correctness is
        # pytest-pinned, tests/test_multimodal_decode.py)
        import struct
        import zlib

        import numpy as np
        import pyarrow as pa
        import ray.data

        from marginalia_ray.ops.multimodal import ImageDecodeStage

        def _png(w: int, h: int, seed: int) -> bytes:
            px = (
                (np.arange(h)[:, None, None] * 31 + np.arange(w)[None, :, None] * 7
                 + np.arange(3)[None, None, :] * 11 + seed) % 256
            ).astype(np.uint8)
            raw = b"".join(b"\x00" + px[y].tobytes() for y in range(h))
            def chunk(typ, data):
                c = typ + data
                return struct.pack(">I", len(data)) + c + struct.pack(
                    ">I", zlib.crc32(c) & 0xFFFFFFFF
                )
            ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
            return (
                b"\x89PNG\r\n\x1a\n"
                + chunk(b"IHDR", ihdr)
                + chunk(b"IDAT", zlib.compress(raw))
                + chunk(b"IEND", b"")
            )

        def _imgs(b: "pa.Table") -> "pa.Table":
            out = []
            for did in b["doc_id"].to_pylist():
                out.append(_png(8 + did % 9, 6 + did % 5, did))
            return pa.table(
                {"doc_id": b["doc_id"], "image": pa.array(out, pa.binary())}
            )

        ds = (
            ray.data.read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id"]
            )
            .filter(expr="doc_id < 40")
            .map_batches(_imgs, batch_format="pyarrow", batch_size=16)
            .map_batches(
                ImageDecodeStage(), batch_format="pyarrow", batch_size=16
            )
        )
        return ds.select_columns(["doc_id", "width", "height", "channels"])

    # ordering is deliberate: the driver samples a prefix of this dict, so
    # the 47 queries that have never appeared in any CORRECTNESS_rN.json
    # (rounds 1-4) come FIRST; the long-green remainder follows in its
    # round-4 order (VERDICT r4 task #1).
    return {
        "vocab_growth": q_vocab_growth,
        "dup_rate_by_source": q_dup_rate_by_source,
        "first_last_by_key": q_first_last_by_key,
        "session_duration_histogram": q_session_duration_histogram,
        "mad_by_key": q_mad_by_key,
        "revenue_by_nation": q_revenue_by_nation,
        "pricing_summary": q_pricing_summary,
        "ship_delay_histogram": q_ship_delay_histogram,
        "json_field_stats": q_json_field_stats,
        "skipgram_counts": q_skipgram_counts,
        "graph_degree_stats": q_graph_degree_stats,
        "column_profile": q_column_profile,
        "global_quantiles": q_global_quantiles,
        "approx_quantiles": q_approx_quantiles,
        "approx_quantiles_by_key": q_approx_quantiles_by_key,
        "edit_distance_pairs": q_edit_distance_pairs,
        "training_shuffle": q_training_shuffle,
        "mutual_information": q_mutual_information,
        "event_transitions": q_event_transitions,
        "correlation_matrix": q_correlation_matrix,
        "ks_statistic": q_ks_statistic,
        "triangle_count": q_triangle_count,
        "weighted_sample": q_weighted_sample,
        "diversity_by_key": q_diversity_by_key,
        "bpe_train": q_bpe_train,
        "blocklist_filter": q_blocklist_filter,
        "chi_squared": q_chi_squared,
        "zipf_slope": q_zipf_slope,
        "heavy_hitters": q_heavy_hitters,
        "heavy_ngrams": q_heavy_ngrams,
        "soft_dedup_weights": q_soft_dedup_weights,
        "substring_dedup_apply": q_substring_dedup_apply,
        "domain_adjacencies": q_domain_adjacencies,
        "dsir_weights": q_dsir_weights,
        "ccnet_buckets": q_ccnet_buckets,
        "containment_pairs": lambda sf: containment_pairs(
            _docs(sf), threshold=CONTAINMENT_THRESHOLD
        ),
        "winnow_fingerprints": lambda sf: winnow_fingerprints(_docs(sf)),
        "normalized_dedup": lambda sf: normalized_dedup(_docs(sf)),
        "pmi_collocations": q_pmi,
        "rrf_fusion": lambda sf: rrf_fusion(
            _docs(sf), BM25_TERMS, RRF_TERMS_B, k=10, n=RRF_N
        ),
        "quantile_by_key": q_quantile_by_key,
        "novel_against_corpus": q_novel_against_corpus,
        "hash_full_join": q_hash_full_join,
        "text_normalize": q_text_normalize,
        "pagerank_scores": q_pagerank,
        "cohort_retention": q_cohort_retention,
        "chunk_documents": q_chunk_documents,
        # multimodal driver rows (round 5): REAL WAV / PNG decode,
        # metadata mirrored in SQL — never driver-checked before
        "audio_features": q_audio_features,
        "image_features": q_image_features,
        "marginalia_search": q_index_search,
        "marginalia_search_merged": q_index_search_merged,
        "suggest_terms": q_suggest_terms,
        "spell_correct": q_spell_correct,
        "fuzzy_dedup_components": q_fuzzy_components,
        "near_dedup_apply": q_near_dedup_apply,
        "similarity_join": q_similarity_join,
        "semantic_dedup": q_semantic_dedup,
        "stratified_sample_n": q_stratified_sample,
        "mixture_sample": q_mixture_sample,
        "linear_classifier": q_linear_classifier,
        "bloom_membership": q_bloom_membership,
        "group_quality_filter": q_group_quality_filter,
        "random_domains": q_random_domains,
        "similar_domains": q_similar_domains,
        "explorer_related": q_explorer_related,
        "browse_url_ids": q_browse_url_ids,
        "old_algo_neighbors": q_old_algo_neighbors,
        "site_info": q_site_info,
        "crawl_specs": q_crawl_specs,
        "shipping_priority": q_shipping_priority,
        "promo_revenue": q_promo_revenue,
        "rollup_revenue": q_rollup_revenue,
        "hits_scores": q_hits_scores,
        "gini_by_key": q_gini_by_key,
        "spearman_by_key": q_spearman_by_key,
        "max_concurrent_sessions": q_max_concurrent_sessions,
        "semi_join": q_semi_join,
        "anti_join": q_anti_join,
        "event_deltas": q_event_deltas,
        "cumsum_by_key": q_cumsum_by_key,
        "pivot_counts": q_pivot_counts,
        "value_histogram": q_value_histogram,
        "flesch_readability": q_flesch,
        "distinct_by_key": q_distinct_by_key,
        "rank_with_ties": q_rank_with_ties,
        "langid_confusion": q_langid_confusion,
        "mode_by_key": q_mode_by_key,
        "ntile_buckets": q_ntile_buckets,
        "window_unique_users": q_window_unique_users,
        "activity_streaks": q_activity_streaks,
        "string_agg_by_key": q_string_agg_by_key,
        "benford_digits": q_benford_digits,
        "dup_cluster_sizes": q_dup_cluster_sizes,
        "source_token_jaccard": q_source_token_jaccard,
        "percent_rank_by_key": q_percent_rank,
        "weekly_revenue_delta": q_weekly_revenue_delta,
        "zscore_outliers": q_zscore_outliers,
        "bpe_pair_counts": q_bpe_pair_counts,
        "token_length_histogram": q_token_length_histogram,
        "domain_stats": q_domain_stats,
        "sessionize": q_sessionize,
        "broadcast_join": q_broadcast_join,
        "hash_join": q_hash_join,
        "hash_left_join": q_hash_left_join,
        "tumbling_window": q_tumbling_window,
        "hopping_window": q_hopping_window,
        "asof_join": q_asof,
        "range_join_sessions": q_range_join,
        "rolling_window": q_rolling,
        "topk_per_user": q_topk_group,
        "exact_dedup_apply": q_dedup_apply,
        "sample_by_key": q_sample,
        "token_count": lambda sf: token_count(_docs(sf)),
        "token_entropy": q_token_entropy,
        "ngram_novelty": q_ngram_novelty,
        "term_doc_freq": lambda sf: term_doc_freq(_docs(sf)),
        "stopword_ratio": lambda sf: stopword_ratio(_docs(sf)),
        "doc_quality": lambda sf: doc_quality(_docs(sf)),
        "exact_dedup": lambda sf: exact_dedup(_docs(sf)),
        "jaccard_pairs": lambda sf: jaccard_pairs(_docs(sf), threshold=JACCARD_THRESHOLD),
        "minhash_dedup": lambda sf: minhash_lsh_pairs(_docs(sf), threshold=JACCARD_THRESHOLD),
        "simhash_pairs": lambda sf: simhash_pairs(_docs(sf)),
        "knn_cosine": q_knn,
        "knn_cosine_lsh": q_knn_lsh,
        "knn_cosine_ivf": q_knn_ivf,
        "kmeans_assign": q_kmeans_assign,
        "kmeans_update": q_kmeans_update,
        "knn_cosine_pq": q_knn_pq,
        "embedding_dedup": lambda sf: embedding_cosine_pairs(
            _emb(sf), threshold=COSINE_THRESHOLD
        ),
        "lang_id": lambda sf: lang_id(_docs(sf)),
        "doc_fingerprint": lambda sf: fingerprint(_docs(sf)),
        "ngram_overlap": lambda sf: ngram_overlap(_docs(sf)),
        "gopher_quality": lambda sf: gopher_quality(_docs(sf)),
        "repetition_metrics": lambda sf: repetition_metrics(_docs(sf)),
        "bm25_topk": lambda sf: bm25_topk(_docs(sf), BM25_TERMS, k=10),
        "pii_scrub": q_pii,
        "hash_split": lambda sf: hash_split(_docs(sf)),
        "tfidf_topk": lambda sf: tfidf_topk(_docs(sf), k=TFIDF_K),
        "exact_substring_pairs": lambda sf: exact_substring_pairs(_docs(sf)),
        "c4_filter": q_c4,
        "decontaminate": q_decontaminate,
        "token_budget_pack": q_token_budget_pack,
        "length_percentile": q_length_percentile,
        "sentence_dedup": q_sentence_dedup,
        "median_by_key": q_median_by_key,
        "funnel_count": q_funnel,
        "approx_distinct": q_hll,
        "cms_term_counts": q_cms,
        "bigram_perplexity": q_bigram_perplexity,
    }


def _lang_id_sql() -> str:
    """argmax-by-stopword-votes, first max wins in sorted-language order —
    mirrors ops/text_ops.lang_id exactly."""
    from marginalia_ray.ops.text_ops import LANG_STOPWORDS

    langs = sorted(LANG_STOPWORDS)
    counts = ",\n  ".join(
        f"len(regexp_extract_all(lt, '\\b({'|'.join(LANG_STOPWORDS[lang])})\\b')) AS c_{lang}"
        for lang in langs
    )
    best = "greatest(" + ",".join(f"c_{lang}" for lang in langs) + ")"
    case = " ".join(f"WHEN c_{lang} = best THEN '{lang}'" for lang in langs[:-1])
    return f"""
 WITH t AS (SELECT doc_id, lower(text) AS lt FROM documents),
 c AS (SELECT doc_id, {counts},
   greatest(len(regexp_extract_all(lt, '[a-z0-9]+')), 1) AS n FROM t),
 m AS (SELECT *, {best} AS best FROM c)
 SELECT doc_id,
   CASE WHEN best = 0 THEN 'und' {case} ELSE '{langs[-1]}' END AS pred_lang,
   round(best::DOUBLE / n, 6) AS confidence
 FROM m"""


def _fingerprint_sql() -> str:
    """Mirrors ops/text_ops.fingerprint: token value = byte polynomial
    (base 31) mod 2^32, window hash = token-value polynomial (base 1000003)
    mod 2^32 over 8-token windows, fingerprint = min window hash; docs
    shorter than one window fold all tokens.  HUGEINT keeps every product
    exact before the mod."""
    from marginalia_ray.ops.text_ops import _FP_TOKEN_BASE, _FP_WIN_BASE, _FP_WINDOW

    M = 1 << 32
    p31 = [pow(_FP_TOKEN_BASE, k, M) for k in range(128)]
    wp = [pow(int(_FP_WIN_BASE), k, M) for k in range(_FP_WINDOW)]
    p31_l = "[" + ",".join(str(x) for x in p31) + "]::HUGEINT[]"
    wp_l = "[" + ",".join(str(x) for x in wp) + "]::HUGEINT[]"
    W = _FP_WINDOW
    return f"""
 WITH pw AS (SELECT {p31_l} AS p31, {wp_l} AS wp),
 tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 vals AS (SELECT doc_id,
   list_transform(ts, t -> list_sum(list_transform(range(1, length(t)+1),
     i -> (ascii(substr(t, i, 1))::HUGEINT * p31[length(t)-i+1]) % 4294967296)) % 4294967296) AS vs
   FROM tok, pw),
 w AS (SELECT doc_id, vs, len(vs) AS n FROM vals WHERE len(vs) > 0)
 SELECT doc_id,
   CASE WHEN n < {W} THEN
     list_sum(list_transform(range(1, n+1), k -> (vs[k] * wp[n-k+1]) % 4294967296)) % 4294967296
   ELSE
     list_min(list_transform(range(1, n-{W - 2}), i ->
       list_sum(list_transform(range(0, {W}), k -> (vs[i+k] * wp[{W}-k]) % 4294967296)) % 4294967296))
   END::BIGINT AS fingerprint
 FROM w, pw"""


def _winnow_sql() -> str:
    """Mirrors ops/text_ops.winnow_fingerprints: the _fingerprint_sql gram
    chain (token value = byte polynomial base 31 mod 2^32, gram = 8-token
    polynomial base 1000003 mod 2^32, short docs folded to one gram), then
    winnowing selection — in every window of {WW} consecutive grams pick
    the min, ties to the RIGHTMOST position; docs with <= WW grams form
    one whole-doc window.  DISTINCT selected hashes per doc."""
    from marginalia_ray.ops.text_ops import (
        _FP_TOKEN_BASE,
        _FP_WIN_BASE,
        _FP_WINDOW,
        _WINNOW_WINDOW,
    )

    M = 1 << 32
    p31 = [pow(_FP_TOKEN_BASE, k, M) for k in range(128)]
    wp = [pow(int(_FP_WIN_BASE), k, M) for k in range(_FP_WINDOW)]
    p31_l = "[" + ",".join(str(x) for x in p31) + "]::HUGEINT[]"
    wp_l = "[" + ",".join(str(x) for x in wp) + "]::HUGEINT[]"
    W = _FP_WINDOW
    WW = _WINNOW_WINDOW
    return f"""
 WITH pw AS (SELECT {p31_l} AS p31, {wp_l} AS wp),
 tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 vals AS (SELECT doc_id,
   list_transform(ts, t -> list_sum(list_transform(range(1, length(t)+1),
     i -> (ascii(substr(t, i, 1))::HUGEINT * p31[length(t)-i+1]) % 4294967296)) % 4294967296) AS vs
   FROM tok, pw),
 w AS (SELECT doc_id, vs, len(vs) AS n FROM vals WHERE len(vs) > 0),
 g AS (SELECT doc_id,
   CASE WHEN n < {W} THEN
     [list_sum(list_transform(range(1, n+1), k -> (vs[k] * wp[n-k+1]) % 4294967296)) % 4294967296]
   ELSE
     list_transform(range(1, n-{W - 2}), i ->
       list_sum(list_transform(range(0, {W}), k -> (vs[i+k] * wp[{W}-k]) % 4294967296)) % 4294967296)
   END AS gs
   FROM w, pw),
 mm AS (SELECT doc_id, gs, len(gs) AS m FROM g),
 sel AS (SELECT doc_id, gs,
   CASE WHEN m <= {WW} THEN
     [list_max(list_transform(range(1, m+1), p ->
        CASE WHEN gs[p] = list_min(gs) THEN p ELSE 0 END))]
   ELSE
     list_transform(range(1, m-{WW - 2}), s ->
       list_max(list_transform(range(s, s+{WW}), p ->
         CASE WHEN gs[p] = list_min(list_transform(range(s, s+{WW}), q -> gs[q]))
              THEN p ELSE 0 END)))
   END AS sels
   FROM mm)
 SELECT DISTINCT doc_id, gs[p]::BIGINT AS fingerprint
 FROM sel, unnest(sels) AS u(p)"""


def _ngram_overlap_sql() -> str:
    """Mirrors ops/text_ops.ngram_overlap: distinct 8-token windows per
    doc (docs shorter than one window contribute their full token string,
    the fingerprint short-doc fold), benchmark = grams of docs with
    doc_id % 20 == 0.  The SQL compares window token STRINGS; the Ray op
    compares 64-bit rolling hashes of the same windows — equal by
    construction absent a 2^-64 collision (the exact_substring_pairs
    oracle convention)."""
    from marginalia_ray.ops.text_ops import _FP_WINDOW

    W = _FP_WINDOW
    return f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 w AS (SELECT doc_id, ts, len(ts) AS n FROM tok WHERE len(ts) > 0),
 g AS (SELECT doc_id,
   CASE WHEN n < {W} THEN [array_to_string(ts, ' ')]
   ELSE list_distinct(list_transform(range(1, n - {W - 2}), i ->
          array_to_string(ts[i:i+{W - 1}], ' ')))
   END AS gs
   FROM w),
 bench AS (SELECT DISTINCT unnest(gs) AS bg FROM g WHERE doc_id % 20 = 0),
 x AS (SELECT doc_id, unnest(gs) AS gr FROM g),
 a AS (SELECT x.doc_id, count(*) AS n_grams, count(b.bg) AS n_hits
       FROM x LEFT JOIN bench b ON x.gr = b.bg GROUP BY x.doc_id)
 SELECT doc_id, n_grams::BIGINT AS n_grams, n_hits::BIGINT AS n_hits,
   round(n_hits::DOUBLE / n_grams, 6) AS contam_frac
 FROM a"""


def _pq_codebooks():
    import numpy as np

    return np.random.RandomState(17).standard_normal((PQ_M, PQ_CODES, 64 // PQ_M))


def _knn_pq_sql() -> str:
    """Mirrors ops/similarity.knn_cosine_pq with the seeded codebooks
    inlined as SQL literals: L2-normalize, per-subspace nearest codebook
    entry (list_distance argmin), ADC score = sum over subspaces of
    (query-subvector . chosen entry), rounded to 6 dp before ranking."""
    cbs = _pq_codebooks()
    rows = ",".join(
        f"({j}, {c}, [{','.join(repr(float(x)) for x in cbs[j, c])}]::DOUBLE[])"
        for j in range(PQ_M)
        for c in range(PQ_CODES)
    )
    sub = 64 // PQ_M
    qid = ",".join(str(i) for i in KNN_QUERY_IDS)
    return f"""
 WITH cb AS (SELECT * FROM (VALUES {rows}) AS cb(j, cid, cv)),
 nv AS (SELECT vec_id,
          list_transform(CAST(embedding AS DOUBLE[]), x ->
            x / greatest(sqrt(list_inner_product(CAST(embedding AS DOUBLE[]),
                                                 CAST(embedding AS DOUBLE[]))), 1e-30)) AS en
        FROM embeddings),
 sj AS (SELECT unnest(range(0, {PQ_M})) AS j),
 subs AS (SELECT vec_id, j, nv.en[j*{sub}+1 : j*{sub}+{sub}] AS sv FROM nv, sj),
 codes AS (SELECT vec_id, j, cid FROM (
     SELECT s.vec_id, s.j, c.cid,
       row_number() OVER (PARTITION BY s.vec_id, s.j
         ORDER BY list_distance(s.sv, c.cv) ASC, c.cid) AS rn
     FROM subs s JOIN cb c ON s.j = c.j) WHERE rn = 1),
 qsubs AS (SELECT vec_id AS qid, j, sv FROM subs WHERE vec_id IN ({qid})),
 score AS (SELECT q.qid, co.vec_id, round(sum(list_inner_product(q.sv, cb.cv)), 6) AS score
           FROM qsubs q
           JOIN codes co ON q.j = co.j
           JOIN cb ON cb.j = co.j AND cb.cid = co.cid
           GROUP BY q.qid, co.vec_id)
 SELECT query_id, neighbor_id, score FROM (
   SELECT qid AS query_id, vec_id AS neighbor_id, score,
     row_number() OVER (PARTITION BY qid ORDER BY score DESC, vec_id) AS rn
   FROM score WHERE qid <> vec_id) WHERE rn <= {KNN_K}"""


KMEANS_K = 4


def _kmeans_centroids():
    import numpy as np

    return np.random.RandomState(19).standard_normal((KMEANS_K, 64))


def _kmeans_dist_exprs() -> list[str]:
    """One squared-L2 expression per centroid, written as the explicit
    left-associated 64-term sum so the SQL engine's float accumulation
    order matches ops/similarity._sq_dists_seq bit-for-bit."""
    cents = _kmeans_centroids()
    exprs = []
    for ki in range(cents.shape[0]):
        terms = []
        for j in range(64):
            c = repr(float(cents[ki, j]))
            terms.append(f"(emb[{j + 1}]-({c}))*(emb[{j + 1}]-({c}))")
        exprs.append("+".join(terms))
    return exprs


def _kmeans_cluster_case() -> str:
    """argmin with ties to the lowest cluster id, as a CASE chain."""
    k = KMEANS_K
    whens = []
    for i in range(k - 1):
        conds = " AND ".join(f"d{i} <= d{j}" for j in range(i + 1, k))
        whens.append(f"WHEN {conds} THEN {i}")
    return f"CASE {' '.join(whens)} ELSE {k - 1} END"


def _kmeans_assign_sql() -> str:
    """Mirrors ops/similarity.kmeans_assign with the seeded centroids
    inlined (the _knn_ivf_sql pattern)."""
    ds_ = ", ".join(f"{e} AS d{i}" for i, e in enumerate(_kmeans_dist_exprs()))
    least = ",".join(f"d{i}" for i in range(KMEANS_K))
    return f"""
 WITH e0 AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
 d AS (SELECT vec_id, {ds_} FROM e0)
 SELECT vec_id, ({_kmeans_cluster_case()})::BIGINT AS cluster,
        round(least({least}), 6) AS dist
 FROM d"""


def _kmeans_update_sql() -> str:
    """Mirrors ops/similarity.kmeans_update: micro-quantized component
    sums per (cluster, dim), mean in the same float op order."""
    ds_ = ", ".join(f"{e} AS d{i}" for i, e in enumerate(_kmeans_dist_exprs()))
    return f"""
 WITH e0 AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
 d AS (SELECT vec_id, emb, {ds_} FROM e0),
 a AS (SELECT vec_id, emb, ({_kmeans_cluster_case()})::BIGINT AS cluster FROM d),
 e AS (SELECT cluster, t.j AS dim,
              CAST(round(list_extract(emb, t.j) * 1000000) AS BIGINT) AS vmicro
       FROM a, range(1, 65) t(j))
 SELECT cluster, dim::BIGINT AS dim, count(*)::BIGINT AS n,
        round(sum(vmicro) / count(*) / 1000000.0, 6) AS value
 FROM e GROUP BY 1, 2"""


def _ivf_centroids():
    import numpy as np

    return np.random.RandomState(13).standard_normal((IVF_LISTS, 64))


def _knn_ivf_sql() -> str:
    """Mirrors ops/similarity.knn_cosine_ivf with the seeded centroids
    inlined as SQL literals (repr round-trips the exact doubles): probe =
    top-n_probe centroid lists per query (union over queries), assignment =
    nearest centroid per vector, then the exact knn_cosine top-k over the
    restricted set."""
    cents = _ivf_centroids()
    rows = ",".join(
        f"({i}, [{','.join(repr(float(x)) for x in cents[i])}]::DOUBLE[])"
        for i in range(cents.shape[0])
    )
    qid = ",".join(str(i) for i in KNN_QUERY_IDS)
    return f"""
 WITH cents AS (SELECT * FROM (VALUES {rows}) AS c(cid, cv)),
 q AS (SELECT vec_id qid, CAST(embedding AS DOUBLE[]) qe FROM embeddings WHERE vec_id IN ({qid})),
 probe AS (SELECT DISTINCT cid FROM (
    SELECT q.qid, c.cid, row_number() OVER (PARTITION BY q.qid
       ORDER BY list_cosine_similarity(q.qe, c.cv) DESC, c.cid) rn
    FROM q, cents c) WHERE rn <= {IVF_PROBE}),
 assign AS (SELECT vec_id, cid FROM (
    SELECT e.vec_id, c.cid, row_number() OVER (PARTITION BY e.vec_id
       ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), c.cv) DESC, c.cid) rn
    FROM embeddings e, cents c) WHERE rn = 1),
 r0 AS (SELECT e.vec_id, e.embedding FROM embeddings e
        JOIN assign a ON e.vec_id = a.vec_id
        WHERE a.cid IN (SELECT cid FROM probe)),
 s AS (SELECT q.qid query_id, e.vec_id neighbor_id,
              list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) score
       FROM q, r0 e WHERE e.vec_id != q.qid),
 r AS (SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY score DESC, neighbor_id) rn FROM s)
 SELECT query_id, neighbor_id, round(score,6) AS score FROM r WHERE rn <= {KNN_K}"""


def _simhash_sql() -> str:
    """Mirrors ops/dedup.simhash_pairs exactly: per-token 64-bit hash
    h = fmix64(poly_FNV(t) ^ len(t)*MIX2) in wrap-around uint64 arithmetic
    (HUGEINT with split-multiply for the mod-2^64 products, signed-BIGINT
    xor for the shift-xor steps), per-doc simhash = majority vote over the
    64 bit positions weighted by token frequency, pairs = hamming distance
    <= 3 via bit_count(xor).  The pigeonhole bucketing on the Ray side is
    exact for max_hamming <= 3, so brute-force SQL pairs are identical."""
    from marginalia_ray.ops.dedup import _MIX2, _P

    M = 1 << 64
    MB = "18446744073709551616::HUGEINT"
    HALF = "9223372036854775808::HUGEINT"
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53
    pw = [pow(int(_P), k, M) for k in range(128)]
    pw_l = "[" + ",".join(str(x) for x in pw) + "]::HUGEINT[]"
    p2 = [1 << k for k in range(64)]
    p2_l = "[" + ",".join(str(x) for x in p2) + "]::HUGEINT[]"

    def mulmod(x: str, c: int) -> str:
        return (
            f"((({x})//4294967296 * {c}) % 4294967296 * 4294967296"
            f" + (({x}) % 4294967296) * {c}) % {MB}"
        )

    def sgn(x: str) -> str:
        return f"CASE WHEN ({x}) >= {HALF} THEN (({x}) - {MB})::BIGINT ELSE ({x})::BIGINT END"

    def uns(x: str) -> str:
        return f"CASE WHEN ({x}) < 0 THEN ({x})::HUGEINT + {MB} ELSE ({x})::HUGEINT END"

    xor_shift = f"{uns(f'xor({sgn(chr(104))}, (h // 8589934592)::BIGINT)')}"
    return f"""
 WITH pw AS (SELECT {pw_l} AS pw, {p2_l} AS p2),
 tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
 poly AS (SELECT doc_id, list_sum(list_transform(range(1, length(t)+1),
     i -> (ascii(substr(t,i,1))::HUGEINT * pw[length(t)-i+1]) % {MB})) % {MB} AS p,
     ({mulmod("length(t)::HUGEINT", int(_MIX2))}) AS lm
   FROM tok, pw),
 u0 AS (SELECT doc_id, {uns(f"xor({sgn('p')}, {sgn('lm')})")} AS h FROM poly),
 f1 AS (SELECT doc_id, {xor_shift} AS h FROM u0),
 f2 AS (SELECT doc_id, ({mulmod("h", C1)}) AS h FROM f1),
 f3 AS (SELECT doc_id, {xor_shift} AS h FROM f2),
 f4 AS (SELECT doc_id, ({mulmod("h", C2)}) AS h FROM f3),
 f5 AS (SELECT doc_id, {xor_shift} AS h FROM f4),
 hs AS (SELECT doc_id, list(h) AS hl FROM f5 GROUP BY doc_id),
 sh AS (SELECT doc_id, list_sum(list_transform(range(1, 65),
     k -> CASE WHEN 2*len(list_filter(hl, x -> (x // p2[k]) % 2 = 1)) > len(hl)
               THEN p2[k] ELSE 0::HUGEINT END)) AS s
   FROM hs, pw),
 sb AS (SELECT doc_id, {sgn(chr(115))} AS v FROM sh)
 SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
        bit_count(xor(a.v, b.v))::BIGINT AS hamming
 FROM sb a JOIN sb b ON a.doc_id < b.doc_id
 WHERE bit_count(xor(a.v, b.v)) <= 3"""


def _knn_lsh_sql() -> str:
    """Mirrors ops/similarity.knn_cosine_lsh (n_planes=6, seed 7): the
    hyperplane matrix is deterministic, so its 6x64 floats inline as SQL
    literals; candidates = vectors whose signature matches any query
    signature; exact cosine top-k over candidates."""
    from marginalia_ray.ops.similarity import HyperplaneLshStage

    planes = HyperplaneLshStage(n_planes=6, dim=64).planes
    rows = ",".join(
        f"({i}, [{','.join(repr(float(x)) for x in planes[i])}]::DOUBLE[])"
        for i in range(planes.shape[0])
    )
    qid = ",".join(str(i) for i in KNN_QUERY_IDS)
    return f"""
 WITH planes AS (SELECT * FROM (VALUES {rows}) AS p(pid, pv)),
 sig AS (SELECT e.vec_id, sum(CASE WHEN list_dot_product(CAST(e.embedding AS DOUBLE[]), p.pv) > 0
                                   THEN (1::BIGINT << p.pid) ELSE 0 END)::BIGINT AS s
         FROM embeddings e, planes p GROUP BY e.vec_id),
 cand AS (SELECT vec_id FROM sig WHERE s IN (SELECT DISTINCT s FROM sig WHERE vec_id IN ({qid}))),
 q AS (SELECT vec_id qid, CAST(embedding AS DOUBLE[]) qe FROM embeddings WHERE vec_id IN ({qid})),
 sc AS (SELECT q.qid query_id, e.vec_id neighbor_id,
               list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) score
        FROM q, embeddings e
        WHERE e.vec_id != q.qid AND e.vec_id IN (SELECT vec_id FROM cand)),
 r AS (SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY score DESC, neighbor_id) rn FROM sc)
 SELECT query_id, neighbor_id, round(score,6) AS score FROM r WHERE rn <= {KNN_K}"""


def _gopher_sql() -> str:
    """Mirrors ops/text_ops.gopher_quality (Rae et al. 2021 rules)."""
    from marginalia_ray.ops.text_ops import GOPHER_STOPWORDS

    stop_terms = " + ".join(
        f"CASE WHEN regexp_matches(lower(text), '\\b{w}\\b') THEN 1 ELSE 0 END"
        for w in GOPHER_STOPWORDS
    )
    return f"""
 WITH w AS (SELECT doc_id, text,
   list_filter(string_split_regex(text, '[ \t\n\r]+'), x -> x <> '') AS ws FROM documents),
 m AS (SELECT doc_id, text, len(ws) AS n_words,
   round(list_sum(list_transform(ws, x -> length(x)))::DOUBLE / greatest(len(ws),1), 6) AS mean_word_len,
   round((((length(text) - length(replace(text, '#', ''))))
        + ((length(text) - length(replace(text, '...', ''))) / 3))::DOUBLE
        / greatest(len(ws),1), 6) AS symbol_ratio,
   round(len(list_filter(ws, x -> regexp_matches(x, '[a-zA-Z]')))::DOUBLE
        / greatest(len(ws),1), 6) AS alpha_frac,
   ({stop_terms})::BIGINT AS stop_hits
  FROM w)
 SELECT doc_id, n_words::BIGINT AS n_words, mean_word_len, symbol_ratio,
        alpha_frac, stop_hits,
        (n_words BETWEEN 50 AND 100000 AND mean_word_len BETWEEN 3 AND 10
         AND symbol_ratio < 0.1 AND alpha_frac >= 0.8 AND stop_hits >= 2) AS passes
 FROM m"""


def _repetition_sql() -> str:
    """Mirrors ops/text_ops.repetition_metrics."""
    return """
 WITH l AS (SELECT doc_id,
     list_filter(string_split(text, chr(10)), x -> trim(x) <> '') AS lines FROM documents),
 dl AS (SELECT doc_id,
     CASE WHEN len(lines) = 0 THEN 0.0
          ELSE round(1.0 - len(list_distinct(lines))::DOUBLE / len(lines), 6) END AS dup_line_frac
   FROM l),
 w AS (SELECT doc_id, lower(unnest(list_filter(string_split_regex(text, '[ \t\n\r]+'), x -> x <> ''))) AS word
   FROM documents),
 wc AS (SELECT doc_id, word, count(*) AS c FROM w GROUP BY doc_id, word),
 tw AS (SELECT doc_id, round(max(c)::DOUBLE / sum(c), 6) AS top_word_frac FROM wc GROUP BY doc_id)
 SELECT d.doc_id, dl.dup_line_frac, coalesce(tw.top_word_frac, 0.0) AS top_word_frac
 FROM documents d JOIN dl ON d.doc_id = dl.doc_id LEFT JOIN tw ON d.doc_id = tw.doc_id"""


def _c4_sql() -> str:
    """Mirrors queries()['c4_filter']: the same deterministic decoration,
    then the C4 line rules (terminal punctuation, >= 5 words, no
    'javascript') and page rules ('{', 'lorem ipsum', >= 3 kept lines).
    RE2 on both sides."""
    from marginalia_ray.ops.text_ops import C4_MIN_LINES, C4_MIN_WORDS

    keep_line = (
        "l -> regexp_matches(l, '[.!?\"]$') "
        f"AND len(regexp_extract_all(l, '\\S+')) >= {C4_MIN_WORDS} "
        "AND NOT contains(lower(l), 'javascript')"
    )
    return f"""
 WITH dec AS (SELECT doc_id,
        replace(replace(text, ' and ', '.' || chr(10)), ' the ', '.' || chr(10)) || '.' ||
        CASE WHEN doc_id % 7 = 0 THEN chr(10) || 'lorem ipsum' ELSE '' END AS text
      FROM documents),
 split AS (SELECT doc_id, text, string_split(text, chr(10)) AS ls FROM dec),
 kept AS (SELECT doc_id, text, ls, list_filter(ls, {keep_line}) AS ks FROM split)
 SELECT doc_id,
        coalesce(array_to_string(ks, chr(10)), '') AS clean_text,
        len(ks)::BIGINT AS n_kept,
        len(ls)::BIGINT AS n_total,
        (CASE WHEN contains(lower(text), 'lorem ipsum') OR contains(text, '{{')
              OR len(ks) < {C4_MIN_LINES} THEN 0 ELSE 1 END)::BIGINT AS keep
 FROM kept"""


def _decontaminate_sql() -> str:
    """Mirrors queries()['decontaminate']: identical decoration (lowercase
    + planted passage), 8-gram construction via list slices, benchmark =
    doc_id % 50 == 0, n_hits = distinct grams shared with the benchmark."""
    return f"""
 WITH base AS (SELECT doc_id,
        lower(text) || CASE WHEN doc_id % {DECON_PLANT_MOD} = 0
                            THEN ' {DECON_PASSAGE}' ELSE '' END AS text
      FROM documents),
 tok AS (SELECT doc_id, {_TOK} AS ts FROM base),
 grams AS (SELECT doc_id, array_to_string(ts[i:i+{DECON_N - 1}], ' ') AS gram
           FROM tok, unnest(range(1, len(ts) - {DECON_N - 2})) AS r(i)),
 dg AS (SELECT DISTINCT doc_id, gram FROM grams),
 bench AS (SELECT DISTINCT gram FROM dg WHERE doc_id % {DECON_BENCH_MOD} = 0),
 h AS (SELECT doc_id, count(*)::BIGINT AS n_hits
       FROM dg JOIN bench USING(gram) GROUP BY doc_id)
 SELECT d.doc_id, coalesce(h.n_hits, 0)::BIGINT AS n_hits,
        (CASE WHEN coalesce(h.n_hits, 0) > 0 THEN 1 ELSE 0 END)::BIGINT AS contaminated
 FROM documents d LEFT JOIN h USING(doc_id)"""


def _token_budget_pack_sql() -> str:
    """Mirrors queries()['token_budget_pack']: ordered prefix sum of token
    counts, bin = floor(tokens_before / budget)."""
    return f"""
 WITH tok AS (SELECT doc_id,
        len(regexp_extract_all(lower(text), '[a-z0-9]+'))::BIGINT AS n_tokens
      FROM documents)
 SELECT doc_id, n_tokens,
        CAST(floor(coalesce(sum(n_tokens) OVER
          (ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
          0) / {PACK_BUDGET}) AS BIGINT) AS bin
 FROM tok"""


def _length_percentile_sql() -> str:
    """Mirrors queries()['length_percentile']: SQL percent_rank over
    n_chars, keep on the rounded rank (the Ray side rounds first too)."""
    return f"""
 SELECT doc_id, n_chars,
        round(percent_rank() OVER (ORDER BY n_chars), 6) AS pct_rank,
        (CASE WHEN round(percent_rank() OVER (ORDER BY n_chars), 6)
                   BETWEEN {PCT_LO} AND {PCT_HI}
              THEN 1 ELSE 0 END)::BIGINT AS keep
 FROM documents"""


def _sentence_dedup_sql() -> str:
    """Mirrors queries()['sentence_dedup']: identical decoration, split on
    '.', trim spaces, drop empties, remove sentences in > max_docs
    distinct docs, re-join survivors with '. ' in original order."""
    return f"""
 WITH dec AS (SELECT doc_id,
        replace(replace(text, ' merge ', '. '), ' data ', '. ') ||
        CASE WHEN doc_id % {SDEDUP_PLANT_MOD} = 0
             THEN '. {SDEDUP_BOILER}' ELSE '' END AS text
      FROM documents),
 lists AS (SELECT doc_id,
        list_transform(string_split(text, '.'), x -> trim(x, ' ')) AS ls
      FROM dec),
 s AS (SELECT doc_id, ls[i] AS sent, i AS ord
       FROM lists, unnest(range(1, len(ls) + 1)) AS r(i)),
 ne AS (SELECT * FROM s WHERE sent <> ''),
 hot AS (SELECT sent FROM (SELECT sent, count(DISTINCT doc_id) AS c
                           FROM ne GROUP BY sent) WHERE c > {SDEDUP_MAX_DOCS}),
 kept AS (SELECT doc_id, sent, ord FROM ne
          WHERE sent NOT IN (SELECT sent FROM hot)),
 k AS (SELECT doc_id, string_agg(sent, '. ' ORDER BY ord) AS clean_text,
              count(*)::BIGINT AS n_kept
       FROM kept GROUP BY doc_id),
 t AS (SELECT doc_id, count(*)::BIGINT AS n FROM ne GROUP BY doc_id)
 SELECT d.doc_id,
        coalesce(k.clean_text, '') AS clean_text,
        coalesce(k.n_kept, 0)::BIGINT AS n_kept,
        (coalesce(t.n, 0) - coalesce(k.n_kept, 0))::BIGINT AS n_removed
 FROM documents d LEFT JOIN k USING(doc_id) LEFT JOIN t USING(doc_id)"""


def _cms_sql() -> str:
    """Mirrors ops/sketch.cms_term_counts (width=1024, depth=4): the
    simhash oracle's token-hash chain (poly_FNV -> fmix64 in HUGEINT
    arithmetic) produces per-occurrence h; each depth then applies
    fmix64(h ^ seed_d) % width and counts per (d, bucket).  The query
    terms' (d, bucket) coordinates are deterministic constants (inlined,
    the LSH/IVF convention); the counter table itself is computed
    entirely in SQL."""
    from marginalia_ray.ops.dedup import _MIX2, _P
    from marginalia_ray.ops.sketch import CMS_SEEDS

    M = 1 << 64
    MB = "18446744073709551616::HUGEINT"
    HALF = 9223372036854775808
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53
    WIDTH, DEPTH = 1024, 4
    pw = [pow(int(_P), k, M) for k in range(128)]
    pw_l = "[" + ",".join(str(x) for x in pw) + "]::HUGEINT[]"

    def mulmod(x: str, c: int) -> str:
        return (
            f"((({x})//4294967296 * {c}) % 4294967296 * 4294967296"
            f" + (({x}) % 4294967296) * {c}) % {MB}"
        )

    def sgn(x: str) -> str:
        return (
            f"CASE WHEN ({x}) >= {HALF}::HUGEINT THEN (({x}) - {MB})::BIGINT"
            f" ELSE ({x})::BIGINT END"
        )

    def uns(x: str) -> str:
        return f"CASE WHEN ({x}) < 0 THEN ({x})::HUGEINT + {MB} ELSE ({x})::HUGEINT END"

    xor_shift = uns(f"xor({sgn('h')}, (h // 8589934592)::BIGINT)")

    parts = [
        f"pw AS (SELECT {pw_l} AS pw)",
        f"tok AS (SELECT unnest({_TOK}) AS t FROM documents)",
        f"""poly AS (SELECT list_sum(list_transform(range(1, length(t)+1),
     i -> (ascii(substr(t,i,1))::HUGEINT * pw[length(t)-i+1]) % {MB})) % {MB} AS p,
     ({mulmod("length(t)::HUGEINT", int(_MIX2))}) AS lm
   FROM tok, pw)""",
        "u0 AS (SELECT " + uns("xor(" + sgn("p") + ", " + sgn("lm") + ")") + " AS h FROM poly)",
        f"f1 AS (SELECT {xor_shift} AS h FROM u0)",
        f"f2 AS (SELECT ({mulmod('h', C1)}) AS h FROM f1)",
        f"f3 AS (SELECT {xor_shift} AS h FROM f2)",
        f"f4 AS (SELECT ({mulmod('h', C2)}) AS h FROM f3)",
        f"f5 AS (SELECT {xor_shift} AS h FROM f4)",
    ]
    unions = []
    for d in range(DEPTH):
        seed = CMS_SEEDS[d]
        seed_signed = seed - M if seed >= HALF else seed
        parts.append(
            f"c{d}0 AS (SELECT {uns(f'xor({sgn(chr(104))}, {seed_signed}::BIGINT)')} AS h FROM f5)"
        )
        parts.append(f"c{d}1 AS (SELECT {xor_shift} AS h FROM c{d}0)")
        parts.append(f"c{d}2 AS (SELECT ({mulmod('h', C1)}) AS h FROM c{d}1)")
        parts.append(f"c{d}3 AS (SELECT {xor_shift} AS h FROM c{d}2)")
        parts.append(f"c{d}4 AS (SELECT ({mulmod('h', C2)}) AS h FROM c{d}3)")
        parts.append(f"c{d}5 AS (SELECT {xor_shift} AS h FROM c{d}4)")
        unions.append(f"SELECT {d} AS d, (h % {WIDTH})::BIGINT AS bucket FROM c{d}5")
    parts.append(
        "cms AS (SELECT d, bucket, count(*)::BIGINT AS c FROM ("
        + " UNION ALL ".join(unions)
        + ") GROUP BY d, bucket)"
    )
    # query-term coordinates: deterministic constants of the hash chain
    import numpy as np

    from marginalia_ray.ops.dedup import _fmix64_vec, _token_hash_arrow

    import re as _re

    norm = [t.lower() for t in CMS_QUERY_TERMS]
    qh = _token_hash_arrow(pa_array_strings(norm))
    seeds = np.array(CMS_SEEDS[:DEPTH], np.uint64)
    qrows = []
    zero_rows = []  # terms the corpus tokenizer can never emit: exact 0
    for i, term in enumerate(CMS_QUERY_TERMS):
        if not _re.fullmatch("[a-z0-9]+", norm[i]):
            zero_rows.append(f"SELECT '{term}' AS term, 0::BIGINT AS est_count")
            continue
        buckets = (_fmix64_vec(qh[i] ^ seeds) % np.uint64(WIDTH)).astype(np.int64)
        for d in range(DEPTH):
            qrows.append(f"('{term}', {d}, {int(buckets[d])})")
    parts.append(
        "q AS (SELECT * FROM (VALUES " + ",".join(qrows) + ") AS q(term, d, bucket))"
    )
    tail = """
 SELECT term, min(coalesce(c, 0))::BIGINT AS est_count
 FROM q LEFT JOIN cms USING(d, bucket) GROUP BY term"""
    if zero_rows:
        tail += " UNION ALL " + " UNION ALL ".join(zero_rows)
    return " WITH " + ",\n ".join(parts) + tail


def pa_array_strings(terms):
    import pyarrow as pa

    return pa.array(list(terms), pa.string())


def _hll_sql() -> str:
    """Mirrors ops/sketch.approx_distinct_by_key (b=8): the same fmix64
    chain as _hash_split_sql, integer msb via a powers-of-two join (no
    float log2 on >2^53 integers), HLL estimator with the small-range
    correction.  The register sums are exact powers of two, so the only
    cross-engine float risk is last-ulp summation order — absorbed by
    round 6."""
    M64 = 18446744073709551616
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53
    P56 = 1 << 56
    alpha = 0.7213 / (1.0 + 1.079 / 256)

    def mul(c: int) -> str:
        return (
            f"((((x // 4294967296) * {c}) % 4294967296) * 4294967296"
            f" + (x % 4294967296) * {c}) % {M64}"
        )

    powers = ",".join(f"({i}, {1 << i}::HUGEINT)" for i in range(56))
    return f"""
 WITH vals AS (SELECT DISTINCT event_type, user_id FROM events),
 s0 AS (SELECT event_type, ((user_id::HUGEINT % {M64}) + {M64}) % {M64} AS x FROM vals),
 s1 AS (SELECT event_type, xor(x, x >> 33) AS x FROM s0),
 s2 AS (SELECT event_type, {mul(C1)} AS x FROM s1),
 s3 AS (SELECT event_type, xor(x, x >> 33) AS x FROM s2),
 s4 AS (SELECT event_type, {mul(C2)} AS x FROM s3),
 s5 AS (SELECT event_type, xor(x, x >> 33) AS x FROM s4),
 hb AS (SELECT event_type, (x // {P56})::BIGINT AS bucket, x % {P56} AS rem FROM s5),
 p AS (SELECT * FROM (VALUES {powers}) AS p(i, v)),
 rho_t AS (SELECT event_type, bucket, rem,
             CASE WHEN rem = 0 THEN 57 ELSE 56 - max(p.i) END AS rho
           FROM hb LEFT JOIN p ON p.v <= hb.rem
           GROUP BY event_type, bucket, rem),
 regs AS (SELECT event_type, bucket, max(rho) AS rho
          FROM rho_t GROUP BY event_type, bucket),
 agg AS (SELECT event_type, count(*)::BIGINT AS n_present,
                sum(power(2.0, -rho)) AS s_present
         FROM regs GROUP BY event_type),
 est AS (SELECT event_type, (256 - n_present) AS zeros,
           CAST({alpha!r} AS DOUBLE) * 65536.0 / (s_present + (256 - n_present)) AS e
         FROM agg)
 SELECT event_type,
        round(CASE WHEN e <= 640.0 AND zeros > 0
                   THEN 256.0 * ln(256.0 / zeros) ELSE e END, 6) AS approx_distinct
 FROM est"""


def _funnel_sql() -> str:
    """Mirrors ops/relational.funnel_count: greedy earliest-completion
    walk, step k strictly after step k-1."""
    a, b, c = FUNNEL_STEPS
    return f"""
 WITH s0 AS (SELECT user_id, min(ts) AS t FROM events
             WHERE event_type = '{a}' GROUP BY user_id),
 s1 AS (SELECT e.user_id, min(e.ts) AS t FROM events e JOIN s0 USING(user_id)
        WHERE e.event_type = '{b}' AND e.ts > s0.t GROUP BY e.user_id),
 s2 AS (SELECT e.user_id, min(e.ts) AS t FROM events e JOIN s1 USING(user_id)
        WHERE e.event_type = '{c}' AND e.ts > s1.t GROUP BY e.user_id)
 SELECT u.user_id,
   (CASE WHEN s2.t IS NOT NULL THEN 3 WHEN s1.t IS NOT NULL THEN 2
         WHEN s0.t IS NOT NULL THEN 1 ELSE 0 END)::BIGINT AS steps_completed,
   (CASE WHEN s2.t IS NOT NULL THEN 1 ELSE 0 END)::BIGINT AS converted
 FROM (SELECT DISTINCT user_id FROM events) u
 LEFT JOIN s0 USING(user_id) LEFT JOIN s1 USING(user_id) LEFT JOIN s2 USING(user_id)"""


def _median_by_key_sql() -> str:
    """Mirrors ops/relational.median_by_key: SQL median (interpolated for
    even counts) per source over n_chars."""
    return """
 SELECT source, count(*)::BIGINT AS n, median(n_chars)::DOUBLE AS median
 FROM documents GROUP BY source"""


def _bigram_perplexity_sql() -> str:
    """Mirrors ops/curation.bigram_perplexity: add-one-smoothed bigram LM
    trained on the corpus, nll = mean -ln((C(w1 w2)+1)/(C(w1)+V))."""
    return f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 uni AS (SELECT w, count(*)::BIGINT AS c
         FROM (SELECT unnest(ts) AS w FROM tok) GROUP BY w),
 v AS (SELECT count(*)::BIGINT AS nv FROM uni),
 bi AS (SELECT doc_id, ts[i] AS w1, ts[i+1] AS w2
        FROM tok, unnest(range(1, len(ts))) AS r(i)),
 bic AS (SELECT w1, w2, count(*)::BIGINT AS c2 FROM bi GROUP BY w1, w2),
 scored AS (SELECT b.doc_id, -ln((bic.c2 + 1.0) / (uni.c + v.nv)) AS nl
            FROM bi b JOIN bic ON b.w1 = bic.w1 AND b.w2 = bic.w2
                      JOIN uni ON b.w1 = uni.w, v),
 agg AS (SELECT doc_id, count(*)::BIGINT AS n_bigrams, avg(nl) AS m
         FROM scored GROUP BY doc_id)
 SELECT d.doc_id, coalesce(a.n_bigrams, 0)::BIGINT AS n_bigrams,
        coalesce(round(a.m, 6), 0.0) AS nll
 FROM documents d LEFT JOIN agg a USING(doc_id)"""


def _stratified_sample_sql() -> str:
    """Mirrors ops/curation.stratified_sample_n: per-lang top-STRAT_N by
    (fmix64(doc_id), doc_id) — the same exact-uint64 fmix chain as
    _hash_split_sql."""
    M64 = 18446744073709551616
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53

    def mul(c: int) -> str:
        return (
            f"((((x // 4294967296) * {c}) % 4294967296) * 4294967296"
            f" + (x % 4294967296) * {c}) % {M64}"
        )

    return f"""
 WITH s0 AS (SELECT doc_id, lang, ((doc_id::HUGEINT % {M64}) + {M64}) % {M64} AS x FROM documents),
 s1 AS (SELECT doc_id, lang, xor(x, x >> 33) AS x FROM s0),
 s2 AS (SELECT doc_id, lang, {mul(C1)} AS x FROM s1),
 s3 AS (SELECT doc_id, lang, xor(x, x >> 33) AS x FROM s2),
 s4 AS (SELECT doc_id, lang, {mul(C2)} AS x FROM s3),
 s5 AS (SELECT doc_id, lang, xor(x, x >> 33) AS x FROM s4),
 r AS (SELECT doc_id, lang,
         row_number() OVER (PARTITION BY lang ORDER BY x, doc_id) AS rk
       FROM s5)
 SELECT doc_id, lang, rk::BIGINT AS rk FROM r WHERE rk <= {STRAT_N}"""


def _window_sql(width_min: int, hop_min: int | None) -> str:
    """Mirrors ops/relational.hopping_window: value quantized to integer
    micro-units before summation, window starts at hop multiples."""
    w = width_min * 60_000_000
    h = w if hop_min is None else hop_min * 60_000_000
    k = -(-w // h)
    return f"""
 WITH e AS (SELECT epoch_us(ts) AS us, event_type,
            CAST(round(value * 1000000) AS BIGINT) AS vmicro FROM events),
 j AS (SELECT unnest(range(0, {k})) AS j),
 w AS (SELECT ((us // {h}) - j.j) * {h} AS window_start_us, event_type, vmicro
       FROM e CROSS JOIN j WHERE us < ((us // {h}) - j.j) * {h} + {w})
 SELECT window_start_us::BIGINT AS window_start_us, event_type,
        count(*)::BIGINT AS n_events,
        round(sum(vmicro) / 1000000.0, 6) AS sum_value
 FROM w GROUP BY 1, 2"""


def _mixture_sample_sql() -> str:
    """Mirrors ops/curation.mixture_sample: integer-exact target
    arithmetic (T = min(count // weight), target = weight * T), per-key
    top-target by the _hash_split_sql fmix64 chain."""
    M64 = 18446744073709551616
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53
    vals = ",".join(f"('{k}', {w})" for k, w in MIXTURE_WEIGHTS.items())

    def mul(c: int) -> str:
        return (
            f"((((x // 4294967296) * {c}) % 4294967296) * 4294967296"
            f" + (x % 4294967296) * {c}) % {M64}"
        )

    return f"""
 WITH w(key, wt) AS (VALUES {vals}),
 cnt AS (SELECT lang AS key, count(*)::BIGINT AS c FROM documents GROUP BY 1),
 t AS (SELECT min(coalesce(c, 0) // wt) AS t FROM w LEFT JOIN cnt USING (key)),
 tgt AS (SELECT key, wt * t.t AS tgt FROM w, t),
 s0 AS (SELECT doc_id, lang, ((doc_id::HUGEINT % {M64}) + {M64}) % {M64} AS x
        FROM documents WHERE lang IN (SELECT key FROM w)),
 s1 AS (SELECT doc_id, lang, xor(x, x >> 33) AS x FROM s0),
 s2 AS (SELECT doc_id, lang, {mul(C1)} AS x FROM s1),
 s3 AS (SELECT doc_id, lang, xor(x, x >> 33) AS x FROM s2),
 s4 AS (SELECT doc_id, lang, {mul(C2)} AS x FROM s3),
 s5 AS (SELECT doc_id, lang, xor(x, x >> 33) AS x FROM s4),
 r AS (SELECT doc_id, lang,
         row_number() OVER (PARTITION BY lang ORDER BY x, doc_id) AS rk
       FROM s5)
 SELECT doc_id, lang, rk::BIGINT AS rk FROM r JOIN tgt ON lang = tgt.key
 WHERE rk <= tgt.tgt"""


def _components_walk_cte() -> str:
    """Shared CTE chain: exact-Jaccard near-dup pair graph (the
    jaccard_pairs oracle chain — minhash+LSH with exact verification emits
    identical pairs at oracle scale, the established minhash_dedup
    convention) closed transitively with a recursive min-label walk."""
    return f"""
 WITH RECURSIVE
 tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 idx AS (SELECT doc_id, ts, unnest(generate_series(1, len(ts)-2)) AS i FROM tok),
 sh AS (SELECT DISTINCT doc_id, ts[i]||' '||ts[i+1]||' '||ts[i+2] AS shingle FROM idx),
 sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
 inter AS (SELECT a.doc_id doc_a, b.doc_id doc_b, count(*) i
           FROM sh a JOIN sh b ON a.shingle=b.shingle AND a.doc_id<b.doc_id GROUP BY 1,2),
 pairs AS (SELECT doc_a, doc_b FROM inter
           JOIN sz x ON doc_a=x.doc_id JOIN sz y ON doc_b=y.doc_id
           WHERE i::DOUBLE/(x.n+y.n-i) >= {JACCARD_THRESHOLD}),
 edges AS (SELECT doc_a AS u, doc_b AS v FROM pairs
           UNION ALL SELECT doc_b, doc_a FROM pairs),
 walk(node, reach) AS (
   SELECT doc_id, doc_id FROM documents
   UNION
   SELECT w.node, e.v FROM walk w JOIN edges e ON e.u = w.reach)"""


def _fuzzy_components_sql() -> str:
    """Mirrors queries()['fuzzy_dedup_components']: component = min doc_id
    reachable through near-dup edges; singletons are their own
    component."""
    return (
        _components_walk_cte()
        + """
 SELECT node AS doc_id, min(reach)::BIGINT AS component FROM walk GROUP BY node"""
    )


def _pagerank_sql() -> str:
    """Mirrors queries()['pagerank_scores']: integer-exact power iteration
    (floor division, rational damping 85/100, micro-units of 1e12) over
    the distinct (l_suppkey -> l_partkey % 100) edge list, 3 iterations
    unrolled.  DuckDB sum(BIGINT) is HUGEINT, so every arithmetic result
    casts back to BIGINT after the floor division."""
    S = 10**12
    parts = [
        f"""
 WITH edges AS (SELECT DISTINCT l_suppkey AS src, (l_partkey % 100) AS dst
                FROM lineitem),
 nodes AS (SELECT DISTINCT v
           FROM (SELECT src AS v FROM edges UNION ALL SELECT dst FROM edges)),
 nn AS (SELECT count(*) AS n FROM nodes),
 deg AS (SELECT src, count(*) AS deg FROM edges GROUP BY src),
 r0 AS (SELECT v, ({S} // n)::BIGINT AS r FROM nodes, nn)"""
    ]
    prev = "r0"
    for k in range(1, 4):
        parts.append(
            f""",
 c{k} AS (SELECT p.v, (p.r // d.deg)::BIGINT AS c
          FROM {prev} p JOIN deg d ON p.v = d.src),
 a{k} AS (SELECT e.dst AS v, sum(c.c) AS acc
          FROM edges e JOIN c{k} c ON e.src = c.v GROUP BY e.dst),
 dm{k} AS (SELECT (coalesce((SELECT sum(p.r) FROM {prev} p
                             WHERE p.v NOT IN (SELECT src FROM deg)), 0)
                   // n)::BIGINT AS dm FROM nn),
 r{k} AS (SELECT nodes.v,
          ((15 * {S}) // (100 * nn.n)
           + (85 * (coalesce(a{k}.acc, 0) + dm{k}.dm)) // 100)::BIGINT AS r
          FROM nodes CROSS JOIN nn CROSS JOIN dm{k}
          LEFT JOIN a{k} ON nodes.v = a{k}.v)"""
        )
        prev = f"r{k}"
    parts.append(f"""
 SELECT v AS node, r AS "rank" FROM {prev}""")
    return "".join(parts)


def _soft_dedup_weights_sql() -> str:
    """Mirrors queries()['soft_dedup_weights']: label every doc with its
    near-dup component (the fuzzy_dedup_components walk), then weight =
    round(1/cluster_size, 6) — singletons weigh 1.0."""
    return (
        _components_walk_cte()
        + """,
 comp AS (SELECT node AS doc_id, min(reach) AS component FROM walk GROUP BY node),
 csz AS (SELECT component, count(*) AS n FROM comp GROUP BY component)
 SELECT c.doc_id, n::BIGINT AS cluster_size,
        floor(1000000.0 / n + 0.5) / 1000000.0 AS weight
 FROM comp c JOIN csz USING (component)"""
    )


def _near_dedup_apply_sql() -> str:
    """Mirrors queries()['near_dedup_apply']: the surviving corpus — rows
    whose doc_id IS its component minimum (every non-minimum member of a
    near-dup cluster is dropped), all original columns."""
    return (
        _components_walk_cte()
        + """,
 comp AS (SELECT node AS doc_id, min(reach) AS component FROM walk GROUP BY node)
 SELECT d.* FROM documents d JOIN comp c ON d.doc_id = c.doc_id AND c.component = d.doc_id"""
    )


def _similarity_join_sql() -> str:
    """Mirrors queries()['similarity_join']: exact cross-parity n-gram
    Jaccard (the jaccard_pairs oracle chain restricted to even-id x
    odd-id pairs), columns (left_id, right_id, jaccard)."""
    return f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 idx AS (SELECT doc_id, ts, unnest(generate_series(1, len(ts)-2)) AS i FROM tok),
 sh AS (SELECT DISTINCT doc_id, ts[i]||' '||ts[i+1]||' '||ts[i+2] AS shingle FROM idx),
 sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
 inter AS (SELECT a.doc_id left_id, b.doc_id right_id, count(*) i
           FROM sh a JOIN sh b ON a.shingle = b.shingle
           WHERE a.doc_id % 2 = 0 AND b.doc_id % 2 = 1 GROUP BY 1, 2)
 SELECT left_id, right_id, round(i::DOUBLE/(x.n+y.n-i),6) AS jaccard
 FROM inter JOIN sz x ON left_id=x.doc_id JOIN sz y ON right_id=y.doc_id
 WHERE i::DOUBLE/(x.n+y.n-i) >= {JACCARD_THRESHOLD}"""


def _hugeint_helpers():
    """The repo-standard exact-uint64 SQL arithmetic (see _hash_split_sql
    for the derivation): HUGEINT can't hold x*C for x,C < 2^64, so each
    multiply-mod-2^64 splits x into 32-bit halves; xor works on signed
    BIGINT reinterpretations."""
    M = 1 << 64
    MB = "18446744073709551616::HUGEINT"
    HALF = 9223372036854775808

    def mulmod(x: str, c: int) -> str:
        return (
            f"((({x})//4294967296 * {c}) % 4294967296 * 4294967296"
            f" + (({x}) % 4294967296) * {c}) % {MB}"
        )

    def sgn(x: str) -> str:
        return (
            f"CASE WHEN ({x}) >= {HALF}::HUGEINT THEN (({x}) - {MB})::BIGINT"
            f" ELSE ({x})::BIGINT END"
        )

    def uns(x: str) -> str:
        return f"CASE WHEN ({x}) < 0 THEN ({x})::HUGEINT + {MB} ELSE ({x})::HUGEINT END"

    return M, MB, HALF, mulmod, sgn, uns


def _linear_classifier_sql() -> str:
    """Mirrors ops/classify.linear_classifier: the CMS oracle's token-hash
    chain (poly_FNV -> fmix64 in HUGEINT arithmetic) carrying doc_id, then
    w = (fmix64(h ^ CLF_SEED) % 2001) - 1000 summed per doc — every value
    INTEGER, so the comparison is exact; zero-token docs via LEFT JOIN."""
    from marginalia_ray.ops.classify import CLF_SEED
    from marginalia_ray.ops.dedup import _MIX2, _P

    M, MB, HALF, mulmod, sgn, uns = _hugeint_helpers()
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53
    pw = [pow(int(_P), k, M) for k in range(128)]
    pw_l = "[" + ",".join(str(x) for x in pw) + "]::HUGEINT[]"
    xor_shift = uns(f"xor({sgn('h')}, (h // 8589934592)::BIGINT)")
    seed_signed = CLF_SEED - M if CLF_SEED >= HALF else CLF_SEED

    parts = [
        f"pw AS (SELECT {pw_l} AS pw)",
        f"tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents)",
        f"""poly AS (SELECT doc_id, list_sum(list_transform(range(1, length(t)+1),
     i -> (ascii(substr(t,i,1))::HUGEINT * pw[length(t)-i+1]) % {MB})) % {MB} AS p,
     ({mulmod("length(t)::HUGEINT", int(_MIX2))}) AS lm
   FROM tok, pw)""",
        "u0 AS (SELECT doc_id, "
        + uns("xor(" + sgn("p") + ", " + sgn("lm") + ")")
        + " AS h FROM poly)",
        f"f1 AS (SELECT doc_id, {xor_shift} AS h FROM u0)",
        f"f2 AS (SELECT doc_id, ({mulmod('h', C1)}) AS h FROM f1)",
        f"f3 AS (SELECT doc_id, {xor_shift} AS h FROM f2)",
        f"f4 AS (SELECT doc_id, ({mulmod('h', C2)}) AS h FROM f3)",
        f"f5 AS (SELECT doc_id, {xor_shift} AS h FROM f4)",
        f"w0 AS (SELECT doc_id, {uns(f'xor({sgn(chr(104))}, {seed_signed}::BIGINT)')} AS h FROM f5)",
        f"w1 AS (SELECT doc_id, {xor_shift} AS h FROM w0)",
        f"w2 AS (SELECT doc_id, ({mulmod('h', C1)}) AS h FROM w1)",
        f"w3 AS (SELECT doc_id, {xor_shift} AS h FROM w2)",
        f"w4 AS (SELECT doc_id, ({mulmod('h', C2)}) AS h FROM w3)",
        f"w5 AS (SELECT doc_id, {xor_shift} AS h FROM w4)",
        "w AS (SELECT doc_id, (h % 2001)::BIGINT - 1000 AS w FROM w5)",
        "m AS (SELECT doc_id, sum(w)::BIGINT AS margin, count(*)::BIGINT AS n_tokens"
        " FROM w GROUP BY doc_id)",
    ]
    return (
        " WITH "
        + ",\n ".join(parts)
        + """
 SELECT d.doc_id, coalesce(m.margin, 0)::BIGINT AS margin,
        coalesce(m.n_tokens, 0)::BIGINT AS n_tokens,
        (CASE WHEN coalesce(m.margin, 0) > 0 THEN 1 ELSE 0 END)::BIGINT AS label
 FROM documents d LEFT JOIN m USING(doc_id)"""
    )


def _bloom_membership_sql() -> str:
    """Mirrors ops/sketch.bloom_filter_membership over the benchmark id
    subset: pos_i(key) = fmix64(key ^ BLOOM_SEEDS[i]) % n_bits in exact
    HUGEINT arithmetic; maybe_member iff ALL k probe positions appear in
    the build position set — false positives and all."""
    from marginalia_ray.ops.sketch import BLOOM_SEEDS

    M, MB, HALF, mulmod, sgn, uns = _hugeint_helpers()
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53
    xor_shift = uns(f"xor({sgn('x')}, (x // 8589934592)::BIGINT)")
    seed_rows = ",".join(
        f"({i}, {s - M if s >= HALF else s})" for i, s in enumerate(BLOOM_SEEDS[:BLOOM_K])
    )
    return f"""
 WITH seeds AS (SELECT * FROM (VALUES {seed_rows}) AS s(si, seed)),
 s0 AS (SELECT doc_id, si, {uns('xor(doc_id, seed)')} AS x FROM documents, seeds),
 s1 AS (SELECT doc_id, si, {xor_shift} AS x FROM s0),
 s2 AS (SELECT doc_id, si, {mulmod('x', C1)} AS x FROM s1),
 s3 AS (SELECT doc_id, si, {xor_shift} AS x FROM s2),
 s4 AS (SELECT doc_id, si, {mulmod('x', C2)} AS x FROM s3),
 s5 AS (SELECT doc_id, si, {xor_shift} AS x FROM s4),
 pos AS (SELECT doc_id, si, (x % {BLOOM_BITS})::BIGINT AS pos FROM s5),
 build AS (SELECT DISTINCT pos FROM pos WHERE doc_id % {DECON_BENCH_MOD} = 0)
 SELECT p.doc_id,
        (CASE WHEN bool_and(b.pos IS NOT NULL) THEN 1 ELSE 0 END)::BIGINT AS maybe_member
 FROM pos p LEFT JOIN build b USING(pos) GROUP BY p.doc_id"""


def _group_quality_filter_sql() -> str:
    """Mirrors ops/curation.group_quality_filter: per-doc quality in
    integer micro-units (round(ln(n_tok/(1+n_chars)) * 1e6)), per-source
    integer sums, keep sources with sum >= thresh_micro * n — the same
    integer-exact decision as the Ray op."""
    thresh_micro = int(round(GRPQ_MIN_MEAN * 1_000_000))
    return f"""
 WITH q AS (SELECT doc_id, text, source,
        round(ln(greatest(len({_TOK}), 1)::DOUBLE / (1 + length(text))) * 1000000)::BIGINT AS qm
   FROM documents),
 ok AS (SELECT source FROM q GROUP BY source
        HAVING sum(qm) >= {thresh_micro} * count(*))
 SELECT q.doc_id, q.text, q.source FROM q JOIN ok USING(source)"""


def _ccnet_buckets_sql() -> str:
    """Mirrors ops/curation.ccnet_buckets: the bigram-LM nll of
    _bigram_perplexity_sql, then per-source head/middle/tail at the
    interpolated q33/q66 boundaries (quantile_cont semantics, both sides
    rounded to 6 dp before the comparison)."""
    return f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 uni AS (SELECT w, count(*)::BIGINT AS c
         FROM (SELECT unnest(ts) AS w FROM tok) GROUP BY w),
 v AS (SELECT count(*)::BIGINT AS nv FROM uni),
 bi AS (SELECT doc_id, ts[i] AS w1, ts[i+1] AS w2
        FROM tok, unnest(range(1, len(ts))) AS r(i)),
 bic AS (SELECT w1, w2, count(*)::BIGINT AS c2 FROM bi GROUP BY w1, w2),
 scored AS (SELECT b.doc_id, -ln((bic.c2 + 1.0) / (uni.c + v.nv)) AS nl
            FROM bi b JOIN bic ON b.w1 = bic.w1 AND b.w2 = bic.w2
                      JOIN uni ON b.w1 = uni.w, v),
 agg AS (SELECT doc_id, count(*)::BIGINT AS n_bigrams, avg(nl) AS m
         FROM scored GROUP BY doc_id),
 nl AS (SELECT d.doc_id, d.source, coalesce(a.n_bigrams, 0)::BIGINT AS n_bigrams,
               coalesce(round(a.m, 6), 0.0) AS nll
        FROM documents d LEFT JOIN agg a USING(doc_id)),
 b AS (SELECT source, round(quantile_cont(nll, 1.0/3.0), 6) AS q33,
              round(quantile_cont(nll, 2.0/3.0), 6) AS q66
       FROM nl GROUP BY source)
 SELECT nl.doc_id, nl.source, nl.n_bigrams, nl.nll,
        CASE WHEN nl.nll <= b.q33 THEN 'head'
             WHEN nl.nll <= b.q66 THEN 'middle'
             ELSE 'tail' END AS bucket
 FROM nl JOIN b USING(source)"""


def _semantic_dedup_sql() -> str:
    """Mirrors ops/similarity.semantic_dedup with the seeded centroids
    inlined (the knn_cosine_ivf convention): assignment = nearest centroid
    (ties to the lower cid, like argmax), dup = any strictly-lower-id
    same-cluster neighbor at cosine >= threshold."""
    cents = _ivf_centroids()
    rows = ",".join(
        f"({i}, [{','.join(repr(float(x)) for x in cents[i])}]::DOUBLE[])"
        for i in range(cents.shape[0])
    )
    return f"""
 WITH cents AS (SELECT * FROM (VALUES {rows}) AS c(cid, cv)),
 assign AS (SELECT vec_id, cid, ve FROM (
    SELECT e.vec_id, c.cid, CAST(e.embedding AS DOUBLE[]) AS ve,
           row_number() OVER (PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), c.cv) DESC, c.cid) rn
    FROM embeddings e, cents c) WHERE rn = 1),
 dup AS (SELECT DISTINCT a.vec_id FROM assign a JOIN assign b
         ON a.cid = b.cid AND b.vec_id < a.vec_id
         AND list_cosine_similarity(a.ve, b.ve) >= {SEMDEDUP_THRESHOLD})
 SELECT a.vec_id, a.cid::BIGINT AS cluster,
        (CASE WHEN d.vec_id IS NULL THEN 1 ELSE 0 END)::BIGINT AS keep
 FROM assign a LEFT JOIN dup d ON a.vec_id = d.vec_id"""


def _marginalia_search_sql() -> str:
    """Golden rank-parity oracle for the flagship query.

    The full Marginalia tokenizer + position-bitmask BM25 is not
    SQL-expressible, but the pipeline is deterministic per corpus, so the
    expected (query, rank, url_id, score) table is checked in
    (marginalia_ray/golden/marginalia_search.json, regenerated by
    tools/regen_golden.py) and inlined as VALUES, dispatched on a corpus
    content key — sf0.001 and sf0.01 both hold 500 docs, so the key is
    sum(length(text)).  Mirrors the reference's golden-results strategy
    (IndexQueryServiceIntegrationTest.java:71-101: fixed corpus, expected
    id array)."""
    import json
    import os

    path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "marginalia_ray",
        "golden",
        "marginalia_search.json",
    )
    with open(path) as f:
        golden = json.load(f)
    parts = []
    for key, rows in golden.items():
        if key.startswith("_"):
            continue
        vals = ",".join(
            f"('{r['query']}',{r['rank']},{r['url_id']},{r['score']!r})" for r in rows
        )
        parts.append(
            f"SELECT * FROM (VALUES {vals}) AS g(query, rank, url_id, score)\n"
            f" WHERE (SELECT sum(length(text)) FROM documents) = {key}"
        )
    return (
        "SELECT query, rank::BIGINT AS rank, url_id::BIGINT AS url_id,"
        " round(score::DOUBLE, 6) AS score FROM (\n"
        + "\nUNION ALL\n".join(parts)
        + "\n)"
    )


def _pii_sql() -> str:
    """Mirrors queries()['pii_scrub']: decorate each doc with doc_id-derived
    PII, then count (on the decorated text) and sequentially replace each
    PII_PATTERNS regex.  DuckDB's regexp functions are RE2, the same engine
    as Arrow's — match semantics identical by construction."""
    from marginalia_ray.ops.text_ops import PII_PATTERNS

    repl = "text"
    for _, pat, tag in PII_PATTERNS:
        p = pat.replace("'", "''")
        repl = f"regexp_replace({repl}, '{p}', '{tag}', 'g')"
    counts = ",\n   ".join(
        f"len(regexp_extract_all(text, '{pat}'))::BIGINT AS n_{name}"
        for name, pat, _ in PII_PATTERNS
    )
    return f"""
 WITH dec AS (SELECT doc_id,
   text || ' contact user' || CAST(doc_id AS VARCHAR) || '@example.com call 555-867-' ||
   CAST(1000 + doc_id % 9000 AS VARCHAR) || ' from 10.' || CAST(doc_id % 256 AS VARCHAR) ||
   '.' || CAST((doc_id // 256) % 256 AS VARCHAR) || '.7' AS text FROM documents)
 SELECT doc_id, {repl} AS clean_text,
   {counts}
 FROM dec"""


# website-adjacencies oracle (shared: domain_adjacencies itself plus the
# browse/explorer oracles that embed it as a CTE subquery)
_ADJ_SQL = """
 WITH edges AS (
   SELECT DISTINCT l_suppkey AS s, l_partkey AS d FROM lineitem WHERE l_partkey % 10 = 0
   UNION
   SELECT DISTINCT l_partkey, l_partkey FROM lineitem WHERE l_partkey % 10 = 0
 ),
 dto AS (SELECT d, count(*) AS card FROM edges GROUP BY d),
 elig AS (SELECT d, card, 1.0/ln(2+card) AS w FROM dto WHERE card < 10000),
 sw AS (SELECT e.s, e.d FROM edges e JOIN elig el ON el.d = e.d),
 pairs AS (
   SELECT a.d AS da, b.d AS db, count(*) AS cnt,
          sum(coalesce(ws.w, 0.0)) AS wsum
   FROM sw a JOIN sw b ON a.s = b.s AND a.d < b.d
   LEFT JOIN elig ws ON ws.d = a.s
   GROUP BY a.d, b.d
 ),
 wnorms AS (
   SELECT e.d, sum(coalesce(el2.w, 0.0)) AS wnorm
   FROM sw e LEFT JOIN elig el2 ON el2.d = e.s
   GROUP BY e.d
 ),
 stats AS (SELECT el.d, el.card, wn.wnorm FROM elig el JOIN wnorms wn ON wn.d = el.d),
 mirrored AS (
   SELECT da AS a, db AS b, cnt, wsum FROM pairs
   UNION ALL
   SELECT db, da, cnt, wsum FROM pairs
 ),
 scored AS (
   SELECT p.a AS domain_id, p.b AS neighbor_id,
          round(p.wsum / sqrt(sa.wnorm * sb.wnorm), 6) AS relatedness
   FROM mirrored p JOIN stats sa ON sa.d = p.a JOIN stats sb ON sb.d = p.b
   WHERE sa.card >= 10
     AND sb.card >= greatest(2, cast(floor(0.01*sa.card) AS bigint))
     AND 100*p.cnt*p.cnt > sa.card*sb.card
     AND p.wsum*p.wsum > 0.01*sa.wnorm*sb.wnorm
 ),
 ranked AS (
   SELECT *, row_number() OVER (PARTITION BY domain_id
             ORDER BY relatedness DESC, neighbor_id) AS rn
   FROM scored
 )
 SELECT domain_id, neighbor_id, relatedness FROM ranked WHERE rn <= 128"""


# shared browse/explore fixture: the EC_DOMAIN stand-in derived from part
# (mirrors __ray_entry__._browse_domains)
_BROWSE_DOM_CTE = """dom AS (
  SELECT CAST(p_partkey AS BIGINT) AS domain_id,
         CASE WHEN p_partkey % 13 = 0 THEN 'nodot' || CAST(p_partkey AS VARCHAR)
              ELSE 'd' || CAST(p_partkey AS VARCHAR) || '.example.com' END AS domain_name,
         CAST(p_partkey % 5 AS BIGINT) AS state,
         CAST(p_size % 3 AS BIGINT) AS indexed,
         CASE WHEN p_partkey % 110 = 0 AND p_partkey > 0
              THEN CAST(p_partkey - 10 AS BIGINT) END AS domain_alias,
         ((CAST(p_partkey AS BIGINT) * 7919) % 997) / 997.0 AS rank_d
  FROM part)"""

# EC_NEIGHBORS_VIEW (07-neighbors.sql:25-33): adjacency + both names,
# relatedness as ROUND(100 * cosine) — integer percent
_BROWSE_VIEW_CTE = f"""adj AS ({_ADJ_SQL}),
 {_BROWSE_DOM_CTE},
 v AS (SELECT a.domain_id, da.domain_name, a.neighbor_id,
              db.domain_name AS neighbor_name,
              CAST(floor(100 * a.relatedness + 0.5) AS BIGINT) AS relatedness
       FROM adj a JOIN dom da ON da.domain_id = a.domain_id
                  JOIN dom db ON db.domain_id = a.neighbor_id)"""


def _random_domains_sql() -> str:
    """Mirrors ops/browse.random_domains over the part fixture: the
    _hash_split_sql exact-uint64 fmix64 chain over domain_id ^ seed
    orders the eligible set-0 members; STATE < 2, alias null,
    blacklist-filtered, first BROWSE_RANDOM_COUNT."""
    M64 = 18446744073709551616
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53

    def mul(c: int) -> str:
        return (
            f"((((x // 4294967296) * {c}) % 4294967296) * 4294967296"
            f" + (x % 4294967296) * {c}) % {M64}"
        )

    bl = ", ".join(str(i) for i in BROWSE_RANDOM_BLACKLIST)
    keep = "domain_id, domain_name"
    return f"""
 WITH {_BROWSE_DOM_CTE},
 rs AS (SELECT CAST(p_partkey AS BIGINT) AS domain_id FROM part WHERE p_partkey % 7 = 0),
 elig AS (SELECT d.domain_id, d.domain_name FROM rs JOIN dom d USING (domain_id)
          WHERE d.state < 2 AND d.domain_alias IS NULL AND d.domain_id NOT IN ({bl})),
 s0 AS (SELECT {keep}, ((xor(domain_id, {BROWSE_RANDOM_SEED})::HUGEINT % {M64}) + {M64}) % {M64} AS x FROM elig),
 s1 AS (SELECT {keep}, xor(x, x >> 33) AS x FROM s0),
 s2 AS (SELECT {keep}, {mul(C1)} AS x FROM s1),
 s3 AS (SELECT {keep}, xor(x, x >> 33) AS x FROM s2),
 s4 AS (SELECT {keep}, {mul(C2)} AS x FROM s3),
 s5 AS (SELECT {keep}, xor(x, x >> 33) AS x FROM s4)
 SELECT domain_id, domain_name FROM s5 ORDER BY x, domain_id LIMIT {BROWSE_RANDOM_COUNT}"""


def _similar_domains_sql() -> str:
    """Mirrors ops/browse.similar_domains: probe neighbors from the view,
    screenshot set = domain_id % 3 != 1, blacklist, top SIM_COUNT per
    probe by (integer-percent relatedness desc, neighbor_id)."""
    pr = ", ".join(str(i) for i in SIM_PROBES)
    bl = ", ".join(str(i) for i in SIM_BLACKLIST)
    return f"""
 WITH {_BROWSE_VIEW_CTE},
 cand AS (SELECT v.domain_id, v.neighbor_id, v.neighbor_name, v.relatedness FROM v
          WHERE v.domain_id IN ({pr}) AND v.neighbor_id NOT IN ({bl})
            AND v.neighbor_id % 3 <> 1),
 ranked AS (SELECT *, row_number() OVER (PARTITION BY domain_id
            ORDER BY relatedness DESC, neighbor_id) AS rn FROM cand)
 SELECT domain_id, neighbor_id, neighbor_name, relatedness FROM ranked WHERE rn <= {SIM_COUNT}"""


def _explorer_related_sql() -> str:
    """Mirrors ops/browse.explorer_related: alias-following probe, forward
    + reverse union with forward-first name dedup, the reference's
    asymmetric has-more joins, name-shape filter, active/indexed flags."""
    from marginalia_ray.ops.browse import trim_url_junk

    name = trim_url_junk(EXPLORER_PROBE)
    return f"""
 WITH {_BROWSE_VIEW_CTE},
 probe AS (SELECT domain_id AS did, coalesce(domain_alias, domain_id) AS aid
           FROM dom WHERE domain_name = '{name}'),
 fwd AS (SELECT v.neighbor_id AS id, v.neighbor_name AS name, max(v.relatedness) AS pct
         FROM v, probe WHERE v.domain_id IN (probe.did, probe.aid)
         GROUP BY v.neighbor_id, v.neighbor_name),
 rev0 AS (SELECT v.domain_id AS id, v.domain_name AS name, max(v.relatedness) AS pct
          FROM v, probe WHERE v.neighbor_id IN (probe.did, probe.aid)
          GROUP BY v.domain_id, v.domain_name),
 rev AS (SELECT * FROM rev0 WHERE name NOT IN (SELECT name FROM fwd)),
 allc AS (SELECT id, name, pct, TRUE AS is_fwd FROM fwd
          UNION ALL SELECT id, name, pct, FALSE FROM rev)
 SELECT c.name AS domain, 'http://' || c.name || '/' AS url, c.pct AS relatedness,
        CASE WHEN c.is_fwd THEN c.id IN (SELECT DISTINCT domain_id FROM v)
             ELSE c.id IN (SELECT DISTINCT neighbor_id FROM v) END AS has_more,
        d.state IN (0, 1, 2) AS active, d.indexed > 0 AS indexed
 FROM allc c JOIN dom d ON d.domain_id = c.id
 WHERE length(c.name) < 48 AND contains(c.name, '.')"""


def _old_algo_sql() -> str:
    """Mirrors ops/browse.old_algo_neighbors: the three-stage cascade with
    post-LIMIT blacklist skips and set-dedup between stages (the HashSet).
    Stage limits consume rows regardless of dedup/blacklist hits, exactly
    like the reference's read loop."""
    bl = ", ".join(str(i) for i in OLD_ALGO_BLACKLIST)
    half = OLD_ALGO_COUNT // 2
    return f"""
 WITH adj AS ({_ADJ_SQL}),
 {_BROWSE_DOM_CTE},
 nb AS (SELECT domain_id, neighbor_id, row_number() OVER (PARTITION BY domain_id
        ORDER BY relatedness DESC, neighbor_id) AS adj_idx FROM adj),
 links AS (
   SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS src, CAST(l_partkey AS BIGINT) AS dst
   FROM lineitem WHERE l_partkey % 10 = 0
   UNION
   SELECT DISTINCT CAST(l_partkey AS BIGINT), CAST(l_suppkey * 10 AS BIGINT)
   FROM lineitem WHERE l_partkey % 10 = 0
 ),
 meta AS (SELECT CAST(l_partkey AS BIGINT) AS domain_id, count(*) AS known_urls,
          (CAST(l_partkey AS BIGINT) * 7919) % 997 AS rank
          FROM lineitem GROUP BY l_partkey),
 inl AS (SELECT dst, count(*) AS cnt FROM links GROUP BY dst),
 elig AS (SELECT d.domain_id, d.domain_name, m.rank FROM dom d
          JOIN meta m USING (domain_id) JOIN inl ON inl.dst = d.domain_id
          WHERE d.state < 2 AND d.domain_alias IS NULL
            AND m.known_urls < {OLD_ALGO_MAX_KNOWN} AND inl.cnt < 100),
 q1 AS (SELECT e.domain_id, e.domain_name FROM nb JOIN elig e ON e.domain_id = nb.neighbor_id
        WHERE nb.domain_id = {OLD_ALGO_PROBE}
        ORDER BY nb.adj_idx, nb.neighbor_id LIMIT {OLD_ALGO_COUNT}),
 q1k AS (SELECT * FROM q1 WHERE domain_id NOT IN ({bl})),
 n1 AS (SELECT count(*) AS c FROM q1k),
 q2c AS (SELECT e.domain_id, e.domain_name,
         row_number() OVER (ORDER BY e.rank, e.domain_id) AS rn
         FROM elig e JOIN links b ON b.dst = e.domain_id AND b.src = {OLD_ALGO_PROBE}),
 q2k AS (SELECT q2c.domain_id, q2c.domain_name FROM q2c, n1
         WHERE n1.c < {half} AND q2c.rn <= {half} - n1.c
           AND q2c.domain_id NOT IN ({bl})),
 s2 AS (SELECT DISTINCT * FROM (SELECT * FROM q1k UNION ALL SELECT * FROM q2k)),
 n2 AS (SELECT count(*) AS c FROM s2),
 q3c AS (SELECT e.domain_id, e.domain_name,
         row_number() OVER (ORDER BY e.rank, e.domain_id) AS rn
         FROM elig e JOIN links b ON b.src = e.domain_id AND b.dst = {OLD_ALGO_PROBE}),
 q3k AS (SELECT q3c.domain_id, q3c.domain_name FROM q3c, n2
         WHERE n2.c < {half} AND q3c.rn <= {half} - n2.c
           AND q3c.domain_id NOT IN ({bl}))
 SELECT DISTINCT domain_id, domain_name
 FROM (SELECT * FROM s2 UNION ALL SELECT * FROM q3k)"""


def _site_info_sql() -> str:
    """Mirrors ops/browse.site_info for the d50 probe: DOMAIN_METADATA
    aggregates, link degrees, the Math.round rank display transform, and
    the first-25-by-source-id linking list as one comma-joined column."""
    return f"""
 WITH {_BROWSE_DOM_CTE},
 links AS (
   SELECT DISTINCT CAST(l_suppkey AS BIGINT) AS src, CAST(l_partkey AS BIGINT) AS dst
   FROM lineitem WHERE l_partkey % 10 = 0
   UNION
   SELECT DISTINCT CAST(l_partkey AS BIGINT), CAST(l_suppkey * 10 AS BIGINT)
   FROM lineitem WHERE l_partkey % 10 = 0
 ),
 meta AS (SELECT CAST(l_partkey AS BIGINT) AS domain_id, count(*) AS known_urls,
          count(DISTINCT l_orderkey) AS visited_urls,
          count(DISTINCT l_suppkey) AS good_urls
          FROM lineitem GROUP BY l_partkey),
 probe AS (SELECT * FROM dom WHERE domain_name = '{SITE_INFO_PROBE}'),
 linking AS (SELECT d2.domain_name AS nm, l.src FROM links l
             JOIN dom d2 ON d2.domain_id = l.src, probe
             WHERE l.dst = probe.domain_id ORDER BY l.src LIMIT 25)
 SELECT probe.domain_name AS domain,
        probe.domain_id % 31 = 0 AS blacklisted,
        coalesce(m.known_urls, 0) AS pages_known,
        coalesce(m.visited_urls, 0) AS pages_fetched,
        coalesce(m.good_urls, 0) AS pages_indexed,
        (SELECT count(*) FROM links l, probe p WHERE l.dst = p.domain_id) AS incoming_links,
        (SELECT count(*) FROM links l, probe p WHERE l.src = p.domain_id) AS outgoing_links,
        floor(10000 * (1 - probe.rank_d) + 0.5) / 100 AS ranking,
        probe.state AS state,
        probe.domain_id % 9 = 0 AS in_crawl_queue,
        (coalesce(m.visited_urls, 0) = 0 AND probe.domain_id % 9 <> 0) AS suggest_for_crawling,
        coalesce((SELECT string_agg(nm, ',' ORDER BY src) FROM linking), '') AS linking_domains
 FROM probe LEFT JOIN meta m ON m.domain_id = probe.domain_id"""


def _crawl_specs_sql() -> str:
    """Mirrors ops/crawlspec.crawl_specs, including the reference SQL's
    AND/OR precedence quirk in the eligibility predicate."""
    bl = ", ".join(str(i) for i in CRAWL_BLACKLIST)
    return f"""
 WITH {_BROWSE_DOM_CTE},
 elig AS (SELECT lower(domain_name) AS name, domain_id AS did FROM dom
          WHERE (indexed > 0 AND state = 0) OR state = 1),
 q0 AS (SELECT lower(domain_name) AS qname FROM dom WHERE domain_id % 9 = 0
        UNION ALL SELECT '{CRAWL_QUEUE_NEW}'),
 queue AS (SELECT lower(q.qname) AS name, coalesce(d.domain_id, -1) AS did
           FROM q0 q LEFT JOIN dom d ON lower(d.domain_name) = q.qname),
 cand AS (SELECT DISTINCT name, did
          FROM (SELECT * FROM elig UNION ALL SELECT * FROM queue)
          WHERE did NOT IN ({bl})),
 urls AS (SELECT CAST(l_partkey AS BIGINT) AS did,
                 'https://d' || CAST(l_partkey AS VARCHAR) || '/p'
                   || CAST(l_orderkey * 10 + l_linenumber AS VARCHAR) AS url,
                 (l_orderkey * 10 + l_linenumber) % 3 <> 0 AS visited,
                 (l_orderkey * 10 + l_linenumber) % 2 = 0 AS has_hash,
                 CAST(l_orderkey * 10 + l_linenumber AS BIGINT) AS uid
          FROM lineitem),
 sel AS (SELECT did, url FROM (
           SELECT did, url, row_number() OVER (PARTITION BY did
                  ORDER BY visited DESC, has_hash DESC, uid) AS rn FROM urls)
         WHERE rn <= 25000),
 nat AS (SELECT did, url, row_number() OVER (PARTITION BY did ORDER BY url) AS rn2
         FROM sel),
 firsts AS (SELECT did, string_agg(url, ',' ORDER BY url) AS first_urls
            FROM nat WHERE rn2 <= 5 GROUP BY did),
 counts AS (SELECT did, count(*) AS url_count FROM sel GROUP BY did),
 vis AS (SELECT did, count(*) AS vc FROM urls WHERE visited GROUP BY did)
 SELECT c.name AS domain_name, c.did AS domain_id,
        least(CASE WHEN coalesce(v.vc, 0) < 100 THEN 200
              ELSE coalesce(v.vc, 0) + 1000 + coalesce(v.vc, 0) // 4 END,
              100000) AS crawl_depth,
        coalesce(ct.url_count, 0) AS url_count,
        coalesce(f.first_urls, '') AS first_urls
 FROM cand c LEFT JOIN counts ct ON ct.did = c.did
             LEFT JOIN firsts f ON f.did = c.did
             LEFT JOIN vis v ON v.did = c.did"""


def _browse_url_ids_sql() -> str:
    """Mirrors ops/browse.browse_url_ids over the orders fixture."""
    return f"""
 WITH urls AS (SELECT CAST(o_orderkey AS BIGINT) AS url_id,
                      CAST(o_custkey AS BIGINT) AS domain_id,
                      'c' || CAST(o_custkey AS VARCHAR) || '.example.org' AS domain_name,
                      CAST(o_orderkey % 25 AS DOUBLE) - 12 AS quality
               FROM orders),
 meta AS (SELECT CAST(o_custkey AS BIGINT) AS domain_id, count(*) AS known_urls
          FROM orders GROUP BY o_custkey)
 SELECT u.url_id, u.domain_id, u.domain_name
 FROM urls u JOIN meta m USING (domain_id)
 WHERE u.url_id % {URL_BROWSE_MOD} = 0 AND u.quality > -10
   AND m.known_urls < {URL_BROWSE_MAX_KNOWN}"""


def _hash_split_sql() -> str:
    """Mirrors ops/text_ops.hash_split: fmix64(doc_id) % 100 in exact
    uint64 arithmetic — HUGEINT (int128) can't hold x*C for x,C < 2^64,
    so each multiply-mod-2^64 stage splits x into 32-bit halves:
    (x*C) mod 2^64 = ((xh*C mod 2^32) << 32 + xl*C) mod 2^64."""
    M64 = 18446744073709551616
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53

    def mul(c: int) -> str:
        return (
            f"((((x // 4294967296) * {c}) % 4294967296) * 4294967296"
            f" + (x % 4294967296) * {c}) % {M64}"
        )

    return f"""
 WITH s0 AS (SELECT doc_id, ((doc_id::HUGEINT % {M64}) + {M64}) % {M64} AS x FROM documents),
 s1 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM s0),
 s2 AS (SELECT doc_id, {mul(C1)} AS x FROM s1),
 s3 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM s2),
 s4 AS (SELECT doc_id, {mul(C2)} AS x FROM s3),
 s5 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM s4)
 SELECT doc_id, (x % 100)::BIGINT AS bucket,
   CASE WHEN x % 100 < 80 THEN 'train' WHEN x % 100 < 90 THEN 'valid' ELSE 'test' END AS split
 FROM s5"""


def _training_shuffle_sql() -> str:
    """Mirrors ops/curation.training_shuffle: key = fmix64(fmix64(doc_id)
    ^ seed), shard = key % n_shards, pos = dense rank of (key, doc_id)
    within the shard — same exact-uint64 multiply-mod-2^64 trick as
    _hash_split_sql, chained twice with the seed xor between."""
    M64 = 18446744073709551616
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53

    def mul(c: int) -> str:
        return (
            f"((((x // 4294967296) * {c}) % 4294967296) * 4294967296"
            f" + (x % 4294967296) * {c}) % {M64}"
        )

    fmix = f"""
 __P1 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P0),
 __P2 AS (SELECT doc_id, {mul(C1)} AS x FROM __P1),
 __P3 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P2),
 __P4 AS (SELECT doc_id, {mul(C2)} AS x FROM __P3),
 __P5 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P4)"""
    return f"""
 WITH s0 AS (SELECT doc_id, ((doc_id::HUGEINT % {M64}) + {M64}) % {M64} AS x FROM documents),
{fmix.replace("__P", "s")},
 t0 AS (SELECT doc_id, xor(x, {SHUF_SEED}) AS x FROM s5),
{fmix.replace("__P", "t")}
 SELECT doc_id, (x % {SHUF_SHARDS})::BIGINT AS shard,
   (row_number() OVER (PARTITION BY x % {SHUF_SHARDS} ORDER BY x, doc_id) - 1)::BIGINT AS pos
 FROM t5"""


def _bpe_train_sql() -> str:
    """Golden oracle for the iterative BPE trainer: the merge loop is
    not SQL-expressible, so the expected merge table comes from the
    INDEPENDENT sequential reference implementation
    (tools/bpe_reference.py — Counter + left-to-right greedy scan,
    none of the engine's vectorized code), checked in at
    marginalia_ray/golden/bpe_train.json by tools/regen_bpe_golden.py
    and inlined as VALUES dispatched on the corpus content key
    (sum(length(text)), same convention as _marginalia_search_sql)."""
    import json
    import os

    path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "marginalia_ray",
        "golden",
        "bpe_train.json",
    )
    with open(path) as f:
        golden = json.load(f)
    parts = []
    for key, rows in golden.items():
        if key.startswith("_"):
            continue
        vals = ",".join(
            f"({r['step']},'{r['left']}','{r['right']}','{r['merged']}',{r['n']})"
            for r in rows
        )
        parts.append(
            f"SELECT * FROM (VALUES {vals}) AS g(step, lft, rgt, merged, n)\n"
            f" WHERE (SELECT sum(length(text)) FROM documents) = {key}"
        )
    return (
        "SELECT step::BIGINT AS step, lft AS left, rgt AS right, merged,"
        " n::BIGINT AS n FROM (\n"
        + "\nUNION ALL\n".join(parts)
        + "\n)"
    )


def _blocklist_sql() -> str:
    """Mirrors ops/text_ops.blocklist_filter: RE2 word-boundary counts
    per term over lowercased text, summed; keep = total <= max_hits."""
    # single literal backslash: DuckDB string literals are not
    # backslash-escaped, so '\b...' reaches RE2 as the word boundary
    bs = "\\" + "b"
    hits = " + ".join(
        f"len(regexp_extract_all(lower(text), '{bs}{t}{bs}'))" for t in BLOCKLIST
    )
    return f"""
 SELECT doc_id, ({hits})::BIGINT AS n_blocked,
        ({hits}) <= {BLOCKLIST_MAX} AS keep
 FROM documents"""


def _weighted_sample_sql() -> str:
    """Mirrors ops/curation.weighted_sample: u = (fmix64(fmix64(doc_id)
    ^ seed) + 0.5) / 2^64, key = -ln(u)/n_chars (A-ES, Efraimidis &
    Spirakis), k smallest exact keys win (doc_id tie-break), key shown
    rounded to 6 dp.  Same exact-uint64 multiply-mod-2^64 CTE chain as
    _training_shuffle_sql."""
    M64 = 18446744073709551616
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53

    def mul(c: int) -> str:
        return (
            f"((((x // 4294967296) * {c}) % 4294967296) * 4294967296"
            f" + (x % 4294967296) * {c}) % {M64}"
        )

    fmix = f"""
 __P1 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P0),
 __P2 AS (SELECT doc_id, {mul(C1)} AS x FROM __P1),
 __P3 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P2),
 __P4 AS (SELECT doc_id, {mul(C2)} AS x FROM __P3),
 __P5 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P4)"""
    return f"""
 WITH s0 AS (SELECT doc_id, ((doc_id::HUGEINT % {M64}) + {M64}) % {M64} AS x FROM documents),
{fmix.replace("__P", "s")},
 t0 AS (SELECT doc_id, xor(x, {WS_SEED}) AS x FROM s5),
{fmix.replace("__P", "t")},
 keyed AS (SELECT t5.doc_id, d.n_chars::DOUBLE AS weight,
        -ln((t5.x::DOUBLE + 0.5) / 18446744073709551616.0) / d.n_chars::DOUBLE AS key_exact
   FROM t5 JOIN documents d ON t5.doc_id = d.doc_id)
 SELECT doc_id, weight, round(key_exact, 6) AS key
 FROM keyed ORDER BY key_exact, doc_id LIMIT {WS_K}"""


def _approx_quantiles_sql() -> str:
    """Mirrors ops/sketch.approx_quantiles: u = fmix64(fmix64(doc_id) ^
    seed) (the exact-uint64 CTE chain of _weighted_sample_sql), sample =
    the AQ_K rows with the smallest (u, doc_id), then SQL quantile_cont
    interpolation written out long-hand so both engines evaluate the
    identical double expression v_lo + (v_hi - v_lo) * (pos - lo)."""
    M64 = 18446744073709551616
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53

    def mul(c: int) -> str:
        return (
            f"((((x // 4294967296) * {c}) % 4294967296) * 4294967296"
            f" + (x % 4294967296) * {c}) % {M64}"
        )

    fmix = f"""
 __P1 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P0),
 __P2 AS (SELECT doc_id, {mul(C1)} AS x FROM __P1),
 __P3 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P2),
 __P4 AS (SELECT doc_id, {mul(C2)} AS x FROM __P3),
 __P5 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P4)"""
    qs_l = "[" + ",".join(repr(float(q)) for q in sorted(GLOBAL_QS)) + "]::DOUBLE[]"
    return f"""
 WITH s0 AS (SELECT doc_id, ((doc_id::HUGEINT % {M64}) + {M64}) % {M64} AS x FROM documents),
{fmix.replace("__P", "s")},
 t0 AS (SELECT doc_id, xor(x, {AQ_SEED}) AS x FROM s5),
{fmix.replace("__P", "t")},
 samp AS (SELECT d.n_chars::DOUBLE AS v
   FROM t5 JOIN documents d ON t5.doc_id = d.doc_id
   ORDER BY t5.x, t5.doc_id LIMIT {AQ_K}),
 r AS (SELECT v, row_number() OVER (ORDER BY v) - 1 AS rn, count(*) OVER () AS n FROM samp),
 i AS (SELECT unnest({qs_l}) AS q),
 p AS (SELECT q, (n - 1) * q AS pos,
              CAST(floor((n - 1) * q) AS BIGINT) AS lo,
              CAST(ceil((n - 1) * q) AS BIGINT) AS hi
       FROM i, (SELECT DISTINCT n FROM r) AS nn(n))
 SELECT p.q AS q, round(vl.v + (vh.v - vl.v) * (p.pos - p.lo), 6) AS value
 FROM p JOIN r vl ON vl.rn = p.lo JOIN r vh ON vh.rn = p.hi
 ORDER BY p.q"""


def _approx_quantiles_by_key_sql() -> str:
    """Mirrors ops/sketch.approx_quantiles_by_key: per-key bottom-AQK_K
    by (fmix64(fmix64(doc_id) ^ seed), doc_id), then the long-hand
    quantile_cont interpolation per (key, q)."""
    M64 = 18446744073709551616
    C1, C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53

    def mul(c: int) -> str:
        return (
            f"((((x // 4294967296) * {c}) % 4294967296) * 4294967296"
            f" + (x % 4294967296) * {c}) % {M64}"
        )

    fmix = f"""
 __P1 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P0),
 __P2 AS (SELECT doc_id, {mul(C1)} AS x FROM __P1),
 __P3 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P2),
 __P4 AS (SELECT doc_id, {mul(C2)} AS x FROM __P3),
 __P5 AS (SELECT doc_id, xor(x, x >> 33) AS x FROM __P4)"""
    qs_l = "[" + ",".join(repr(float(q)) for q in sorted(GLOBAL_QS)) + "]::DOUBLE[]"
    return f"""
 WITH s0 AS (SELECT doc_id, ((doc_id::HUGEINT % {M64}) + {M64}) % {M64} AS x FROM documents),
{fmix.replace("__P", "s")},
 t0 AS (SELECT doc_id, xor(x, {AQ_SEED}) AS x FROM s5),
{fmix.replace("__P", "t")},
 ranked0 AS (SELECT d.source, d.n_chars::DOUBLE AS v,
        row_number() OVER (PARTITION BY d.source ORDER BY t5.x, t5.doc_id) AS rk
   FROM t5 JOIN documents d ON t5.doc_id = d.doc_id),
 samp AS (SELECT source, v FROM ranked0 WHERE rk <= {AQK_K}),
 r AS (SELECT source, v, row_number() OVER (PARTITION BY source ORDER BY v) - 1 AS rn,
              count(*) OVER (PARTITION BY source) AS m FROM samp),
 keys AS (SELECT DISTINCT source, m FROM r),
 i AS (SELECT unnest({qs_l}) AS q),
 p AS (SELECT source, q, (m - 1) * q AS pos,
              CAST(floor((m - 1) * q) AS BIGINT) AS lo,
              CAST(ceil((m - 1) * q) AS BIGINT) AS hi
       FROM keys, i)
 SELECT p.source AS source, p.q AS q,
        round(vl.v + (vh.v - vl.v) * (p.pos - p.lo), 6) AS value
 FROM p JOIN r vl ON vl.source = p.source AND vl.rn = p.lo
        JOIN r vh ON vh.source = p.source AND vh.rn = p.hi
 ORDER BY p.source, p.q"""


def _corr_sql() -> str:
    """Mirrors ops/relational.correlation_matrix over the lineitem
    integer units (qty, disc, tax, lineno): BIGINT moment sums, then
    the identical double expression n*qxy - sx*sy over sqrt(...) per
    pair, rounded to 6 dp.  All moments stay far below 2^53, so the
    doubles are exact on both sides."""
    cols = ["qty", "disc", "tax", "lineno"]
    k = len(cols)
    sums = ", ".join(f"sum(x{i})::BIGINT AS s{i}" for i in range(k))
    prods = ", ".join(
        f"sum(x{i}*x{j})::BIGINT AS q{i}_{j}"
        for i in range(k)
        for j in range(i, k)
    )
    pair_rows = []
    for i in range(k):
        for j in range(i + 1, k):
            pair_rows.append(
                f"SELECT '{cols[i]}' AS col_x, '{cols[j]}' AS col_y, "
                f"round((n::DOUBLE * q{i}_{j} - s{i}::DOUBLE * s{j}) / "
                f"sqrt((n::DOUBLE * q{i}_{i} - s{i}::DOUBLE * s{i}) * "
                f"(n::DOUBLE * q{j}_{j} - s{j}::DOUBLE * s{j})), 6) AS corr FROM m"
            )
    union = "\n UNION ALL ".join(pair_rows)
    return f"""
 WITH t AS (SELECT CAST(round(l_quantity) AS BIGINT) AS x0,
                   CAST(round(l_discount * 100) AS BIGINT) AS x1,
                   CAST(round(l_tax * 100) AS BIGINT) AS x2,
                   l_linenumber::BIGINT AS x3 FROM lineitem),
 m AS (SELECT count(*)::BIGINT AS n, {sums}, {prods} FROM t)
 {union}"""


def _tfidf_sql() -> str:
    """Mirrors ops/text_ops.tfidf_topk: score = tf * (ln(N) - ln(df))
    (exactly that float expression, so both sides round identically),
    rank by (rounded score desc, term asc), keep rank <= k."""
    return f"""
 WITH tok AS (SELECT doc_id, unnest({_TOK}) AS term FROM documents),
 n AS (SELECT count(*) AS n FROM documents),
 tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tok GROUP BY 1, 2),
 df AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1),
 scored AS (SELECT tf.doc_id, tf.term, tf.tf,
        round(tf.tf * (ln(n.n::DOUBLE) - ln(df.df::DOUBLE)), 6) AS tfidf
   FROM tf, df, n WHERE tf.term = df.term)
 SELECT * FROM (
   SELECT doc_id, term, tf, tfidf,
          row_number() OVER (PARTITION BY doc_id ORDER BY tfidf DESC, term)::BIGINT AS "rank"
   FROM scored) WHERE "rank" <= {TFIDF_K}"""


def _substring_sql() -> str:
    """Mirrors ops/dedup.exact_substring_pairs at window=8: pairs sharing
    >= 1 distinct 8-token substring.  The SQL compares the window token
    STRINGS; the Ray op compares 64-bit rolling hashes of the same windows
    — equal by construction absent a 2^-64-probability collision."""
    return f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 w AS (SELECT doc_id, array_to_string(ts[i:i+7], ' ') AS win
       FROM tok, unnest(range(1, len(ts) - 6)) AS u(i)
       WHERE len(ts) >= 8),
 dw AS (SELECT DISTINCT doc_id, win FROM w)
 SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*)::BIGINT AS n_shared
 FROM dw a JOIN dw b ON a.win = b.win AND a.doc_id < b.doc_id
 GROUP BY 1, 2"""


def _substring_apply_sql() -> str:
    """Mirrors ops/dedup.substring_dedup_apply at window=8: every token
    position covered by an 8-token window that occurs in >= 2 distinct
    documents is removed; survivors re-join with ' '.  The SQL compares
    window token STRINGS, the Ray op 64-bit rolling hashes — equal absent
    a 2^-64 collision (exact_substring_pairs' contract)."""
    return f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 w AS (SELECT doc_id, i, array_to_string(ts[i:i+7], ' ') AS win
       FROM tok, unnest(range(1, len(ts) - 6)) AS u(i)
       WHERE len(ts) >= 8),
 dup AS (SELECT win FROM (SELECT DISTINCT doc_id, win FROM w)
         GROUP BY win HAVING count(*) >= 2),
 cov AS (SELECT DISTINCT w.doc_id, j
         FROM w JOIN dup USING (win),
              unnest(generate_series(w.i, w.i + 7)) AS u2(j)),
 toks AS (SELECT doc_id, ts[i] AS t, i
          FROM tok, unnest(generate_series(1, len(ts))) AS u(i)),
 kept AS (SELECT k.doc_id, k.t, k.i
          FROM toks k LEFT JOIN cov ON k.doc_id = cov.doc_id AND k.i = cov.j
          WHERE cov.j IS NULL),
 agg AS (SELECT doc_id, string_agg(t, ' ' ORDER BY i) AS clean_text,
                count(*)::BIGINT AS n_kept
         FROM kept GROUP BY doc_id)
 SELECT tok.doc_id,
        coalesce(agg.clean_text, '') AS clean_text,
        coalesce(agg.n_kept, 0)::BIGINT AS n_kept,
        (len(tok.ts) - coalesce(agg.n_kept, 0))::BIGINT AS n_removed
 FROM tok LEFT JOIN agg USING (doc_id)"""


def _bm25_ranked_sql(terms: list[str], n: int) -> str:
    """Parenthesized subquery: (doc_id, rn) — BM25 rank over `terms`,
    row_number by (s desc, doc_id), s>0, top n.  Same formula/float
    association as the bm25_topk oracle."""
    tl = ",".join(f"'{t}'" for t in terms)
    return f"""
 (WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 stats AS (SELECT count(*) AS n_docs, avg(len(ts)) AS avgdl FROM tok),
 tf AS (SELECT doc_id, len(ts) AS dl, t AS term, len(list_filter(ts, x->x=t)) AS tf
        FROM tok, (SELECT unnest([{tl}]) AS t)),
 df AS (SELECT term, sum(CASE WHEN tf>0 THEN 1 ELSE 0 END) AS df FROM tf GROUP BY term),
 scored AS (SELECT tf.doc_id,
        sum(CASE WHEN tf.tf>0 THEN ln(1+(stats.n_docs-df.df+0.5)/(df.df+0.5))
                 * tf.tf/(tf.tf+1.2*(1-0.75+0.75*tf.dl/stats.avgdl)) ELSE 0 END) AS s
   FROM tf, stats, df WHERE tf.term=df.term GROUP BY tf.doc_id)
 SELECT doc_id, row_number() OVER (ORDER BY s DESC, doc_id) AS rn
 FROM scored WHERE s>0 QUALIFY rn <= {n})"""


def oracle_sql() -> dict[str, str]:
    sw = ",".join(f"'{w}'" for w in __import__("marginalia_ray.ops.text_ops", fromlist=["STOPWORDS"]).STOPWORDS)
    tl = ",".join(f"'{t}'" for t in BM25_TERMS)
    qid = ",".join(str(i) for i in KNN_QUERY_IDS)
    jaccard = f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 idx AS (SELECT doc_id, ts, unnest(generate_series(1, len(ts)-2)) AS i FROM tok),
 sh AS (SELECT DISTINCT doc_id, ts[i]||' '||ts[i+1]||' '||ts[i+2] AS shingle FROM idx),
 sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
 inter AS (SELECT a.doc_id doc_a, b.doc_id doc_b, count(*) i
           FROM sh a JOIN sh b ON a.shingle=b.shingle AND a.doc_id<b.doc_id GROUP BY 1,2)
 SELECT doc_a, doc_b, round(i::DOUBLE/(x.n+y.n-i),6) AS jaccard
 FROM inter JOIN sz x ON doc_a=x.doc_id JOIN sz y ON doc_b=y.doc_id
 WHERE i::DOUBLE/(x.n+y.n-i) >= {JACCARD_THRESHOLD}"""
    containment = f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 idx AS (SELECT doc_id, ts, unnest(generate_series(1, len(ts)-2)) AS i FROM tok),
 sh AS (SELECT DISTINCT doc_id, ts[i]||' '||ts[i+1]||' '||ts[i+2] AS shingle FROM idx),
 sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
 inter AS (SELECT a.doc_id doc_a, b.doc_id doc_b, count(*) i
           FROM sh a JOIN sh b ON a.shingle=b.shingle AND a.doc_id<b.doc_id GROUP BY 1,2)
 SELECT doc_a, doc_b, round(i::DOUBLE/x.n,6) AS cont_a_in_b,
        round(i::DOUBLE/y.n,6) AS cont_b_in_a
 FROM inter JOIN sz x ON doc_a=x.doc_id JOIN sz y ON doc_b=y.doc_id
 WHERE greatest(round(i::DOUBLE/x.n,6), round(i::DOUBLE/y.n,6)) >= {CONTAINMENT_THRESHOLD}"""
    pivot_cols = ",\n        ".join(
        f"count(*) FILTER (WHERE event_type = '{c}')::BIGINT AS n_{c}"
        for c in EVENT_TYPES
    )
    return {
        "domain_stats": """
 SELECT source AS domain, count(*)::BIGINT AS n_docs, round(avg(length(text)),6) AS avg_chars
 FROM documents GROUP BY source""",
        # assistant-service typeahead (Suggestions.java:128-150): first-256
        # lexicographic window per prefix, then (freq desc, length, term)
        "suggest_terms": f"""
 WITH toks AS (SELECT unnest({_TOK}) AS term FROM documents),
 vocab AS (SELECT term, count(*)::BIGINT AS freq FROM toks
           WHERE length(term) < 32 GROUP BY term),
 prefixes(prefix) AS (VALUES {', '.join(f"('{p}')" for p in SUGGEST_PREFIXES)}),
 lex AS (SELECT p.prefix, v.term, v.freq,
         row_number() OVER (PARTITION BY p.prefix ORDER BY v.term) AS lexrank
         FROM prefixes p JOIN vocab v ON starts_with(v.term, p.prefix)),
 ranked AS (SELECT prefix, term, freq,
         row_number() OVER (PARTITION BY prefix
                            ORDER BY freq DESC, length(term), term) AS rank
         FROM lex WHERE lexrank <= 256)
 SELECT prefix, rank::BIGINT AS rank, term, freq
 FROM ranked WHERE rank <= {SUGGEST_COUNT}""",
        # assistant-service SpellChecker (SymSpell semantics + deterministic
        # freq/lexicographic tiebreak)
        "spell_correct": f"""
 WITH toks AS (SELECT unnest({_TOK}) AS term FROM documents),
 vocab AS (SELECT term, count(*)::BIGINT AS freq FROM toks
           WHERE length(term) < 32 GROUP BY term),
 probes(probe) AS (VALUES {', '.join(f"('{p}')" for p in SPELL_PROBES)}),
 cand AS (SELECT p.probe, v.term, levenshtein(p.probe, v.term)::BIGINT AS dist, v.freq
          FROM probes p CROSS JOIN vocab v WHERE levenshtein(p.probe, v.term) <= 2),
 ranked AS (SELECT probe, term, dist, freq,
         row_number() OVER (PARTITION BY probe
                            ORDER BY dist, freq DESC, term) AS rank FROM cand)
 SELECT probe, rank::BIGINT AS rank, term, dist, freq
 FROM ranked WHERE rank <= {SPELL_K}""",
        "semi_join": f"""
 SELECT c_custkey, c_name, c_nationkey, c_acctbal, c_mktsegment FROM customer
 WHERE c_custkey IN (SELECT o_custkey FROM orders WHERE o_orderstatus = '{SEMI_STATUS}')""",
        "anti_join": f"""
 SELECT c_custkey, c_name, c_nationkey, c_acctbal, c_mktsegment FROM customer
 WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_orderstatus = '{SEMI_STATUS}')""",
        "event_deltas": """
 SELECT event_id, user_id, epoch_us(ts) AS ts_us,
        (epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY epoch_us(ts), event_id))::BIGINT AS delta_us
 FROM events""",
        "cumsum_by_key": """
 SELECT event_id, user_id, epoch_us(ts) AS ts_us,
        round(sum(CAST(round(value * 1000000) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY epoch_us(ts), event_id
           ROWS UNBOUNDED PRECEDING) / 1000000.0, 6) AS cum_value
 FROM events""",
        "pivot_counts": f"""
 SELECT user_id,
        {pivot_cols}
 FROM events GROUP BY user_id""",
        "value_histogram": f"""
 SELECT event_type, CAST(floor(value / {HIST_BIN_WIDTH}) AS BIGINT) AS bin,
        count(*)::BIGINT AS n
 FROM events GROUP BY 1, 2""",
        "distinct_by_key": """
 SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_distinct
 FROM events GROUP BY 1""",
        "rank_with_ties": f"""
 SELECT o_custkey, o_orderkey, o_totalprice, rank FROM (
   SELECT o_custkey, o_orderkey, o_totalprice,
          rank() OVER (PARTITION BY o_custkey ORDER BY o_totalprice DESC)::BIGINT AS rank
   FROM orders) WHERE rank <= {RANK_K}""",
        "mode_by_key": """
 SELECT user_id, mode, n_mode FROM (
   SELECT user_id, event_type AS mode, count(*)::BIGINT AS n_mode,
          row_number() OVER (PARTITION BY user_id
                             ORDER BY count(*) DESC, event_type) AS rn
   FROM events GROUP BY user_id, event_type) WHERE rn = 1""",
        "ntile_buckets": f"""
 SELECT o_custkey, o_orderkey, o_totalprice,
        ntile({NTILE_N}) OVER (PARTITION BY o_custkey
                               ORDER BY o_totalprice, o_orderkey)::BIGINT AS bucket
 FROM orders""",
        "window_unique_users": f"""
 SELECT (epoch_us(ts) // {UNIQ_WIN_MIN * 60_000_000} * {UNIQ_WIN_MIN * 60_000_000})::BIGINT AS win_us,
        count(DISTINCT user_id)::BIGINT AS n_users
 FROM events GROUP BY 1""",
        "activity_streaks": """
 WITH d AS (SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day FROM events),
 r AS (SELECT user_id, day,
              day - row_number() OVER (PARTITION BY user_id ORDER BY day) AS grp
       FROM d),
 s AS (SELECT user_id, count(*)::BIGINT AS len FROM r GROUP BY user_id, grp)
 SELECT user_id, sum(len)::BIGINT AS n_days, max(len)::BIGINT AS max_streak
 FROM s GROUP BY user_id""",
        "string_agg_by_key": """
 SELECT s_nationkey, count(*)::BIGINT AS n,
        string_agg(s_name, ',' ORDER BY s_name) AS agg
 FROM supplier GROUP BY s_nationkey""",
        "benford_digits": """
 SELECT substr(CAST(CAST(floor(o_totalprice) AS BIGINT) AS VARCHAR), 1, 1) AS digit,
        count(*)::BIGINT AS n
 FROM orders GROUP BY 1""",
        "dup_cluster_sizes": """
 WITH c AS (SELECT md5(text) AS h, count(*)::BIGINT AS k FROM documents GROUP BY 1)
 SELECT k AS cluster_size, count(*)::BIGINT AS n_clusters FROM c GROUP BY 1""",
        "source_token_jaccard": f"""
 WITH tok AS (SELECT source, {_TOK} AS ts FROM documents),
 idx AS (SELECT source, unnest(ts) AS t FROM tok),
 d AS (SELECT DISTINCT source, t FROM idx),
 sz AS (SELECT source, count(*)::BIGINT AS n FROM d GROUP BY 1),
 inter AS (SELECT a.source AS sa, b.source AS sb, count(*)::BIGINT AS i
           FROM d a JOIN d b ON a.t = b.t AND a.source < b.source GROUP BY 1, 2)
 SELECT sa AS source_a, sb AS source_b, i AS n_common,
        round(i::DOUBLE / (x.n + y.n - i), 6) AS jaccard
 FROM inter JOIN sz x ON sa = x.source JOIN sz y ON sb = y.source""",
        "percent_rank_by_key": """
 SELECT o_custkey, o_orderkey, o_totalprice,
        round(percent_rank() OVER (PARTITION BY o_custkey
                                   ORDER BY o_totalprice), 6) AS percent_rank,
        round(cume_dist() OVER (PARTITION BY o_custkey
                                ORDER BY o_totalprice), 6) AS cume_dist
 FROM orders""",
        "weekly_revenue_delta": """
 WITH w AS (SELECT epoch_us(o_orderdate) // 604800000000 AS week,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS revenue_cents
            FROM orders GROUP BY 1)
 SELECT week, revenue_cents,
        (revenue_cents - lag(revenue_cents) OVER (ORDER BY week))::BIGINT AS delta_cents
 FROM w""",
        "zscore_outliers": f"""
 WITH st AS (SELECT source, sum(n_chars)::DOUBLE AS s,
                    sum(n_chars * n_chars)::DOUBLE AS q, count(*)::DOUBLE AS n
             FROM documents GROUP BY 1)
 SELECT doc_id, d.source, n_chars,
        round((n_chars - s / n) / sqrt((q - s * s / n) / n), 6) AS zscore
 FROM documents d JOIN st ON d.source = st.source
 WHERE (q - s * s / n) / n > 0
   AND abs(round((n_chars - s / n) / sqrt((q - s * s / n) / n), 6)) > {ZSCORE_Z}""",
        "bpe_pair_counts": f"""
 WITH tok AS (SELECT {_TOK} AS ts FROM documents),
 w AS (SELECT unnest(ts) AS t FROM tok),
 idx AS (SELECT t, unnest(range(1, length(t))) AS i FROM w)
 SELECT substr(t, i, 2) AS pair, count(*)::BIGINT AS n FROM idx GROUP BY 1""",
        "token_length_histogram": f"""
 WITH tok AS (SELECT {_TOK} AS ts FROM documents),
 w AS (SELECT unnest(ts) AS t FROM tok)
 SELECT length(t)::BIGINT AS len, count(*)::BIGINT AS n FROM w GROUP BY 1""",
        "vocab_growth": f"""
 WITH mx AS (SELECT max(doc_id) AS m FROM documents),
 tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 w AS (SELECT doc_id, unnest(ts) AS t FROM tok),
 ft AS (SELECT t, min(doc_id) AS fd FROM w GROUP BY 1),
 fr AS (SELECT unnest([0.25, 0.5, 0.75, 1.0]) AS f)
 SELECT CAST(floor(m * f) AS BIGINT) AS threshold,
        (count(*) FILTER (WHERE fd <= floor(m * f)))::BIGINT AS vocab
 FROM ft, fr, mx GROUP BY 1""",
        "dup_rate_by_source": """
 WITH h AS (SELECT source, md5(text) AS hh FROM documents),
 c AS (SELECT hh, count(*) AS cnt FROM h GROUP BY 1)
 SELECT source, count(*)::BIGINT AS n_docs,
        (count(*) FILTER (WHERE cnt > 1))::BIGINT AS n_duped,
        round((count(*) FILTER (WHERE cnt > 1))::DOUBLE / count(*), 6) AS dup_rate
 FROM h JOIN c USING (hh) GROUP BY source""",
        "first_last_by_key": """
 WITH o AS (SELECT user_id, event_id, epoch_us(ts) AS us,
     row_number() OVER (PARTITION BY user_id
                        ORDER BY epoch_us(ts), event_id) AS rn_a,
     row_number() OVER (PARTITION BY user_id
                        ORDER BY epoch_us(ts) DESC, event_id DESC) AS rn_d
   FROM events)
 SELECT user_id,
   max(CASE WHEN rn_a = 1 THEN event_id END)::BIGINT AS first_event_id,
   max(CASE WHEN rn_a = 1 THEN us END)::BIGINT AS first_ts_us,
   max(CASE WHEN rn_d = 1 THEN event_id END)::BIGINT AS last_event_id,
   max(CASE WHEN rn_d = 1 THEN us END)::BIGINT AS last_ts_us
 FROM o GROUP BY user_id""",
        "session_duration_histogram": f"""
 WITH o AS (SELECT user_id, epoch_us(ts) AS us,
            CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w > 30*60*1000000
                 OR lag(epoch_us(ts)) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
       FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
 s AS (SELECT user_id, us, (sum(new_s) OVER (PARTITION BY user_id ORDER BY us ROWS UNBOUNDED PRECEDING)-1)::BIGINT AS session_no FROM o),
 sess AS (SELECT user_id, session_no, min(us) AS start_us, max(us) AS end_us
          FROM s GROUP BY user_id, session_no)
 SELECT ((end_us - start_us) // {SESS_BIN_MIN * 60_000_000})::BIGINT AS bin,
        count(*)::BIGINT AS n
 FROM sess GROUP BY 1""",
        "mad_by_key": """
 SELECT source, count(*)::BIGINT AS n, mad(n_chars) AS mad
 FROM documents GROUP BY 1""",
        "revenue_by_nation": """
 SELECT n_name, sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS revenue_cents
 FROM orders JOIN customer ON o_custkey = c_custkey
             JOIN nation ON c_nationkey = n_nationkey
 GROUP BY 1""",
        "pricing_summary": """
 WITH li AS (SELECT l_returnflag, l_linestatus,
       CAST(round(l_quantity) AS BIGINT) AS q,
       CAST(round(l_extendedprice * 100) AS BIGINT) AS p,
       CAST(round(l_discount * 100) AS BIGINT) AS d,
       CAST(round(l_tax * 100) AS BIGINT) AS t
    FROM lineitem)
 SELECT l_returnflag, l_linestatus,
   sum(q)::BIGINT AS sum_qty,
   sum(p)::BIGINT AS sum_base_cents,
   sum(p * (100 - d))::BIGINT AS sum_disc_c2,
   sum(p * (100 - d) * (100 + t))::BIGINT AS sum_charge_c4,
   round(sum(q)::DOUBLE / count(*), 6) AS avg_qty,
   round(sum(p)::DOUBLE / count(*), 6) AS avg_price_cents,
   round(sum(d)::DOUBLE / count(*), 6) AS avg_disc_pct,
   count(*)::BIGINT AS n
 FROM li GROUP BY 1, 2""",
        "shipping_priority": """
 WITH rev AS (
  SELECT l_orderkey,
         sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT)))::BIGINT AS revenue_c2
  FROM lineitem WHERE l_shipdate > TIMESTAMP '1998-07-01' GROUP BY 1)
 SELECT l_orderkey, revenue_c2, o_orderdate, o_orderpriority
 FROM rev JOIN orders ON l_orderkey = o_orderkey
 WHERE o_orderdate < TIMESTAMP '1998-07-01'
   AND o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')
 ORDER BY revenue_c2 DESC, o_orderdate, l_orderkey LIMIT 10""",
        "promo_revenue": """
 WITH j AS (
  SELECT strftime(l_shipdate, '%Y-%m') AS month,
         CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS r,
         p_type
  FROM lineitem JOIN part ON l_partkey = p_partkey)
 SELECT month,
        sum(CASE WHEN p_type = 'PROMO' THEN r ELSE 0 END)::BIGINT AS promo_c2,
        sum(r)::BIGINT AS total_c2,
        round(100.0 * sum(CASE WHEN p_type = 'PROMO' THEN r ELSE 0 END) / sum(r), 6)
          AS promo_pct
 FROM j GROUP BY 1""",
        "rollup_revenue": """
 SELECT COALESCE(n_name, 'ALL') AS n_name, COALESCE(y, 'ALL') AS o_year,
        sum(c)::BIGINT AS revenue_cents, count(*)::BIGINT AS n_orders
 FROM (SELECT n_name, strftime(o_orderdate, '%Y') AS y,
              CAST(round(o_totalprice * 100) AS BIGINT) AS c
       FROM orders JOIN customer ON o_custkey = c_custkey
                   JOIN nation ON c_nationkey = n_nationkey)
 GROUP BY ROLLUP(n_name, y)""",
        "hits_scores": """
 WITH e AS (SELECT DISTINCT l_suppkey::BIGINT AS src, (l_partkey % 100)::BIGINT AS dst
            FROM lineitem),
 a1 AS (SELECT dst AS node, count(*)::BIGINT AS s FROM e GROUP BY 1),
 h1 AS (SELECT src AS node, sum(a1.s)::BIGINT AS s FROM e JOIN a1 ON e.dst = a1.node GROUP BY 1),
 a2 AS (SELECT dst AS node, sum(h1.s)::BIGINT AS s FROM e JOIN h1 ON e.src = h1.node GROUP BY 1),
 h2 AS (SELECT src AS node, sum(a2.s)::BIGINT AS s FROM e JOIN a2 ON e.dst = a2.node GROUP BY 1),
 n AS (SELECT src AS node FROM e UNION SELECT dst FROM e)
 SELECT n.node::BIGINT AS node, COALESCE(h2.s, 0)::BIGINT AS hub,
        COALESCE(a2.s, 0)::BIGINT AS auth
 FROM n LEFT JOIN h2 ON n.node = h2.node LEFT JOIN a2 ON n.node = a2.node""",
        "gini_by_key": """
 WITH r AS (SELECT source, n_chars AS x,
            row_number() OVER (PARTITION BY source ORDER BY n_chars) AS i
            FROM documents)
 SELECT source, count(*)::BIGINT AS n,
        (2 * sum(i * x) - (count(*) + 1) * sum(x))::BIGINT AS gini_num,
        (count(*) * sum(x))::BIGINT AS gini_den,
        round((2 * sum(i * x) - (count(*) + 1) * sum(x))::DOUBLE
              / (count(*) * sum(x)), 6) AS gini
 FROM r GROUP BY 1""",
        "spearman_by_key": """
 WITH r AS (SELECT user_id,
    2 * rank() OVER (PARTITION BY user_id ORDER BY ts)
      + count(*) OVER (PARTITION BY user_id, ts) - 1 AS u,
    2 * rank() OVER (PARTITION BY user_id ORDER BY value)
      + count(*) OVER (PARTITION BY user_id, value) - 1 AS w
  FROM events),
 m AS (SELECT user_id, count(*)::BIGINT AS n, sum(u)::BIGINT AS su,
              sum(w)::BIGINT AS sw, sum(u * u)::BIGINT AS suu,
              sum(w * w)::BIGINT AS sww, sum(u * w)::BIGINT AS suw
       FROM r GROUP BY 1)
 SELECT user_id, n,
        round((n * suw - su * sw)::DOUBLE
              / sqrt((n * suu - su * su)::DOUBLE * (n * sww - sw * sw)::DOUBLE),
              6) AS rho
 FROM m WHERE n >= 2 AND (n * suu - su * su) > 0 AND (n * sww - sw * sw) > 0""",
        "max_concurrent_sessions": """
 WITH o AS (SELECT user_id, epoch_us(ts) AS us,
            CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w > 30*60*1000000
                 OR lag(epoch_us(ts)) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
       FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
 s0 AS (SELECT user_id, us, sum(new_s) OVER
          (PARTITION BY user_id ORDER BY us ROWS UNBOUNDED PRECEDING) AS sno
        FROM o),
 s AS (SELECT user_id, sno, min(us) AS start_us, max(us) AS end_us
       FROM s0 GROUP BY 1, 2),
 pts AS (SELECT start_us AS us, 1 AS d FROM s
         UNION ALL SELECT end_us + 1, -1 FROM s),
 net AS (SELECT us, sum(d) AS d FROM pts GROUP BY 1),
 run AS (SELECT us, sum(d) OVER (ORDER BY us ROWS UNBOUNDED PRECEDING) AS c
         FROM net)
 SELECT c::BIGINT AS peak_concurrency, us::BIGINT AS peak_ts_us
 FROM run WHERE c = (SELECT max(c) FROM run) ORDER BY us LIMIT 1""",
        "ship_delay_histogram": """
 SELECT ((epoch_us(l_shipdate) - epoch_us(o_orderdate)) // 86400000000)::BIGINT AS delay_days,
        count(*)::BIGINT AS n
 FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY 1""",
        "json_field_stats": """
 SELECT event_type,
        sum(CAST(props->>'k' AS BIGINT))::BIGINT AS sum_v,
        min(CAST(props->>'k' AS BIGINT))::BIGINT AS min_v,
        max(CAST(props->>'k' AS BIGINT))::BIGINT AS max_v,
        count(*)::BIGINT AS n,
        round(sum(CAST(props->>'k' AS BIGINT))::DOUBLE / count(*), 6) AS avg_v
 FROM events GROUP BY 1""",
        "skipgram_counts": f"""
 WITH tok AS (SELECT {_TOK} AS ts FROM documents),
 idx AS (SELECT ts, unnest(generate_series(1, len(ts))) AS i FROM tok),
 dd AS (SELECT unnest(generate_series(1, {SKIP_K})) AS d),
 p AS (SELECT ts[i] AS w1, ts[i + d] AS w2 FROM idx, dd WHERE i + d <= len(ts))
 SELECT w1, w2, count(*)::BIGINT AS n FROM p GROUP BY 1, 2
 HAVING count(*) >= {SKIP_MIN}""",
        "graph_degree_stats": """
 WITH e AS (SELECT DISTINCT l_suppkey AS src, (l_partkey % 100)::BIGINT AS dst
            FROM lineitem),
 o AS (SELECT src AS node, count(*) AS out_deg FROM e GROUP BY 1),
 i AS (SELECT dst AS node, count(*) AS in_deg FROM e GROUP BY 1)
 SELECT COALESCE(o.node, i.node)::BIGINT AS node,
        COALESCE(out_deg, 0)::BIGINT AS out_deg,
        COALESCE(in_deg, 0)::BIGINT AS in_deg
 FROM o FULL JOIN i ON o.node = i.node""",
        "column_profile": """
 WITH p AS (
  SELECT 'event_id' AS col, count(*) AS n, count(*) - count(event_id) AS n_null,
         0 AS n_empty, count(DISTINCT event_id) AS n_distinct FROM events
  UNION ALL SELECT 'ts', count(*), count(*) - count(ts), 0, count(DISTINCT ts) FROM events
  UNION ALL SELECT 'user_id', count(*), count(*) - count(user_id), 0, count(DISTINCT user_id) FROM events
  UNION ALL SELECT 'event_type', count(*), count(*) - count(event_type),
         coalesce(sum(CASE WHEN event_type = '' THEN 1 ELSE 0 END), 0),
         count(DISTINCT event_type) FROM events
  UNION ALL SELECT 'value', count(*), count(*) - count(value), 0, count(DISTINCT value) FROM events
  UNION ALL SELECT 'props', count(*), count(*) - count(props),
         coalesce(sum(CASE WHEN props = '' THEN 1 ELSE 0 END), 0),
         count(DISTINCT props) FROM events)
 SELECT col AS "column", n::BIGINT AS n, n_null::BIGINT AS n_null,
        n_empty::BIGINT AS n_empty, n_distinct::BIGINT AS n_distinct FROM p""",
        "global_quantiles": f"""
 WITH a AS (SELECT quantile_cont(n_chars, {list(GLOBAL_QS)}) AS vs FROM documents),
 i AS (SELECT unnest(generate_series(1, {len(GLOBAL_QS)})) AS i)
 SELECT round({list(GLOBAL_QS)}[i], 6) AS q, round(vs[i], 6) AS value FROM a, i""",
        "approx_quantiles": _approx_quantiles_sql(),
        "approx_quantiles_by_key": _approx_quantiles_by_key_sql(),
        "edit_distance_pairs": """
 WITH d AS (SELECT DISTINCT p_name AS s FROM part WHERE length(p_name) <= 128)
 SELECT x.s AS a, y.s AS b, 1::BIGINT AS dist
 FROM d x JOIN d y ON x.s < y.s AND abs(length(x.s) - length(y.s)) <= 1
 WHERE levenshtein(x.s, y.s) <= 1""",
        "training_shuffle": _training_shuffle_sql(),
        "mutual_information": """
 WITH c AS (SELECT source, lang, count(*)::BIGINT AS n FROM documents GROUP BY 1, 2),
 m AS (SELECT sum(n)::DOUBLE AS total FROM c),
 rx AS (SELECT source, sum(n)::DOUBLE AS nx FROM c GROUP BY 1),
 ry AS (SELECT lang, sum(n)::DOUBLE AS ny FROM c GROUP BY 1)
 SELECT c.source, c.lang, c.n,
        round(ln(c.n::DOUBLE * total / (nx * ny)), 6) AS pmi,
        round((c.n::DOUBLE / total) * ln(c.n::DOUBLE * total / (nx * ny)), 6) AS contrib
 FROM c JOIN rx USING (source) JOIN ry USING (lang), m""",
        "event_transitions": """
 WITH s AS (
   SELECT event_type,
          lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
   FROM events)
 SELECT prev AS prev_type, event_type AS next_type, count(*)::BIGINT AS n
 FROM s WHERE prev IS NOT NULL GROUP BY 1, 2""",
        "correlation_matrix": _corr_sql(),
        "ks_statistic": """
 WITH t AS (SELECT n_chars AS v,
        (CASE WHEN source = 'src0' THEN 1 ELSE 0 END)::BIGINT AS ca,
        (CASE WHEN source = 'src1' THEN 1 ELSE 0 END)::BIGINT AS cb
   FROM documents WHERE source IN ('src0', 'src1')),
 g AS (SELECT v, sum(ca)::BIGINT AS ca, sum(cb)::BIGINT AS cb FROM t GROUP BY 1),
 c AS (SELECT v, sum(ca) OVER (ORDER BY v)::BIGINT AS cum_a,
              sum(cb) OVER (ORDER BY v)::BIGINT AS cum_b FROM g),
 n AS (SELECT sum(ca)::BIGINT AS na, sum(cb)::BIGINT AS nb FROM g)
 SELECT 'src0' AS group_a, 'src1' AS group_b, na AS n_a, nb AS n_b,
        round(max(abs(cum_a::DOUBLE / na::DOUBLE - cum_b::DOUBLE / nb::DOUBLE)), 6) AS ks
 FROM c, n GROUP BY na, nb""",
        "triangle_count": """
 WITH raw AS (SELECT l_suppkey AS a, l_partkey % 100 AS b FROM lineitem),
 e AS (SELECT DISTINCT least(a, b) AS lo, greatest(a, b) AS hi FROM raw WHERE a <> b)
 SELECT (SELECT count(DISTINCT n) FROM (SELECT lo AS n FROM e UNION SELECT hi FROM e))::BIGINT AS n_nodes,
        (SELECT count(*) FROM e)::BIGINT AS n_edges,
        (SELECT count(*) FROM e e1
           JOIN e e2 ON e1.hi = e2.lo
           JOIN e e3 ON e3.lo = e1.lo AND e3.hi = e2.hi)::BIGINT AS n_triangles""",
        "weighted_sample": _weighted_sample_sql(),
        "diversity_by_key": """
 WITH c AS (SELECT source, lang, count(*)::BIGINT AS n FROM documents GROUP BY 1, 2),
 t AS (SELECT source, lang, n,
        CAST(round(n::DOUBLE * ln(n::DOUBLE) * 1000000) AS BIGINT) AS t_us
   FROM c),
 g AS (SELECT source, sum(n)::BIGINT AS total, count(*)::BIGINT AS n_distinct,
        sum(t_us)::BIGINT AS t_sum, sum(n * n)::BIGINT AS sq
   FROM t GROUP BY 1)
 SELECT source, total AS n, n_distinct,
        round(ln(total::DOUBLE) - (t_sum::DOUBLE / 1000000.0) / total::DOUBLE, 6) AS entropy,
        round(1.0 - sq::DOUBLE / (total::DOUBLE * total::DOUBLE), 6) AS simpson
 FROM g""",
        "bpe_train": _bpe_train_sql(),
        "blocklist_filter": _blocklist_sql(),
        "zipf_slope": f"""
 WITH tok AS (SELECT unnest({_TOK}) AS term FROM documents),
 c AS (SELECT term, count(*)::BIGINT AS n FROM tok GROUP BY 1),
 r AS (SELECT n, row_number() OVER (ORDER BY n DESC, term ASC) AS rnk FROM c),
 t AS (SELECT
        CAST(round(ln(rnk::DOUBLE) * 1000000000000.0) AS BIGINT) AS x_u,
        CAST(round(ln(n::DOUBLE) * 1000000000000.0) AS BIGINT) AS y_u,
        CAST(round(ln(rnk::DOUBLE) * ln(rnk::DOUBLE) * 1000000000000.0) AS BIGINT) AS xx_u,
        CAST(round(ln(rnk::DOUBLE) * ln(n::DOUBLE) * 1000000000000.0) AS BIGINT) AS xy_u
   FROM r WHERE rnk <= {ZIPF_N}),
 s AS (SELECT count(*)::DOUBLE AS m,
        sum(x_u)::DOUBLE / 1000000000000.0 AS sx,
        sum(y_u)::DOUBLE / 1000000000000.0 AS sy,
        sum(xx_u)::DOUBLE / 1000000000000.0 AS sxx,
        sum(xy_u)::DOUBLE / 1000000000000.0 AS sxy
   FROM t)
 SELECT m::BIGINT AS n_terms,
        round((m * sxy - sx * sy) / (m * sxx - sx * sx), 6) AS slope,
        round((sy - ((m * sxy - sx * sy) / (m * sxx - sx * sx)) * sx) / m, 6) AS intercept
 FROM s""",
        "chi_squared": """
 WITH c AS (SELECT source, lang, count(*)::BIGINT AS n FROM documents GROUP BY 1, 2),
 m AS (SELECT sum(n)::DOUBLE AS total FROM c),
 rx AS (SELECT source, sum(n)::DOUBLE AS nx FROM c GROUP BY 1),
 ry AS (SELECT lang, sum(n)::DOUBLE AS ny FROM c GROUP BY 1),
 t AS (SELECT c.n,
        CAST(round(((c.n::DOUBLE - (nx * ny / total)) ^ 2) / (nx * ny / total) * 1000000) AS BIGINT) AS term_u,
        CAST(round((nx * ny / total) * 1000000) AS BIGINT) AS e_u
   FROM c JOIN rx USING (source) JOIN ry USING (lang), m)
 SELECT round((sum(term_u) + CAST((SELECT total FROM m) AS BIGINT) * 1000000 - sum(e_u))::DOUBLE / 1000000.0, 6) AS chi2,
        ((SELECT count(*) FROM rx) - 1) * ((SELECT count(*) FROM ry) - 1) AS dof,
        count(*)::BIGINT AS n_cells,
        sum(n)::BIGINT AS n
 FROM t""",
        "langid_confusion": f"""
 SELECT d.lang, p.pred_lang, count(*)::BIGINT AS n
 FROM documents d JOIN ({_lang_id_sql()}) p ON d.doc_id = p.doc_id
 GROUP BY 1, 2""",
        "flesch_readability": """
 WITH t AS (SELECT doc_id,
        len(regexp_extract_all(lower(text), '[a-z]+'))::BIGINT AS n_words,
        len(regexp_extract_all(text, '[.!?]+'))::BIGINT AS n_sentences,
        len(regexp_extract_all(lower(text), '[aeiouy]+'))::BIGINT AS n_syllables
   FROM documents)
 SELECT doc_id, n_words, n_sentences, n_syllables,
        round(206.835
              - 1.015 * (greatest(n_words, 1)::DOUBLE / greatest(n_sentences, 1)::DOUBLE)
              - 84.6 * (n_syllables::DOUBLE / greatest(n_words, 1)::DOUBLE), 6) AS flesch
 FROM t""",
        "sessionize": """
 WITH o AS (SELECT user_id, epoch_us(ts) AS us,
            CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w > 30*60*1000000
                 OR lag(epoch_us(ts)) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
       FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
 s AS (SELECT user_id, us, (sum(new_s) OVER (PARTITION BY user_id ORDER BY us ROWS UNBOUNDED PRECEDING)-1)::BIGINT AS session_no FROM o)
 SELECT user_id, session_no, count(*)::BIGINT AS n_events,
        min(us) AS start_us, max(us) AS end_us
 FROM s GROUP BY user_id, session_no""",
        "asof_join": """
 WITH o AS (SELECT o_orderkey, o_custkey AS k, epoch_us(o_orderdate) AS us FROM orders),
 e AS (SELECT event_id, user_id AS k, epoch_us(ts) AS ts_us FROM events)
 SELECT e.event_id, e.k AS key, e.ts_us, o.o_orderkey, o.us AS right_ts_us
 FROM e JOIN o ON e.k = o.k AND o.us <= e.ts_us
 QUALIFY row_number() OVER (PARTITION BY e.event_id ORDER BY o.us DESC, o.o_orderkey DESC) = 1""",
        "range_join_sessions": """
 WITH o AS (SELECT user_id, epoch_us(ts) AS us,
            CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w > 30*60*1000000
                 OR lag(epoch_us(ts)) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
       FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
 s AS (SELECT user_id, us, (sum(new_s) OVER (PARTITION BY user_id ORDER BY us ROWS UNBOUNDED PRECEDING)-1)::BIGINT AS session_no FROM o),
 sess AS (SELECT user_id, session_no, min(us) AS start_us, max(us) AS end_us
          FROM s GROUP BY user_id, session_no)
 SELECT e.event_id, e.user_id AS key, epoch_us(e.ts) AS ts_us, sess.session_no
 FROM events e JOIN sess ON e.user_id = sess.user_id
  AND epoch_us(e.ts) BETWEEN sess.start_us AND sess.end_us""",
        "rolling_window": """
 SELECT event_id, user_id, epoch_us(ts) AS ts_us,
        round(avg(value) OVER (PARTITION BY user_id ORDER BY epoch_us(ts), event_id
                               ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6) AS ravg
 FROM events""",
        "topk_per_user": """
 SELECT user_id, event_id, value, rn FROM (
   SELECT user_id, event_id, value,
          row_number() OVER (PARTITION BY user_id ORDER BY value DESC, event_id)::BIGINT AS rn
   FROM events) WHERE rn <= 3""",
        "exact_dedup_apply": """
 SELECT d.doc_id, d.text, d.lang, d.source FROM documents d
 JOIN (SELECT min(doc_id) AS k FROM documents GROUP BY md5(text)) s ON d.doc_id = s.k""",
        "sample_by_key": """
 SELECT doc_id, text, lang FROM documents
 WHERE (doc_id * 2654435761) % 4294967296 % 1000000 < 250000""",
        "token_count": f"SELECT doc_id, len({_TOK})::BIGINT AS n_tokens FROM documents",
        "term_doc_freq": f"""
 SELECT term, count(*)::BIGINT AS doc_freq FROM (
   SELECT DISTINCT doc_id, unnest({_TOK}) AS term FROM documents) GROUP BY term""",
        "stopword_ratio": f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents)
 SELECT doc_id, len(ts)::BIGINT AS n_tokens,
        round(len(list_filter(ts, x -> x IN ({sw})))::DOUBLE / greatest(len(ts),1), 6) AS stop_ratio
 FROM tok""",
        "doc_quality": f"""
 WITH tok AS (SELECT doc_id, greatest(len({_TOK}),1) AS n, length(text) AS c FROM documents)
 SELECT doc_id, round(ln(n::DOUBLE/(1+c)),6) AS quality FROM tok""",
        "exact_dedup": """
 SELECT md5(text) AS text_hash, min(doc_id) AS keep_doc_id, count(*)::BIGINT AS n_dups
 FROM documents GROUP BY 1""",
        "normalized_dedup": """
 SELECT md5(trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))) AS norm_hash,
        min(doc_id) AS keep_doc_id, count(*)::BIGINT AS n_dups
 FROM documents GROUP BY 1""",
        "pmi_collocations": f"""
 WITH tok AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM documents),
 uni AS (SELECT t AS term, count(*)::BIGINT AS c FROM tok, unnest(ts) AS u(t) GROUP BY 1),
 big AS (SELECT ts[i] AS w1, ts[i+1] AS w2, count(*)::BIGINT AS c
         FROM tok, unnest(generate_series(1, len(ts)-1)) AS g(i) GROUP BY 1, 2),
 tot AS (SELECT (SELECT sum(c) FROM uni)::DOUBLE AS n, (SELECT sum(c) FROM big)::DOUBLE AS m),
 p AS (SELECT b.w1, b.w2, b.c AS c_xy,
              round(ln((b.c * tot.n * tot.n) / (tot.m * u1.c * u2.c)), 6) AS pmi
       FROM big b, tot, uni u1, uni u2
       WHERE u1.term = b.w1 AND u2.term = b.w2 AND b.c >= {PMI_MIN_COUNT})
 SELECT w1, w2, c_xy, pmi FROM p ORDER BY pmi DESC, w1, w2 LIMIT {PMI_K}""",
        "quantile_by_key": """
 SELECT source, count(*)::BIGINT AS n, round(quantile_cont(n_chars, 0.9), 6) AS q90
 FROM documents GROUP BY source""",
        "novel_against_corpus": """
 SELECT doc_id, md5(text) AS text_hash FROM documents
 WHERE doc_id % 2 = 1
   AND md5(text) NOT IN (SELECT md5(text) FROM documents WHERE doc_id % 2 = 0)""",
        "rrf_fusion": f"""
 WITH ra AS {_bm25_ranked_sql(BM25_TERMS, RRF_N)},
 rb AS {_bm25_ranked_sql(RRF_TERMS_B, RRF_N)},
 u AS (SELECT doc_id, 1.0/(60+rn) AS w FROM ra
       UNION ALL SELECT doc_id, 1.0/(60+rn) FROM rb),
 f AS (SELECT doc_id, round(sum(w), 6) AS rrf_score FROM u GROUP BY doc_id)
 SELECT doc_id, rrf_score FROM f ORDER BY rrf_score DESC, doc_id LIMIT 10""",
        "dsir_weights": f"""
 WITH tok AS (SELECT doc_id, lang, {_TOK} AS ts FROM documents),
 uni AS (SELECT doc_id, lang, unnest(ts) AS f FROM tok),
 bidx AS (SELECT doc_id, lang, ts, unnest(generate_series(1, len(ts)-1)) AS i FROM tok),
 big AS (SELECT doc_id, lang, ts[i]||' '||ts[i+1] AS f FROM bidx),
 feats AS (SELECT doc_id, lang, f FROM uni UNION ALL SELECT doc_id, lang, f FROM big),
 fb AS (SELECT doc_id, lang,
        CAST(('0x'||substr(md5(f),1,15)) AS UBIGINT) % 10000 AS b FROM feats),
 tcnt AS (SELECT b, count(*) AS c FROM fb WHERE lang='en' GROUP BY 1),
 rcnt AS (SELECT b, count(*) AS c FROM fb GROUP BY 1),
 tot AS (SELECT (SELECT count(*) FROM fb WHERE lang='en') AS T,
                (SELECT count(*) FROM fb) AS R),
 lrw AS (SELECT fb.doc_id,
         ln((coalesce(tcnt.c,0)+1)::DOUBLE / (T+10000))
       - ln((coalesce(rcnt.c,0)+1)::DOUBLE / (R+10000)) AS w
   FROM fb LEFT JOIN tcnt USING(b) LEFT JOIN rcnt USING(b), tot),
 agg AS (SELECT doc_id, count(*)::BIGINT AS n_feats,
                floor(sum(w)*1000000 + 0.5)/1000000.0 AS logw
   FROM lrw GROUP BY 1)
 SELECT d.doc_id, coalesce(n_feats, 0)::BIGINT AS n_feats,
        coalesce(logw, 0.0) AS logw
 FROM documents d LEFT JOIN agg USING(doc_id)""",
        "domain_adjacencies": _ADJ_SQL,
        "random_domains": _random_domains_sql(),
        "similar_domains": _similar_domains_sql(),
        "explorer_related": _explorer_related_sql(),
        "browse_url_ids": _browse_url_ids_sql(),
        "old_algo_neighbors": _old_algo_sql(),
        "site_info": _site_info_sql(),
        "crawl_specs": _crawl_specs_sql(),
        "jaccard_pairs": jaccard,
        "containment_pairs": containment,
        "winnow_fingerprints": _winnow_sql(),
        # minhash+LSH is verified-exact; at this scale its fixed-seed recall
        # over the planted near-dups is 1.0, so the exact-Jaccard SQL is the
        # oracle (probabilistic completeness documented in ops/dedup.py)
        "minhash_dedup": jaccard,
        "knn_cosine": f"""
 WITH q AS (SELECT vec_id qid, CAST(embedding AS DOUBLE[]) qe FROM embeddings WHERE vec_id IN ({qid})),
 s AS (SELECT q.qid query_id, e.vec_id neighbor_id,
              list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) score
       FROM q, embeddings e WHERE e.vec_id != q.qid),
 r AS (SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY score DESC, neighbor_id) rn FROM s)
 SELECT query_id, neighbor_id, round(score,6) AS score FROM r WHERE rn <= {KNN_K}""",
        "embedding_dedup": f"""
 SELECT a.vec_id id_a, b.vec_id id_b,
        round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])),6) AS score
 FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
 WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) >= {COSINE_THRESHOLD}""",
        "bm25_topk": f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 stats AS (SELECT count(*) AS n_docs, avg(len(ts)) AS avgdl FROM tok),
 tf AS (SELECT doc_id, len(ts) AS dl, t AS term, len(list_filter(ts, x->x=t)) AS tf
        FROM tok, (SELECT unnest([{tl}]) AS t)),
 df AS (SELECT term, sum(CASE WHEN tf>0 THEN 1 ELSE 0 END) AS df FROM tf GROUP BY term),
 scored AS (SELECT tf.doc_id,
        sum(CASE WHEN tf.tf>0 THEN ln(1+(stats.n_docs-df.df+0.5)/(df.df+0.5))
                 * tf.tf/(tf.tf+1.2*(1-0.75+0.75*tf.dl/stats.avgdl)) ELSE 0 END) AS s
   FROM tf, stats, df WHERE tf.term=df.term GROUP BY tf.doc_id)
 SELECT doc_id, round(s,6) AS score FROM scored WHERE s>0 ORDER BY s DESC, doc_id LIMIT 10""",
        "lang_id": _lang_id_sql(),
        "doc_fingerprint": _fingerprint_sql(),
        "ngram_overlap": _ngram_overlap_sql(),
        "gopher_quality": _gopher_sql(),
        "repetition_metrics": _repetition_sql(),
        "knn_cosine_lsh": _knn_lsh_sql(),
        "knn_cosine_ivf": _knn_ivf_sql(),
        "kmeans_assign": _kmeans_assign_sql(),
        "kmeans_update": _kmeans_update_sql(),
        "knn_cosine_pq": _knn_pq_sql(),
        "simhash_pairs": _simhash_sql(),
        "pii_scrub": _pii_sql(),
        "hash_split": _hash_split_sql(),
        "tfidf_topk": _tfidf_sql(),
        "exact_substring_pairs": _substring_sql(),
        "c4_filter": _c4_sql(),
        "decontaminate": _decontaminate_sql(),
        "token_budget_pack": _token_budget_pack_sql(),
        "length_percentile": _length_percentile_sql(),
        "sentence_dedup": _sentence_dedup_sql(),
        "median_by_key": _median_by_key_sql(),
        "funnel_count": _funnel_sql(),
        "approx_distinct": _hll_sql(),
        "cms_term_counts": _cms_sql(),
        "bigram_perplexity": _bigram_perplexity_sql(),
        "stratified_sample_n": _stratified_sample_sql(),
        "mixture_sample": _mixture_sample_sql(),
        "broadcast_join": """
 SELECT l_orderkey, l_linenumber, l_suppkey, s_name, s_nationkey
 FROM lineitem JOIN supplier ON l_suppkey = s_suppkey""",
        "hash_join": """
 SELECT o_orderkey, o_custkey, o_totalprice, c_name, c_mktsegment
 FROM orders JOIN customer ON o_custkey = c_custkey""",
        "ngram_novelty": f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 idx AS (SELECT doc_id, ts, unnest(generate_series(1, len(ts)-2)) AS i FROM tok),
 sh AS (SELECT DISTINCT doc_id, ts[i]||' '||ts[i+1]||' '||ts[i+2] AS s FROM idx),
 df AS (SELECT s, count(*) AS df FROM sh GROUP BY 1)
 SELECT sh.doc_id, count(*)::BIGINT AS n_shingles,
        sum(CASE WHEN df.df = 1 THEN 1 ELSE 0 END)::BIGINT AS n_unique,
        floor(sum(CASE WHEN df.df = 1 THEN 1 ELSE 0 END)::DOUBLE / count(*)
              * 1000000 + 0.5) / 1000000.0 AS novelty
 FROM sh JOIN df ON sh.s = df.s GROUP BY 1""",
        "token_entropy": f"""
 WITH tok AS (SELECT doc_id, unnest({_TOK}) AS term FROM documents),
 tf AS (SELECT doc_id, term, count(*)::BIGINT AS c FROM tok GROUP BY 1, 2),
 tot AS (SELECT doc_id, sum(c)::BIGINT AS s, count(*)::BIGINT AS nd FROM tf GROUP BY 1),
 contrib AS (SELECT tf.doc_id,
    CAST(floor((c / s::DOUBLE) * ln(c / s::DOUBLE) * 1000000000 + 0.5) AS BIGINT) AS q
    FROM tf JOIN tot USING (doc_id)),
 agg AS (SELECT doc_id, sum(q) AS sq FROM contrib GROUP BY 1)
 SELECT d.doc_id, coalesce(t.s, 0) AS n_tokens, coalesce(t.nd, 0) AS n_distinct,
        coalesce(floor(-a.sq / 1000000000.0 * 1000000 + 0.5) / 1000000.0, 0.0) + 0.0 AS entropy
 FROM documents d LEFT JOIN tot t USING (doc_id) LEFT JOIN agg a USING (doc_id)""",
        "hash_left_join": """
 SELECT o_orderkey, o_custkey, c_name
 FROM orders LEFT JOIN (SELECT * FROM customer WHERE c_mktsegment = 'BUILDING') c
 ON o_custkey = c_custkey""",
        "hash_full_join": """
 SELECT coalesce(o.o_custkey, c.c_custkey) AS o_custkey,
        o_orderkey, o_totalprice, c_name, c_mktsegment
 FROM (SELECT * FROM orders WHERE o_orderkey % 3 = 0) o
 FULL JOIN (SELECT * FROM customer WHERE c_custkey % 2 = 0) c
 ON o.o_custkey = c.c_custkey""",
        "tumbling_window": _window_sql(TUMBLE_MIN, None),
        "hopping_window": _window_sql(TUMBLE_MIN, HOP_MIN),
        "fuzzy_dedup_components": _fuzzy_components_sql(),
        "semantic_dedup": _semantic_dedup_sql(),
        "near_dedup_apply": _near_dedup_apply_sql(),
        "soft_dedup_weights": _soft_dedup_weights_sql(),
        "substring_dedup_apply": _substring_apply_sql(),
        # Arrow utf8_normalize(NFC) == DuckDB nfc_normalize (both the
        # Unicode standard); whitespace collapse is the same RE2 regex
        "text_normalize": """
 WITH dec AS (SELECT doc_id,
   text || CASE WHEN doc_id % 2 = 0 THEN ' caf' || chr(233)
                ELSE ' cafe' || chr(769) END AS text FROM documents),
 n AS (SELECT doc_id, text,
   trim(regexp_replace(nfc_normalize(text), '\\s+', ' ', 'g')) AS norm_text
   FROM dec)
 SELECT doc_id, norm_text, (norm_text <> text) AS changed FROM n""",
        "pagerank_scores": _pagerank_sql(),
        # FLOOR division (numpy's //) — DuckDB's // truncates toward zero,
        # which diverges on pre-epoch timestamps; subtract 1 when the
        # remainder is negative (DuckDB % follows the dividend's sign)
        "cohort_retention": """
 WITH ew AS (SELECT DISTINCT user_id,
                    (epoch_us(ts) // 604800000000
                     - CASE WHEN epoch_us(ts) % 604800000000 < 0
                            THEN 1 ELSE 0 END) AS w FROM events),
 f AS (SELECT user_id, min(w) AS cw FROM ew GROUP BY user_id)
 SELECT f.cw AS cohort_week, (e.w - f.cw) AS week_offset,
        count(*)::BIGINT AS n_users
 FROM ew e JOIN f USING (user_id)
 GROUP BY 1, 2""",
        "chunk_documents": f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 t AS (SELECT doc_id, ts[i] AS t, i, (i - 1) // {CHUNK_TOKENS} AS chunk_id
       FROM tok, unnest(generate_series(1, len(ts))) AS u(i))
 SELECT doc_id, chunk_id, string_agg(t, ' ' ORDER BY i) AS chunk_text,
        count(*)::BIGINT AS n_tokens
 FROM t GROUP BY 1, 2""",
        "audio_features": """
 SELECT doc_id,
        0.5 + (doc_id % 5) * 0.25 AS duration_s,
        CAST(8000 AS INTEGER) AS sample_rate
 FROM documents WHERE doc_id < 40""",
        "image_features": """
 SELECT doc_id,
        CAST(8 + doc_id % 9 AS INTEGER) AS width,
        CAST(6 + doc_id % 5 AS INTEGER) AS height,
        CAST(3 AS INTEGER) AS channels
 FROM documents WHERE doc_id < 40""",
        "similarity_join": _similarity_join_sql(),
        "linear_classifier": _linear_classifier_sql(),
        "bloom_membership": _bloom_membership_sql(),
        "group_quality_filter": _group_quality_filter_sql(),
        "ccnet_buckets": _ccnet_buckets_sql(),
        "marginalia_search": _marginalia_search_sql(),
        # merged-path flagship: split-build + k-way merge + search must be
        # rank/score-identical to the flat build, so the golden is shared
        "marginalia_search_merged": _marginalia_search_sql(),
        "heavy_hitters": f"""
 WITH tok AS (SELECT unnest({_TOK}) AS term FROM documents)
 SELECT term, count(*)::BIGINT AS cnt FROM tok GROUP BY term
 HAVING count(*) * {HH_DEN} >= {HH_NUM} * (SELECT count(*) FROM tok)""",
        "heavy_ngrams": f"""
 WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
 g AS (SELECT ts[i]||' '||ts[i+1]||' '||ts[i+2] AS term
       FROM tok, unnest(generate_series(1, len(ts)-2)) AS u(i))
 SELECT term, count(*)::BIGINT AS cnt FROM g GROUP BY term
 HAVING count(*) * {HH3_DEN} >= {HH3_NUM} * (SELECT count(*) FROM g)""",
    }
