"""Build-time browse/serving artifact + O(probe) reader (VERDICT r4 #4).

The reference STORES its browse data: EC_DOMAIN_NEIGHBORS_2 is filled by
the website-adjacencies batch job (tools/website-adjacencies-calculator/
.../WebsiteAdjacenciesCalculator.java:128-190), EC_DOMAIN_LINK and
DOMAIN_METADATA are SQL tables, and the serving queries
(DbBrowseDomainsSimilarOldAlgo.java:29-134, DomainInformationService.
java:44-90) are per-probe indexed lookups — they never scan the corpus.
This module serves those queries the same way: one distributed build
pass writes hash-bucketed parquet, and the reader answers each probe
from the probe's buckets only.  Its independent reference is the DuckDB
SQL of the browse rows in ``__ray_entry__.oracle_sql()``.

Layout under ``out_dir`` (every table partitioned on ``bucket =
fmix64(key) % n_buckets`` so a probe prunes to one directory):

  neighbors/   bucket(domain_id)  (domain_id, neighbor_id, adj_idx)
  edges_src/   bucket(src)        (src, dst)
  edges_dst/   bucket(dst)        (src, dst)
  domain_meta/ bucket(domain_id)  one consolidated row per domain:
               (domain_id, domain_name, state, alias_null, rank_d,
                known_urls, visited_urls, good_urls, rank, n_in, n_out,
                in_crawl_queue, blacklisted, linking_domains)
  name_index/  bucket(name hash)  (domain_name, domain_id)
  screenshots/ bucket(domain_id)  domains with a screenshot; only when the
               build is given screenshot data — without it,
               ``similar_domains`` raises ``NoScreenshotData``

The consolidation joins degrees, metadata, flags and the per-domain
smallest-25 linking-domain string (EC_RELATED_LINKS_VIEW ... ORDER BY
SOURCE_DOMAIN_ID LIMIT 25) in ONE tagged-union hash exchange; the
linking-name resolution is a separate keyed join.  At 10^8 domains every
stage is a bucketed shuffle of (id, few-scalars) rows — no driver-side
state, no per-key Python.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from marginalia_ray.ops.dedup import U64, _fmix64_vec, _token_hash_arrow
from marginalia_ray.ops.relational import hash_equi_join

_LINKING_TOP = 25  # EC_RELATED_LINKS_VIEW ... LIMIT 25


# the neighbors table both build paths write (rank_neighbors' output)
_NEIGHBORS_SCHEMA = pa.schema(
    [
        ("domain_id", pa.int64()),
        ("neighbor_id", pa.int64()),
        ("adj_idx", pa.int64()),
        ("relatedness", pa.float64()),
    ]
)


def _pct_int(r: np.ndarray) -> np.ndarray:
    """ROUND(100 * cosine) — MySQL half-away-from-zero on non-negative
    values, as EC_NEIGHBORS_VIEW exposes relatedness."""
    return np.floor(100.0 * r + 0.5).astype(np.int64)


def _bucket_of_int(ids: np.ndarray, n_buckets: int) -> np.ndarray:
    return (_fmix64_vec(ids.astype(np.int64).astype(U64)) % U64(n_buckets)).view(
        np.int64
    )


def _bucket_of_str(arr: pa.ChunkedArray | pa.Array, n_buckets: int) -> np.ndarray:
    return (_token_hash_arrow(arr) % U64(n_buckets)).view(np.int64)


def _write_bucketed(
    ds, out: Path, key_col: str, n_buckets: int, *, by_str=False, empty_schema=None
):
    def _key(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("bucket", pa.array([], pa.int64()))
        if by_str:
            bk = _bucket_of_str(batch[key_col], n_buckets)
        else:
            bk = _bucket_of_int(
                batch[key_col].to_numpy(zero_copy_only=False), n_buckets
            )
        return batch.append_column("bucket", pa.array(bk))

    keyed = ds.map_batches(_key, batch_format="pyarrow")
    keyed.write_parquet(str(out), partition_cols=["bucket"])
    # an empty input writes no files at all — materialize one typed empty
    # file so the reader's dataset open (and its schema) always works
    if not any(Path(out).rglob("*.parquet")):
        import pyarrow.parquet as pq

        from marginalia_ray.ops.relational import schema_no_reexec

        schema, _ = schema_no_reexec(ds)
        if schema is None:
            schema = empty_schema
        if schema is None:
            raise ValueError(
                f"_write_bucketed({out}): empty input with no derivable "
                "schema — pass empty_schema"
            )
        # Ray's Schema wrapper and pa.Schema both expose names/types
        empty = pa.table(
            {n: pa.array([], t) for n, t in zip(schema.names, schema.types)}
        )
        d = Path(out) / "bucket=0"
        d.mkdir(parents=True, exist_ok=True)
        pq.write_table(empty, d / "empty.parquet")


def build_browse_artifact(
    out_dir: str,
    *,
    neighbors,
    links,
    domains,
    meta,
    crawl_queue=None,
    blacklist_names=None,
    screenshots=None,
    n_buckets: int = 64,
    id_col: str = "domain_id",
    name_col: str = "domain_name",
    state_col: str = "state",
    alias_col: str = "domain_alias",
    rank_col: str = "rank_d",
) -> str:
    """One distributed pass -> the serving artifact.  Inputs:
    ``neighbors`` (domain_id, neighbor_id, adj_idx, and relatedness for
    similar_domains / explorer_related), ``links`` (src, dst — DISTINCT
    edges), ``domains`` (id/name/state/alias, optional rank_d), ``meta``
    (domain_id, known_urls, optional visited_urls/good_urls/rank),
    optional ``crawl_queue`` / ``blacklist_names`` (domain_name).
    Missing meta columns fall back to the serving defaults (0 counts,
    rank 0) so one builder serves both the old-algo and site-info probe
    shapes.  Returns ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _write_bucketed(
        neighbors, out / "neighbors", "domain_id", n_buckets,
        empty_schema=_NEIGHBORS_SCHEMA,
    )
    _write_bucketed(
        neighbors, out / "neighbors_rev", "neighbor_id", n_buckets,
        empty_schema=_NEIGHBORS_SCHEMA,
    )
    if screenshots is not None:
        _write_bucketed(screenshots, out / "screenshots", "domain_id", n_buckets)
    links = links.materialize()  # read 3x below: src/dst layouts + degrees
    _write_bucketed(links, out / "edges_src", "src", n_buckets)
    _write_bucketed(links, out / "edges_dst", "dst", n_buckets)

    # ---- degrees: per-batch partials -> one bucketed sum -------------
    def _deg_partial(batch: pa.Table) -> pa.Table:
        s = batch["src"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = batch["dst"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        su, sc = np.unique(s, return_counts=True)
        du, dc = np.unique(d, return_counts=True)
        ids = np.concatenate([su, du])
        return pa.table(
            {
                "domain_id": pa.array(ids),
                "n_out": pa.array(
                    np.concatenate([sc, np.zeros(len(du), np.int64)]).astype(np.int64)
                ),
                "n_in": pa.array(
                    np.concatenate([np.zeros(len(su), np.int64), dc]).astype(np.int64)
                ),
            }
        )

    from marginalia_ray.ops.relational import bucketed_group_agg

    degrees = bucketed_group_agg(
        links.map_batches(_deg_partial, batch_format="pyarrow"),
        ["domain_id"],
        ["n_out", "n_in"],
    )  # columns: domain_id, sum(n_out), sum(n_in)

    # ---- smallest-25 linking sources per dst, resolved to names ------
    def _link25_partial(batch: pa.Table) -> pa.Table:
        s = batch["src"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = batch["dst"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((s, d))
        d_s, s_s = d[order], s[order]
        starts = np.flatnonzero(np.r_[True, d_s[1:] != d_s[:-1]])
        seg = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(d_s)]))
        pos = np.arange(len(d_s)) - starts[seg]
        keep = pos < _LINKING_TOP
        return pa.table({"dst": pa.array(d_s[keep]), "src": pa.array(s_s[keep])})

    pairs_partial = links.map_batches(_link25_partial, batch_format="pyarrow")

    def _bucket_dst(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("_pk", pa.array([], pa.int64()))
        bk = _bucket_of_int(
            batch["dst"].to_numpy(zero_copy_only=False), 256
        )
        return batch.append_column("_pk", pa.array(bk))

    def _link25_merge(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {"dst": pa.array([], pa.int64()), "src": pa.array([], pa.int64())}
            )
        return _link25_partial(part)

    pairs = (
        pairs_partial.map_batches(_bucket_dst, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(_link25_merge, batch_format="pyarrow")
    )

    dom_names = domains.map_batches(
        lambda t: pa.table(
            {
                "nid": t[id_col].cast(pa.int64()),
                "nname": t[name_col].cast(pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    named = hash_equi_join(
        pairs, dom_names, on="src", right_on="nid", right_cols=["nname"]
    )  # (dst, src, nname); unnamed sources drop (reference inner join)

    def _linking_join(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    "domain_id": pa.array([], pa.int64()),
                    "linking_domains": pa.array([], pa.string()),
                }
            )
        d = part["dst"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        s = part["src"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        names = np.asarray(part["nname"].to_pylist(), dtype=object)
        order = np.lexsort((s, d))
        d_s, names_s = d[order], names[order]
        starts = np.flatnonzero(np.r_[True, d_s[1:] != d_s[:-1]])
        out_ids, out_strs = [], []
        bounds = np.r_[starts, len(d_s)]
        for i in range(len(starts)):
            lo, hi = bounds[i], bounds[i + 1]
            out_ids.append(int(d_s[lo]))
            out_strs.append(",".join(names_s[lo : min(hi, lo + _LINKING_TOP)]))
        return pa.table(
            {
                "domain_id": pa.array(out_ids, pa.int64()),
                "linking_domains": pa.array(out_strs, pa.string()),
            }
        )

    linking = (
        named.map_batches(_bucket_dst, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(_linking_join, batch_format="pyarrow")
    )

    # ---- name-membership flags (crawl queue / blacklist) -------------
    # hash_equi_join wants integer keys: join on the 64-bit token hash of
    # the name, then verify the strings post-join (exact membership, no
    # collision exposure)
    def _name_hashed(ds_, col_in: str, col_out: str, extra: dict):
        def _f(t: pa.Table) -> pa.Table:
            cols = {
                col_out: pa.array(
                    _token_hash_arrow(t[col_in]).view(np.int64)
                )
            }
            for k, src in extra.items():
                cols[k] = t[src].cast(pa.string()) if k.endswith("name") else t[src]
            return pa.table(cols)

        return ds_.map_batches(_f, batch_format="pyarrow")

    def _flag_ds(src_ds, flag: str):
        if src_ds is None:
            return None
        rhs = _name_hashed(src_ds, name_col, "qh", {"qname": name_col})
        lhs = domains.map_batches(
            lambda t: pa.table(
                {
                    "nh": pa.array(_token_hash_arrow(t[name_col]).view(np.int64)),
                    "nid": t[id_col].cast(pa.int64()),
                    "dname": t[name_col].cast(pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        j = hash_equi_join(
            lhs, rhs, on="nh", right_on="qh",
            left_cols=["nid", "dname"], right_cols=["qname"],
        )

        def _verify(t: pa.Table) -> pa.Table:
            m = pc.equal(t["dname"], t["qname"])
            kept = t.filter(pc.fill_null(m, False))
            return pa.table(
                {
                    "domain_id": kept["nid"].cast(pa.int64()),
                    flag: pa.array(np.ones(kept.num_rows, np.int64)),
                }
            )

        return j.map_batches(_verify, batch_format="pyarrow")

    in_queue = _flag_ds(crawl_queue, "in_q")
    blacklisted = _flag_ds(blacklist_names, "bl")

    # ---- consolidation: ONE tagged union + bucketed merge ------------
    FIELDS = [
        ("domain_name", pa.string()),
        ("state", pa.int64()),
        ("alias_null", pa.int64()),
        ("rank_d", pa.float64()),
        ("known_urls", pa.int64()),
        ("visited_urls", pa.int64()),
        ("good_urls", pa.int64()),
        ("rank", pa.int64()),
        ("n_in", pa.int64()),
        ("n_out", pa.int64()),
        ("indexed", pa.int64()),
        ("alias_target", pa.int64()),
        ("in_q", pa.int64()),
        ("bl", pa.int64()),
        ("linking_domains", pa.string()),
    ]
    FIELD_NAMES = [f for f, _ in FIELDS]
    UNION_SCHEMA = pa.schema([("domain_id", pa.int64())] + FIELDS)

    def _shape(cols: dict, n: int) -> pa.Table:
        full = {"domain_id": cols["domain_id"]}
        for f, t in FIELDS:
            full[f] = cols.get(f, pa.nulls(n, t))
        return pa.table(full, schema=UNION_SCHEMA)

    def _from_domains(t: pa.Table) -> pa.Table:
        # alias / rank_d are optional input columns (site_info's domains
        # carry rank_d but no alias; old_algo's the reverse)
        alias_null = (
            pc.cast(pc.is_null(t[alias_col]), pa.int64())
            if alias_col in t.column_names
            else pa.array(np.ones(t.num_rows, np.int64))
        )
        extra = {}
        if rank_col in t.column_names:
            extra["rank_d"] = t[rank_col].cast(pa.float64())
        if "indexed" in t.column_names:
            extra["indexed"] = t["indexed"].cast(pa.int64())
        if alias_col in t.column_names:
            extra["alias_target"] = t[alias_col].cast(pa.int64())
        return _shape(
            {
                "domain_id": t[id_col].cast(pa.int64()),
                "domain_name": t[name_col].cast(pa.string()),
                "state": t[state_col].cast(pa.int64()),
                "alias_null": alias_null,
                **extra,
            },
            t.num_rows,
        )

    def _from_meta(t: pa.Table) -> pa.Table:
        cols = {"domain_id": t["domain_id"].cast(pa.int64())}
        for c in ("known_urls", "visited_urls", "good_urls", "rank"):
            if c in t.column_names:
                cols[c] = t[c].cast(pa.int64())
        return _shape(cols, t.num_rows)

    def _from_degrees(t: pa.Table) -> pa.Table:
        return _shape(
            {
                "domain_id": t["domain_id"].cast(pa.int64()),
                "n_out": t["sum(n_out)"].cast(pa.int64()),
                "n_in": t["sum(n_in)"].cast(pa.int64()),
            },
            t.num_rows,
        )

    def _pass(t: pa.Table) -> pa.Table:
        return _shape(
            {c: t[c] for c in t.column_names if c in FIELD_NAMES or c == "domain_id"},
            t.num_rows,
        )

    parts = [
        domains.map_batches(_from_domains, batch_format="pyarrow"),
        meta.map_batches(_from_meta, batch_format="pyarrow"),
        degrees.map_batches(_from_degrees, batch_format="pyarrow"),
        linking.map_batches(_pass, batch_format="pyarrow"),
    ]
    if in_queue is not None:
        parts.append(in_queue.map_batches(_pass, batch_format="pyarrow"))
    if blacklisted is not None:
        parts.append(blacklisted.map_batches(_pass, batch_format="pyarrow"))
    union = parts[0]
    for p in parts[1:]:
        union = union.union(p)

    def _bucket_id(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("_pk", pa.array([], pa.int64()))
        bk = _bucket_of_int(
            batch["domain_id"].to_numpy(zero_copy_only=False), 256
        )
        return batch.append_column("_pk", pa.array(bk))

    def _merge(part: pa.Table) -> pa.Table:
        cols = {"domain_id": pa.array([], pa.int64())}
        for f, t in FIELDS:
            cols[f] = pa.array([], t)
        if part.num_rows == 0:
            return pa.table(cols)
        ids = part["domain_id"].to_numpy(zero_copy_only=False)
        uids = np.unique(ids)
        pos = np.searchsorted(uids, ids)
        out: dict = {"domain_id": pa.array(uids)}
        for f, t in FIELDS:
            col = part[f]
            valid = np.flatnonzero(pc.is_valid(col).to_numpy(zero_copy_only=False))
            if pa.types.is_string(t):
                vals = np.full(len(uids), None, dtype=object)
                cv = col.to_pylist()
                for j in valid:
                    vals[pos[j]] = cv[j]
                out[f] = pa.array(vals.tolist(), t)
            else:
                npt = np.float64 if pa.types.is_floating(t) else np.int64
                vals = np.zeros(len(uids), npt)
                seen = np.zeros(len(uids), bool)
                cv = col.to_numpy(zero_copy_only=False)
                vals[pos[valid]] = cv[valid]
                seen[pos[valid]] = True
                out[f] = pa.array(
                    [v if s else None for v, s in zip(vals.tolist(), seen.tolist())],
                    t,
                )
        return pa.table(out)

    consolidated = (
        union.map_batches(_bucket_id, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(_merge, batch_format="pyarrow")
    )
    # a domain row exists only when the domains table had it (inner-join
    # base semantics): rows without a name came from meta/degree strays
    consolidated = consolidated.map_batches(
        lambda t: t.filter(pc.is_valid(t["domain_name"])),
        batch_format="pyarrow",
    )
    _write_bucketed(consolidated, out / "domain_meta", "domain_id", n_buckets)

    name_index = consolidated.map_batches(
        lambda t: pa.table(
            {
                "domain_name": t["domain_name"].cast(pa.string()),
                "domain_id": t["domain_id"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    _write_bucketed(name_index, out / "name_index", "domain_name", n_buckets, by_str=True)

    (out / "_MANIFEST.json").write_text(
        json.dumps({"n_buckets": n_buckets, "version": 1})
    )
    return str(out)


class BrowseArtifact:
    """O(probe) reader over the stored artifact: every method reads only
    the probe's hash bucket directories (parquet partition pruning), so a
    probe costs a few row-group reads regardless of corpus size — the
    reference's indexed-SQL serving shape."""

    def __init__(self, out_dir: str):
        self.root = Path(out_dir)
        man = json.loads((self.root / "_MANIFEST.json").read_text())
        self.n_buckets = int(man["n_buckets"])
        self._ds_cache: dict = {}

    def _table(self, name: str, bucket: int, flt=None) -> pa.Table:
        d = self._ds_cache.get(name)
        if d is None:
            d = pads.dataset(
                self.root / name, format="parquet", partitioning="hive"
            )
            self._ds_cache[name] = d
        expr = pads.field("bucket") == bucket
        if flt is not None:
            expr = expr & flt
        return d.to_table(filter=expr)

    def _ibucket(self, i: int) -> int:
        return int(_bucket_of_int(np.array([i], np.int64), self.n_buckets)[0])

    def _meta_rows(self, ids: np.ndarray) -> pa.Table:
        ids = np.unique(np.asarray(ids, np.int64))
        if not len(ids):
            return pa.table({"domain_id": pa.array([], pa.int64())})
        buckets = _bucket_of_int(ids, self.n_buckets)
        tabs = []
        for b in np.unique(buckets):
            want = ids[buckets == b]
            tabs.append(
                self._table(
                    "domain_meta", int(b), pads.field("domain_id").isin(want.tolist())
                )
            )
        return pa.concat_tables(tabs)

    # -- DbBrowseDomainsSimilarOldAlgo.getDomainNeighborsAdjacent ------
    def old_algo_neighbors(
        self,
        probe_id: int,
        *,
        count: int = 25,
        blacklist=(),
        max_known: int = 1000,
        max_inlinks: int = 100,
    ) -> pa.Table:
        """DbBrowseDomainsSimilarOldAlgo.getDomainNeighborsAdjacent
        (DbBrowseDomainsSimilarOldAlgo.java:29-134): the three-stage
        fallback cascade BrowseCommand uses to supplement thin cosine
        results —

          1. stored neighbors of the probe (ADJ_IDX order, LIMIT
             ``count``);
          2. if the result set holds fewer than ``count // 2`` domains:
             domains the probe LINKS TO, by rank asc, LIMIT the shortfall;
          3. if still short: domains LINKING TO the probe, same shape.

        Every stage requires state < 2, no alias, a metadata row with
        KNOWN_URLS < ``max_known``, and at least one but fewer than
        ``max_inlinks`` inbound links.  The blacklist is applied AFTER
        each stage's LIMIT (the reference skips rows client-side), and
        stages dedup into one result set (its HashSet).  MySQL's
        arbitrary rank/ADJ_IDX tie order is made deterministic with an
        id tie-break.  Neighbors/edges come from the probe's buckets,
        eligibility from consolidated domain_meta rows (n_in is
        precomputed at build time)."""
        probe = int(probe_id)
        bl = set(int(i) for i in blacklist)
        half = int(count) // 2
        pb = self._ibucket(probe)

        nb = self._table(
            "neighbors", pb, pads.field("domain_id") == probe
        )
        q1_ids = nb["neighbor_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        q1_idx = nb["adj_idx"].cast(pa.int64()).to_numpy(zero_copy_only=False)

        oe = self._table("edges_src", pb, pads.field("src") == probe)
        q2_ids = np.unique(oe["dst"].cast(pa.int64()).to_numpy(zero_copy_only=False))
        ie = self._table("edges_dst", pb, pads.field("dst") == probe)
        q3_ids = np.unique(ie["src"].cast(pa.int64()).to_numpy(zero_copy_only=False))

        cand = np.unique(np.concatenate([q1_ids, q2_ids, q3_ids])).astype(np.int64)
        empty = pa.table(
            {
                "domain_id": pa.array([], pa.int64()),
                "domain_name": pa.array([], pa.string()),
            }
        )
        if not len(cand):
            return empty

        m = self._meta_rows(cand)
        info: dict[int, tuple] = {}
        for i in range(m.num_rows):
            r = {c: m[c][i].as_py() for c in m.column_names}
            info[int(r["domain_id"])] = r

        def _eligible(i: int) -> bool:
            r = info.get(i)
            if r is None or r.get("known_urls") is None:
                return False  # inner joins against EC_DOMAIN / DOMAIN_METADATA
            il = r.get("n_in") or 0
            return (
                r["state"] < 2
                and bool(r["alias_null"])
                and r["known_urls"] < max_known
                and 1 <= il < max_inlinks
            )

        result: dict[int, str] = {}
        order = np.lexsort((q1_ids, q1_idx))
        stage1 = [int(q1_ids[j]) for j in order if _eligible(int(q1_ids[j]))][
            : int(count)
        ]
        for i in stage1:
            if i not in bl:
                result[i] = info[i]["domain_name"]

        def _rank_stage(ids: np.ndarray, shortfall: int) -> None:
            elig = [int(i) for i in ids if _eligible(int(i))]
            elig.sort(key=lambda i: (info[i].get("rank") or 0, i))
            for i in elig[:shortfall]:
                if i not in bl:
                    result[i] = info[i]["domain_name"]

        if len(result) < half:
            _rank_stage(q2_ids, half - len(result))
        if len(result) < half:
            _rank_stage(q3_ids, half - len(result))

        ids = list(result)
        return pa.table(
            {
                "domain_id": pa.array(ids, pa.int64()),
                "domain_name": pa.array([result[i] for i in ids], pa.string()),
            }
        )

    # -- DomainInformationService.domainInfo ---------------------------
    def site_info(self, site: str) -> pa.Table:
        """DomainInformationService.domainInfo (DomainInformationService.
        java:44-90): the ``site:`` info card — page counts, inbound and
        outbound link counts, the rank display transform
        ``Math.round(10000 (1 - rank)) / 100`` (IFNULL(RANK, 1)),
        blacklist and crawl-queue membership, ``suggestForCrawling =
        pagesVisited == 0 && !inQueue``, and the first 25 linking domains
        by source id as one comma-joined column.  A domain without a
        metadata row reads 0 counts; an unknown domain gives zero rows.
        Served from ONE consolidated domain_meta row — the degrees, flags
        and linking_domains string were precomputed at build time."""
        nb = int(
            _bucket_of_str(pa.array([site], pa.string()), self.n_buckets)[0]
        )
        ni = self._table(
            "name_index", nb, pads.field("domain_name") == site
        )
        empty_cols = {
            "domain": pa.array([], pa.string()),
            "blacklisted": pa.array([], pa.bool_()),
            "pages_known": pa.array([], pa.int64()),
            "pages_fetched": pa.array([], pa.int64()),
            "pages_indexed": pa.array([], pa.int64()),
            "incoming_links": pa.array([], pa.int64()),
            "outgoing_links": pa.array([], pa.int64()),
            "ranking": pa.array([], pa.float64()),
            "state": pa.array([], pa.int64()),
            "in_crawl_queue": pa.array([], pa.bool_()),
            "suggest_for_crawling": pa.array([], pa.bool_()),
            "linking_domains": pa.array([], pa.string()),
        }
        if ni.num_rows == 0:
            return pa.table(empty_cols)
        did = int(ni["domain_id"][0].as_py())
        m = self._meta_rows(np.array([did]))
        r = {c: m[c][0].as_py() for c in m.column_names}
        rank = r.get("rank_d")
        rank = 1.0 if rank is None else float(rank)  # IFNULL(RANK, 1)
        ranking = float(np.floor(10000.0 * (1.0 - rank) + 0.5) / 100.0)
        fetched = int(r.get("visited_urls") or 0)
        in_queue = bool(r.get("in_q") or 0)
        return pa.table(
            {
                "domain": pa.array([r["domain_name"]], pa.string()),
                "blacklisted": pa.array([bool(r.get("bl") or 0)], pa.bool_()),
                "pages_known": pa.array([int(r.get("known_urls") or 0)], pa.int64()),
                "pages_fetched": pa.array([fetched], pa.int64()),
                "pages_indexed": pa.array([int(r.get("good_urls") or 0)], pa.int64()),
                "incoming_links": pa.array([int(r.get("n_in") or 0)], pa.int64()),
                "outgoing_links": pa.array([int(r.get("n_out") or 0)], pa.int64()),
                "ranking": pa.array([ranking], pa.float64()),
                "state": pa.array([int(r["state"])], pa.int64()),
                "in_crawl_queue": pa.array([in_queue], pa.bool_()),
                "suggest_for_crawling": pa.array(
                    [fetched == 0 and not in_queue], pa.bool_()
                ),
                "linking_domains": pa.array(
                    [r.get("linking_domains") or ""], pa.string()
                ),
            }
        )


def rank_neighbors(part: pa.Table) -> pa.Table:
    """One group of domain_adjacencies rows (every row of a domain in the
    same group) -> the neighbors table: per domain, neighbors ordered by
    relatedness desc then neighbor_id asc, numbered from 1 as ``adj_idx``
    (the EC_DOMAIN_NEIGHBORS_2 ADJ_IDX).  ``relatedness`` rides along so
    the artifact also serves similar_domains and explorer_related."""
    if part.num_rows == 0:
        return _NEIGHBORS_SCHEMA.empty_table()
    d = part["domain_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    nn = part["neighbor_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    r = part["relatedness"].to_numpy(zero_copy_only=False)
    order = np.lexsort((nn, -r, d))
    d_s = d[order]
    starts = np.flatnonzero(np.r_[True, d_s[1:] != d_s[:-1]])
    seg = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(d_s)]))
    idx = np.arange(len(d_s)) - starts[seg] + 1
    return pa.table(
        {
            "domain_id": pa.array(d_s),
            "neighbor_id": pa.array(nn[order]),
            "adj_idx": pa.array(idx),
            "relatedness": pa.array(r[order]),
        }
    )


def build_browse_from_journal(
    journal_dir: str, out_dir: str, *, n_buckets: int = 64
) -> str:
    """job.py --browse: derive the browse artifact from the converter
    journal (the reference's loader fills EC_DOMAIN / EC_DOMAIN_LINK /
    DOMAIN_METADATA from the same processed stream, and the website-
    adjacencies batch job then fills EC_DOMAIN_NEIGHBORS_2).

      domains    distinct (id31(fqdn), fqdn) from journal urls
      links      domain_edges(journal) — distinct inter-domain edges
      meta       per-domain doc counts (the journal holds only state=OK
                 docs, so known = visited = good = docs) + the PageRank
                 rank byte (1..255, asc = better — the old-algo rank
                 ordering)
      neighbors  domain_adjacencies over the link graph, relatedness-
                 ranked into ADJ_IDX

    The journal carries no screenshot data, so the artifact has no
    screenshots table and its ``similar_domains`` raises
    ``NoScreenshotData``.
    """
    import ray.data

    from marginalia_ray.functions.hashing import domain_id31
    from marginalia_ray.functions.urls import parse_url
    from marginalia_ray.ops.graph import domain_adjacencies
    from marginalia_ray.pipelines.domain_rank import domain_edges, pagerank

    journal = ray.data.read_parquet(journal_dir, columns=["url", "links"])
    edges = domain_edges(journal).materialize()

    # domains + per-domain doc counts in one pass over urls
    def _dom_partial(batch: pa.Table) -> pa.Table:
        fqdns = [parse_url(u).fqdn for u in batch["url"].to_pylist()]
        ids = np.array([domain_id31(f) for f in fqdns], np.int64)
        order = np.argsort(ids, kind="stable")
        ids_s = ids[order]
        starts = np.flatnonzero(np.r_[True, ids_s[1:] != ids_s[:-1]])
        counts = np.diff(np.r_[starts, len(ids_s)])
        names = [fqdns[order[s]] for s in starts]
        return pa.table(
            {
                "domain_id": pa.array(ids_s[starts]),
                "domain_name": pa.array(names, pa.string()),
                "n_docs": pa.array(counts.astype(np.int64)),
            }
        )

    def _bucket(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("_pk", pa.array([], pa.int64()))
        bk = _bucket_of_int(
            batch["domain_id"].to_numpy(zero_copy_only=False), 256
        )
        return batch.append_column("_pk", pa.array(bk))

    def _dom_merge(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    "domain_id": pa.array([], pa.int64()),
                    "domain_name": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                }
            )
        ids = part["domain_id"].to_numpy(zero_copy_only=False)
        n = part["n_docs"].to_numpy(zero_copy_only=False)
        names = np.asarray(part["domain_name"].to_pylist(), dtype=object)
        order = np.argsort(ids, kind="stable")
        ids_s, n_s = ids[order], n[order]
        starts = np.flatnonzero(np.r_[True, ids_s[1:] != ids_s[:-1]])
        seg = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(ids_s)]))
        totals = np.bincount(seg, weights=n_s).astype(np.int64)
        return pa.table(
            {
                "domain_id": pa.array(ids_s[starts]),
                "domain_name": pa.array(
                    [names[order[s]] for s in starts], pa.string()
                ),
                "n_docs": pa.array(totals),
            }
        )

    per_domain = (
        journal.select_columns(["url"])
        .map_batches(_dom_partial, batch_format="pyarrow")
        .map_batches(_bucket, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(_dom_merge, batch_format="pyarrow")
        .materialize()
    )

    rank_bytes = pagerank(edges)  # {domain_id: 1..255}, driver-small

    def _domains(t: pa.Table) -> pa.Table:
        n = t.num_rows
        ids = t["domain_id"].to_numpy(zero_copy_only=False)
        rd = np.array(
            [rank_bytes.get(int(i), 255) / 255.0 for i in ids], np.float64
        )
        return pa.table(
            {
                "domain_id": t["domain_id"],
                "domain_name": t["domain_name"],
                "state": pa.array(np.zeros(n, np.int64)),
                "domain_alias": pa.nulls(n, pa.int64()),
                "rank_d": pa.array(rd),
            }
        )

    def _meta(t: pa.Table) -> pa.Table:
        ids = t["domain_id"].to_numpy(zero_copy_only=False)
        rb = np.array([rank_bytes.get(int(i), 255) for i in ids], np.int64)
        return pa.table(
            {
                "domain_id": t["domain_id"],
                "known_urls": t["n_docs"],
                "visited_urls": t["n_docs"],
                "good_urls": t["n_docs"],
                "rank": pa.array(rb),
            }
        )

    adj = domain_adjacencies(edges, source_col="src", dest_col="dst")

    neighbors = (
        adj.map_batches(_bucket, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(rank_neighbors, batch_format="pyarrow")
    )

    return build_browse_artifact(
        out_dir,
        neighbors=neighbors,
        links=edges,
        domains=per_domain.map_batches(_domains, batch_format="pyarrow"),
        meta=per_domain.map_batches(_meta, batch_format="pyarrow"),
        n_buckets=n_buckets,
    )


class NoScreenshotData(LookupError):
    """The artifact has no ``screenshots`` table: it was built without
    screenshot data (``build_browse_from_journal`` — the converter journal
    carries none — or ``build_browse_artifact(screenshots=None)``), so
    ``similar_domains``, which keeps only neighbors with a screenshot,
    cannot answer."""


def _similar_domains_method(self, probes, *, count: int = 25, blacklist=()):
    """DbBrowseDomainsSimilarCosine served from the artifact: per probe,
    read ONLY the probe's neighbors bucket (relatedness column required —
    pass the raw adjacency output as ``neighbors`` at build time),
    restrict to neighbors with a screenshot (screenshots buckets),
    blacklist-filter before the count cap, top-``count`` by
    (ROUND(100*cosine) desc, neighbor_id asc), names from domain_meta.
    The reference joins the screenshot table by DOMAIN_NAME; here it is
    keyed by domain id (same semantics), and relatedness ties break by
    neighbor_id asc.  Raises ``NoScreenshotData`` on an artifact built
    without screenshots."""
    if not (self.root / "screenshots").is_dir():
        raise NoScreenshotData(
            f"{self.root} has no screenshots table; similar_domains keeps "
            "only neighbors with a screenshot, so it needs an artifact "
            "built with screenshot data"
        )
    pr = np.unique(np.asarray(list(probes), np.int64))
    bl = np.asarray(list(blacklist), np.int64)
    empty = pa.table(
        {
            "domain_id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "neighbor_name": pa.array([], pa.string()),
            "relatedness": pa.array([], pa.int64()),
        }
    )
    tabs = []
    buckets = _bucket_of_int(pr, self.n_buckets)
    for b in np.unique(buckets):
        want = pr[buckets == b]
        tabs.append(
            self._table(
                "neighbors", int(b), pads.field("domain_id").isin(want.tolist())
            )
        )
    cand = pa.concat_tables(tabs) if tabs else empty
    if cand.num_rows == 0:
        return empty
    did = cand["domain_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    nid = cand["neighbor_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    pct = _pct_int(cand["relatedness"].to_numpy(zero_copy_only=False))
    if len(bl):
        keep = ~np.isin(nid, bl)
        did, nid, pct = did[keep], nid[keep], pct[keep]

    # screenshot membership for the bounded candidate set
    nids = np.unique(nid)
    shot = np.zeros(0, np.int64)
    if len(nids):
        sb = _bucket_of_int(nids, self.n_buckets)
        parts = []
        for b in np.unique(sb):
            want = nids[sb == b]
            t = self._table(
                "screenshots", int(b), pads.field("domain_id").isin(want.tolist())
            )
            parts.append(t["domain_id"].cast(pa.int64()).to_numpy(zero_copy_only=False))
        shot = np.unique(np.concatenate(parts)) if parts else shot
    keep = np.isin(nid, shot)
    did, nid, pct = did[keep], nid[keep], pct[keep]
    if not len(did):
        return empty

    order = np.lexsort((nid, -pct, did))
    did, nid, pct = did[order], nid[order], pct[order]
    starts = np.flatnonzero(np.r_[True, did[1:] != did[:-1]])
    pos = np.arange(len(did)) - np.repeat(starts, np.diff(np.r_[starts, len(did)]))
    topk = pos < int(count)
    did, nid, pct = did[topk], nid[topk], pct[topk]

    m = self._meta_rows(np.unique(nid))
    names = dict(
        zip(
            m["domain_id"].to_pylist(),
            m["domain_name"].to_pylist(),
        )
    )
    return pa.table(
        {
            "domain_id": pa.array(did.astype(np.int64)),
            "neighbor_id": pa.array(nid.astype(np.int64)),
            "neighbor_name": pa.array(
                [names[int(i)] for i in nid], pa.string()
            ),
            "relatedness": pa.array(pct.astype(np.int64)),
        }
    )


BrowseArtifact.similar_domains = _similar_domains_method


def _explorer_related_method(self, query: str, *, active_states=(0, 1, 2)):
    """ExplorerService.getRelatedDomains served from the artifact: name
    (junk-trimmed) -> id via name_index, alias followed via domain_meta's
    alias_target, forward candidates from the probe ids' neighbors
    buckets, reverse candidates from neighbors_rev, both has-more
    questions answered with filtered candidate-id reads, names/flags
    from domain_meta.  Names shorter than 48 chars that contain a '.'
    are kept, ordered by relatedness desc then name.  When both probe
    ids reach one neighbor, its relatedness is the max (MySQL's loose
    GROUP BY picks one arbitrarily)."""
    from marginalia_ray.ops.browse import trim_url_junk

    name = trim_url_junk(query)
    empty = pa.table(
        {
            "domain": pa.array([], pa.string()),
            "url": pa.array([], pa.string()),
            "relatedness": pa.array([], pa.int64()),
            "has_more": pa.array([], pa.bool_()),
            "active": pa.array([], pa.bool_()),
            "indexed": pa.array([], pa.bool_()),
        }
    )
    nb = int(_bucket_of_str(pa.array([name], pa.string()), self.n_buckets)[0])
    ni = self._table("name_index", nb, pads.field("domain_name") == name)
    if ni.num_rows == 0:
        return empty
    did = int(ni["domain_id"][0].as_py())
    row = self._meta_rows(np.array([did]))
    alias = row["alias_target"][0].as_py() if row.num_rows else None
    aid = did if alias is None else int(alias)
    probe_ids = np.unique(np.array([did, aid], np.int64))

    def _read_keyed(table: str, key: str, ids: np.ndarray) -> pa.Table:
        ids = np.unique(np.asarray(ids, np.int64))
        tabs = []
        buckets = _bucket_of_int(ids, self.n_buckets)
        for b in np.unique(buckets):
            want = ids[buckets == b]
            tabs.append(
                self._table(table, int(b), pads.field(key).isin(want.tolist()))
            )
        return pa.concat_tables(tabs) if tabs else empty

    fwd = _read_keyed("neighbors", "domain_id", probe_ids)
    rev = _read_keyed("neighbors_rev", "neighbor_id", probe_ids)

    def _group_max(ids, pcts):
        if len(ids) == 0:
            return ids.astype(np.int64), pcts.astype(np.int64)
        order = np.lexsort((-pcts, ids))
        ids_s, pcts_s = ids[order], pcts[order]
        first = np.r_[True, ids_s[1:] != ids_s[:-1]]
        return ids_s[first], pcts_s[first]

    f_id, f_pct = _group_max(
        fwd["neighbor_id"].cast(pa.int64()).to_numpy(zero_copy_only=False),
        _pct_int(fwd["relatedness"].to_numpy(zero_copy_only=False)),
    )
    r_id, r_pct = _group_max(
        rev["domain_id"].cast(pa.int64()).to_numpy(zero_copy_only=False),
        _pct_int(rev["relatedness"].to_numpy(zero_copy_only=False)),
    )
    all_ids = np.unique(np.concatenate([f_id, r_id])).astype(np.int64)
    if not len(all_ids):
        return empty

    # has-more: forward candidates that appear as a DOMAIN side anywhere,
    # reverse candidates that appear as a NEIGHBOR side anywhere
    hm_fwd = (
        set(
            _read_keyed("neighbors", "domain_id", f_id)["domain_id"]
            .cast(pa.int64())
            .to_pylist()
        )
        if len(f_id)
        else set()
    )
    hm_rev = (
        set(
            _read_keyed("neighbors_rev", "neighbor_id", r_id)["neighbor_id"]
            .cast(pa.int64())
            .to_pylist()
        )
        if len(r_id)
        else set()
    )

    m = self._meta_rows(all_ids)
    flags = {}
    for i in range(m.num_rows):
        flags[int(m["domain_id"][i].as_py())] = (
            m["domain_name"][i].as_py(),
            int(m["state"][i].as_py()),
            int(m["indexed"][i].as_py() or 0),
        )

    f_names = {flags[int(i)][0] for i in f_id if int(i) in flags}
    rkeep = np.array(
        [int(i) in flags and flags[int(i)][0] not in f_names for i in r_id],
        np.bool_,
    )
    r_id, r_pct = r_id[rkeep], r_pct[rkeep]

    active_set = frozenset(int(s) for s in active_states)
    rows = []
    for ids, pcts, hm in ((f_id, f_pct, hm_fwd), (r_id, r_pct, hm_rev)):
        for i, p in zip(ids.tolist(), pcts.tolist()):
            if int(i) not in flags:
                continue
            nm, st, ix = flags[int(i)]
            if len(nm) >= 48 or "." not in nm:
                continue
            rows.append(
                (nm, f"http://{nm}/", int(p), int(i) in hm, st in active_set, ix > 0)
            )
    rows.sort(key=lambda r: (-r[2], r[0]))
    if not rows:
        return empty
    cols = list(zip(*rows))
    return pa.table(
        {
            "domain": pa.array(cols[0], pa.string()),
            "url": pa.array(cols[1], pa.string()),
            "relatedness": pa.array(cols[2], pa.int64()),
            "has_more": pa.array(cols[3], pa.bool_()),
            "active": pa.array(cols[4], pa.bool_()),
            "indexed": pa.array(cols[5], pa.bool_()),
        }
    )


BrowseArtifact.explorer_related = _explorer_related_method
