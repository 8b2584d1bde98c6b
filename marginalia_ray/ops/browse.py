"""Random-website and url-id browse queries over Ray datasets.

Ports two of the queries behind the reference's satellite browse
services (the dating-service and explorer-service front-ends), plus the
explorer's query-name cleanup:

  * ``DbBrowseDomainsRandom.getRandomDomains``
    (features-search/random-websites/src/main/java/nu/marginalia/browse/
    DbBrowseDomainsRandom.java:26-58): pick ``count`` random members of a
    curated random-domain set, ``STATE < 2``, no alias, blacklist-
    filtered.  ``ORDER BY RAND()`` is replaced by a DETERMINISTIC random
    order — fmix64(domain_id ^ seed) — so results are a pure function of
    (data, seed) and SQL-oracle-checkable; vary ``seed`` per request to
    get the reference's behavior.
  * ``DbBrowseDomainsSimilarOldAlgo.getBrowseResultFromUrlIds``
    (DbBrowseDomainsSimilarOldAlgo.java:180-212): url-id -> domain
    lookup gated on ``KNOWN_URLS < max_known AND QUALITY > min_quality``.
  * ``ExplorerService.trimUrlJunk`` (services-satellite/explorer-service/
    src/main/java/nu/marginalia/explorer/ExplorerService.java:225-239).

The neighbor-based queries (similar domains, explorer related domains,
the old-algo cascade) and the site-info card are answered from a stored
table in the reference (EC_DOMAIN_NEIGHBORS_2, filled by the website-
adjacencies batch job, and DOMAIN_METADATA); here they are served the
same way, from the bucketed artifact that
``pipelines/browse_artifact.BrowseArtifact`` reads.  The session/web
plumbing around these queries (the dating-service browsing queue) is
ported in ``marginalia_ray/query/dating.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .dedup import _fmix64_vec
from .relational import hash_equi_join

_MAX_SMALL_SET = 1_000_000  # broadcast-closure bound for blacklists/probes


def trim_url_junk(query: str) -> str:
    """ExplorerService.trimUrlJunk (ExplorerService.java:225-239): strip a
    leading http(s) scheme and anything from the first path slash on."""
    if query.startswith("http://"):
        query = query[7:]
    if query.startswith("https://"):
        query = query[8:]
    last_slash = query.find("/")
    if last_slash > 0:
        query = query[:last_slash]
    return query


def _as_small_ids(ids, what: str) -> np.ndarray:
    arr = np.asarray(sorted(set(int(i) for i in ids)), dtype=np.int64)
    if len(arr) > _MAX_SMALL_SET:
        raise ValueError(
            f"browse: {what} has {len(arr)} ids — above the broadcast bound "
            f"{_MAX_SMALL_SET}; restructure as a dataset-side semi-join"
        )
    return arr


def random_domains(
    domains,
    random_sets,
    *,
    count: int = 25,
    domain_set: int = 0,
    blacklist=(),
    seed: int = 0,
    id_col: str = "domain_id",
    name_col: str = "domain_name",
    state_col: str = "state",
    alias_col: str = "domain_alias",
    set_col: str = "domain_set",
):
    """DbBrowseDomainsRandom.getRandomDomains (DbBrowseDomainsRandom.java:
    26-58): members of random-set ``domain_set`` with STATE < 2 and no
    alias, blacklist-filtered, in deterministic-random order, first
    ``count``.

    Shape: domains are filtered and slimmed BEFORE the set-membership
    join (one keyed shuffle via hash_equi_join); the random order is a
    per-batch partial top-``count`` by fmix64(id ^ seed), so the final
    sort+limit sees at most ``count`` rows per block.  Blacklist is a
    broadcast-small closure set (capped loud).

    Output: (domain_id, domain_name) — the ``count`` winners.
    """
    bl = _as_small_ids(blacklist, "blacklist")
    seed_u = np.uint64(np.int64(seed))
    kk = int(count)

    def _filter_domains(batch: pa.Table) -> pa.Table:
        mask = pc.and_kleene(
            pc.less(batch[state_col], pa.scalar(2)), pc.is_null(batch[alias_col])
        )
        batch = batch.filter(pc.fill_null(mask, False))
        out = pa.table(
            {
                id_col: batch[id_col].cast(pa.int64()),
                name_col: batch[name_col],
            }
        )
        if len(bl):
            ids = out[id_col].to_numpy(zero_copy_only=False)
            out = out.filter(pa.array(~np.isin(ids, bl)))
        return out

    def _filter_set(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.fill_null(pc.equal(batch[set_col], pa.scalar(domain_set)), False)
        )
        return pa.table({"_rd_id": batch[id_col].cast(pa.int64())})

    members = hash_equi_join(
        random_sets.map_batches(_filter_set, batch_format="pyarrow"),
        domains.map_batches(_filter_domains, batch_format="pyarrow"),
        on="_rd_id",
        right_on=id_col,
        left_cols=["_rd_id"],
        right_cols=[name_col],
    )

    def _partial(batch: pa.Table) -> pa.Table:
        ids = batch["_rd_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # top-bit flip makes the int64 sort order equal the uint64 hash
        # order, so the SQL oracle's 0..2^64 HUGEINT ordering matches
        rk = (
            _fmix64_vec(ids.astype(np.uint64) ^ seed_u)
            ^ np.uint64(0x8000000000000000)
        ).view(np.int64)
        order = np.lexsort((ids, rk))[:kk]
        take = pa.array(order)
        return pa.table(
            {
                "_rk": pa.array(rk[order]),
                id_col: pa.array(ids[order]),
                name_col: batch[name_col].take(take),
            }
        )

    # partials hold <= count rows per block; the sort+limit is tiny
    return (
        members.map_batches(_partial, batch_format="pyarrow")
        .sort(["_rk", id_col])
        .limit(kk)
        .drop_columns(["_rk"])
    )


def browse_url_ids(
    urls,
    domain_meta,
    url_ids,
    *,
    max_known: int = 5000,
    min_quality: float = -10.0,
    url_id_col: str = "url_id",
    domain_id_col: str = "domain_id",
    name_col: str = "domain_name",
    quality_col: str = "quality",
    known_col: str = "known_urls",
):
    """DbBrowseDomainsSimilarOldAlgo.getBrowseResultFromUrlIds
    (DbBrowseDomainsSimilarOldAlgo.java:180-212): look up the domains of
    the given url ids, keeping only domains with KNOWN_URLS < max_known
    and urls with QUALITY > min_quality.

    One broadcast-small url-id filter over the url view, then one keyed
    join against the domain-metadata table.  Output: (url_id, domain_id,
    domain_name).
    """
    ids = _as_small_ids(url_ids, "url_ids")

    def _pick(batch: pa.Table) -> pa.Table:
        u = batch[url_id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        q = batch[quality_col].to_numpy(zero_copy_only=False)
        mask = np.isin(u, ids) & (q > min_quality)
        m = pa.array(mask)
        return pa.table(
            {
                url_id_col: pa.array(u[mask]),
                domain_id_col: batch[domain_id_col].cast(pa.int64()).filter(m),
                name_col: batch[name_col].filter(m),
            }
        )

    def _meta(batch: pa.Table) -> pa.Table:
        k = batch[known_col].to_numpy(zero_copy_only=False)
        m = pa.array(k < max_known)
        return pa.table(
            {"_mid": batch[domain_id_col].cast(pa.int64()).filter(m),
             "_ok": pa.array(np.ones(int((k < max_known).sum()), np.int8))}
        )

    return hash_equi_join(
        urls.map_batches(_pick, batch_format="pyarrow"),
        domain_meta.map_batches(_meta, batch_format="pyarrow"),
        on=domain_id_col,
        right_on="_mid",
        right_cols=["_ok"],
    ).drop_columns(["_ok"])
