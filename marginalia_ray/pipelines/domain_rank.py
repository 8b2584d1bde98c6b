"""Domain ranking (G6): PageRank over the domain link graph, quantized to
the reference's 1..255 rank bytes.

Reference: RankingAlgorithm / StandardPageRank
(/root/reference/code/features-index/domain-ranking/src/main/java/nu/marginalia/ranking/RankingAlgorithm.java:20-100,
 StandardPageRank.java) and the position->byte scaling of
DomainRankings.java:27-38: rank_byte = clamp(position * 255/50_000, 1, 255),
missing domains default to 255.

Plan shape: the edge list is extracted and deduplicated DISTRIBUTED
(map_batches + groupby); the iteration itself runs on the driver over the
compacted domain-level graph (numpy CSR).  Domains are ~4-5 orders of
magnitude fewer than documents (the reference's production corpus:
11.8M docs, <1M domains), so the compacted graph fits comfortably even at
10^12-doc scale; if it ever did not, each iteration is expressible as
groupby(dst).sum over a (src, dst, rank/deg) dataset — same math, wider
exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from marginalia_ray.functions.urls import parse_url
from marginalia_ray.functions.hashing import domain_id31

MAX_MEANINGFUL_RANK = 50_000
MAX_RANK = 255
MIN_RANK = 1


def domain_edges(journal_ds):
    """journal (url, links) -> distinct (src_domain_id, dst_domain_id) edges.
    Self-edges dropped.  One dedup shuffle."""

    def _edges(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        links = batch["links"].to_pylist()
        src_out, dst_out = [], []
        for u, ls in zip(urls, links):
            if not ls:
                continue
            s = domain_id31(parse_url(u).fqdn)
            for l in ls:
                d = domain_id31(parse_url(l).fqdn)
                if d != s:
                    src_out.append(s)
                    dst_out.append(d)
        t = pa.table(
            {"src": pa.array(src_out, pa.int64()), "dst": pa.array(dst_out, pa.int64())}
        )
        # per-batch dedup before the shuffle (combiner)
        return t.group_by(["src", "dst"]).aggregate([])

    return (
        journal_ds.select_columns(["url", "links"])
        .map_batches(_edges, batch_format="pyarrow")
        .groupby(["src", "dst"])
        .count()
        .drop_columns(["count()"])
    )


def pagerank(
    edges_ds, d: float = 0.85, iterations: int = 30
) -> dict[int, int]:
    """Distributed edge collection -> driver-side CSR iteration ->
    {domain_id: rank_byte 1..255}."""
    blocks = [ray.get(r) for r in edges_ds.to_arrow_refs()]
    blocks = [b for b in blocks if b.num_columns]
    if not blocks:
        return {}
    t = pa.concat_tables(blocks)
    src = t["src"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)

    nodes = np.unique(np.concatenate([src, dst]))
    idx = {int(v): i for i, v in enumerate(nodes)}
    n = len(nodes)
    s = np.fromiter((idx[int(v)] for v in src), dtype=np.int64, count=len(src))
    g = np.fromiter((idx[int(v)] for v in dst), dtype=np.int64, count=len(dst))

    out_deg = np.bincount(s, minlength=n).astype(np.float64)
    rank = np.full(n, 1.0 / n)
    dangling = out_deg == 0
    for _ in range(iterations):
        contrib = np.where(dangling, 0.0, rank / np.maximum(out_deg, 1.0))
        acc = np.bincount(g, weights=contrib[s], minlength=n)
        dangling_mass = rank[dangling].sum() / n
        rank = (1.0 - d) / n + d * (acc + dangling_mass)

    # position in descending-rank order -> reference byte scaling
    order = np.argsort(-rank, kind="stable")
    positions = np.empty(n, dtype=np.int64)
    positions[order] = np.arange(n)
    scale = MAX_RANK / MAX_MEANINGFUL_RANK
    bytes_ = np.clip((positions * scale).astype(np.int64), MIN_RANK, MAX_RANK)
    return {int(nodes[i]): int(bytes_[i]) for i in range(n)}


def compute_domain_rankings(journal_ds, iterations: int = 30) -> dict[int, int]:
    return pagerank(domain_edges(journal_ds), iterations=iterations)


def personalized_pagerank_top_n(
    edges_ds,
    seed_ids: list[int],
    max_n: int,
    reverse: bool = False,
    d: float = 0.85,
    iterations: int = 30,
) -> list[int]:
    """StandardPageRank with peripheral (origin) nodes: the teleport mass
    lands on the seed domains instead of uniformly, biasing the ranking
    toward the seeds' neighborhood (RankingAlgorithm.java with
    originDomains).  reverse=True flips the edges (ReversePageRank, used
    by the small-web set).  Returns the top max_n domain ids."""
    blocks = [ray.get(r) for r in edges_ds.to_arrow_refs()]
    blocks = [b for b in blocks if b.num_columns]
    if not blocks:
        return []
    t = pa.concat_tables(blocks)
    src = t["src"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    if reverse:
        src, dst = dst, src

    nodes = np.unique(np.concatenate([src, dst]))
    idx = {int(v): i for i, v in enumerate(nodes)}
    n = len(nodes)
    s = np.fromiter((idx[int(v)] for v in src), dtype=np.int64, count=len(src))
    g = np.fromiter((idx[int(v)] for v in dst), dtype=np.int64, count=len(dst))

    teleport = np.zeros(n, dtype=np.float64)
    seed_pos = [idx[sid] for sid in seed_ids if sid in idx]
    if seed_pos:
        teleport[seed_pos] = 1.0 / len(seed_pos)
    else:
        teleport[:] = 1.0 / n  # no seeds present: plain pagerank

    out_deg = np.bincount(s, minlength=n).astype(np.float64)
    dangling = out_deg == 0
    rank = teleport.copy()
    for _ in range(iterations):
        contrib = np.where(dangling, 0.0, rank / np.maximum(out_deg, 1.0))
        acc = np.bincount(g, weights=contrib[s], minlength=n)
        dangling_mass = rank[dangling].sum()
        rank = (1.0 - d) * teleport + d * (acc + dangling_mass * teleport)

    order = np.argsort(-rank, kind="stable")[:max_n]
    return [int(nodes[i]) for i in order]
