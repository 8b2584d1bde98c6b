"""Search sets (S8/Q10): profile-scoped domain bitsets.

Port of the index-service search-set machinery
(/root/reference/code/services-core/index-service/src/main/java/nu/marginalia/index/svc/searchset/RankingSearchSet.java:14-80,
 SmallSearchSet.java:10-25, SearchSetAny.java,
 IndexSearchSetsService.java:39-100, SearchSetIdentifier.java):

  * SearchSetAny — no restriction (identifier NONE);
  * SmallSearchSet — explicit domain-id list (the `domains` query param);
  * RankingSearchSet — top-N domains of a PERSONALIZED PageRank seeded
    from a profile's origin domains (StandardPageRank with peripheral
    nodes; RETRO / ACADEMIA), or of a reverse-link PageRank (SMALLWEB).
    Serialized as a stream of big-endian int32s, the reference's
    DataOutputStream wire format, so set files are drop-in compatible.

An empty RankingSearchSet accepts everything (RankingSearchSet
.contains:58-63 — the identifier exists before its ranking has run)."""

from __future__ import annotations

from pathlib import Path

import numpy as np


class SearchSetAny:
    identifier = "NONE"

    def contains_array(self, domain_ids: np.ndarray) -> np.ndarray:
        return np.ones(len(domain_ids), dtype=bool)

    def contains(self, domain_id: int) -> bool:
        return True


class SmallSearchSet:
    """Explicit domain list (the `search:domain-id` style restriction)."""

    identifier = "SMALL"

    def __init__(self, domains):
        self._sorted = np.unique(np.asarray(list(domains), dtype=np.int64))

    def contains_array(self, domain_ids: np.ndarray) -> np.ndarray:
        return np.isin(domain_ids.astype(np.int64), self._sorted)

    def contains(self, domain_id: int) -> bool:
        i = np.searchsorted(self._sorted, domain_id)
        return bool(i < len(self._sorted) and self._sorted[i] == domain_id)


class RankingSearchSet:
    def __init__(self, identifier: str, domain_ids=()):
        self.identifier = identifier
        self._sorted = np.unique(np.asarray(list(domain_ids), dtype=np.int64))

    def contains_array(self, domain_ids: np.ndarray) -> np.ndarray:
        if len(self._sorted) == 0:  # empty set accepts everything
            return np.ones(len(domain_ids), dtype=bool)
        return np.isin(domain_ids.astype(np.int64), self._sorted)

    def contains(self, domain_id: int) -> bool:
        if len(self._sorted) == 0:
            return True
        i = np.searchsorted(self._sorted, domain_id)
        return bool(i < len(self._sorted) and self._sorted[i] == domain_id)

    def write(self, path: str | Path) -> None:
        """DataOutputStream int stream (big-endian int32 per domain)."""
        arr = self._sorted.astype(">i4")
        tmp = str(path) + ".tmp"
        with open(tmp, "wb") as f:
            f.write(arr.tobytes())
        import os

        os.replace(tmp, path)

    @classmethod
    def load(cls, identifier: str, path: str | Path) -> "RankingSearchSet":
        p = Path(path)
        if not p.exists():
            return cls(identifier)
        data = np.frombuffer(p.read_bytes(), dtype=">i4").astype(np.int64)
        return cls(identifier, data)


def build_ranking_search_set(
    journal_ds,
    identifier: str,
    seed_domains: list[str],
    max_n: int = 10_000,
    reverse: bool = False,
    iterations: int = 30,
) -> RankingSearchSet:
    """IndexSearchSetsService.update*DomainsSet: personalized PageRank over
    the domain link graph, seeded at the profile's origin domains
    (StandardPageRank semantics; reverse=True flips the edges like
    ReversePageRank for the small-web profile), top max_n ids -> set."""
    from marginalia_ray.functions.hashing import domain_id31
    from marginalia_ray.pipelines.domain_rank import (
        domain_edges,
        personalized_pagerank_top_n,
    )

    seeds = [domain_id31(d.lower()) for d in seed_domains]
    edges = domain_edges(journal_ds)
    top = personalized_pagerank_top_n(
        edges, seeds, max_n, reverse=reverse, iterations=iterations
    )
    return RankingSearchSet(identifier, top)
