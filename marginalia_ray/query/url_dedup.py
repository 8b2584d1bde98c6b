"""Search-result URL deduplication: the final filter pass the search
service runs over ranked results before rendering.

Ports (services-core/search-service/src/main/java/nu/marginalia/search/):
  * ``UrlDeduplicator`` (results/UrlDeduplicator.java:12-66) — three
    gates, short-circuit in order:
      1. superficial-hash dedup — ``Objects.hash(url.path, title)``;
      2. content near-dup dedup — the EasyLSH ``dataHash``: rejected
         when ANY previously kept hash is within hamming distance
         < 2 (LSH_SIMILARITY_THRESHOLD); kept hashes accumulate;
      3. per-domain-key cap — ``adjustOrPutValue(key, 1, 1) <
         resultsPerKey``.  The counter increments on every result that
         reaches gate 3, INCLUDING the one that gets rejected, and the
         strict ``<`` admits ``resultsPerKey - 1`` per key — both
         reference quirks, kept as written.
  * ``EdgeDomain.getDomainKey`` / ``getLongDomainKey``
    (common/model/.../EdgeDomain.java:103-128) — the domain's first
    label, the long form adding ``:subdomain`` unless it is empty or
    ``www``; SPECIAL-state domains use the short key (UrlDetails.
    isSpecialDomain), pooling e.g. all Wikipedia language subdomains
    under one cap.
  * ``Objects.hash`` / ``String.hashCode`` int32 semantics via
    functions/lsh.java_string_hash (UTF-16 code units, as in Java).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..functions.lsh import EasyLSH, _i32, java_string_hash
from ..functions.urls import parse_url

LSH_SIMILARITY_THRESHOLD = 2


def superficial_hash(path: str, title: Optional[str]) -> int:
    """Objects.hash(url.path, title): Arrays.hashCode int32 chain with
    h(null) = 0."""
    h = 31 * 1 + java_string_hash(path)
    h = 31 * h + (0 if title is None else java_string_hash(title))
    return _i32(h)


def domain_key(url: str) -> str:
    """EdgeDomain.getDomainKey: the domain's first label, lowercased."""
    p = parse_url(url)
    return p.domain_name.lower()


def long_domain_key(url: str) -> str:
    """EdgeDomain.getLongDomainKey: first label plus ``:subdomain``
    unless the subdomain is empty or www."""
    p = parse_url(url)
    ret = p.domain_name
    if p.subdomain not in ("", "www"):
        ret = f"{ret}:{p.subdomain}"
    return ret.lower()


@dataclass(frozen=True)
class ResultUrl:
    """The UrlDetails fields the deduplicator reads."""

    url: str
    title: Optional[str] = None
    data_hash: int = 0  # the document's EasyLSH
    special_domain: bool = False  # DomainIndexingState.SPECIAL

    @property
    def path(self) -> str:
        return parse_url(self.url).path


class UrlDeduplicator:
    """UrlDeduplicator.java:12-66."""

    def __init__(self, results_per_key: int):
        self.results_per_key = results_per_key
        self._seen_superficial: set[int] = set()
        self._seen_lsh: list[int] = []
        self._key_count: dict[str, int] = {}

    def filter(self, details: ResultUrl) -> bool:
        """True = keep (the reference's ``filter``); ``should_remove``
        is the negation."""
        return (
            self._dedup_superficial(details)
            and self._dedup_lsh(details)
            and self._limit_per_domain(details)
        )

    def should_remove(self, details: ResultUrl) -> bool:
        return not self.filter(details)

    def _dedup_superficial(self, details: ResultUrl) -> bool:
        h = superficial_hash(details.path, details.title)
        if h in self._seen_superficial:
            return False
        self._seen_superficial.add(h)
        return True

    def _dedup_lsh(self, details: ResultUrl) -> bool:
        this_hash = details.data_hash
        if all(
            EasyLSH.hamming_distance(this_hash, other) >= LSH_SIMILARITY_THRESHOLD
            for other in self._seen_lsh
        ):
            self._seen_lsh.append(this_hash)
            return True
        return False

    def _limit_per_domain(self, details: ResultUrl) -> bool:
        if details.special_domain:
            key = domain_key(details.url)
        else:
            key = long_domain_key(details.url)
        # the count advances even for the rejected result (trove
        # adjustOrPutValue semantics), and strict < admits
        # results_per_key - 1 rows per key — reference quirks, kept
        count = self._key_count.get(key, 0) + 1
        self._key_count[key] = count
        return count < self.results_per_key
