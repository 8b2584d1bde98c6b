"""Result ranking: BM25, term-coherence, and overall result valuation.

Vectorized ports (numpy over candidate arrays) of the reference formulas:
  - Bm25Factor.calculateBm25 / calculateBm25Prio:
      /root/reference/code/features-search/result-ranking/src/main/java/nu/marginalia/ranking/factors/Bm25Factor.java:9-79
  - TermCoherenceFactor:
      .../factors/TermCoherenceFactor.java:7-33
  - PriorityTermBonus: .../factors/PriorityTermBonus.java:8-19
  - ResultValuator.calculateSearchResultValue + normalize:
      .../ranking/ResultValuator.java:40-147
  - ResultRankingParameters.sensibleDefaults():
      /root/reference/code/api/index-api/src/main/java/nu/marginalia/index/client/model/results/ResultRankingParameters.java:39-55

Scoring convention: LOWER final score is better (normalize() inverts the
accumulated value; see ResultValuator.java:95-99 and the
SearchResultPreliminaryScore comparator, PREFER_LOW).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

import numpy as np

from marginalia_ray.model.codecs import (
    BM25_PRIO_MASK,
    PUBDATE_MAX_YEAR,
    PUBDATE_MIN_YEAR,
    U64,
    doc_meta_asl,
    doc_meta_quality,
    doc_meta_rank,
    doc_meta_topology,
    doc_meta_year,
    popcount,
    word_meta_positions,
)

AVG_LENGTH = 5000  # Bm25Factor.AVG_LENGTH
SCALING_FACTOR = 250.0  # ResultValuator.scalingFactor


@dataclass(frozen=True)
class Bm25Params:
    k: float
    b: float


@dataclass(frozen=True)
class RankingParams:
    """ResultRankingParameters.sensibleDefaults()."""

    full_params: Bm25Params = field(default_factory=lambda: Bm25Params(1.2, 0.5))
    prio_params: Bm25Params = field(default_factory=lambda: Bm25Params(1.5, 0.0))
    short_document_threshold: int = 2000
    short_document_penalty: float = 2.0
    domain_rank_bonus: float = 1 / 25.0
    quality_penalty: float = 1 / 15.0
    short_sentence_threshold: int = 2
    short_sentence_penalty: float = 5.0
    bm25_full_weight: float = 1.0
    bm25_prio_weight: float = 1.0
    tcf_weight: float = 2.0
    temporal_bias: str = "NONE"  # NONE | RECENT | OLD
    temporal_bias_weight: float = 1 / 10.0


def inv_freq(doc_count: int, freq) -> np.ndarray | float:
    """Bm25Factor.invFreq: ln(1 + (N - n + 0.5) / (n + 0.5))."""
    return np.log(1.0 + (doc_count - np.asarray(freq, dtype=np.float64) + 0.5) / (np.asarray(freq, dtype=np.float64) + 0.5))


def bm25_f(k: float, b: float, count, length) -> np.ndarray:
    """Bm25Factor.f — count and length may be arrays."""
    length_ratio = np.asarray(length, dtype=np.float64) / AVG_LENGTH
    c = np.asarray(count, dtype=np.float64)
    return (c * (k + 1)) / (c + k * (1 - b + b * length_ratio))


def bm25_full(
    params: Bm25Params,
    position_counts: np.ndarray,  # shape (n_terms, n_docs) popcount of positions
    term_freqs: np.ndarray,  # shape (n_terms,) full-index doc frequency
    length: int,
    doc_count: int,
) -> np.ndarray:
    """calculateBm25 summed over the keyword set.  length<=0 -> AVG_LENGTH."""
    if length <= 0:
        length = AVG_LENGTH
    if_ = inv_freq(doc_count, term_freqs)  # (n_terms,)
    f = bm25_f(params.k, params.b, position_counts, length)  # (n_terms, n_docs)
    return (if_[:, None] * f).sum(axis=0)


def bm25_prio(
    params: Bm25Params,
    word_metas: np.ndarray,  # (n_terms, n_docs) encoded word metadata
    prio_freqs: np.ndarray,  # (n_terms,) priority-index doc frequency
    doc_count: int,
) -> np.ndarray:
    """calculateBm25Prio: tf = popcount(meta & prio flag mask), b=0, length=0.
    The mask's UrlDomain.bit is position bit 0 of the raw meta, so a term
    on the title line counts one more (the encode quirk, kept)."""
    counts = popcount(word_metas & U64(BM25_PRIO_MASK)).astype(np.float64)
    if_ = inv_freq(doc_count, prio_freqs)
    f = bm25_f(params.k, 0.0, counts, 0)
    return (if_[:, None] * f).sum(axis=0)


def term_coherence(word_metas: np.ndarray) -> np.ndarray:
    """TermCoherenceFactor.calculate over a (n_terms, n_docs) meta matrix:
    AND of the 56-bit position masks, then (popcount/56)^0.25."""
    mask = np.full(word_metas.shape[1], (1 << 56) - 1, dtype=U64)
    for t in range(word_metas.shape[0]):
        mask &= word_meta_positions(word_metas[t])
    bits = popcount(mask).astype(np.float64)
    return np.power(bits / 56.0, 0.25)


def normalize(value: np.ndarray, set_size: int) -> np.ndarray:
    """ResultValuator.normalize: sqrt((1+250)/(1+max(value,0)/max(1,setSize)))."""
    v = np.maximum(np.asarray(value, dtype=np.float64), 0.0)
    return np.sqrt((1.0 + SCALING_FACTOR) / (1.0 + v / max(1.0, set_size)))


def overall_part(
    doc_metas: np.ndarray,  # (n_docs,) encoded document metadata
    length: int,
    params: RankingParams,
    priority_bonus: np.ndarray,  # (n_docs,) 2.0 where a priority term matched
) -> np.ndarray:
    """The per-document score component of ResultValuator (lines 52-88)."""
    asl = doc_meta_asl(doc_metas).astype(np.float64)
    quality = doc_meta_quality(doc_metas).astype(np.float64)
    rank = doc_meta_rank(doc_metas).astype(np.float64)
    topology = doc_meta_topology(doc_metas).astype(np.float64)
    year = doc_meta_year(doc_metas).astype(np.float64)

    asl_penalty = np.where(asl >= params.short_sentence_threshold, 0.0, -params.short_sentence_penalty)
    quality_penalty = -quality * params.quality_penalty
    ranking_bonus = (255.0 - rank) * params.domain_rank_bonus
    topology_bonus = np.log1p(topology)
    length_penalty = 0.0 if length > params.short_document_threshold else -params.short_document_penalty

    if params.temporal_bias == "RECENT":
        temporal = -np.abs(year - PUBDATE_MAX_YEAR) * params.temporal_bias_weight
    elif params.temporal_bias == "OLD":
        temporal = -np.abs(year - PUBDATE_MIN_YEAR) * params.temporal_bias_weight
    else:
        temporal = 0.0

    return (
        asl_penalty
        + length_penalty
        + quality_penalty
        + ranking_bonus
        + topology_bonus
        + temporal
        + priority_bonus
    )


def score_keyword_set(
    word_metas: np.ndarray,  # (n_terms, n_docs) for ONE subquery set, regular kws only
    term_freqs: np.ndarray,  # (n_terms,) full doc freq
    prio_freqs: np.ndarray,  # (n_terms,) prio doc freq
    doc_metas: np.ndarray,  # (n_docs,)
    priority_bonus: np.ndarray,  # (n_docs,)
    doc_count: int,
    length: int = 5000,
    params: RankingParams | None = None,
) -> np.ndarray:
    """One iteration of ResultValuator's per-set loop: the normalized score
    for this keyword set.  The caller takes the min over sets (bestScore)."""
    params = params or RankingParams()
    n_terms = word_metas.shape[0]
    pos_counts = popcount(word_meta_positions(word_metas)).astype(np.float64)
    bm25 = params.bm25_full_weight * bm25_full(params.full_params, pos_counts, term_freqs, length, doc_count)
    bm25p = params.bm25_prio_weight * bm25_prio(params.prio_params, word_metas, prio_freqs, doc_count)
    tcf = params.tcf_weight * term_coherence(word_metas)
    overall = overall_part(doc_metas, length, params, priority_bonus)
    return normalize(bm25 + bm25p + tcf + overall, n_terms)
