"""Bit-exact ports of Marginalia's packed 64-bit metadata words.

Reference semantics (studied, not copied):
  - WordMetadata:      /root/reference/code/common/model/src/main/java/nu/marginalia/model/idx/WordMetadata.java:9-71
  - WordFlags:         .../model/idx/WordFlags.java:6-42
  - DocumentMetadata:  .../model/idx/DocumentMetadata.java:34-112
  - PubDate year byte: /root/reference/code/common/model/src/main/java/nu/marginalia/model/crawl/PubDate.java:44-60
  - Combined doc id:   /root/reference/code/features-index/index-journal/src/main/java/nu.marginalia.index/journal/model/IndexJournalEntryHeader.java:13-19
  - Rank-encoded id:   /root/reference/code/features-index/index-reverse/src/main/java/nu/marginalia/index/full/ReverseIndexFullConverter.java:160-183

All functions are vectorization-friendly: they accept ints or numpy uint64
arrays and only use bitwise ops / shifts.  Rank parity with the reference
requires these layouts verbatim, including the quirk that WordFlags.UrlDomain
(ordinal 8 -> bit 0x100) does NOT fit the 8-bit stored flag field and is
silently dropped on encode (FLAGS_MASK = 0xFF).
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

U64 = np.uint64


class WordFlags(IntEnum):
    """WordFlags.java:6-42 — bit = 1 << ordinal."""

    Title = 0
    Subjects = 1
    TfIdfHigh = 2
    NamesWords = 3
    Synthetic = 4
    Site = 5
    SiteAdjacent = 6
    UrlPath = 7
    UrlDomain = 8  # dropped by the 8-bit flag field on encode — reference quirk

    @property
    def bit(self) -> int:
        return 1 << self.value


class DocumentFlags(IntEnum):
    """DocumentFlags.java:5-14 — doc_meta low-byte flag bits."""

    Javascript = 0
    PlainText = 1
    GeneratorDocs = 2
    GeneratorForum = 3
    GeneratorWiki = 4

    @property
    def bit(self) -> int:
        return 1 << self.value


# WordMetadata layout: positions(56 bits) << 8 | flags(8 bits)
WM_FLAGS_MASK = 0xFF
WM_POSITIONS_SHIFT = 8
WM_POSITIONS_MASK = 0x00FF_FFFF_FFFF_FFFF

# The priority-index record predicate (ReverseIndexPriorityParameters.java:14-28).
HIGH_PRIORITY_FLAGS = (
    WordFlags.Title.bit
    | WordFlags.Subjects.bit
    | WordFlags.TfIdfHigh.bit
    | WordFlags.NamesWords.bit
    | WordFlags.UrlDomain.bit
    | WordFlags.UrlPath.bit
    | WordFlags.Site.bit
    | WordFlags.SiteAdjacent.bit
)

# IndexResultValuator.flagsFilterMask (IndexResultValuator.java:52-53)
FLAGS_FILTER_MASK = (
    WordFlags.Title.bit | WordFlags.Subjects.bit | WordFlags.UrlDomain.bit | WordFlags.UrlPath.bit
)

# Bm25Factor.calculateBm25Prio mask (Bm25Factor.java:41-46)
BM25_PRIO_MASK = (
    WordFlags.Site.bit
    | WordFlags.SiteAdjacent.bit
    | WordFlags.UrlPath.bit
    | WordFlags.UrlDomain.bit
    | WordFlags.Subjects.bit
)


def encode_word_meta(positions: int, flags: int) -> int:
    """WordMetadata.encode() — flags is an int bitmask of WordFlags bits.

    Note: only the low 8 bits of flags survive (Byte.toUnsignedLong(flags));
    positions are masked to 56 bits.
    """
    return ((positions & WM_POSITIONS_MASK) << WM_POSITIONS_SHIFT) | (flags & WM_FLAGS_MASK)


def word_meta_positions(meta):
    """WordMetadata.decodePositions — works on ints and uint64 arrays."""
    if isinstance(meta, np.ndarray):
        return (meta >> U64(WM_POSITIONS_SHIFT)) & U64(WM_POSITIONS_MASK)
    return (meta >> WM_POSITIONS_SHIFT) & WM_POSITIONS_MASK


def word_meta_flags(meta):
    if isinstance(meta, np.ndarray):
        return meta & U64(WM_FLAGS_MASK)
    return meta & WM_FLAGS_MASK


# DocumentMetadata layout (DocumentMetadata.java:34-56):
#   asl(2b @56) | rank(8b @48) | encDomainSize(8b @40) | topology(8b @32)
#   | year(8b @24) | sets(4b @16) | quality(4b @8) | flags(8b @0)
DM_ASL_MASK, DM_ASL_SHIFT = 0x03, 56
DM_RANK_MASK, DM_RANK_SHIFT = 0xFF, 48
DM_SIZE_MASK, DM_SIZE_SHIFT = 0xFF, 40
DM_SIZE_MULTIPLIER = 5
DM_TOPOLOGY_MASK, DM_TOPOLOGY_SHIFT = 0xFF, 32
DM_YEAR_MASK, DM_YEAR_SHIFT = 0xFF, 24
DM_SETS_MASK, DM_SETS_SHIFT = 0xF, 16
DM_QUALITY_MASK, DM_QUALITY_SHIFT = 0xF, 8

PUBDATE_MIN_YEAR = 1995
PUBDATE_ENCODING_OFFSET = PUBDATE_MIN_YEAR + 1  # PubDate.java:49
# Reference uses LocalDate.now().getYear() + 1; pinned for determinism.
PUBDATE_MAX_YEAR = 2027


def encode_doc_meta(
    avg_sent_length: int = 0,
    rank: int = 0,
    enc_domain_size: int = 0,
    topology: int = 0,
    year: int = 0,
    sets: int = 0,
    quality: int = 0,
    flags: int = 0,
) -> int:
    """DocumentMetadata.encode() — every field clamped to [0, mask]."""

    def clamp(v, mask):
        return min(mask, max(0, v))

    ret = flags & 0xFF
    ret |= clamp(quality, DM_QUALITY_MASK) << DM_QUALITY_SHIFT
    ret |= clamp(sets, DM_SETS_MASK) << DM_SETS_SHIFT
    ret |= clamp(year, DM_YEAR_MASK) << DM_YEAR_SHIFT
    ret |= clamp(topology, DM_TOPOLOGY_MASK) << DM_TOPOLOGY_SHIFT
    ret |= clamp(enc_domain_size, DM_SIZE_MASK) << DM_SIZE_SHIFT
    ret |= clamp(rank, DM_RANK_MASK) << DM_RANK_SHIFT
    ret |= clamp(avg_sent_length, DM_ASL_MASK) << DM_ASL_SHIFT
    return ret


def _field(meta, mask, shift):
    if isinstance(meta, np.ndarray):
        return (meta >> U64(shift)) & U64(mask)
    return (meta >> shift) & mask


def doc_meta_quality(meta):
    return _field(meta, DM_QUALITY_MASK, DM_QUALITY_SHIFT)


def doc_meta_topology(meta):
    return _field(meta, DM_TOPOLOGY_MASK, DM_TOPOLOGY_SHIFT)


def doc_meta_asl(meta):
    return _field(meta, DM_ASL_MASK, DM_ASL_SHIFT)


def doc_meta_year_byte(meta):
    return _field(meta, DM_YEAR_MASK, DM_YEAR_SHIFT)


def doc_meta_year(meta):
    """DocumentMetadata.decodeYear = PubDate.fromYearByte(yearByte)."""
    yb = doc_meta_year_byte(meta)
    if isinstance(yb, np.ndarray):
        return yb.astype(np.int64) + PUBDATE_ENCODING_OFFSET
    return int(yb) + PUBDATE_ENCODING_OFFSET


def doc_meta_size(meta):
    s = _field(meta, DM_SIZE_MASK, DM_SIZE_SHIFT)
    if isinstance(s, np.ndarray):
        return s.astype(np.int64) * DM_SIZE_MULTIPLIER
    return int(s) * DM_SIZE_MULTIPLIER


def doc_meta_rank(meta):
    return _field(meta, DM_RANK_MASK, DM_RANK_SHIFT)


def doc_meta_encode_rank(meta, rank):
    """DocumentMetadata.encodeRank — OR the rank field into an encoded value."""
    if isinstance(meta, np.ndarray):
        r = np.minimum(np.maximum(rank, 0), DM_RANK_MASK).astype(U64)
        return meta | (r << U64(DM_RANK_SHIFT))
    return meta | (min(DM_RANK_MASK, max(0, rank)) << DM_RANK_SHIFT)


def year_to_byte(year: int) -> int:
    """PubDate.toYearByte."""
    return max(0, year - PUBDATE_ENCODING_OFFSET)


# ---- doc ids ------------------------------------------------------------

URL_ID_MASK = 0xFFFF_FFFF


def combine_id(domain_id: int, url_id: int) -> int:
    """IndexJournalEntryHeader combinedId = domainId<<32 | urlId."""
    return (domain_id << 32) | (url_id & URL_ID_MASK)


def url_id_of(combined):
    if isinstance(combined, np.ndarray):
        return combined & U64(URL_ID_MASK)
    return combined & URL_ID_MASK


def domain_id_of(combined):
    if isinstance(combined, np.ndarray):
        return combined >> U64(32)
    return combined >> 32


def rank_encode_id(combined, rank):
    """ReverseIndexFullConverter.IntermediateIndexConstructor.accept:
    rankEncodedId = domainRanking<<32 | urlId, so ascending sort order is
    best-rank-first.  `rank` may be a scalar or an array aligned with
    `combined`."""
    if isinstance(combined, np.ndarray):
        return (np.asarray(rank).astype(U64) << U64(32)) | (combined & U64(URL_ID_MASK))
    return (rank << 32) | (combined & URL_ID_MASK)


# DomainRankings.getRanking default (DomainRankings.java:11-43)
DEFAULT_DOMAIN_RANK = 255


def _popcount_native(arr):
    """Vectorized 64-bit popcount of a uint64 array (np.bitwise_count,
    numpy>=2)."""
    return np.bitwise_count(np.asarray(arr, dtype=U64)).astype(np.int64)


def _popcount_swar(arr):
    """The same without np.bitwise_count: SWAR popcount, 5 vector ops."""
    with np.errstate(over="ignore"):  # the *0x0101.. wrap is the point
        x = np.array(arr, dtype=U64)
        x -= (x >> U64(1)) & U64(0x5555555555555555)
        x = (x & U64(0x3333333333333333)) + ((x >> U64(2)) & U64(0x3333333333333333))
        x = (x + (x >> U64(4))) & U64(0x0F0F0F0F0F0F0F0F)
        return ((x * U64(0x0101010101010101)) >> U64(56)).astype(np.int64)


# chosen once at import: numpy < 2.0 has no np.bitwise_count
popcount = _popcount_native if hasattr(np, "bitwise_count") else _popcount_swar
